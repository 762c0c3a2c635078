"""Masked SpGEMM: compute only the output entries a mask permits.

Several of the paper's applications never need the full product — triangle
counting keeps only the entries of ``L @ U`` that coincide with edges of
``A`` (Sec. V-B).  Computing ``C = (A @ B) .* M`` *during* the multiply
(GraphBLAS ``mxm`` with a mask) discards partial products whose output
coordinate is outside the mask before they ever reach an accumulator,
shrinking the intermediate from ``flops`` entries to only those landing on
``nnz(M)`` coordinates.

The implementation rides the column-chunked ESC kernel
(:mod:`.esc`): each chunk of partial products is filtered by membership
of its ``(row, col)`` keys in the mask's keys for the same column range
(:func:`mask_hits`) *before* they are grouped, so only surviving products
are accumulated.
"""

from __future__ import annotations

import numpy as np

from ...errors import ShapeError
from ..matrix import INDEX_DTYPE, SparseMatrix
from ..semiring import PLUS_TIMES, get_semiring
from . import esc
from .esc import check_inner_dimension, compress_chunks, product_chunks


def mask_hits(mask: SparseMatrix, j0: int, j1: int, keys: np.ndarray) -> np.ndarray:
    """Which of ``keys`` — chunk-local ``(col - j0) * nrows + row`` in
    columns ``[j0, j1)`` — are stored in ``mask``, whose own keys for the
    range are an ``indptr`` slice: looked up in a bool table of the range
    where the range is dense enough, by ``searchsorted`` otherwise."""
    stride = max(mask.nrows, 1)
    space = (j1 - j0) * stride
    stored = np.repeat(
        np.arange(j1 - j0, dtype=INDEX_DTYPE) * stride,
        np.diff(mask.indptr[j0:j1 + 1]),
    )
    stored += mask.rowidx[mask.indptr[j0]:mask.indptr[j1]]
    if space <= esc._TABLE_SEEN * keys.shape[0]:
        return esc.key_table(stored, space)[keys]
    if not mask.sorted_within_columns:
        stored.sort()
    stored = np.append(stored, space)  # no key reaches it: pos stays inside
    return stored[np.searchsorted(stored, keys)] == keys


def spgemm_masked(
    a: SparseMatrix,
    b: SparseMatrix,
    mask: SparseMatrix,
    semiring=PLUS_TIMES,
    *,
    complement: bool = False,
) -> SparseMatrix:
    """``C = (A @ B) .* pattern(M)`` (or ``.* !pattern(M)`` if
    ``complement``), with the mask applied before accumulation.

    The mask's values are ignored; only its sparsity pattern filters.
    Raises :class:`~repro.errors.ShapeError` if the mask shape does not
    match the product shape.
    """
    check_inner_dimension(a, b)
    if mask.shape != (a.nrows, b.ncols):
        raise ShapeError(
            f"mask shape {mask.shape} != product shape {(a.nrows, b.ncols)}"
        )
    semiring = get_semiring(semiring)

    def surviving():
        for j0, j1, keys, vals in product_chunks(a, b, semiring):
            hits = mask_hits(mask, j0, j1, keys)
            # positions, not the bool mask: a take is several times
            # faster than a masked select when hits and misses interleave
            keep = np.flatnonzero(~hits if complement else hits)
            yield j0, j1, keys[keep], vals[keep]

    return compress_chunks(a.nrows, b.ncols, surviving(), semiring)
