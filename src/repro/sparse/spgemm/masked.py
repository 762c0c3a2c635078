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
of its ``(row, col)`` keys in the mask's sorted keys for the same column
range — an ``indptr`` slice, since the mask is CSC — with one
``searchsorted``, *before* the sort, so only surviving products are
sorted and reduced.
"""

from __future__ import annotations

import numpy as np

from ...errors import ShapeError
from ..coo import colmajor_keys
from ..matrix import SparseMatrix
from ..semiring import PLUS_TIMES, get_semiring
from .esc import check_inner_dimension, compress_chunks, product_chunks


def _mask_keys(mask: SparseMatrix) -> np.ndarray:
    """Sorted flat coordinate keys of the mask's pattern.  Sorting keeps
    every column's entries in that column's ``indptr`` span."""
    keys = colmajor_keys(mask.nrows, mask.rowidx, mask.col_indices())
    keys.sort()
    return keys


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
    mkeys = _mask_keys(mask)
    nrows = np.int64(max(a.nrows, 1))

    def surviving():
        for j0, j1, keys, vals in product_chunks(a, b, semiring):
            local = mkeys[mask.indptr[j0]:mask.indptr[j1]] - j0 * nrows
            if local.shape[0]:
                pos = np.searchsorted(local, keys)
                np.minimum(pos, local.shape[0] - 1, out=pos)
                keep = local[pos] == keys
            else:
                keep = np.zeros(keys.shape[0], dtype=bool)
            if complement:
                np.logical_not(keep, out=keep)
            yield j0, j1, keys[keep], vals[keep]

    return compress_chunks(a.nrows, b.ncols, surviving(), semiring)
