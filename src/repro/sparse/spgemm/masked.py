"""Masked SpGEMM: compute only the output entries a mask permits.

Several of the paper's applications never need the full product — triangle
counting keeps only the entries of ``L @ U`` that coincide with edges of
``A`` (Sec. V-B).  Computing ``C = (A @ B) .* M`` *during* the multiply
(GraphBLAS ``mxm`` with a mask) discards partial products whose output
coordinate is outside the mask before they ever reach an accumulator,
shrinking the intermediate from ``flops`` entries to only those landing on
``nnz(M)`` coordinates.

The implementation extends the vectorised ESC kernel: partial products
are expanded as usual, filtered by membership of their ``(row, col)`` key
in the mask's (sorted) key set with one ``searchsorted``, then compressed.
"""

from __future__ import annotations

import numpy as np

from ...errors import ShapeError
from ..coo import colmajor_keys
from ..matrix import SparseMatrix
from ..semiring import PLUS_TIMES, get_semiring
from .esc import compress_products, expand_products


def _mask_keys(mask: SparseMatrix) -> np.ndarray:
    """Sorted flat coordinate keys of the mask's pattern."""
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
    if a.ncols != b.nrows:
        raise ShapeError(
            f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}"
        )
    if mask.shape != (a.nrows, b.ncols):
        raise ShapeError(
            f"mask shape {mask.shape} != product shape {(a.nrows, b.ncols)}"
        )
    semiring = get_semiring(semiring)
    rows, cols, vals = expand_products(a, b, semiring)
    if rows.shape[0]:
        keys = colmajor_keys(a.nrows, rows, cols)
        mkeys = _mask_keys(mask)
        pos = np.searchsorted(mkeys, keys)
        pos = np.minimum(pos, max(mkeys.shape[0] - 1, 0))
        inside = (
            mkeys[pos] == keys if mkeys.shape[0] else np.zeros(keys.shape[0], bool)
        )
        keep = ~inside if complement else inside
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return compress_products(a.nrows, b.ncols, rows, cols, vals, semiring)
