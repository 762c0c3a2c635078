"""Elementwise operations (GraphBLAS-flavoured).

The applications built on SpGEMM need an elementwise helper around the
multiplies — a product over the intersection pattern, vectorised over the
COO expansion and returning a canonical (sorted, duplicate-free) matrix.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .coo import colmajor_keys, stable_order
from .matrix import VALUE_DTYPE, SparseMatrix


def ewise_mult(
    a: SparseMatrix, b: SparseMatrix, mul: np.ufunc = np.multiply
) -> SparseMatrix:
    """Elementwise ``mul`` over the *intersection* pattern (generalised
    Hadamard product)."""
    if a.shape != b.shape:
        raise ShapeError(f"ewise_mult shape mismatch: {a.shape} vs {b.shape}")
    if a.nnz == 0 or b.nnz == 0:
        return SparseMatrix.empty(a.nrows, a.ncols)
    oa, ka = stable_order(colmajor_keys(a.nrows, a.rowidx, a.col_indices()))
    ob, kb = stable_order(colmajor_keys(b.nrows, b.rowidx, b.col_indices()))
    common, ia, ib = np.intersect1d(ka, kb, assume_unique=True, return_indices=True)
    cols, rows = np.divmod(common, np.int64(max(a.nrows, 1)))
    vals = mul(a.values[oa][ia], b.values[ob][ib]).astype(VALUE_DTYPE, copy=False)
    return SparseMatrix.from_coo(
        a.nrows, a.ncols, rows, cols, vals, sum_duplicates=False
    )
