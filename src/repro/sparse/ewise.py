"""Elementwise operations (GraphBLAS-flavoured).

The applications built on SpGEMM need two elementwise helpers around the
multiplies — a product over the intersection pattern and filtering by a
predicate.

Both operations are vectorised over the COO expansion and return canonical
(sorted, duplicate-free) matrices.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ShapeError
from .coo import colmajor_keys, stable_order
from .matrix import INDEX_DTYPE, VALUE_DTYPE, SparseMatrix


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


def select(
    a: SparseMatrix,
    predicate: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> SparseMatrix:
    """Keep entries where ``predicate(rows, cols, values)`` is True.

    >>> select(m, lambda r, c, v: v > 0.5)        # value filter
    >>> select(m, lambda r, c, v: r != c)         # drop the diagonal
    """
    rows = a.rowidx
    cols = a.col_indices()
    keep = np.asarray(predicate(rows, cols, a.values), dtype=bool)
    if keep.shape != (a.nnz,):
        raise ShapeError("predicate must return one boolean per entry")
    csum = np.concatenate(([0], np.cumsum(keep, dtype=INDEX_DTYPE)))
    indptr = csum[a.indptr]
    return SparseMatrix(
        a.nrows, a.ncols, indptr, rows[keep], a.values[keep],
        sorted_within_columns=a.sorted_within_columns, validate=False,
    )
