"""Elementwise and reduction operations (GraphBLAS-flavoured).

The applications built on SpGEMM constantly need small elementwise
helpers around the multiplies — scaled sums of matrices, filtering by a
predicate, row/column reductions with a semiring's add.  Collecting them
here keeps the app code at the level of its mathematics.

All operations are vectorised over the COO expansion and return canonical
(sorted, duplicate-free) matrices.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ShapeError
from .coo import colmajor_keys, stable_order
from .matrix import INDEX_DTYPE, VALUE_DTYPE, SparseMatrix
from .merge import merge_grouped
from .semiring import PLUS_TIMES, Semiring, get_semiring


def ewise_add(
    a: SparseMatrix,
    b: SparseMatrix,
    *,
    alpha: float = 1.0,
    beta: float = 1.0,
    semiring=PLUS_TIMES,
) -> SparseMatrix:
    """``alpha * A (+) beta * B`` over the union pattern.

    The combination uses the semiring's add (ordinary ``+`` by default;
    ``MIN_PLUS`` gives elementwise min over the union — the relaxation
    step of shortest-path iterations).
    """
    if a.shape != b.shape:
        raise ShapeError(f"ewise_add shape mismatch: {a.shape} vs {b.shape}")
    semiring = get_semiring(semiring)
    scaled_a = a if alpha == 1.0 else SparseMatrix(
        a.nrows, a.ncols, a.indptr, a.rowidx, a.values * alpha,
        sorted_within_columns=a.sorted_within_columns, validate=False,
    )
    scaled_b = b if beta == 1.0 else SparseMatrix(
        b.nrows, b.ncols, b.indptr, b.rowidx, b.values * beta,
        sorted_within_columns=b.sorted_within_columns, validate=False,
    )
    return merge_grouped([scaled_a, scaled_b], semiring=semiring)


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


def apply(a: SparseMatrix, fn: Callable[[np.ndarray], np.ndarray]) -> SparseMatrix:
    """Apply a vectorised unary function to every stored value.

    Entries mapped to exactly 0.0 are dropped (canonical form), matching
    GraphBLAS ``apply`` followed by ``select(nonzero)``.
    """
    values = np.asarray(fn(a.values), dtype=VALUE_DTYPE)
    if values.shape != a.values.shape:
        raise ShapeError("apply function must preserve the value count")
    out = SparseMatrix(
        a.nrows, a.ncols, a.indptr, a.rowidx, values,
        sorted_within_columns=a.sorted_within_columns, validate=False,
    )
    return out.canonical()


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


def reduce_columns(
    a: SparseMatrix, semiring: Semiring | str = PLUS_TIMES
) -> np.ndarray:
    """Reduce each column with the semiring's add; identity where empty."""
    semiring = get_semiring(semiring)
    out = np.full(a.ncols, semiring.add_identity, dtype=VALUE_DTYPE)
    if a.nnz == 0:
        return out
    if semiring.add is np.add:
        np.add.at(out, a.col_indices(), a.values)
        # columns with no entries stay at the identity (0.0 for plus)
        return out
    # segmented reduce over the (sorted) CSC layout
    sorted_a = a.sort_indices()
    for j in range(a.ncols):
        lo, hi = int(sorted_a.indptr[j]), int(sorted_a.indptr[j + 1])
        if lo != hi:
            out[j] = semiring.add.reduce(sorted_a.values[lo:hi])
    return out


def reduce_rows(
    a: SparseMatrix, semiring: Semiring | str = PLUS_TIMES
) -> np.ndarray:
    """Reduce each row with the semiring's add; identity where empty."""
    from .ops import transpose

    return reduce_columns(transpose(a), semiring)
