"""Symbolic SpGEMM: structure-only analysis of ``A @ B``.

The distributed symbolic step (paper Alg. 3) needs, per process, the
number of nonzeros its local multiply *would* produce — without computing
values.  These kernels provide:

* :func:`symbolic_flops` — number of partial products (``flops``),
  an O(nnz(B)) vectorised count;
* :func:`symbolic_nnz` — ``nnz(A @ B)`` after merging, via a values-free
  ESC pass (expand the keys, sort them, count the runs);
* :func:`symbolic_per_column` — per-output-column ``(nnz, flops)``, the
  basis of compression-factor statistics and the hybrid kernel's policy.
"""

from __future__ import annotations

import numpy as np

from ...errors import ShapeError
from ..coo import colmajor_keys, indptr_from_cols, run_starts
from ..matrix import INDEX_DTYPE, SparseMatrix
from .esc import expansion


def _check(a: SparseMatrix, b: SparseMatrix) -> None:
    if a.ncols != b.nrows:
        raise ShapeError(
            f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}"
        )


def symbolic_flops(a: SparseMatrix, b: SparseMatrix) -> int:
    """Number of scalar multiplications in ``A @ B``."""
    _check(a, b)
    if b.nnz == 0:
        return 0
    return int(np.diff(a.indptr)[b.rowidx].sum())


def flops_per_column(a: SparseMatrix, b: SparseMatrix) -> np.ndarray:
    """``flops_j``: the sum of ``nnz(A(:, k))`` over the nonzeros ``B(k, j)``."""
    _check(a, b)
    return np.bincount(
        b.col_indices(), weights=np.diff(a.indptr)[b.rowidx], minlength=b.ncols
    ).astype(INDEX_DTYPE)


def _expanded_keys(a: SparseMatrix, b: SparseMatrix) -> np.ndarray:
    """(col, row) keys of all partial products, unmerged."""
    gather, lens = expansion(a, b)
    return colmajor_keys(
        a.nrows, a.rowidx[gather], np.repeat(b.col_indices(), lens)
    )


def _pattern_keys(a: SparseMatrix, b: SparseMatrix) -> np.ndarray:
    """Distinct (col, row) keys of ``A @ B``, ascending: one sort of the
    expanded keys, then the first of every run."""
    keys = _expanded_keys(a, b)
    keys.sort()
    return keys[run_starts(keys)]


def symbolic_nnz(a: SparseMatrix, b: SparseMatrix) -> int:
    """``nnz(A @ B)`` (structural: no numeric cancellation assumed)."""
    return int(_pattern_keys(a, b).shape[0])


def symbolic_per_column(
    a: SparseMatrix, b: SparseMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Per-output-column ``(nnz_j, flops_j)`` arrays of length ``b.ncols``."""
    flops_per_col = flops_per_column(a, b)
    out_cols = _pattern_keys(a, b) // np.int64(max(a.nrows, 1))
    nnz_per_col = np.bincount(out_cols, minlength=b.ncols).astype(INDEX_DTYPE)
    return nnz_per_col, flops_per_col


def symbolic_pattern(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """The structural pattern of ``A @ B`` as a sparse matrix of ones.

    This is the symbolic pass as a *mask producer*: masked SpGEMM with
    this pattern keeps every structural nonzero, so it reproduces the
    unmasked product — and any sparser mask is a subset of it.
    """
    keys = _pattern_keys(a, b)
    n = np.int64(max(a.nrows, 1))
    cols = keys // n
    return SparseMatrix(
        a.nrows, b.ncols, indptr_from_cols(cols, b.ncols), keys - cols * n,
        np.ones(keys.shape[0]), sorted_within_columns=True, validate=False,
    )


def compression_factor(a: SparseMatrix, b: SparseMatrix) -> float:
    """cf = flops / nnz(C) (paper Sec. II-A); >= 1 whenever C is nonempty."""
    nnz_c = symbolic_nnz(a, b)
    if nnz_c == 0:
        return 1.0
    return symbolic_flops(a, b) / nnz_c
