"""Symbolic SpGEMM: structure-only analysis of ``A @ B``.

The distributed symbolic step (paper Alg. 3) needs, per process, the
number of nonzeros its local multiply *would* produce — without computing
values.  These kernels provide:

* :func:`symbolic_flops` — number of partial products (``flops``),
  an O(nnz(B)) vectorised count;
* :func:`symbolic_nnz` — ``nnz(A @ B)`` after merging, via a values-free
  ESC pass over the same column chunks the numeric kernel walks
  (:func:`~repro.sparse.spgemm.esc.product_chunks`): expand a chunk's
  keys, count the distinct ones.  Like the multiply it prices, the
  pass never holds more than one chunk of the ``flops`` keys;
* :func:`flops_per_column` — per-output-column ``flops_j``, the basis of
  the hybrid kernel's policy;
* :func:`symbolic_pattern` — the structure of ``A @ B`` as a matrix.
"""

from __future__ import annotations

import numpy as np

from ..coo import run_boundary
from ..matrix import INDEX_DTYPE, SparseMatrix
from . import esc
from .esc import check_inner_dimension, compress_chunks, product_chunks


def symbolic_flops(a: SparseMatrix, b: SparseMatrix) -> int:
    """Number of scalar multiplications in ``A @ B``."""
    check_inner_dimension(a, b)
    if b.nnz == 0:
        return 0
    return int(np.diff(a.indptr)[b.rowidx].sum())


def flops_per_column(a: SparseMatrix, b: SparseMatrix) -> np.ndarray:
    """``flops_j``: the sum of ``nnz(A(:, k))`` over the nonzeros ``B(k, j)``."""
    check_inner_dimension(a, b)
    return np.bincount(
        b.col_indices(), weights=np.diff(a.indptr)[b.rowidx], minlength=b.ncols
    ).astype(INDEX_DTYPE)


def symbolic_nnz(a: SparseMatrix, b: SparseMatrix) -> int:
    """``nnz(A @ B)`` (structural: no numeric cancellation assumed)."""
    stride, nnz = max(a.nrows, 1), 0
    for j0, j1, keys, _ in product_chunks(a, b, None):
        space = (j1 - j0) * stride
        if space <= esc._TABLE_SEEN * keys.shape[0]:
            marks = esc.key_table(keys, space)
        else:
            keys.sort()
            marks = run_boundary(keys)
        nnz += int(np.count_nonzero(marks))
    return nnz


def symbolic_pattern(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """The structural pattern of ``A @ B`` as a sparse matrix of ones.

    This is the symbolic pass as a *mask producer*: masked SpGEMM with
    this pattern keeps every structural nonzero, so it reproduces the
    unmasked product — and any sparser mask is a subset of it.
    """
    return compress_chunks(a.nrows, b.ncols, product_chunks(a, b, None), None)
