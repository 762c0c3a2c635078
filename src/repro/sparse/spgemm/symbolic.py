"""Symbolic SpGEMM: structure-only analysis of ``A @ B``.

The distributed symbolic step (paper Alg. 3) needs, per process, the
number of nonzeros its local multiply *would* produce — without computing
values.  These kernels provide:

* :func:`symbolic_flops` — number of partial products (``flops``),
  an O(nnz(B)) vectorised count;
* :func:`symbolic_nnz` — ``nnz(A @ B)``: per B column, the size of the
  union of the row sets of the A columns it touches (Azad et al.).  The
  *bitset* tier ORs those columns' ``uint64`` row words and popcounts
  them (``words x (nnz(B) + ncols(A))`` work, no product key); the *ESC*
  tier sorts each column chunk's product keys (``flops`` work).  The
  tier is read off the operands: bitsets up to 2 words per product (the
  crossover is at 2-3; ``_BITSET_WORDS``).  Both are chunk-sized;
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

#: Bitset tier iff ``words * (nnz(B) + ncols(A)) <= c * flops``; a constant,
#: not an option.  Bitset / sort time at that ratio: R-MAT 0.1-0.6: 0.09-0.16;
#: protein 0.8: 0.19; Erdos-Renyi 1: 0.31, 2: 0.6-0.7, 2.7: 0.95, 4: 1.3-1.5,
#: 8-11: 2.4-4.5, 28-40: 9-11; k-mer A Aᵀ 92-194: 12-15.  Blocks of words are
#: ``_CHUNK_PRODUCTS``: 2**16 / 2**18 protein 34 / 30 ms, 2**12 3x slower.
_BITSET_WORDS = 2

#: set bits of every byte value, for NumPy without ``bitwise_count`` (< 2.0)
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def symbolic_flops(a: SparseMatrix, b: SparseMatrix) -> int:
    """Number of scalar multiplications in ``A @ B``."""
    check_inner_dimension(a, b)
    return int(np.diff(a.indptr)[b.rowidx].sum())


def flops_per_column(a: SparseMatrix, b: SparseMatrix) -> np.ndarray:
    """``flops_j``: the sum of ``nnz(A(:, k))`` over the nonzeros ``B(k, j)``."""
    check_inner_dimension(a, b)
    return np.bincount(
        b.col_indices(), weights=np.diff(a.indptr)[b.rowidx], minlength=b.ncols
    ).astype(INDEX_DTYPE)


def symbolic_nnz(a: SparseMatrix, b: SparseMatrix) -> int:
    """``nnz(A @ B)`` (structural: no numeric cancellation assumed)."""
    flops = symbolic_flops(a, b)
    if flops == 0:
        return 0
    rank, words = _row_rank(a)
    if words * (b.nnz + a.ncols) <= _BITSET_WORDS * flops:
        return _bitset_count(a, b, rank, words)
    return _sort_count(a, b)


def _row_rank(a: SparseMatrix) -> tuple[np.ndarray, int]:
    """A's nonempty rows before each row, and the words that hold them all."""
    rank = np.zeros(a.nrows + 1, dtype=INDEX_DTYPE)
    rank[a.rowidx + 1] = 1
    np.cumsum(rank, out=rank)
    return rank, -(-int(rank[-1]) // 64)


def _sort_count(a: SparseMatrix, b: SparseMatrix) -> int:
    """The ESC count: distinct keys of each chunk's sorted products."""
    nnz = 0
    for _, _, keys, _ in product_chunks(a, b, None):
        keys.sort()
        nnz += int(np.count_nonzero(run_boundary(keys)))
    return nnz


def _bitset_count(a: SparseMatrix, b: SparseMatrix, rank: np.ndarray, words: int) -> int:
    """Per B column, the popcount of the OR of the row bitsets of the A
    columns it touches, a block of row words at a time."""
    block = max(1, esc._CHUNK_PRODUCTS // max(a.ncols, 1))
    rows, cols = rank[a.rowidx], a.col_indices()
    nnz = 0
    for w0 in range(0, words, block):
        width = min(block, words - w0)
        part = (slice(None) if width == words
                else (rows >= 64 * w0) & (rows < 64 * (w0 + width)))
        table = _column_bitsets(a.ncols, rows[part] - 64 * w0, cols[part], width)
        for j0, j1 in esc.column_chunks(b.indptr * width):
            t0, t1 = b.indptr[j0], b.indptr[j1]
            first, last = b.indptr[j0:j1], b.indptr[j0 + 1:j1 + 1]
            starts = first[first < last] - t0
            if starts.shape[0]:
                gathered = np.take(table, b.rowidx[t0:t1], axis=0)
                nnz += _popcount(np.bitwise_or.reduceat(gathered, starts, axis=0))
    return nnz


def _column_bitsets(ncols: int, rows: np.ndarray, cols: np.ndarray, width: int):
    """``(ncols, width)`` words, bit ``r % 64`` of word ``r // 64`` of row ``c``
    set per entry ``(r, c)``: a column's rows are distinct, so add is or."""
    table = np.zeros(ncols * width, dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), (rows & 63).astype(np.uint64))
    np.add.at(table, cols * width + (rows >> 6), bits)
    return table.reshape(ncols, width)


def _popcount(words: np.ndarray) -> int:
    """Set bits in an array of ``uint64`` words."""
    count = getattr(np, "bitwise_count", None)
    return int((count(words) if count else _POPCOUNT8[words.view(np.uint8)]).sum())


def symbolic_pattern(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """The structural pattern of ``A @ B`` as a sparse matrix of ones.

    This is the symbolic pass as a *mask producer*: masked SpGEMM with
    this pattern keeps every structural nonzero, so it reproduces the
    unmasked product — and any sparser mask is a subset of it.
    """
    return compress_chunks(a.nrows, b.ncols, product_chunks(a, b, None), None)
