"""Structural operations on CSC matrices.

These are the data-layout primitives the distributed algorithms are made
of: column splitting for batches, column concatenation for reassembling
batched output (Alg. 4 line 7), tile extraction for grid distribution, transpose for the A·Aᵀ
applications, triangular extraction for triangle counting, and the pruning
operators HipMCL applies to each output batch.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import ShapeError
from .matrix import INDEX_DTYPE, VALUE_DTYPE, SparseMatrix


# --------------------------------------------------------------------- #
# transpose and triangular parts
# --------------------------------------------------------------------- #

def transpose(a: SparseMatrix) -> SparseMatrix:
    """Transpose; output is sorted within columns (CSC of Aᵀ == CSR of A)."""
    rows, cols, vals = a.rowidx, a.col_indices(), a.values
    return SparseMatrix.from_coo(a.ncols, a.nrows, cols, rows, vals, sum_duplicates=False)


def triu(a: SparseMatrix, k: int = 0) -> SparseMatrix:
    """Entries on or above the ``k``-th diagonal (``k=1`` is strict upper)."""
    return _tri_filter(a, lambda r, c: c - r >= k)


def tril(a: SparseMatrix, k: int = 0) -> SparseMatrix:
    """Entries on or below the ``k``-th diagonal (``k=-1`` is strict lower)."""
    return _tri_filter(a, lambda r, c: c - r <= k)


def _tri_filter(a: SparseMatrix, pred) -> SparseMatrix:
    cols = a.col_indices()
    keep = pred(a.rowidx, cols)
    csum = np.concatenate(([0], np.cumsum(keep, dtype=INDEX_DTYPE)))
    indptr = csum[a.indptr]
    return SparseMatrix(
        a.nrows, a.ncols, indptr, a.rowidx[keep], a.values[keep],
        sorted_within_columns=a.sorted_within_columns, validate=False,
    )


# --------------------------------------------------------------------- #
# scaling
# --------------------------------------------------------------------- #

def scale_columns(a: SparseMatrix, scales) -> SparseMatrix:
    """Multiply column ``j`` by ``scales[j]`` (e.g. MCL column normalise)."""
    scales = np.asarray(scales, dtype=VALUE_DTYPE)
    if scales.shape != (a.ncols,):
        raise ShapeError(f"scales has shape {scales.shape}, expected ({a.ncols},)")
    values = a.values * np.repeat(scales, np.diff(a.indptr))
    return SparseMatrix(
        a.nrows, a.ncols, a.indptr, a.rowidx, values,
        sorted_within_columns=a.sorted_within_columns, validate=False,
    )


def elementwise_power(a: SparseMatrix, exponent: float) -> SparseMatrix:
    """Raise each stored value to ``exponent`` (MCL inflation kernel)."""
    return SparseMatrix(
        a.nrows, a.ncols, a.indptr, a.rowidx, np.power(a.values, exponent),
        sorted_within_columns=a.sorted_within_columns, validate=False,
    )


# --------------------------------------------------------------------- #
# column slicing / splitting / concatenation
# --------------------------------------------------------------------- #

def col_slice(a: SparseMatrix, start: int, stop: int) -> SparseMatrix:
    """Columns ``[start, stop)`` as a new matrix of width ``stop - start``."""
    if not 0 <= start <= stop <= a.ncols:
        raise ShapeError(f"column range [{start}, {stop}) invalid for ncols={a.ncols}")
    lo, hi = a.indptr[start], a.indptr[stop]
    return SparseMatrix(
        a.nrows,
        stop - start,
        a.indptr[start : stop + 1] - lo,
        a.rowidx[lo:hi],
        a.values[lo:hi],
        sorted_within_columns=a.sorted_within_columns,
        validate=False,
    )


def col_select(a: SparseMatrix, cols) -> SparseMatrix:
    """Gather an arbitrary list of columns (in the given order)."""
    cols = np.asarray(cols, dtype=INDEX_DTYPE)
    if cols.shape[0] and (cols.min() < 0 or cols.max() >= a.ncols):
        raise ShapeError(f"column selection out of range [0, {a.ncols})")
    counts = np.diff(a.indptr)[cols]
    indptr = np.concatenate(([0], np.cumsum(counts, dtype=INDEX_DTYPE)))
    total = int(indptr[-1])
    # gather indices: for each selected column, its contiguous CSC span
    starts = a.indptr[cols]
    offsets = np.arange(total, dtype=INDEX_DTYPE) - np.repeat(indptr[:-1], counts)
    gather = np.repeat(starts, counts) + offsets
    return SparseMatrix(
        a.nrows, cols.shape[0], indptr, a.rowidx[gather], a.values[gather],
        sorted_within_columns=a.sorted_within_columns, validate=False,
    )


def nonempty_columns(a: SparseMatrix) -> np.ndarray:
    """Boolean mask (length ``ncols``) of columns holding any nonzero."""
    return np.diff(a.indptr) > 0


def nonempty_rows(a: SparseMatrix) -> np.ndarray:
    """Boolean mask (length ``nrows``) of rows holding any nonzero."""
    mask = np.zeros(a.nrows, dtype=bool)
    if a.nnz:
        mask[a.rowidx] = True
    return mask


def mask_columns(a: SparseMatrix, keep) -> SparseMatrix:
    """Drop every entry outside the ``keep`` columns; shape is preserved.

    ``keep`` is a boolean mask of length ``ncols``.  Unlike
    :func:`col_select` the result keeps the original width with the
    dropped columns empty — the sparsity-aware communication layer ships
    these filtered tiles so receivers can multiply them in place.
    """
    keep = np.asarray(keep, dtype=bool)
    if keep.shape[0] != a.ncols:
        raise ShapeError(
            f"column mask length {keep.shape[0]} != ncols {a.ncols}"
        )
    counts = np.diff(a.indptr) * keep
    indptr = np.concatenate(
        (np.zeros(1, dtype=INDEX_DTYPE), np.cumsum(counts, dtype=INDEX_DTYPE))
    )
    entry_keep = np.repeat(keep, np.diff(a.indptr))
    return SparseMatrix(
        a.nrows, a.ncols, indptr, a.rowidx[entry_keep], a.values[entry_keep],
        sorted_within_columns=a.sorted_within_columns, validate=False,
    )


def mask_rows(a: SparseMatrix, keep) -> SparseMatrix:
    """Drop every entry outside the ``keep`` rows; shape is preserved.

    ``keep`` is a boolean mask of length ``nrows``.
    """
    keep = np.asarray(keep, dtype=bool)
    if keep.shape[0] != a.nrows:
        raise ShapeError(f"row mask length {keep.shape[0]} != nrows {a.nrows}")
    entry_keep = keep[a.rowidx] if a.nnz else np.zeros(0, dtype=bool)
    csum = np.concatenate(
        (np.zeros(1, dtype=INDEX_DTYPE), np.cumsum(entry_keep, dtype=INDEX_DTYPE))
    )
    indptr = csum[a.indptr]
    return SparseMatrix(
        a.nrows, a.ncols, indptr, a.rowidx[entry_keep], a.values[entry_keep],
        sorted_within_columns=a.sorted_within_columns, validate=False,
    )


def col_split(a: SparseMatrix, nparts: int) -> list[SparseMatrix]:
    """Split into ``nparts`` contiguous column blocks (widths differ by <=1).

    Block ``i`` gets columns ``[bounds[i], bounds[i+1])`` where the first
    ``ncols % nparts`` blocks are one column wider — the standard balanced
    block partition.
    """
    bounds = split_bounds(a.ncols, nparts)
    return [col_slice(a, bounds[i], bounds[i + 1]) for i in range(nparts)]


@functools.lru_cache(maxsize=256)
def split_bounds(n: int, nparts: int) -> np.ndarray:
    """Boundaries of the balanced block partition of ``range(n)``: block
    ``i`` is ``[bounds[i], bounds[i + 1])``, the first ``n % nparts``
    blocks one wider.  One read-only table per ``(n, nparts)``, shared by
    every caller: a run asks for the same few partitions on every rank,
    batch and stage."""
    if nparts <= 0:
        raise ShapeError(f"nparts must be positive, got {nparts}")
    base, extra = divmod(n, nparts)
    idx = np.arange(nparts + 1, dtype=INDEX_DTYPE)
    bounds = idx * base + np.minimum(idx, extra)
    bounds.setflags(write=False)
    return bounds


def col_concat(parts) -> SparseMatrix:
    """Concatenate matrices side by side (Alg. 4 line 7, ColConcat)."""
    parts = list(parts)
    if not parts:
        raise ShapeError("cannot concatenate zero matrices")
    nrows = parts[0].nrows
    if any(p.nrows != nrows for p in parts):
        raise ShapeError("all parts must have the same number of rows")
    ncols = sum(p.ncols for p in parts)
    indptr = np.zeros(ncols + 1, dtype=INDEX_DTYPE)
    pos = 0
    offset = 0
    for p in parts:
        indptr[pos + 1 : pos + p.ncols + 1] = p.indptr[1:] + offset
        pos += p.ncols
        offset += p.nnz
    rowidx = np.concatenate([p.rowidx for p in parts]) if parts else np.empty(0)
    values = np.concatenate([p.values for p in parts]) if parts else np.empty(0)
    return SparseMatrix(
        nrows, ncols, indptr, rowidx, values,
        sorted_within_columns=all(p.sorted_within_columns for p in parts),
        validate=False,
    )


def hadamard(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Elementwise product on the intersection of the sparsity patterns.

    Used by the masked triangle-count formulation: only coordinates present
    in *both* operands survive, with values multiplied.
    """
    if a.shape != b.shape:
        raise ShapeError(f"hadamard shape mismatch: {a.shape} vs {b.shape}")
    from .ewise import ewise_mult

    return ewise_mult(a, b)


def diagonal(a: SparseMatrix) -> np.ndarray:
    """Dense vector of the main diagonal (zeros where absent)."""
    n = min(a.nrows, a.ncols)
    out = np.zeros(n, dtype=VALUE_DTYPE)
    cols = a.col_indices()
    on_diag = (a.rowidx == cols) & (a.rowidx < n)
    out[a.rowidx[on_diag]] = a.values[on_diag]
    return out


def column_sums(a: SparseMatrix) -> np.ndarray:
    """Per-column value sums (length ``ncols``)."""
    out = np.zeros(a.ncols, dtype=VALUE_DTYPE)
    if a.nnz:
        np.add.at(out, a.col_indices(), a.values)
    return out


# --------------------------------------------------------------------- #
# tile extraction (grid distribution)
# --------------------------------------------------------------------- #

def submatrix(
    a: SparseMatrix, row_start: int, row_stop: int, col_start: int, col_stop: int
) -> SparseMatrix:
    """Extract ``A[row_start:row_stop, col_start:col_stop]`` with local indices."""
    if not (0 <= row_start <= row_stop <= a.nrows):
        raise ShapeError(f"row range [{row_start}, {row_stop}) invalid for nrows={a.nrows}")
    sliced = col_slice(a, col_start, col_stop)
    keep = (sliced.rowidx >= row_start) & (sliced.rowidx < row_stop)
    csum = np.concatenate(([0], np.cumsum(keep, dtype=INDEX_DTYPE)))
    indptr = csum[sliced.indptr]
    return SparseMatrix(
        row_stop - row_start,
        col_stop - col_start,
        indptr,
        sliced.rowidx[keep] - row_start,
        sliced.values[keep],
        sorted_within_columns=sliced.sorted_within_columns,
        validate=False,
    )


# --------------------------------------------------------------------- #
# permutation (load balancing)
# --------------------------------------------------------------------- #

def permute(
    a: SparseMatrix,
    row_perm=None,
    col_perm=None,
) -> SparseMatrix:
    """Apply row/column permutations: ``B[p[i], q[j]] = A[i, j]``.

    ``row_perm[i]`` is the new index of old row ``i`` (same for columns);
    ``None`` leaves that dimension untouched.  CombBLAS/HipMCL apply a
    random symmetric permutation before distributing skewed matrices so
    that block distributions become load balanced — the technique the
    ``ablation_imbalance`` entry of ``benchmarks/bench_paper.py`` measures.
    """
    rows, cols, vals = a.to_coo()
    if row_perm is not None:
        row_perm = np.asarray(row_perm, dtype=INDEX_DTYPE)
        if row_perm.shape != (a.nrows,) or (
            np.sort(row_perm) != np.arange(a.nrows)
        ).any():
            raise ShapeError("row_perm must be a permutation of range(nrows)")
        rows = row_perm[rows]
    if col_perm is not None:
        col_perm = np.asarray(col_perm, dtype=INDEX_DTYPE)
        if col_perm.shape != (a.ncols,) or (
            np.sort(col_perm) != np.arange(a.ncols)
        ).any():
            raise ShapeError("col_perm must be a permutation of range(ncols)")
        cols = col_perm[cols]
    return SparseMatrix.from_coo(a.nrows, a.ncols, rows, cols, vals,
                                 sum_duplicates=False)


def random_symmetric_permutation(a: SparseMatrix, seed=None) -> tuple[SparseMatrix, np.ndarray]:
    """Apply one random permutation to both dimensions of a square matrix.

    Returns ``(permuted, perm)``; spectra, products and clustering are
    preserved up to relabelling, but block distributions of skewed
    matrices become balanced in expectation.
    """
    if a.nrows != a.ncols:
        raise ShapeError("symmetric permutation requires a square matrix")
    from ..utils.rng import as_rng

    rng = as_rng(seed)
    perm = rng.permutation(a.nrows).astype(INDEX_DTYPE)
    return permute(a, perm, perm), perm


# --------------------------------------------------------------------- #
# pruning (the per-batch post-processing of HipMCL)
# --------------------------------------------------------------------- #

def prune_threshold(a: SparseMatrix, threshold: float) -> SparseMatrix:
    """Drop entries with ``|value| < threshold``."""
    keep = np.abs(a.values) >= threshold
    csum = np.concatenate(([0], np.cumsum(keep, dtype=INDEX_DTYPE)))
    indptr = csum[a.indptr]
    return SparseMatrix(
        a.nrows, a.ncols, indptr, a.rowidx[keep], a.values[keep],
        sorted_within_columns=a.sorted_within_columns, validate=False,
    )


def prune_topk_per_column(a: SparseMatrix, k: int) -> SparseMatrix:
    """Keep the ``k`` largest-magnitude entries of every column.

    This is the Markov-clustering "selection" prune the paper cites as the
    reason batching suffices: each output batch is pruned immediately, so
    the full dense-ish product never has to exist at once.  Ties are broken
    toward smaller row indices for determinism.
    """
    if k < 0:
        raise ShapeError(f"k must be non-negative, got {k}")
    counts = np.diff(a.indptr)
    if a.nnz == 0 or k >= int(counts.max(initial=0)):
        return a
    keep_mask = np.zeros(a.nnz, dtype=bool)
    for j in range(a.ncols):
        lo, hi = int(a.indptr[j]), int(a.indptr[j + 1])
        width = hi - lo
        if width <= k:
            keep_mask[lo:hi] = True
            continue
        if k == 0:
            continue
        mag = np.abs(a.values[lo:hi])
        # stable selection: order by (-magnitude, row) and keep first k
        order = np.lexsort((a.rowidx[lo:hi], -mag))
        keep_mask[lo + order[:k]] = True
    csum = np.concatenate(([0], np.cumsum(keep_mask, dtype=INDEX_DTYPE)))
    indptr = csum[a.indptr]
    return SparseMatrix(
        a.nrows, a.ncols, indptr, a.rowidx[keep_mask], a.values[keep_mask],
        sorted_within_columns=a.sorted_within_columns, validate=False,
    )
