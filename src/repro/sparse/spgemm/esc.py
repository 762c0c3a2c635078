"""Vectorised ESC (Expand / Sort / Compress) SpGEMM.

For ``C = A @ B`` every nonzero ``B(k, j)`` expands into ``nnz(A(:, k))``
partial products.  The expansion is materialised as flat COO arrays with
pure NumPy gather arithmetic, then compressed by one key sort plus a
segmented reduction (:func:`repro.sparse.coo.dedup_coo`).  Cost: O(flops)
to expand, O(flops log flops) to sort — all at C speed, which in CPython
beats any per-element accumulator loop by orders of magnitude.  This is
the reproduction's production default kernel (see the package docstring
for how it relates to the paper's hash/heap/hybrid kernels).
"""

from __future__ import annotations

import numpy as np

from ...errors import ShapeError
from ..coo import dedup_coo, indptr_from_cols
from ..matrix import INDEX_DTYPE, VALUE_DTYPE, SparseMatrix
from ..semiring import PLUS_TIMES, Semiring, get_semiring


def expansion(a: SparseMatrix, b: SparseMatrix) -> tuple[np.ndarray, np.ndarray]:
    """``(gather, lens)``: the index into A's storage of every partial
    product of ``A @ B``, and how many each B nonzero expands into
    (``lens.sum() == flops``).  Built without Python loops: B nonzero ``t``
    takes the contiguous span ``A.indptr[k[t]] .. + lens[t]``."""
    if a.ncols != b.nrows:
        raise ShapeError(
            f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}"
        )
    k = b.rowidx                       # inner index of each B nonzero
    lens = np.diff(a.indptr)[k]        # expansion length per B nonzero
    total = int(lens.sum())            # == flops
    offsets = np.arange(total, dtype=INDEX_DTYPE) - np.repeat(np.cumsum(lens) - lens, lens)
    return np.repeat(a.indptr[k], lens) + offsets, lens


def expand_products(
    a: SparseMatrix, b: SparseMatrix, semiring: Semiring = PLUS_TIMES
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialise all partial products of ``A @ B`` as COO triples.

    Returns ``(rows, cols, vals)`` of length exactly ``flops``; duplicates
    are *not* merged.  This is also the building block of the distributed
    Local-Multiply, whose unmerged result size is what the paper's memory
    analysis (Eq. 1) bounds.
    """
    gather, lens = expansion(a, b)
    rows = a.rowidx[gather]
    vals = semiring.mul(a.values[gather], np.repeat(b.values, lens)).astype(
        VALUE_DTYPE, copy=False
    )
    cols = np.repeat(b.col_indices(), lens)
    return rows, cols, vals


def compress_products(
    nrows: int,
    ncols: int,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    semiring: Semiring = PLUS_TIMES,
) -> SparseMatrix:
    """Merge COO partial products into a sorted CSC matrix."""
    rows, cols, vals = dedup_coo(nrows, rows, cols, vals, semiring)
    return SparseMatrix(
        nrows, ncols, indptr_from_cols(cols, ncols), rows, vals,
        sorted_within_columns=True, validate=False,
    )


def spgemm_esc(
    a: SparseMatrix, b: SparseMatrix, semiring=PLUS_TIMES
) -> SparseMatrix:
    """``C = A @ B`` via expand/sort/compress.  Accepts unsorted inputs;
    emits sorted columns."""
    semiring = get_semiring(semiring)
    rows, cols, vals = expand_products(a, b, semiring)
    return compress_products(a.nrows, b.ncols, rows, cols, vals, semiring)
