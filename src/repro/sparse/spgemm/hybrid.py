"""Hybrid SpGEMM — the Nagasaka et al. [25] baseline the paper compares to.

Per output column, choose the accumulator by the column's expected work:
columns with little work (few partial products) use the heap merge, whose
low constant wins at small sizes; heavy columns use the hash accumulator.
Either way the column is **sorted after formation** — the paper's hash
kernel drops exactly this final sort.
"""

from __future__ import annotations

import numpy as np

from ...errors import FormatError, ShapeError
from ..matrix import INDEX_DTYPE, VALUE_DTYPE, SparseMatrix
from ..semiring import PLUS_TIMES, get_semiring
from .accumulators import HashAccumulator
from .heap import spgemm_heap
from .symbolic import flops_per_column

#: Columns whose flops are below this use the heap path (low-constant
#: regime); above it the O(1)-per-product hash path wins.  The exact value
#: only shifts the crossover, mirroring the cf-based rule of [25].
HYBRID_FLOPS_THRESHOLD = 32


def spgemm_hybrid(
    a: SparseMatrix,
    b: SparseMatrix,
    semiring=PLUS_TIMES,
    *,
    flops_threshold: int = HYBRID_FLOPS_THRESHOLD,
) -> SparseMatrix:
    """``C = A @ B`` with per-column heap-or-hash choice, sorted output."""
    if a.ncols != b.nrows:
        raise ShapeError(
            f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}"
        )
    if not a.sorted_within_columns:
        raise FormatError("hybrid SpGEMM requires A sorted within columns")
    semiring = get_semiring(semiring)
    mul = semiring.mul
    flops_per_col = flops_per_column(a, b)

    acc = HashAccumulator(semiring)
    out_rows: list[np.ndarray] = []
    out_vals: list[np.ndarray] = []
    counts = np.zeros(b.ncols, dtype=INDEX_DTYPE)
    for j in range(b.ncols):
        blo, bhi = int(b.indptr[j]), int(b.indptr[j + 1])
        if blo == bhi or flops_per_col[j] == 0:
            continue
        if flops_per_col[j] < flops_threshold:
            # heap path on the single column slice
            from ..ops import col_slice

            col = spgemm_heap(a, col_slice(b, j, j + 1), semiring)
            rows, vals = col.rowidx, col.values  # already sorted
        else:
            for t in range(blo, bhi):
                k = int(b.rowidx[t])
                lo, hi = int(a.indptr[k]), int(a.indptr[k + 1])
                if lo == hi:
                    continue
                acc.scatter(
                    a.rowidx[lo:hi],
                    mul(a.values[lo:hi], b.values[t]).astype(VALUE_DTYPE, copy=False),
                )
            rows, vals = acc.gather()
            order = np.argsort(rows, kind="stable")  # the hybrid's final sort
            rows, vals = rows[order], vals[order]
        counts[j] = rows.shape[0]
        if rows.shape[0]:
            out_rows.append(rows)
            out_vals.append(vals)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    rowidx = np.concatenate(out_rows) if out_rows else np.empty(0, dtype=INDEX_DTYPE)
    values = np.concatenate(out_vals) if out_vals else np.empty(0, dtype=VALUE_DTYPE)
    return SparseMatrix(
        a.nrows, b.ncols, indptr, rowidx, values,
        sorted_within_columns=True, validate=False,
    )
