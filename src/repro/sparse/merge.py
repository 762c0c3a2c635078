"""k-way merge of partial results — the Merge-Layer / Merge-Fiber kernels.

Distributed SpGEMM repeatedly faces the same local problem: given several
same-shaped sparse matrices whose coordinates overlap (partial products
from different SUMMA stages, or fiber exchange pieces from different
layers), add coinciding entries.  The paper replaces the prior heap merge
with a sort-free hash merge and reports an order-of-magnitude local
speedup (Table VII); both are implemented here, plus the vectorised
grouped merge used as this reproduction's production default.  The
grouped merge walks the parts' columns in the same chunks as the ESC
multiply (:func:`repro.sparse.spgemm.esc.column_chunks`): the parts are
CSC, so a column range of every part is an ``indptr`` slice, and one
grouping (table or sort) plus one reduction per chunk merges it — no
intermediate is sized by the parts' total nonzeros.  A chunk's keys are
one ``repeat`` of the column bases over all parts; sorted parts are one
ascending run each, so two of them are merged rather than sorted.

All three produce numerically identical results; they differ in input
requirements (heap needs sorted columns) and output ordering guarantees.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..errors import FormatError, ShapeError
from .matrix import INDEX_DTYPE, VALUE_DTYPE, SparseMatrix
from .semiring import PLUS_TIMES, get_semiring
from .spgemm.accumulators import HashAccumulator
from .spgemm.esc import column_chunks, compress_chunks


def _check_parts(parts) -> tuple[int, int]:
    parts = list(parts)
    if not parts:
        raise ShapeError("cannot merge zero matrices")
    nrows, ncols = parts[0].shape
    for p in parts:
        if p.shape != (nrows, ncols):
            raise ShapeError(
                f"merge shape mismatch: {p.shape} vs {(nrows, ncols)}"
            )
    return nrows, ncols


def merge_hash(parts, semiring=PLUS_TIMES) -> SparseMatrix:
    """Sort-free hash merge (this paper, Sec. IV-D).

    Column ``j`` of the output is accumulated from column ``j`` of every
    part in a hash table; inputs may be unsorted and the output columns are
    emitted in insertion order (unsorted).
    """
    parts = list(parts)
    nrows, ncols = _check_parts(parts)
    semiring = get_semiring(semiring)
    acc = HashAccumulator(semiring)
    out_rows: list[np.ndarray] = []
    out_vals: list[np.ndarray] = []
    counts = np.zeros(ncols, dtype=INDEX_DTYPE)
    for j in range(ncols):
        for p in parts:
            lo, hi = int(p.indptr[j]), int(p.indptr[j + 1])
            if lo != hi:
                acc.scatter(p.rowidx[lo:hi], p.values[lo:hi])
        rows, vals = acc.gather()
        counts[j] = rows.shape[0]
        if rows.shape[0]:
            out_rows.append(rows)
            out_vals.append(vals)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    rowidx = np.concatenate(out_rows) if out_rows else np.empty(0, dtype=INDEX_DTYPE)
    values = np.concatenate(out_vals) if out_vals else np.empty(0, dtype=VALUE_DTYPE)
    return SparseMatrix(
        nrows, ncols, indptr, rowidx, values,
        sorted_within_columns=False, validate=False,
    )


def merge_heap(parts, semiring=PLUS_TIMES) -> SparseMatrix:
    """Sorted heap merge (prior work [13]).

    Requires every part sorted within columns; performs a k-way merge per
    column with a binary heap, paying O(log k) per entry — the cost the
    hash merge avoids.  Output is sorted.
    """
    parts = list(parts)
    nrows, ncols = _check_parts(parts)
    for p in parts:
        if not p.sorted_within_columns:
            raise FormatError("heap merge requires sorted inputs")
    semiring = get_semiring(semiring)
    add = semiring.add
    out_rows: list[int] = []
    out_vals: list[float] = []
    counts = np.zeros(ncols, dtype=INDEX_DTYPE)
    for j in range(ncols):
        heap: list[tuple[int, int, int]] = []
        bounds: list[int] = []
        for src, p in enumerate(parts):
            lo, hi = int(p.indptr[j]), int(p.indptr[j + 1])
            bounds.append(hi)
            if lo != hi:
                heap.append((int(p.rowidx[lo]), src, lo))
        heapq.heapify(heap)
        before = len(out_rows)
        cur_row, cur_val = -1, 0.0
        while heap:
            row, src, cursor = heapq.heappop(heap)
            val = float(parts[src].values[cursor])
            if row == cur_row:
                cur_val = float(add(cur_val, val))
            else:
                if cur_row >= 0:
                    out_rows.append(cur_row)
                    out_vals.append(cur_val)
                cur_row, cur_val = row, val
            cursor += 1
            if cursor < bounds[src]:
                heapq.heappush(
                    heap, (int(parts[src].rowidx[cursor]), src, cursor)
                )
        if cur_row >= 0:
            out_rows.append(cur_row)
            out_vals.append(cur_val)
        counts[j] = len(out_rows) - before
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return SparseMatrix(
        nrows,
        ncols,
        indptr,
        np.array(out_rows, dtype=INDEX_DTYPE),
        np.array(out_vals, dtype=VALUE_DTYPE),
        sorted_within_columns=True,
        validate=False,
    )


def merge_grouped(parts, semiring=PLUS_TIMES) -> SparseMatrix:
    """Vectorised merge: per column chunk, concatenate the parts' entries,
    group them by key, reduce each group left to right (so coinciding
    entries are added in part order).  Accepts unsorted inputs; emits
    sorted output.  The production default of this reproduction."""
    parts = list(parts)
    nrows, ncols = _check_parts(parts)
    semiring = get_semiring(semiring)
    stride = np.int64(max(nrows, 1))
    runs = len(parts) if all(p.sorted_within_columns for p in parts) else 0

    def chunks():
        for j0, j1 in column_chunks(sum(p.indptr for p in parts)):
            bases = np.arange(j1 - j0, dtype=INDEX_DTYPE) * stride
            keys = np.repeat(np.concatenate([bases] * len(parts)), np.concatenate(
                [p.indptr[j0 + 1:j1 + 1] - p.indptr[j0:j1] for p in parts]))
            keys += np.concatenate(
                [p.rowidx[p.indptr[j0]:p.indptr[j1]] for p in parts])
            yield j0, j1, keys, np.concatenate(
                [p.values[p.indptr[j0]:p.indptr[j1]] for p in parts])

    return compress_chunks(nrows, ncols, chunks(), semiring, runs)


_MERGE_METHODS = {
    "hash": merge_hash,
    "heap": merge_heap,
    "grouped": merge_grouped,
}


def merge_partials(parts, method="grouped", semiring=PLUS_TIMES) -> SparseMatrix:
    """Merge with a named method; single-part input is passed through."""
    parts = list(parts)
    if len(parts) == 1:
        return parts[0]
    try:
        fn = _MERGE_METHODS[method] if isinstance(method, str) else method
    except KeyError:
        raise ValueError(
            f"unknown merge method {method!r}; available: {sorted(_MERGE_METHODS)}"
        ) from None
    return fn(parts, semiring)
