"""Table VII — local computation improvements from sort-free kernels.

The paper replaces the prior heap-based Local-Multiply/merge with
unsorted-hash kernels and reports large merge speedups (an order of
magnitude on Merge-Layer/Merge-Fiber) while Local-Multiply is comparable
or moderately faster.  This bench times the actual kernels on the same
partial results a SUMMA run produces, "Previous" (sorted-heap [13]) vs
"Now" (unsorted-hash, this paper), at several layer counts — and, on the
same partials, the run path's own rows (the vectorised ESC multiply and
grouped merge, on each grouping tier) with SciPy's ``A @ B`` as the
outside reference.
"""

import time
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from _helpers import print_series
from repro.data import load_dataset
from repro.sparse import (
    merge_grouped,
    merge_hash,
    merge_heap,
    spgemm_esc,
    spgemm_hash,
    spgemm_heap,
)
from repro.sparse.ops import col_split
from repro.sparse.spgemm import esc


@pytest.fixture(scope="module")
def workload():
    a, _ = load_dataset("eukarya").operands(seed=0)
    return a


def _time(fn, *args):
    """Best-of-3 wall time (the minimum is the least noisy estimator)."""
    best = float("inf")
    out = None
    for _ in range(3):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def _stage_partials(a, stages, kernel):
    """Partial products of a SUMMA2D-like stage structure: split the inner
    dimension into `stages` blocks and multiply each pair."""
    blocks = col_split(a, stages)
    from repro.sparse.ops import submatrix, split_bounds

    bounds = split_bounds(a.nrows, stages)
    partials = []
    for s in range(stages):
        a_part = blocks[s]                       # A(:, block s)
        b_part = submatrix(a, int(bounds[s]), int(bounds[s + 1]), 0, a.ncols)
        partials.append(kernel(a_part, b_part))
    return partials


def test_table7_multiply_and_merge(workload, benchmark):
    rows = []
    speedups = {}
    for stages in (2, 4):
        # --- Local-Multiply: heap (previous) vs hash (now) --------------
        t_heap_mul, partial_heap = _time(
            lambda: _stage_partials(workload, stages, spgemm_heap)
        )
        t_hash_mul, partial_hash = _time(
            lambda: _stage_partials(workload, stages, spgemm_hash)
        )
        # --- Merge: heap-merge on sorted vs hash-merge on unsorted ------
        t_heap_merge, merged_heap = _time(merge_heap, partial_heap)
        t_hash_merge, merged_hash = _time(merge_hash, partial_hash)
        assert merged_heap.allclose(merged_hash)
        rows.append([
            stages, t_heap_mul, t_hash_mul, t_heap_merge, t_hash_merge,
            round(t_heap_merge / t_hash_merge, 2),
        ])
        speedups[stages] = t_heap_merge / t_hash_merge
    print_series(
        "Table VII: previous (heap) vs now (hash) local kernels, seconds",
        ["k-way", "mul prev", "mul now", "merge prev", "merge now",
         "merge speedup"],
        rows,
    )
    # the headline claim: the sort-free hash merge beats the heap merge at
    # every k (the paper reports ~10x on Cori; the CPython constant
    # differs but the ordering must hold)
    assert all(s > 1.0 for s in speedups.values())
    benchmark(lambda: merge_hash(_stage_partials(workload, 2, spgemm_hash)))


def test_table7_merge_speedup_grows_with_pieces(workload, benchmark):
    """More layers -> more pieces to merge -> bigger hash-vs-heap gap."""
    partials = _stage_partials(workload, 8, spgemm_hash)
    sorted_partials = [p.sort_indices() for p in partials]
    t_heap, _ = _time(merge_heap, sorted_partials)
    t_hash, _ = _time(merge_hash, partials)
    print_series(
        "8-way merge",
        ["kernel", "seconds"],
        [["heap (prev)", t_heap], ["hash (now)", t_hash]],
    )
    assert t_hash < t_heap
    benchmark(lambda: merge_hash(partials))


def _on_tier(tier):
    """Every ESC chunk on one grouping tier (the kernels' private density
    thresholds, set as the tests' ``--accumulate-tier`` sets them)."""
    cells = 1 << 62 if tier == "table" else -1
    return mock.patch.multiple(esc, _TABLE_SUM=cells, _TABLE_SEEN=cells)


def test_table7_run_path_rows(workload, benchmark):
    """The run path on the loop tiers' partials: ESC multiply and grouped
    merge on the sort tier and on the table tier.  Only the paper's
    ordering is asserted — the production merge beats the prior heap merge
    — and that both tiers give the same bits; SciPy is printed, not
    compared."""
    csc = sp.csc_matrix(
        (workload.values, workload.rowidx, workload.indptr), shape=workload.shape)
    t_scipy, _ = _time(lambda: csc @ csc)
    rows = [["scipy A @ A", "-", t_scipy, "-"]]
    for stages in (2, 4):
        t_heap, _ = _time(merge_heap, _stage_partials(workload, stages, spgemm_heap))
        rows.append(["heap (prev)", stages, "-", t_heap])
        merged = {}
        for tier in ("sort", "table"):
            with _on_tier(tier):
                t_mul, partials = _time(
                    lambda: _stage_partials(workload, stages, spgemm_esc))
                t_merge, merged[tier] = _time(merge_grouped, partials)
            rows.append([f"esc {tier}", stages, t_mul, t_merge])
            assert t_merge < t_heap
        assert np.array_equal(merged["sort"].values, merged["table"].values)
    print_series(
        "Table VII: the run path beside the loop tiers, seconds",
        ["kernel", "k-way", "multiply", "merge"],
        rows,
    )
    benchmark(lambda: merge_grouped(_stage_partials(workload, 2, spgemm_esc)))
