"""Ablations of the design choices DESIGN.md calls out.

* **Batch scheme** — the paper chooses block-cyclic batching (Fig. 1(i))
  "so each batch touches every layer evenly"; the contiguous block split
  is measured as the imbalance counterfactual.
* **Merge policy** — the paper merges once after all stages (Alg. 1
  line 8) because incremental merging "is computationally more expensive
  in the worst case" [34]; the memory/time tradeoff is measured.
* **Row vs column batching** — Sec. IV-B notes column batching is
  expensive when ``nnz(A) >> nnz(B)``; the transposed (row) batching
  fixes it, measured on a skewed operand pair.
"""

import time

import numpy as np
import pytest

from _helpers import print_series
from repro.data import load_dataset
from repro.simmpi import CommTracker
from repro.sparse import SparseMatrix, random_sparse
from repro.summa import batched_summa3d, batched_summa3d_rows


def test_ablation_batch_scheme_fiber_balance(benchmark):
    # column-skewed B: mass concentrated in the low columns
    rng = np.random.default_rng(111)
    n = 64
    rows = rng.integers(0, n, 900)
    cols = (rng.random(900) ** 3 * n).astype(np.int64)  # heavy head
    b = SparseMatrix.from_coo(n, n, rows, cols, np.ones(900))
    a = random_sparse(n, n, nnz=700, seed=112)

    stats = {}
    for scheme in ("block-cyclic", "block"):
        r = batched_summa3d(
            a, b, nprocs=4, layers=4, batches=4, batch_scheme=scheme
        )
        per_batch = np.array(r.info["fiber_piece_nnz"], dtype=float)
        totals = per_batch.sum(axis=0)
        stats[scheme] = totals.max() / max(totals.mean(), 1.0)
    print_series(
        "Merge-Fiber load imbalance (max/mean over batches)",
        ["scheme", "imbalance"],
        [[s, round(v, 3)] for s, v in stats.items()],
    )
    # the paper's rationale for Fig. 1(i): cyclic batching balances fibers
    assert stats["block-cyclic"] <= stats["block"]
    benchmark(lambda: batched_summa3d(
        a, b, nprocs=4, layers=4, batches=4, batch_scheme="block-cyclic"
    ))


def test_ablation_merge_policy_tradeoff(benchmark):
    a, _ = load_dataset("eukarya").operands(seed=0)
    results = {}
    for policy in ("deferred", "incremental"):
        t0 = time.perf_counter()
        r = batched_summa3d(
            a, a, nprocs=16, batches=1, merge_policy=policy,
            keep_output=False,
        )
        wall = time.perf_counter() - t0
        results[policy] = (r.max_local_bytes, r.step_times.get("Merge-Layer"), wall)
    print_series(
        "merge policy: transient memory vs merge time (Eukarya^2, p=16)",
        ["policy", "high water (B)", "Merge-Layer (s)", "wall (s)"],
        [[p, hw, round(mt, 4), round(w, 3)] for p, (hw, mt, w) in results.items()],
    )
    # the tradeoff the paper describes: incremental merging holds less...
    assert results["incremental"][0] <= results["deferred"][0]
    benchmark(lambda: batched_summa3d(
        a, a, nprocs=4, batches=1, merge_policy="incremental",
        keep_output=False,
    ))


def test_ablation_row_vs_column_batching(benchmark):
    """Sec. IV-B: with nnz(A) >> nnz(B), column batching re-broadcasts the
    heavy operand b times; row batching re-broadcasts the light one."""
    a = random_sparse(48, 48, nnz=1200, seed=113)  # heavy
    b = random_sparse(48, 48, nnz=120, seed=114)   # light
    volumes = {}
    for label, fn in (("column", batched_summa3d), ("row", batched_summa3d_rows)):
        tracker = CommTracker()
        r = fn(a, b, nprocs=4, batches=4, tracker=tracker)
        volumes[label] = tracker.total_bytes()
        reference = volumes.setdefault("_matrix", r.matrix)
        assert r.matrix.allclose(reference)
    print_series(
        "batch axis with nnz(A) = 10 x nnz(B), b=4",
        ["axis", "total transmitted bytes"],
        [["column", volumes["column"]], ["row", volumes["row"]]],
    )
    assert volumes["row"] < volumes["column"]
    benchmark(lambda: batched_summa3d_rows(a, b, nprocs=4, batches=2))


def test_ablation_kernel_suites_all_agree_and_rank(benchmark):
    """All five kernel suites on one distributed multiply: identical
    results; the vectorised ESC suite is the fastest in CPython (why it
    is the default), and hash beats heap (the paper's claim)."""
    a, _ = load_dataset("eukarya").operands(seed=0)
    times = {}
    reference = None
    for suite in ("esc", "unsorted-hash", "sorted-heap", "hybrid", "spa"):
        kernel = f"spgemm:{suite}"  # the tier, through the kernel seam
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            r = batched_summa3d(a, a, nprocs=4, layers=1, batches=1, kernel=kernel)
            best = min(best, time.perf_counter() - t0)
        times[suite] = best
        if reference is None:
            reference = r.matrix
        else:
            assert r.matrix.allclose(reference), suite
    print_series(
        "kernel suites on Eukarya^2 (p=4, wall seconds, best of 2)",
        ["suite", "seconds"],
        [[s, round(t, 4)] for s, t in sorted(times.items(), key=lambda kv: kv[1])],
    )
    assert times["esc"] == min(times.values())
    assert times["unsorted-hash"] < times["sorted-heap"]
    benchmark(lambda: batched_summa3d(a, a, nprocs=4, batches=1))
