"""Mid-run replanning vs fixed configurations on adversarial inputs.

The planner's static choice of ``b`` is only as good as its priors; a
skewed workload punishes a large ``b`` by paying the per-batch *fixed*
cost (the full-A re-broadcast of column batching) ``b`` times while the
per-batch scaled work shrinks towards nothing.  Mid-run replanning
(``replan="auto"``) measures exactly that at the first batch boundary
and shrinks ``b``, restarting through the re-batch path.

Two adversarial inputs:

* **SpMM, narrow panel** — A carries 12k nonzeros, the dense feature
  panel is 64 columns wide; at ``b=32`` each batch moves 2 panel columns
  but re-broadcasts all of A.  The fixed sweep's makespan climbs ~4x
  from ``b=1`` to ``b=32``; the replanned run cascades ``32 -> 16 -> 8``
  (the backend-flip lever is structurally off for SpMM, so the
  trajectory is deterministic).  This sweep carries the makespan
  assertions: the replanned run is never worse than the *worst* fixed
  configuration (with wall-clock slack), and the distance to the *best*
  is reported as the restart's price.

* **SpGEMM, nnz(A) = 20x nnz(B)** — the same fixed-cost skew in the
  sparse-output kernel; asserts the shrink fires and the product is
  bit-identical to the fixed-plan run of the final configuration
  (replanning never changes the product).

Runs two ways:

* ``pytest benchmarks/bench_autotune.py`` — the normal harness; or
* ``python benchmarks/bench_autotune.py --smoke`` — the CI plan step,
  no pytest fixtures, exit code 1 on any violated assertion.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np

from repro.sparse import random_sparse
from repro.summa import batched_summa3d

#: every fixed batch count the replanned run is raced against
FIXED_SWEEP = (1, 2, 4, 8, 16, 32)

#: the adversarial run starts at the worst end of the sweep
ADVERSARIAL_START = 32

#: wall-clock slack on the never-worse-than-worst assertion (timings on
#: the simulated-MPI grid are real wall seconds, hence noisy)
SLACK = 1.2

#: median-of-N wall clock per configuration
REPEATS = 3


def _print_series(title, header, rows):
    try:
        from _helpers import print_series
    except ImportError:  # running as a script from anywhere
        import os

        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from _helpers import print_series
    print_series(title, header, rows)


def spmm_operands(seed=5):
    """Broadcast-bound SpMM: a 12k-nonzero A against a 64-column panel —
    at large ``b`` the full-A re-broadcast dwarfs each batch's work."""
    a = random_sparse(192, 192, nnz=12000, seed=seed)
    panel = np.ascontiguousarray(
        np.random.default_rng(seed + 2).standard_normal((192, 64))
    )
    return a, panel


def spgemm_operands(seed=5):
    """The same skew for SpGEMM: A carries 20x B's nonzeros."""
    a = random_sparse(192, 192, nnz=12000, seed=seed)
    b = random_sparse(192, 192, nnz=600, seed=seed + 1)
    return a, b


def _identical(x, y) -> bool:
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y)
    return (
        x.shape == y.shape
        and np.array_equal(x.indptr, y.indptr)
        and np.array_equal(x.rowidx, y.rowidx)
        and np.array_equal(x.values, y.values)
    )


def _timed(run):
    """(median wall seconds over REPEATS, last result)."""
    walls, result = [], None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = run()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls), result


def run_sweep(*, nprocs=4, seed=5):
    """Race replan="auto" (starting at the adversarial ``b``) against
    every fixed SpMM configuration; returns (rows, summary)."""
    a, panel = spmm_operands(seed)
    fixed = {}
    rows = []
    for bb in FIXED_SWEEP:
        wall, result = _timed(
            lambda bb=bb: batched_summa3d(
                a, panel, nprocs, batches=bb, kernel="spmm",
            )
        )
        fixed[bb] = (wall, result)
        rows.append([f"fixed b={bb}", f"{wall * 1e3:.2f}", 0, "-"])

    wall_r, replanned = _timed(
        lambda: batched_summa3d(
            a, panel, nprocs, batches=ADVERSARIAL_START, kernel="spmm",
            replan="auto", max_replans=2,
        )
    )
    plan = replanned.info["plan"]
    events = (replanned.info.get("resilience") or {}).get("replans", [])
    trajectory = " -> ".join(
        [str(ADVERSARIAL_START)] + [str(e["to"]["batches"]) for e in events]
    )
    rows.append(
        ["replan=auto", f"{wall_r * 1e3:.2f}", plan["revision"], trajectory]
    )

    walls = {bb: w for bb, (w, _) in fixed.items()}
    best_b = min(walls, key=walls.get)
    worst_b = max(walls, key=walls.get)
    summary = {
        "wall_replanned": wall_r,
        "plan": plan,
        "events": events,
        "fixed_walls": walls,
        "best": best_b,
        "worst": worst_b,
        "replanned_result": replanned,
        "fixed_results": {bb: r for bb, (_, r) in fixed.items()},
    }
    return rows, summary


def check(summary) -> list[str]:
    """The recovery property as a list of failures (empty = pass)."""
    failures = []
    plan = summary["plan"]
    events = summary["events"]
    if not events or plan["revision"] < 1:
        failures.append(
            "mid-run replanning did not fire on the adversarial input"
        )
        return failures
    final_b = plan["batches"]
    if final_b >= ADVERSARIAL_START:
        failures.append(
            f"expected a shrink from b={ADVERSARIAL_START}, got b={final_b}"
        )
    ref = summary["fixed_results"].get(final_b)
    if ref is None:
        failures.append(
            f"final configuration b={final_b} not in the fixed sweep"
        )
    elif not _identical(summary["replanned_result"].matrix, ref.matrix):
        failures.append(
            "replanned product differs from the fixed-plan run of the "
            f"final configuration (b={final_b}) — replanning changed "
            "the product"
        )
    worst_wall = summary["fixed_walls"][summary["worst"]]
    if summary["wall_replanned"] > worst_wall * SLACK:
        failures.append(
            f"replanned makespan {summary['wall_replanned'] * 1e3:.2f}ms "
            f"worse than the worst fixed configuration "
            f"{worst_wall * 1e3:.2f}ms (slack {SLACK}x)"
        )
    return failures


def check_spgemm_fires(*, nprocs=4, seed=5) -> list[str]:
    """The SpGEMM skew: the shrink must fire and the product must be
    bit-identical to the fixed-plan run of the final configuration."""
    a, b = spgemm_operands(seed)
    replanned = batched_summa3d(a, b, nprocs, batches=8, replan="auto")
    plan = replanned.info["plan"]
    events = (replanned.info.get("resilience") or {}).get("replans", [])
    if not events or plan["revision"] < 1:
        return ["SpGEMM skew did not trigger a mid-run replan"]
    fixed = batched_summa3d(
        a, b, nprocs, batches=plan["batches"],
        comm_backend=plan["backend"],
    )
    if not _identical(replanned.matrix, fixed.matrix):
        return [
            "SpGEMM replanned product differs from the fixed-plan run "
            f"of b={plan['batches']}, backend={plan['backend']}"
        ]
    print(
        f"spgemm skew: replan fired at batch {events[0]['at_batch']} "
        f"[{events[0]['reason']}], product bit-identical to fixed "
        f"b={plan['batches']}"
    )
    return []


def report(rows, summary):
    _print_series(
        "replan=auto vs fixed b: SpMM, broadcast-bound narrow panel",
        ["config", "wall ms", "revisions", "b trajectory"],
        rows,
    )
    best_wall = summary["fixed_walls"][summary["best"]]
    gap = summary["wall_replanned"] / best_wall if best_wall > 0 else 1.0
    for event in summary["events"]:
        print(
            f"replan fired at batch {event['at_batch']} "
            f"[{event['reason']}]: b {event['from']['batches']} -> "
            f"{event['to']['batches']}"
        )
    print(
        f"distance to best fixed config (b={summary['best']}): "
        f"{gap:.2f}x (the restart's price)"
    )


# ---------------------------------------------------------------------- #
# pytest harness
# ---------------------------------------------------------------------- #

def test_replan_recovers_from_adversarial_plan():
    rows, summary = run_sweep()
    report(rows, summary)
    failures = check(summary)
    assert not failures, "; ".join(failures)


def test_replan_fires_on_spgemm_skew():
    failures = check_spgemm_fires()
    assert not failures, "; ".join(failures)


# ---------------------------------------------------------------------- #
# CLI smoke (CI plan step)
# ---------------------------------------------------------------------- #

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the sweep once and exit 1 on any violated assertion",
    )
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("run under pytest, or pass --smoke")
    rows, summary = run_sweep(seed=args.seed)
    report(rows, summary)
    failures = check(summary)
    failures += check_spgemm_fires(seed=args.seed)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("replan recovery property holds")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
