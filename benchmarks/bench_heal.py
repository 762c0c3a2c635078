"""Heal study — what recovering from a crash costs, by crash point.

Two ways to survive a rank crash at batch ``i`` of ``b``, compared in
the tracker's deterministic byte currency and in batches re-entered:

* **heal** (``heal=True``) — the driver re-enters the same grid from the
  last checkpointed batch inside the same call.
* **full restart** — the run aborts with a checkpoint pointer and a
  second invocation resumes from the last durable batch.

Both must produce bit-identical products, and both re-enter at the
first batch the crash left incomplete.  Both pay the aborted attempt
plus the re-entered batches, so their tracker totals stay near one
fault-free run and near each other (the aborted attempt's length is
timing-dependent).  What a heal saves is the second invocation: the
caller never sees the ``SpmdError`` and never calls ``resume=True``.

``python benchmarks/bench_heal.py --smoke [--world processes]`` runs the
CI-sized version: one crash point, both strategies, in the chosen
execution world — under ``--world processes`` the injected crash is a
real ``SIGKILL`` of a forked worker and the latency includes launching
the world the re-entered region runs on.
"""

import argparse
import shutil
import sys
import tempfile

import numpy as np
import pytest

from _helpers import print_series
from repro.data.generators import erdos_renyi
from repro.errors import SpmdError
from repro.simmpi import CommTracker, FaultPlan
from repro.summa import batched_summa3d

NPROCS, BATCHES = 4, 4


@pytest.fixture(scope="module")
def operands():
    a = erdos_renyi(96, avg_degree=6.0, seed=23)
    return a, a


@pytest.fixture(scope="module")
def baseline(operands):
    a, b = operands
    tracker = CommTracker()
    result = batched_summa3d(
        a, b, nprocs=NPROCS, batches=BATCHES, tracker=tracker, timeout=30
    )
    return tracker.total_bytes(), result


def _heal_run(a, b, ckpt_dir, crash_batch, world="threads"):
    tracker = CommTracker()
    result = batched_summa3d(
        a, b, nprocs=NPROCS, batches=BATCHES, tracker=tracker, timeout=30,
        checkpoint_dir=ckpt_dir,
        faults=FaultPlan([f"crash:rank=1,batch={crash_batch}"]),
        heal=True, world=world,
    )
    heal = result.info["resilience"]["heal"]
    assert heal["heals"] == 1
    (event,) = heal["events"]
    return {
        "bytes": tracker.total_bytes(),
        "reentered": BATCHES - event["restart_batch"],
        "latency_s": event["latency_s"],
        "matrix": result.matrix,
    }


def _restart_run(a, b, ckpt_dir, crash_batch, world="threads"):
    crashed = CommTracker()
    with pytest.raises(SpmdError):
        batched_summa3d(
            a, b, nprocs=NPROCS, batches=BATCHES, tracker=crashed, timeout=30,
            checkpoint_dir=ckpt_dir,
            faults=FaultPlan([f"crash:rank=1,batch={crash_batch}"]),
            world=world,
        )
    resumed = CommTracker()
    result = batched_summa3d(
        a, b, nprocs=NPROCS, tracker=resumed, timeout=30,
        checkpoint_dir=ckpt_dir, resume=True, world=world,
    )
    return {
        "bytes": crashed.total_bytes() + resumed.total_bytes(),
        "resumed": resumed.total_bytes(),
        "reentered": BATCHES - result.info["resilience"]["resumed_from_batch"],
        "latency_s": None,
        "matrix": result.matrix,
    }


def _recover(a, b, strategy, crash_batch, world="threads"):
    ckpt_dir = tempfile.mkdtemp()
    try:
        run = _restart_run if strategy == "restart" else _heal_run
        return run(a, b, ckpt_dir, crash_batch, world=world)
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)


def _row(strategy, crash_batch, run, base_bytes):
    latency = (
        f"{run['latency_s'] * 1e3:.2f} ms"
        if run["latency_s"] is not None else "n/a (new process)"
    )
    return [
        f"{strategy} crash@{crash_batch}", run["reentered"], run["bytes"],
        run["bytes"] - base_bytes, latency,
    ]


HEADER = ["run", "batches re-entered", "comm bytes", "over fault-free",
          "latency"]


def test_heal_vs_restart_by_crash_batch(operands, baseline):
    a, b = operands
    base_bytes, base = baseline

    rows = [["fault-free", "-", base_bytes, 0, "-"]]
    by_strategy: dict[str, list[dict]] = {}
    for crash_batch in range(1, BATCHES):
        for strategy in ("heal", "restart"):
            run = _recover(a, b, strategy, crash_batch)
            # every strategy must end bit-identical to fault-free
            assert np.array_equal(run["matrix"].values, base.matrix.values)
            assert np.array_equal(run["matrix"].rowidx, base.matrix.rowidx)
            # both re-enter at the first batch the crash left incomplete
            assert run["reentered"] == BATCHES - crash_batch, strategy
            by_strategy.setdefault(strategy, []).append(run)
            rows.append(_row(strategy, crash_batch, run, base_bytes))
    print_series(
        "Crash recovery cost by strategy and crash point (tracker bytes)",
        HEADER, rows,
    )

    # restart's recovery traffic is the whole resumed run: it shrinks as
    # the crash moves later (fewer batches left to replay) — strictly
    resumed = [r["resumed"] for r in by_strategy["restart"]]
    assert all(x > y for x, y in zip(resumed, resumed[1:]))
    # healing in the same call stays near the fault-free volume: the
    # completed prefix is never recomputed, only re-entered batches
    totals = [r["bytes"] for r in by_strategy["heal"]]
    assert all(t < 1.25 * base_bytes for t in totals)
    # a restart always pays more than one fault-free run in aggregate
    # (the crashed attempt's traffic is sunk cost)
    assert all(r["bytes"] > base_bytes for r in by_strategy["restart"])


def run_smoke(world: str) -> None:
    """CI-sized sweep: one crash point, both strategies, in ``world``."""
    a = erdos_renyi(96, avg_degree=6.0, seed=23)
    tracker = CommTracker()
    base = batched_summa3d(
        a, a, nprocs=NPROCS, batches=BATCHES, timeout=30, world=world,
        tracker=tracker,
    )
    base_bytes = tracker.total_bytes()
    rows = [["fault-free", "-", base_bytes, 0, "-"]]
    for strategy in ("heal", "restart"):
        run = _recover(a, a, strategy, 2, world=world)
        assert np.array_equal(run["matrix"].values, base.matrix.values), (
            f"{strategy} product diverged from fault-free under {world}"
        )
        rows.append(_row(strategy, 2, run, base_bytes))
    print_series(
        f"Crash recovery smoke (world={world}, tracker bytes)", HEADER, rows,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized sweep; exit nonzero on any divergence",
    )
    parser.add_argument(
        "--world", default="threads", choices=["threads", "processes"],
        help="execution world for the sweep (processes: real SIGKILL "
        "crashes, a fresh world per re-entered region)",
    )
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("this bench runs under pytest or with --smoke")
    try:
        run_smoke(args.world)
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print(f"heal smoke OK (world={args.world})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
