"""Heal study — what recovering from a crash costs, by strategy and
crash point.

Three ways to survive a rank crash at batch ``i`` of ``b``, compared in
the tracker's deterministic byte currency plus the repair's own meters
(recovery latency, operand bytes redistributed to the repaired
position):

* **spare** (``heal="spare"``) — a spare rank takes over the dead grid
  position; the driver re-enters from the checkpointed batch boundary.
* **shrink** (``heal="shrink"``) — the host pool shrinks and the dead
  position respawns oversubscribed on a survivor host; same re-entry.
* **full restart** (the PR 3 baseline) — the run aborts with a
  checkpoint pointer and a second invocation resumes from the last
  durable batch.

All three must produce bit-identical products; the interesting numbers
are the extra communication each pays and how it scales with the crash
point.  Restart pays the whole prefix replay machinery again (process
launch, symbolic step, re-broadcasts from batch ``i``); a repair pays
the re-entry from batch ``i`` inside the same call — and only the
repaired position's operand tiles move again.

``python benchmarks/bench_heal.py --smoke [--world processes]`` runs the
CI-sized version: one crash point, every strategy, in the chosen
execution world — under ``--world processes`` the injected crash is a
real ``SIGKILL`` of a forked worker and the latency includes launching
the world the repaired region runs on.
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


def _heal_run(a, b, ckpt_dir, crash_batch, mode, spares, world="threads"):
    tracker = CommTracker()
    result = batched_summa3d(
        a, b, nprocs=NPROCS, batches=BATCHES, tracker=tracker, timeout=30,
        checkpoint_dir=ckpt_dir,
        faults=FaultPlan([f"crash:rank=1,batch={crash_batch}"]),
        heal=mode, world_spares=spares, world=world,
    )
    heal = result.info["resilience"]["heal"]
    assert heal["heals"] == 1
    return {
        "bytes": tracker.total_bytes(),
        "extra": heal["extra_bytes_moved"],
        "latency_s": heal["events"][0]["latency_s"],
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
        "extra": resumed.total_bytes(),
        "latency_s": None,
        "matrix": result.matrix,
    }


def test_heal_vs_restart_by_crash_batch(operands, baseline):
    a, b = operands
    base_bytes, base = baseline

    rows = [["fault-free", "-", base_bytes, 0, "-"]]
    by_strategy: dict[str, list[dict]] = {}
    for crash_batch in range(1, BATCHES):
        for strategy in ("spare", "shrink", "restart"):
            ckpt_dir = tempfile.mkdtemp()
            try:
                if strategy == "restart":
                    run = _restart_run(a, b, ckpt_dir, crash_batch)
                else:
                    run = _heal_run(
                        a, b, ckpt_dir, crash_batch, strategy,
                        spares=1 if strategy == "spare" else 0,
                    )
            finally:
                shutil.rmtree(ckpt_dir, ignore_errors=True)
            # every strategy must end bit-identical to fault-free
            assert np.array_equal(run["matrix"].values, base.matrix.values)
            assert np.array_equal(run["matrix"].rowidx, base.matrix.rowidx)
            by_strategy.setdefault(strategy, []).append(run)
            latency = (
                f"{run['latency_s'] * 1e3:.2f} ms"
                if run["latency_s"] is not None else "n/a (new process)"
            )
            rows.append([
                f"{strategy} crash@{crash_batch}", BATCHES - crash_batch,
                run["bytes"], run["extra"], latency,
            ])
    print_series(
        "Crash recovery cost by strategy and crash point",
        ["run", "batches recomputed", "comm bytes", "extra bytes", "latency"],
        rows,
    )

    # restart's recovery traffic is the whole resumed run: it shrinks as
    # the crash moves later (fewer batches left to replay) — strictly
    restart_extra = [r["extra"] for r in by_strategy["restart"]]
    assert all(x > y for x, y in zip(restart_extra, restart_extra[1:]))
    for strategy in ("spare", "shrink"):
        extras = [r["extra"] for r in by_strategy[strategy]]
        # healing's recovery traffic is the repaired position's operand
        # tiles — a constant, independent of the crash point...
        assert len(set(extras)) == 1, strategy
        # ...and far below what any restart re-moves
        assert all(
            healed < restarted
            for healed, restarted in zip(extras, restart_extra)
        ), strategy
        # continuing in place stays near the fault-free volume: the
        # completed prefix is never recomputed, only re-entered batches
        totals = [r["bytes"] for r in by_strategy[strategy]]
        assert all(t < 1.25 * base_bytes for t in totals), strategy
    # a restart always pays more than one fault-free run in aggregate
    # (the crashed attempt's traffic is sunk cost)
    assert all(r["bytes"] > base_bytes for r in by_strategy["restart"])


def test_spare_vs_shrink_redistribution_is_tile_sized(operands, baseline):
    """Both heal modes move exactly the repaired position's operand
    tiles — the redistribution meter must be small next to a full run."""
    a, b = operands
    base_bytes, _ = baseline
    for mode, spares in (("spare", 1), ("shrink", 0)):
        ckpt_dir = tempfile.mkdtemp()
        try:
            run = _heal_run(a, b, ckpt_dir, 2, mode, spares)
        finally:
            shutil.rmtree(ckpt_dir, ignore_errors=True)
        assert 0 < run["extra"] < base_bytes / NPROCS


def run_smoke(world: str) -> None:
    """CI-sized sweep: one crash point, every strategy, in ``world``."""
    a = erdos_renyi(96, avg_degree=6.0, seed=23)
    base = batched_summa3d(
        a, a, nprocs=NPROCS, batches=BATCHES, timeout=30, world=world
    )
    rows = []
    for strategy in ("spare", "shrink", "restart"):
        ckpt_dir = tempfile.mkdtemp()
        try:
            if strategy == "restart":
                run = _restart_run(a, a, ckpt_dir, 2, world=world)
            else:
                run = _heal_run(
                    a, a, ckpt_dir, 2, strategy,
                    spares=1 if strategy == "spare" else 0, world=world,
                )
        finally:
            shutil.rmtree(ckpt_dir, ignore_errors=True)
        assert np.array_equal(run["matrix"].values, base.matrix.values), (
            f"{strategy} product diverged from fault-free under {world}"
        )
        latency = (
            f"{run['latency_s'] * 1e3:.2f} ms"
            if run["latency_s"] is not None else "n/a (new process)"
        )
        rows.append([f"{strategy} crash@2", run["extra"], latency])
    print_series(
        f"Crash recovery smoke (world={world})",
        ["run", "extra bytes", "latency"],
        rows,
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
        "crashes, a fresh world per repaired region)",
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
