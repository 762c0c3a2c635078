"""Guardrails of the process world: real crash faults carried with a
uniform error context, a watchdog that names the stuck *process*, a
supervisor that returns when the last rank does, and no shared-memory
litter under either exit path.
"""

import os
import signal
import time

import pytest

from repro.errors import HangError, RankCrashError, SpmdError
from repro.mp.shm import SHM_DIR
from repro.simmpi import run_spmd
from repro.simmpi.faults import FaultPlan
from repro.sparse import random_sparse
from repro.summa import batched_summa3d


def _noop(comm):
    return comm.rank


def _shm_names():
    return set(os.listdir(SHM_DIR)) if os.path.isdir(SHM_DIR) else set()


def _bcast_body(comm):
    x = comm.bcast([1, 2, 3] if comm.rank == 0 else None, root=0)
    comm.barrier()
    return x


class TestProcessFaults:
    """The former thread-world-only gates are lifted: fault injection
    runs under ``world="processes"`` with real OS-level crashes."""

    def test_injected_crash_kills_the_worker_for_real(self):
        parent_pid = os.getpid()
        with pytest.raises(SpmdError) as info:
            run_spmd(4, _bcast_body, world="processes", timeout=15.0,
                     faults=FaultPlan.parse("crash:rank=1,op=bcast,nth=1"))
        err = info.value.failures[1]
        assert isinstance(err, RankCrashError)
        # uniform err.context: the death really was a SIGKILL of a child
        ctx = err.context
        assert ctx["rank"] == 1
        assert ctx["pid"] != parent_pid
        assert ctx["exitcode"] == -signal.SIGKILL
        assert ctx["signal"] == "SIGKILL"
        assert "bcast" in ctx["last_op"]
        assert ctx["epoch"] == 0
        assert "SIGKILL" in str(err)

    def test_transient_faults_retry_identically_to_threads(self):
        a = random_sparse(30, 30, nnz=120, seed=1)
        plan = ["transient:rank=1,op=bcast,nth=1",
                "corrupt:rank=2,op=bcast,nth=1"]
        ref = batched_summa3d(a, a, nprocs=4, faults=FaultPlan(plan),
                              max_retries=3)
        res = batched_summa3d(a, a, nprocs=4, faults=FaultPlan(plan),
                              max_retries=3, world="processes", timeout=20.0)
        assert (res.matrix.values == ref.matrix.values).all()
        ref_fs, fs = ref.info["fault_stats"], res.info["fault_stats"]
        assert fs["fired"] == ref_fs["fired"] == 2
        assert fs["injected"] == ref_fs["injected"]
        assert fs["retries"] == ref_fs["retries"]

    def test_heal_accepted_under_processes(self, tmp_path):
        a = random_sparse(30, 30, nnz=120, seed=1)
        ref = batched_summa3d(a, a, nprocs=4, batches=2)
        res = batched_summa3d(
            a, a, nprocs=4, batches=2, checkpoint_dir=tmp_path / "ck",
            faults=FaultPlan(["crash:rank=1,batch=1"]),
            heal="spare", world_spares=1, timeout=25.0, world="processes",
        )
        assert (res.matrix.values == ref.matrix.values).all()
        assert res.info["resilience"]["heal"]["heals"] == 1

    def test_unknown_world_rejected(self):
        with pytest.raises(ValueError, match="threads.*processes"):
            run_spmd(2, _noop, world="ranks")


class TestAbortLatency:
    def test_a_crashed_region_is_noticed_at_once(self):
        """When the parent classifies a death it sets the abort event
        and *wakes* the survivors blocked on their inboxes; left to
        their pump tick (0.2 s at any timeout >= 10 s) the same region
        took 250 ms to surface, against 55 ms for a clean run."""
        a = random_sparse(36, 36, nnz=400, seed=71)
        walls = []
        for _ in range(5):
            t0 = time.perf_counter()
            with pytest.raises(SpmdError) as info:
                batched_summa3d(
                    a, a, nprocs=4, batches=2, timeout=30,
                    world="processes", transport="shm",
                    faults=FaultPlan.parse("crash:rank=1,op=bcast,nth=2"),
                )
            walls.append(time.perf_counter() - t0)
            assert isinstance(info.value.failures[1], RankCrashError)
        assert sorted(walls)[2] < 0.150, walls


def _staggered(comm):
    time.sleep(0.03 * comm.rank)
    return comm.rank, os.getpid()


class TestSupervisorLatency:
    """The supervisor sleeps on the results pipe *and* the workers' exit
    sentinels, so a region costs its fork and its work — not a poll tick
    (50 ms) after the last rank has reported."""

    def test_empty_region_returns_within_a_tick(self):
        run_spmd(4, _noop, world="processes")  # resource tracker, imports
        walls = []
        for _ in range(5):
            t0 = time.perf_counter()
            assert run_spmd(4, _noop, world="processes") == [0, 1, 2, 3]
            walls.append(time.perf_counter() - t0)
        # fork + start + flush + exit of four workers is ~15-20 ms; a
        # supervisor that polls adds its whole tick and cannot get here
        assert min(walls) < 0.040, walls

    @pytest.mark.parametrize("nprocs,bound", [(4, 0.005), (8, 0.010)])
    def test_region_on_a_started_world_costs_a_round_trip(self, nprocs, bound):
        """Second-and-later regions find their workers parked: no fork,
        no teardown, one message each way per rank."""
        from repro.simmpi.engine import open_world

        world = open_world(nprocs, _noop, world="processes")
        try:
            assert world.submit() == list(range(nprocs))  # the first one
            walls = []
            for _ in range(5):
                t0 = time.perf_counter()
                assert world.submit() == list(range(nprocs))
                walls.append(time.perf_counter() - t0)
        finally:
            world.stop()
        assert min(walls) < bound, walls

    def test_ranks_finishing_at_different_times_all_report(self):
        walls = []
        for _ in range(3):
            t0 = time.perf_counter()
            out = run_spmd(4, _staggered, world="processes")
            walls.append(time.perf_counter() - t0)
            assert [rank for rank, _ in out] == [0, 1, 2, 3]
            assert len({pid for _, pid in out} | {os.getpid()}) == 5
        # the slowest rank sleeps 90 ms: the region ends with it, not a
        # poll tick later
        assert 0.09 <= min(walls) < 0.09 + 0.050, walls


class TestWatchdog:
    def test_hang_dump_names_the_stuck_process_pid(self):
        """A receiver whose sender already exited is classified by the
        parent watchdog as ``peer-exited`` — well before the flat
        timeout — with a per-rank dump carrying the worker's real pid."""

        def prog(comm):
            if comm.rank == 0:
                return comm.recv(source=1, tag=3)
            return None  # rank 1 exits without sending

        parent_pid = os.getpid()
        with pytest.raises(SpmdError) as info:
            run_spmd(2, prog, world="processes", timeout=8.0)
        hangs = {r: e for r, e in info.value.failures.items()
                 if isinstance(e, HangError)}
        assert hangs, f"no HangError among {info.value.failures!r}"
        err = next(iter(hangs.values()))
        assert err.kind == "peer-exited"
        state = err.dump[0]
        assert state["op"] == "recv"
        assert state["tag"] == 3
        assert state["pending"] == [1]
        assert state["blocked_s"] >= 0
        # the pid is a real child process, named in dump and message
        assert state["pid"] != parent_pid
        assert str(state["pid"]) in str(err)

    def test_cross_process_deadlock_classified(self):
        """A genuine cyclic wait between two worker *processes* is
        classified as a deadlock with the cycle named."""

        def prog(comm):
            if comm.rank == 0:
                return comm.recv(source=1, tag=7)
            return comm.recv(source=0, tag=8)

        with pytest.raises(SpmdError) as info:
            run_spmd(2, prog, world="processes", timeout=10.0)
        hangs = [e for e in info.value.failures.values()
                 if isinstance(e, HangError)]
        assert hangs, f"no HangError among {info.value.failures!r}"
        err = hangs[0]
        assert err.kind == "deadlock"
        assert set(err.cycle) == {0, 1}
        assert "deadlock" in str(err)

    def test_hang_leaves_no_segments_behind(self):
        def prog(comm):
            import numpy as np
            payload = np.arange(200_000, dtype=np.float64)
            if comm.rank == 0:
                comm.send(payload, dest=1, tag=0)
                return comm.recv(source=1, tag=9)  # never sent
            comm.recv(source=0, tag=0)
            return None

        before = _shm_names()
        with pytest.raises(SpmdError):
            run_spmd(2, prog, world="processes", timeout=2.0,
                     transport="shm")
        assert _shm_names() <= before


class TestShmCleanliness:
    def test_normal_exit_leaves_dev_shm_clean(self):
        import numpy as np

        def prog(comm):
            data = comm.bcast(np.arange(100_000, dtype=np.float64), root=0)
            return float(data.sum())

        before = _shm_names()
        out = run_spmd(4, prog, world="processes", transport="shm")
        assert len(set(out)) == 1
        assert _shm_names() <= before

    def test_raising_worker_leaves_dev_shm_clean(self):
        import numpy as np

        def prog(comm):
            comm.bcast(np.arange(100_000, dtype=np.float64), root=0)
            if comm.rank == 2:
                raise RuntimeError("boom in worker")
            comm.barrier()
            return comm.rank

        before = _shm_names()
        with pytest.raises(SpmdError) as info:
            run_spmd(4, prog, world="processes", transport="shm")
        assert isinstance(info.value.failures[2], RuntimeError)
        assert "boom in worker" in str(info.value.failures[2])
        assert _shm_names() <= before

    def test_driver_run_leaves_dev_shm_clean(self):
        a = random_sparse(200, 200, nnz=15_000, seed=9)
        before = _shm_names()
        result = batched_summa3d(a, a, nprocs=4, batches=2,
                                 world="processes", transport="shm")
        assert result.info["world"]["shm_segments"] > 0
        assert _shm_names() <= before
