"""Guardrails of the process world: real crash faults carried with a
uniform error context, a watchdog that names the stuck *process*, a
supervisor that returns when the last rank does, and no shared-memory
litter under either exit path.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.errors import HangError, RankCrashError, SpmdError
from repro.simmpi import run_spmd
from repro.simmpi.faults import FaultPlan
from repro.sparse import random_sparse
from repro.summa import batched_summa3d
from tests.conftest import shm_names


def _noop(comm):
    return comm.rank


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
        ref = batched_summa3d(a, a, nprocs=4, faults=FaultPlan(plan))
        res = batched_summa3d(a, a, nprocs=4, faults=FaultPlan(plan),
                              world="processes", timeout=20.0)
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
            heal=True, timeout=25.0, world="processes",
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
        run_spmd(4, _noop, world="processes")  # imports, first fork
        walls = []
        for _ in range(5):
            t0 = time.perf_counter()
            assert run_spmd(4, _noop, world="processes") == [0, 1, 2, 3]
            walls.append(time.perf_counter() - t0)
        # fork + start + flush + exit of four workers: this min of 5 read
        # 10.0-18.4 ms with the test run alone (6 runs) and 24.1-37.0 ms
        # inside the full tier-1 suite (3 runs), on a 2-vCPU x86-64 VM
        # with Python 3.11 shared with other load; a supervisor that
        # polls adds its whole tick and cannot get here
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

    def test_stop_returns_on_bye_and_reaps_in_the_background(self):
        """``stop`` waits for every rank's bye, not for its exit: the
        workers then leave on their own (none is terminated) and are
        reaped without another call."""
        from repro.simmpi.engine import open_world

        world = open_world(4, _noop, world="processes")
        assert world.submit() == [0, 1, 2, 3]
        assert world.stop() == 0
        procs = list(world.procs.values())
        # a zombie keeps its /proc entry: these go only once reaped
        deadline = time.monotonic() + 5.0
        while (any(os.path.exists(f"/proc/{p.pid}") for p in procs)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert not [p.pid for p in procs if os.path.exists(f"/proc/{p.pid}")]
        assert [p.exitcode for p in procs] == [0, 0, 0, 0]


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

        before = shm_names()
        with pytest.raises(SpmdError):
            run_spmd(2, prog, world="processes", timeout=2.0,
                     transport="shm")
        assert shm_names() <= before


def _big_naive_bcast(comm, n):
    got = comm.bcast(np.arange(n, dtype=np.float64) if comm.rank == 0 else None)
    # every rank holds the whole payload: its length, a strided sample
    # and its exact sum (integers below 2**53 add exactly)
    return (got.shape == (n,)
            and np.array_equal(got[::4099], np.arange(0, n, 4099))
            and float(got.sum()) == n * (n - 1) / 2)


class TestLargeNaiveBroadcast:
    def test_64_mib_naive_bcast_at_p8_completes(self):
        """The 64 MiB broadcast over pickled queues at p = 8 (seven
        64 MiB pickles in flight at once) completes well inside its
        timeout and delivers the payload to every rank."""
        n = 64 * 2**20 // 8
        out = run_spmd(8, _big_naive_bcast, n, world="processes",
                       transport="naive", timeout=30)
        assert out == [True] * 8

    def test_a_rank_reports_after_its_messages_are_written(self):
        """A rank whose send still sits in a queue feeder when it
        reports would look gone to a peer waiting on that send — the
        parent's peer-exited verdict.  ``finish`` (what runs before the
        report) returns only once the 8 MiB message is in the pipe,
        i.e. once the receiver, busy for 0.5 s, has read most of it."""
        out = run_spmd(2, _send_then_finish, world="processes",
                       transport="naive", timeout=10)
        assert out[0] >= 0.4 and out[1], out


def _send_then_finish(comm):
    if comm.rank == 0:
        comm.send(np.zeros(2**20), dest=1)
        t0 = time.perf_counter()
        comm.world.finish()
        return time.perf_counter() - t0
    time.sleep(0.5)
    return comm.recv(source=0).shape == (2**20,)


class TestShmCleanliness:
    def test_normal_exit_leaves_dev_shm_clean(self):
        import numpy as np

        def prog(comm):
            data = comm.bcast(np.arange(100_000, dtype=np.float64), root=0)
            return float(data.sum())

        before = shm_names()
        out = run_spmd(4, prog, world="processes", transport="shm")
        assert len(set(out)) == 1
        assert shm_names() <= before

    def test_raising_worker_leaves_dev_shm_clean(self):
        import numpy as np

        def prog(comm):
            comm.bcast(np.arange(100_000, dtype=np.float64), root=0)
            if comm.rank == 2:
                raise RuntimeError("boom in worker")
            comm.barrier()
            return comm.rank

        before = shm_names()
        with pytest.raises(SpmdError) as info:
            run_spmd(4, prog, world="processes", transport="shm")
        assert isinstance(info.value.failures[2], RuntimeError)
        assert "boom in worker" in str(info.value.failures[2])
        assert shm_names() <= before

    def test_driver_run_leaves_dev_shm_clean(self):
        a = random_sparse(200, 200, nnz=15_000, seed=9)
        before = shm_names()
        result = batched_summa3d(a, a, nprocs=4, batches=2,
                                 world="processes", transport="shm")
        assert result.info["world"]["shm_segments"] > 0
        assert shm_names() <= before
