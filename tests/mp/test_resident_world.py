"""The process world's lifecycle — ``start → submit(region)* → stop`` —
and the resident :class:`~repro.dist.DistContext` built on it: one fork
per world, rank-owned tiles, a region that raises fails alone, a rank
that dies ends the world, and nothing (no process, no ``/dev/shm`` name)
outlives its owner.
"""

import gc
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro.dist.context as context
from repro.data import planted_partition
from repro.dist import DistContext
from repro.errors import (
    DistributionError,
    HangError,
    RankCrashError,
    SpmdError,
)
from repro.mp.shm import leaked_segments
from repro.plan import ExecSpec
from repro.simmpi import CommTracker
from repro.simmpi.engine import open_world
from repro.sparse import multiply, random_sparse
from repro.sparse.ops import column_sums, scale_columns
from repro.summa import run_plan
from tests.conftest import shm_names

WORLD_INFO_KEYS = {
    "world", "transport", "run_id", "shm_segments", "shm_bytes",
    "naive_msgs", "naive_bytes", "swept_segments",
}


def gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    # a zombie is dead too (nobody has reaped it yet)
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def wait_gone(pids, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if all(gone(pid) for pid in pids):
            return True
        time.sleep(0.05)
    return all(gone(pid) for pid in pids)


@pytest.fixture
def forks(monkeypatch):
    """Counts ``os.fork`` calls (what multiprocessing's fork context
    bottoms out in)."""
    calls = []
    real = os.fork

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counting)
    return calls


@pytest.fixture(scope="module")
def matrix():
    return random_sparse(40, 40, nnz=420, seed=141)


# ---------------------------------------------------------------------- #
# region bodies (module level: a started world is handed names, not code)
# ---------------------------------------------------------------------- #

def _pid_body(comm, *, mode="pid", payload=None):
    if mode == "boom" and comm.rank == 2:
        raise RuntimeError("boom in region")
    if mode == "hang" and comm.rank == 0:
        return comm.recv(source=1, tag=99)  # never sent
    if mode == "bcast":
        data = comm.bcast(
            np.arange(50_000, dtype=np.float64) if comm.rank == 0 else None
        )
        if comm.rank == 3:
            raise RuntimeError("boom after bcast")
        comm.barrier()
        return float(data.sum())
    return os.getpid(), payload


def _hang_region(comm, store):
    if comm.rank == 0:
        return comm.recv(source=1, tag=99)  # never sent
    return None


def _boom_hook(batch, c0, c1, block):
    raise RuntimeError("boom in hook")


def _normalise(batch, c0, c1, block):
    sums = column_sums(block)
    inv = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums != 0)
    return scale_columns(block, inv)


# ---------------------------------------------------------------------- #
# the world lifecycle
# ---------------------------------------------------------------------- #

class TestProcessWorld:
    def test_regions_run_on_the_same_parked_workers(self, forks):
        world = open_world(4, _pid_body, world="processes")
        try:
            rounds = [world.submit(payload=i) for i in range(5)]
        finally:
            world.stop()
        assert len(forks) == 4  # one fork per rank, once
        pids = [pid for pid, _ in rounds[0]]
        assert len(set(pids) | {os.getpid()}) == 5
        for i, result in enumerate(rounds):
            assert result == [(pid, i) for pid in pids]
        assert wait_gone(pids, 3.0)

    def test_a_raising_region_fails_alone(self):
        before = shm_names()
        world = open_world(4, _pid_body, world="processes", transport="shm")
        try:
            pids = [pid for pid, _ in world.submit()]
            for mode, rank in (("boom", 2), ("bcast", 3)):
                with pytest.raises(SpmdError) as info:
                    world.submit(mode=mode)
                # the cascade (peers aborted by the failure) is filtered
                assert set(info.value.failures) == {rank}
                assert isinstance(info.value.failures[rank], RuntimeError)
                assert shm_names() <= before  # clean *between* regions
                assert world.alive
                assert [pid for pid, _ in world.submit()] == pids
        finally:
            world.stop()
        assert shm_names() <= before

    def test_timeout_is_per_submit(self):
        world = open_world(4, _pid_body, world="processes")
        try:
            t0 = time.monotonic()
            with pytest.raises(SpmdError) as info:
                world.submit(mode="hang", timeout=0.5)
            assert time.monotonic() - t0 < 2.0
            assert isinstance(info.value.failures[0], HangError)
            assert len(world.submit(timeout=60.0)) == 4
        finally:
            world.stop()

    def test_a_dead_rank_ends_the_world(self):
        before = shm_names()
        world = open_world(4, _pid_body, world="processes", transport="shm")
        pids = [pid for pid, _ in world.submit()]
        os.kill(pids[1], signal.SIGKILL)
        with pytest.raises(SpmdError) as info:
            world.submit()
        err = info.value.failures[1]
        assert isinstance(err, RankCrashError)
        assert err.context["pid"] == pids[1]
        assert err.context["signal"] == "SIGKILL"
        assert not world.alive
        assert wait_gone(pids, 3.0)
        with pytest.raises(RuntimeError, match="not running"):
            world.submit()
        assert world.stop() == 0  # idempotent
        assert shm_names() <= before

    def test_unpicklable_submission_fails_at_the_call_site(self):
        world = open_world(4, _pid_body, world="processes")
        try:
            with pytest.raises(Exception, match="[Pp]ickl"):
                world.submit(payload=lambda: None)
            # nothing was posted: the next region is intact
            assert len(world.submit()) == 4
        finally:
            world.stop()


# ---------------------------------------------------------------------- #
# the resident context
# ---------------------------------------------------------------------- #

class TestResidentContext:
    def test_one_fork_and_a_fresh_world_info_per_region(self, forks, matrix):
        infos = []
        with DistContext(nprocs=4, world="processes", transport="shm") as ctx:
            ha = ctx.distribute(matrix, "A")
            infos.append(ctx.last_world_info)
            hb = ctx.distribute(matrix, "B")
            infos.append(ctx.last_world_info)
            for _ in range(3):
                hc, _ = ctx.multiply(ha, hb, batches=2)
                infos.append(ctx.last_world_info)
            product = hc.to_global()
            infos.append(ctx.last_world_info)
        assert product.allclose(multiply(matrix, matrix))
        assert len(forks) == 4
        assert len({id(info) for info in infos}) == len(infos)
        assert len({tuple(info["pids"]) for info in infos}) == 1
        assert [info["region"] for info in infos] == list(range(len(infos)))
        for info in infos:
            assert WORLD_INFO_KEYS <= set(info)
            assert info["world"] == "processes"
            assert info["swept_segments"] == 0
        assert wait_gone(infos[0]["pids"], 3.0)

    def test_a_raising_region_leaves_the_context_usable(self, matrix):
        before = shm_names()
        with DistContext(nprocs=4, world="processes", transport="shm") as ctx:
            ha, hb = ctx.distribute(matrix, "A"), ctx.distribute(matrix, "B")
            held = ctx.memory_bytes()
            with pytest.raises(SpmdError) as info:
                ctx.multiply(ha, hb, postprocess=_boom_hook)
            assert all(
                isinstance(e, RuntimeError)
                for e in info.value.failures.values()
            )
            assert shm_names() <= before
            assert not ctx.closed
            assert ctx.memory_bytes() == held  # no half-registered product
            hc, _ = ctx.multiply(ha, hb)
            assert hc.to_global().allclose(multiply(matrix, matrix))
        assert shm_names() <= before

    def test_sigkill_closes_the_context(self, matrix):
        before = shm_names()
        ctx = DistContext(nprocs=4, world="processes", transport="shm")
        ha = ctx.distribute(matrix, "A")
        pids = ctx.last_world_info["pids"]
        os.kill(pids[2], signal.SIGKILL)
        with pytest.raises(SpmdError) as info:
            ctx.gather(ha)
        assert isinstance(info.value.failures[2], RankCrashError)
        assert info.value.failures[2].context["pid"] == pids[2]
        assert ctx.closed
        for refused in (lambda: ha.nnz, ha.to_global,
                        lambda: ctx.redistribute(ha, "B"),
                        lambda: ctx.distribute(matrix, "A")):
            with pytest.raises(DistributionError):
                refused()
        ctx.free(ha)  # cleanup paths must not raise on a lost context
        assert wait_gone(pids, 3.0)
        assert shm_names() <= before

    def test_timeout_is_read_per_region(self, monkeypatch, matrix):
        monkeypatch.setitem(context.REGIONS, "hang", _hang_region)
        with DistContext(nprocs=4, world="processes", timeout=60.0) as ctx:
            ha = ctx.distribute(matrix, "A")
            ctx.timeout = 0.5  # what serve does per job
            t0 = time.monotonic()
            with pytest.raises(SpmdError) as info:
                ctx._submit("hang")
            assert time.monotonic() - t0 < 2.0
            assert isinstance(info.value.failures[0], HangError)
            ctx.timeout = 60.0
            assert ctx.gather(ha).allclose(matrix)

    def test_unpicklable_hook_is_refused_before_any_region(
        self, monkeypatch, matrix
    ):
        with DistContext(nprocs=4, world="processes") as ctx:
            ha, hb = ctx.distribute(matrix, "A"), ctx.distribute(matrix, "B")
            monkeypatch.setattr(ctx, "_submit", lambda *a, **kw: pytest.fail(
                "a region was submitted before the refusal"
            ))
            with pytest.raises(DistributionError, match="postprocess="):
                ctx.multiply(ha, hb, postprocess=lambda b, c0, c1, blk: blk)
        # threads share the address space: any callable will do
        with DistContext(nprocs=4) as ctx:
            ha, hb = ctx.distribute(matrix, "A"), ctx.distribute(matrix, "B")
            hc, _ = ctx.multiply(ha, hb, postprocess=lambda b, c0, c1, blk: blk)
            assert hc.to_global().allclose(multiply(matrix, matrix))

    def test_a_rebatch_reenters_without_a_second_fork(self, forks, matrix):
        spec = ExecSpec(batches=2)
        pressure = ["mem-pressure:rank=0,batch=1"]
        with DistContext(nprocs=4, world="processes") as ctx:
            ha, hb = ctx.distribute(matrix, "A"), ctx.distribute(matrix, "B")
            hc, resident = ctx.multiply(ha, hb, plan=spec, faults=pressure)
            product = hc.to_global()
        assert len(forks) == 4
        assert resident.batches == 4
        assert resident.info["resilience"]["rebatched"] == [{"from": 2, "to": 4}]
        del forks[:]
        one_shot = run_plan(
            matrix, matrix, spec.amended(nprocs=4, world="processes"),
            faults=pressure,
        )
        assert len(forks) == 4  # two regions, one world
        assert one_shot.batches == 4
        assert one_shot.info["world"]["region"] == 1
        assert np.array_equal(product.values, one_shot.matrix.values)

    def test_a_dropped_context_stops_its_world(self, matrix):
        ctx = DistContext(nprocs=4, world="processes")
        ctx.distribute(matrix, "A")
        pids = ctx.last_world_info["pids"]
        del ctx
        gc.collect()
        assert wait_gone(pids, 3.0)


def _chain(world, transport, g, rounds=6):
    """The benchmark's HipMCL-shaped op on a small graph: masked squaring
    + column normalisation, C fed back as both operands."""
    steps = []
    tracker = CommTracker()
    with DistContext(nprocs=4, world=world, transport=transport,
                     tracker=tracker) as ctx:
        ha, hb = ctx.distribute(g, "A"), ctx.distribute(g, "B")
        for _ in range(rounds):
            hc, result = ctx.multiply(
                ha, hb, kernel="masked_spgemm", mask=g, postprocess=_normalise,
            )
            ctx.free(ha)
            ctx.free(hb)
            ha, hb = ctx.redistribute(hc, "A"), ctx.redistribute(hc, "B")
            if ha is not hc and hb is not hc:
                ctx.free(hc)
            steps.append((result.batches, dict(tracker.by_step())))
        out = ha.to_global()
    return out, steps


def test_mcl_chain_is_bit_identical_across_worlds():
    g = planted_partition(240, 8, p_in=0.25, p_out=0.01, seed=5)[0]
    ref, ref_steps = _chain("threads", "auto", g)
    assert ref.nnz > 0
    for transport in ("naive", "shm"):
        out, steps = _chain("processes", transport, g)
        for name in ("indptr", "rowidx", "values"):
            assert np.array_equal(getattr(out, name), getattr(ref, name))
        # bytes and message counts, per step label, after every round
        assert steps == ref_steps


# ---------------------------------------------------------------------- #
# no orphans
# ---------------------------------------------------------------------- #

_ORPHAN = """
import os, sys
from repro.dist import DistContext
from repro.sparse import random_sparse
ctx = DistContext(nprocs=4, world="processes", transport="shm")
ctx.distribute(random_sparse(40, 40, nnz=420, seed=1), "A")
info = ctx.last_world_info
print(info["run_id"], *info["pids"], flush=True)
os._exit(0)  # no close(), no atexit, no finalizer
"""


def test_workers_do_not_outlive_a_parent_that_vanishes():
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", _ORPHAN], env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    run_id, *pids = proc.stdout.split()
    assert len(pids) == 4
    assert wait_gone([int(pid) for pid in pids], 3.0)
    # the world's parent was the subprocess: its names are not ours
    assert not leaked_segments(run_id)
