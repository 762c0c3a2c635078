"""Chaos matrix for the process-backed world.

The thread-world chaos sweep (:mod:`tests.integration.test_heal_integration`)
establishes the reference contract: a seeded random fault plan either
completes bit-identical to fault-free or fails with a classified,
machine-readable error, promptly.  This module extends that contract to
real forked worker processes: injected crashes are real ``SIGKILL``
deaths, healing rebuilds real queues, and — the part threads cannot
test — ``/dev/shm`` must come back clean after every outcome, including
a kill mid-exchange with segments in flight.
"""

import time

import numpy as np
import pytest

from repro.errors import ReproError, SpmdError
from repro.simmpi.faults import FaultPlan
from repro.sparse import random_sparse
from repro.summa import batched_summa3d
from tests.conftest import shm_names


def assert_bit_identical(m, ref):
    assert m is not None and ref is not None
    assert np.array_equal(m.indptr, ref.indptr)
    assert np.array_equal(m.rowidx, ref.rowidx)
    assert np.array_equal(m.values, ref.values)


@pytest.fixture(scope="module")
def operands():
    a = random_sparse(36, 36, nnz=400, seed=71)
    b = random_sparse(36, 36, nnz=380, seed=72)
    return a, b


@pytest.fixture(scope="module")
def references(operands):
    """Fault-free *threaded* references — the determinism anchor every
    healed process-world product must match bit-for-bit."""
    a, b = operands
    return {
        4: batched_summa3d(a, b, nprocs=4, batches=2),
        8: batched_summa3d(a, b, nprocs=8, layers=2, batches=2),
    }


_LAYERS = {4: 1, 8: 2}


class TestChaosMatrix:
    """p x transport sweep under a seeded random fault plan, heal=True."""

    @pytest.mark.parametrize("nprocs", [4, 8])
    @pytest.mark.parametrize("transport", ["naive", "shm"])
    def test_completes_bit_identical_or_classified(
        self, tmp_path, operands, references, nprocs, transport
    ):
        a, b = operands
        plan = FaultPlan.random(
            seed=nprocs, nprocs=nprocs, transient=1, corrupt=1,
            crash=1, max_batch=2,
        )
        before = shm_names()
        t0 = time.monotonic()
        try:
            result = batched_summa3d(
                a, b, nprocs=nprocs, layers=_LAYERS[nprocs], batches=2,
                checkpoint_dir=tmp_path / "ck",
                faults=plan, heal=True, timeout=25,
                world="processes", transport=transport,
            )
        except SpmdError as err:
            # classified failure: every reported cause is a typed repro
            # error carrying machine-readable context
            assert err.failures
            for exc in err.failures.values():
                assert isinstance(exc, ReproError), repr(exc)
        else:
            assert_bit_identical(result.matrix, references[nprocs].matrix)
            assert result.info["resilience"]["heal"]["heals"] >= 1
        # bounded either way, and no shared-memory litter
        assert time.monotonic() - t0 < 60
        assert shm_names() <= before


class TestShmHygieneUnderKill:
    def test_sigkill_mid_exchange_leaves_no_segments(self, operands):
        """A worker killed at a communication attempt — segments in
        flight — must not leak ``/dev/shm`` names even without a heal
        layer (the parent sweep is the backstop)."""
        a, b = operands
        before = shm_names()
        with pytest.raises(SpmdError) as info:
            batched_summa3d(
                a, b, nprocs=4, batches=2,
                faults=FaultPlan.parse("crash:rank=1,op=bcast,nth=2"),
                timeout=20, world="processes", transport="shm",
            )
        assert any(
            type(e).__name__ == "RankCrashError"
            for e in info.value.failures.values()
        )
        assert shm_names() <= before

    def test_sigkill_with_heal_leaves_no_segments(self, tmp_path, operands,
                                                  references):
        a, b = operands
        before = shm_names()
        result = batched_summa3d(
            a, b, nprocs=4, batches=2, checkpoint_dir=tmp_path / "ck",
            faults=FaultPlan(["crash:rank=2,batch=1"]),
            heal=True, timeout=25, world="processes", transport="shm",
        )
        assert_bit_identical(result.matrix, references[4].matrix)
        assert shm_names() <= before


class TestNoWedge:
    def test_forty_sigkills_mid_bcast_all_heal(self, tmp_path, operands):
        """A rank ``SIGKILL``ed while its feeder thread holds a *peer's*
        inbox write lock wedges that inbox.  The in-world protocol had
        to reach every survivor through exactly those inboxes (2-4 % of
        p = 8 heals classified at the timeout instead); a re-entry asks
        nothing of them — survivors notice the abort event on their own
        tick and the repaired region runs on fresh queues."""
        a, b = operands
        ref = batched_summa3d(a, b, nprocs=8, layers=2, batches=4)
        before = shm_names()
        for i in range(40):
            t0 = time.monotonic()
            result = batched_summa3d(
                a, b, nprocs=8, layers=2, batches=4,
                checkpoint_dir=tmp_path / f"ck{i}",
                faults=FaultPlan.parse(
                    f"crash:rank={i % 8},op=bcast,nth={2 + i % 5}"
                ),
                heal=True, timeout=6,
                world="processes", transport="shm",
            )
            assert time.monotonic() - t0 < 3.0, i
            assert result.info["resilience"]["heal"]["heals"] == 1, i
            assert_bit_identical(result.matrix, ref.matrix)
        assert shm_names() <= before


class TestCheckpointParity:
    def test_checkpoint_io_matches_thread_world(self, tmp_path, operands):
        """The same faulty healed run writes the same checkpoint batches
        and bytes under both worlds — resume state is world-portable."""
        a, b = operands
        stats = {}
        for world in ("threads", "processes"):
            result = batched_summa3d(
                a, b, nprocs=4, batches=2,
                checkpoint_dir=tmp_path / f"ck-{world}",
                faults=FaultPlan(["crash:rank=1,batch=1"]),
                heal=True, timeout=25, world=world,
            )
            stats[world] = result.info["resilience"]["checkpoint_io"]
        assert stats["threads"]["batches_written"] >= 2
        assert stats["processes"] == stats["threads"]


class TestAcceptance:
    def test_shm_sigkill_heals_bit_identical(self, tmp_path, operands,
                                             references):
        """``world="processes"``, ``transport="shm"``, a real mid-batch
        SIGKILL, ``heal=True`` — completes in the same call, bit-identical
        to the fault-free threaded reference, with the heal recorded and
        zero orphaned segments."""
        a, b = operands
        before = shm_names()
        result = batched_summa3d(
            a, b, nprocs=4, batches=2, checkpoint_dir=tmp_path / "ck",
            faults=FaultPlan(["crash:rank=1,batch=1"]),
            heal=True, timeout=30, world="processes", transport="shm",
        )
        assert_bit_identical(result.matrix, references[4].matrix)
        heal = result.info["resilience"]["heal"]
        assert heal["heals"] == 1
        event = heal["events"][0]
        assert event["dead"] == [1]
        assert event["restart_batch"] == 1
        assert event["latency_s"] > 0
        assert result.info["world"]["world"] == "processes"
        assert result.info["world"]["transport"] == "shm"
        assert shm_names() <= before
