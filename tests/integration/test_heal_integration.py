"""Online-heal integration: a BatchedSUMMA3D run must survive a rank
crash *without restarting*, and the healed product must be bit-identical
to the fault-free run.

The chaos half is the property the whole resilience stack is sold on:
under any seeded random fault plan, a run either completes bit-identical
to fault-free or raises a *classified* resilience error promptly — it
never hangs and never escapes with an unclassified traceback.
"""

import time

import numpy as np
import pytest

from repro.errors import ReproError, SpmdError
from repro.simmpi import FaultPlan
from repro.sparse import random_sparse
from repro.summa import batched_summa3d


@pytest.fixture(scope="module")
def operands():
    a = random_sparse(36, 36, nnz=400, seed=71)
    b = random_sparse(36, 36, nnz=380, seed=72)
    return a, b


@pytest.fixture(scope="module")
def fault_free(operands):
    a, b = operands
    return batched_summa3d(a, b, nprocs=4, batches=2)


def assert_bit_identical(m, ref):
    assert m is not None and ref is not None
    assert np.array_equal(m.indptr, ref.indptr)
    assert np.array_equal(m.rowidx, ref.rowidx)
    assert np.array_equal(m.values, ref.values)


class TestSpareHeal:
    """A death on a flat grid heals by re-entry at the checkpointed batch."""

    def test_crash_mid_run_heals_in_place(self, tmp_path, operands, fault_free):
        a, b = operands
        result = batched_summa3d(
            a, b, nprocs=4, batches=2,
            checkpoint_dir=tmp_path / "ck",
            faults=FaultPlan(["crash:rank=1,batch=1"]),
            heal=True, timeout=20,
        )
        assert_bit_identical(result.matrix, fault_free.matrix)
        heal = result.info["resilience"]["heal"]
        assert heal["heals"] == 1
        (event,) = heal["events"]
        assert set(event) == {"epoch", "dead", "restart_batch", "latency_s"}
        assert event["epoch"] == 1
        assert event["dead"] == [1]
        # batch 0 completed before the crash: re-entry skipped it
        assert event["restart_batch"] == 1

    def test_crash_in_first_batch_replays_from_zero(
        self, tmp_path, operands, fault_free
    ):
        a, b = operands
        result = batched_summa3d(
            a, b, nprocs=4, batches=2,
            checkpoint_dir=tmp_path / "ck",
            faults=FaultPlan(["crash:rank=0,batch=0"]),
            heal=True, timeout=20,
        )
        assert_bit_identical(result.matrix, fault_free.matrix)
        assert result.info["resilience"]["heal"]["events"][0]["restart_batch"] == 0

    def test_two_crashes_heal_twice(self, tmp_path, operands, fault_free):
        a, b = operands
        result = batched_summa3d(
            a, b, nprocs=4, batches=2,
            checkpoint_dir=tmp_path / "ck",
            faults=FaultPlan([
                "crash:rank=1,batch=0", "crash:rank=3,batch=1",
            ]),
            heal=True, timeout=25,
        )
        assert_bit_identical(result.matrix, fault_free.matrix)
        heal = result.info["resilience"]["heal"]
        assert heal["heals"] == 2
        assert [e["dead"] for e in heal["events"]] == [[1], [3]]

    def test_sparse_backend_heals_too(self, tmp_path, operands, fault_free):
        a, b = operands
        result = batched_summa3d(
            a, b, nprocs=4, batches=2, comm_backend="sparse",
            checkpoint_dir=tmp_path / "ck",
            faults=FaultPlan(["crash:rank=2,batch=1"]),
            heal=True, timeout=25,
        )
        assert_bit_identical(result.matrix, fault_free.matrix)
        assert result.info["resilience"]["heal"]["heals"] == 1


class TestShrinkHeal:
    """A death on a layered grid heals on the same logical grid: partial
    reductions do not compose across grid geometries."""

    def test_layered_grid_heals(self, tmp_path):
        a = random_sparse(32, 32, nnz=350, seed=81)
        b = random_sparse(32, 32, nnz=330, seed=82)
        ref = batched_summa3d(a, b, nprocs=8, layers=2, batches=2)
        result = batched_summa3d(
            a, b, nprocs=8, layers=2, batches=2,
            checkpoint_dir=tmp_path / "ck",
            faults=FaultPlan(["crash:rank=5,batch=1"]),
            heal=True, timeout=25,
        )
        assert_bit_identical(result.matrix, ref.matrix)
        assert result.info["resilience"]["heal"]["events"][0]["dead"] == [5]


class TestHealValidation:
    def test_heal_requires_checkpoint_dir(self, operands):
        a, b = operands
        with pytest.raises(ValueError, match="checkpoint_dir"):
            batched_summa3d(a, b, nprocs=4, heal=True)

    def test_unknown_mode_rejected(self, tmp_path, operands):
        """``heal`` is a flag: a mode name is refused, not taken as truthy."""
        a, b = operands
        for mode in ("spare", "shrink", "migrate"):
            with pytest.raises(ValueError, match="heal must be True or False"):
                batched_summa3d(
                    a, b, nprocs=4, heal=mode,
                    checkpoint_dir=tmp_path / "ck",
                )


class TestChaos:
    """Seeded random fault plans over a grid sweep: every run either
    completes bit-identical to fault-free or raises a classified
    resilience error promptly.  No hangs, no unclassified tracebacks."""

    GRIDS = [(4, 1), (8, 2), (9, 1)]

    @pytest.mark.parametrize("nprocs,layers", GRIDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chaos_run_completes_or_fails_classified(
        self, tmp_path, nprocs, layers, seed
    ):
        a = random_sparse(40, 40, nnz=420, seed=90 + seed)
        b = random_sparse(40, 40, nnz=410, seed=95 + seed)
        ref = batched_summa3d(a, b, nprocs=nprocs, layers=layers, batches=2)
        plan = FaultPlan.random(
            seed=seed, nprocs=nprocs, transient=2, corrupt=1,
            crash=1, max_batch=2,
        )
        t0 = time.monotonic()
        try:
            result = batched_summa3d(
                a, b, nprocs=nprocs, layers=layers, batches=2,
                checkpoint_dir=tmp_path / "ck",
                faults=plan, heal=True, timeout=20,
            )
        except SpmdError as err:
            # classified failure: every reported cause is a typed repro
            # error carrying machine-readable context
            assert err.failures
            for exc in err.failures.values():
                assert isinstance(exc, ReproError), repr(exc)
        else:
            assert_bit_identical(result.matrix, ref.matrix)
        # the watchdog budget bounds the run either way
        assert time.monotonic() - t0 < 60
