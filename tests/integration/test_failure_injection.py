"""Failure-injection tests: the stack must fail loudly and coherently.

DESIGN.md's failure matrix: per-rank exceptions surface with rank
attribution, blocked peers are released (no hangs), budget exhaustion is
a typed error, and bad configurations are rejected before any thread
spawns.  The injected-fault half of the matrix: transients are retried
transparently, corrupted payloads are caught by checksums and
redelivered, rank crashes surface with a checkpoint pointer, and memory
pressure triggers re-batching — all deterministically, with bit-identical
products.
"""

import numpy as np
import pytest

from repro.errors import (
    DistributionError,
    GridError,
    MemoryBudgetError,
    MemoryPressureError,
    RankCrashError,
    ShapeError,
    SpmdError,
    TransientCommError,
)
from repro.resilience import MAX_RETRIES
from repro.simmpi import CommTracker, FaultPlan, run_spmd
from repro.sparse import random_sparse
from repro.summa import batched_summa3d, symbolic3d


def _exhausting(op):
    """Transients on rank 1's first attempt at ``op`` and on each of its
    ``MAX_RETRIES`` retries: the retry budget runs out."""
    return FaultPlan([
        f"transient:rank=1,op={op},nth={n}" for n in range(1, MAX_RETRIES + 2)
    ])


@pytest.fixture(scope="module")
def matrix():
    return random_sparse(32, 32, nnz=300, seed=161)


class TestRankFailures:
    def test_single_rank_failure_attributed(self):
        def prog(comm):
            if comm.rank == 2:
                raise ValueError("boom on rank 2")
            comm.barrier()

        with pytest.raises(SpmdError) as info:
            run_spmd(4, prog, timeout=10)
        assert list(info.value.failures) == [2]
        assert "boom on rank 2" in str(info.value)

    def test_multiple_failures_all_reported(self):
        def prog(comm):
            if comm.rank % 2 == 0:
                raise RuntimeError(f"rank {comm.rank} died")
            comm.barrier()

        with pytest.raises(SpmdError) as info:
            run_spmd(4, prog, timeout=10)
        assert set(info.value.failures) == {0, 2}

    def test_blocked_peers_released_not_hung(self):
        """Ranks waiting inside a collective when a peer dies must wake
        promptly (CommError), not run into the timeout."""
        import time

        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("early death")
            comm.barrier()

        t0 = time.monotonic()
        with pytest.raises(SpmdError):
            run_spmd(4, prog, timeout=60)
        assert time.monotonic() - t0 < 10  # released by abort, not timeout

    def test_cascading_commerrors_filtered(self):
        def prog(comm):
            if comm.rank == 0:
                raise KeyError("original")
            comm.barrier()  # peers die with CommError after the abort

        with pytest.raises(SpmdError) as info:
            run_spmd(3, prog, timeout=10)
        # only the genuine failure is reported, not the cascade
        assert list(info.value.failures) == [0]
        assert isinstance(info.value.failures[0], KeyError)

    def test_failure_during_alltoall(self):
        def prog(comm):
            if comm.rank == 1:
                raise RuntimeError("dead before exchange")
            comm.alltoall([None] * comm.size)

        with pytest.raises(SpmdError):
            run_spmd(4, prog, timeout=10)


class TestDistributedFailures:
    def test_postprocess_exception_propagates(self, matrix):
        def bad_postprocess(batch, c0, c1, block):
            raise RuntimeError("postprocess exploded")

        with pytest.raises(SpmdError) as info:
            batched_summa3d(
                matrix, matrix, nprocs=4, batches=2,
                postprocess=bad_postprocess, timeout=15,
            )
        assert any(
            "postprocess exploded" in str(e) for e in info.value.failures.values()
        )

    def test_budget_exhaustion_typed(self, matrix):
        with pytest.raises(SpmdError) as info:
            symbolic3d(matrix, matrix, nprocs=4, memory_budget=100, timeout=15)
        assert all(
            isinstance(e, MemoryBudgetError)
            for e in info.value.failures.values()
        )

    def test_bad_kernel_tier_rejected_before_spawn(self, matrix):
        with pytest.raises(DistributionError, match="unknown local kernel"):
            batched_summa3d(matrix, matrix, nprocs=4, batches=1,
                            kernel="spgemm:nonexistent", timeout=15)

    def test_bad_grid_rejected_before_spawn(self, matrix):
        with pytest.raises(GridError):
            batched_summa3d(matrix, matrix, nprocs=7, batches=1)

    def test_shape_rejected_before_spawn(self):
        a = random_sparse(4, 5, nnz=4, seed=0)
        with pytest.raises(ShapeError):
            batched_summa3d(a, a, nprocs=1)

    def test_postprocess_shape_corruption_detected(self, matrix):
        """A postprocess returning the wrong shape must not silently
        corrupt the output."""
        def shrink(batch, c0, c1, block):
            from repro.sparse.ops import col_slice

            return col_slice(block, 0, max(block.ncols - 1, 0))

        with pytest.raises(SpmdError):
            batched_summa3d(
                matrix, matrix, nprocs=4, batches=2,
                postprocess=shrink, timeout=15,
            )


class TestCollectiveMisuse:
    def test_double_participation_detected(self):
        """A rank calling a collective twice while peers call it once is a
        program-order bug; the mismatch must be diagnosed."""
        def prog(comm):
            if comm.rank == 0:
                comm.barrier()
                comm.barrier()
            else:
                comm.barrier()

        # rank 0's second barrier can never complete: timeout diagnoses it
        with pytest.raises(SpmdError):
            run_spmd(2, prog, timeout=1.5)


@pytest.fixture(scope="module")
def operands():
    a = random_sparse(60, 60, density=0.08, seed=1)
    b = random_sparse(60, 60, density=0.08, seed=2)
    return a, b


def assert_bit_identical(got, want):
    assert got.nnz == want.nnz
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.rowidx, want.rowidx)
    assert np.array_equal(got.values, want.values)


class TestInjectedCommFaults:
    def test_alltoallv_transient_retried(self, operands):
        """A transient on the fiber alltoallv (layers=2 exercises it) is
        retried transparently; the product is bit-identical."""
        a, b = operands
        base = batched_summa3d(a, b, nprocs=8, layers=2, batches=2, timeout=15)
        r = batched_summa3d(
            a, b, nprocs=8, layers=2, batches=2, timeout=15,
            faults=FaultPlan(["transient:rank=2,op=alltoallv,nth=1"]),
        )
        assert_bit_identical(r.matrix, base.matrix)
        assert r.fault_stats["injected"] == {"transient": 1}
        assert r.fault_stats["retries"] == 1

    def test_p2p_tagged_path_transients_retried(self, operands):
        """The sparse backend moves operands by tag-matched isend/recv;
        transients on both sides of that path must heal."""
        a, b = operands
        base = batched_summa3d(
            a, b, nprocs=4, batches=2, comm_backend="sparse", timeout=15,
        )
        r = batched_summa3d(
            a, b, nprocs=4, batches=2, comm_backend="sparse", timeout=15,
            faults=FaultPlan([
                "transient:rank=1,op=recv,nth=2",
                "transient:rank=0,op=send,nth=1",
            ]),
        )
        assert_bit_identical(r.matrix, base.matrix)
        assert r.fault_stats["injected"] == {"transient": 2}
        assert r.fault_stats["retries"] == 2

    def test_retry_budget_exhaustion_surfaces_transient(self, operands):
        # the first attempt and its MAX_RETRIES retries all fail
        a, b = operands
        with pytest.raises(SpmdError) as info:
            batched_summa3d(
                a, b, nprocs=4, batches=2, timeout=15,
                faults=_exhausting("bcast"),
            )
        assert any(
            isinstance(e, TransientCommError)
            for e in info.value.failures.values()
        )

    # ops no backend moves: a retry sits at every op's entry, so a
    # transient heals wherever the rank program issues the op
    ENTRY_FAULTS = {
        "postprocess-allgather": (
            "allgather", "Batch-Postprocess",
            lambda tmp: {"postprocess": lambda batch, c0, c1, block: block},
        ),
        "checkpoint-barrier": (
            "barrier", "Batch-Barrier",
            lambda tmp: {"checkpoint_dir": tmp / "ck"},
        ),
        # with a budget and no batch count, Alg. 3's max-allreduces run
        # in-band (a budget this large picks b = 1: the same product)
        "symbolic-allreduce": (
            "allreduce", "Symbolic",
            lambda tmp: {"batches": None, "memory_budget": 1 << 30},
        ),
    }

    @pytest.mark.parametrize("where", sorted(ENTRY_FAULTS))
    def test_transient_on_any_op_heals(self, operands, tmp_path, where):
        a, b = operands
        op, step, extra = self.ENTRY_FAULTS[where]
        base = batched_summa3d(a, b, nprocs=4, batches=3, timeout=15)
        fault = FaultPlan([f"transient:rank=1,op={op},nth=1"])
        r = batched_summa3d(
            a, b, nprocs=4, timeout=15, faults=fault,
            **{"batches": 3, **extra(tmp_path / "healed")},
        )
        assert_bit_identical(r.matrix, base.matrix)
        assert r.fault_stats["injected"] == {"transient": 1}
        assert r.fault_stats["retries"] == 1
        assert [(e["kind"], e["op"], e["step"])
                for e in r.fault_stats["events"]] == [
            ("transient", op, step), ("retry", op, step),
        ]
        with pytest.raises(SpmdError) as info:
            batched_summa3d(
                a, b, nprocs=4, timeout=15, faults=_exhausting(op),
                **{"batches": 3, **extra(tmp_path / "off")},
            )
        assert isinstance(info.value.failures[1], TransientCommError)

    def test_blocked_peers_released_on_mid_alltoallv_crash(self):
        """A rank dying at its alltoallv entry must release peers already
        parked in the exchange promptly — abort, not timeout."""
        import time

        def prog(comm):
            comm.alltoallv([b"x" * 64] * comm.size)

        t0 = time.monotonic()
        with pytest.raises(SpmdError) as info:
            run_spmd(
                4, prog, timeout=60,
                faults=FaultPlan(["crash:rank=1,op=alltoallv,nth=1"]),
            )
        assert time.monotonic() - t0 < 10
        assert isinstance(info.value.failures[1], RankCrashError)

    def test_determinism_k_transients_one_corruption(self, operands):
        """Acceptance: a fixed plan with K transients and one corruption
        yields a bit-identical product and exactly K+1 reported retries,
        run after run."""
        a, b = operands
        base = batched_summa3d(a, b, nprocs=8, layers=2, batches=3, timeout=15)
        plan_texts = [
            "transient:rank=1,op=bcast,nth=2",
            "transient:rank=2,op=alltoallv,nth=1",
            "corrupt:rank=3,op=bcast,nth=1",
        ]
        stats_seen = []
        for _ in range(2):
            r = batched_summa3d(
                a, b, nprocs=8, layers=2, batches=3, timeout=15,
                faults=FaultPlan(plan_texts),
            )
            assert_bit_identical(r.matrix, base.matrix)
            fs = r.fault_stats
            assert fs["fired"] == 3
            assert fs["retries"] == 3  # K=2 transient retries + 1 redelivery
            # cross-rank log interleaving follows thread scheduling; the
            # determinism contract is the per-rank event sequence
            stats_seen.append(sorted(
                (e["rank"], e["kind"], e["op"], e["attempt"])
                for e in fs["events"]
            ))
        assert stats_seen[0] == stats_seen[1]

    def test_checksums_add_metadata_only_bytes(self, operands):
        """Envelope checksums cost CHECKSUM_NBYTES per message and nothing
        payload-proportional; products stay bit-identical."""
        from repro.simmpi.serialization import CHECKSUM_NBYTES

        a, b = operands
        plain_tracker = CommTracker()
        plain = batched_summa3d(
            a, b, nprocs=4, batches=2, tracker=plain_tracker, timeout=15,
        )
        summed_tracker = CommTracker()
        summed = batched_summa3d(
            a, b, nprocs=4, batches=2, tracker=summed_tracker,
            faults=FaultPlan(), timeout=15,
        )
        assert_bit_identical(summed.matrix, plain.matrix)
        overhead = summed_tracker.total_bytes() - plain_tracker.total_bytes()
        assert overhead > 0
        assert overhead % CHECKSUM_NBYTES == 0


class TestCrashRecovery:
    def test_crash_surfaces_checkpoint_pointer(self, operands, tmp_path):
        a, b = operands
        with pytest.raises(SpmdError) as info:
            batched_summa3d(
                a, b, nprocs=4, batches=3, timeout=15,
                checkpoint_dir=tmp_path / "ck",
                faults=FaultPlan(["crash:rank=2,batch=1"]),
            )
        assert "resume=True" in str(info.value)
        assert any(
            isinstance(e, RankCrashError)
            for e in info.value.failures.values()
        )

    def test_resume_recomputes_only_remaining_batches(self, operands, tmp_path):
        """Acceptance: crash at batch 1 of 3, then resume=True — the
        product is bit-identical and the resumed run moves fewer bytes
        (only batches >= 1 recompute)."""
        a, b = operands
        full_tracker = CommTracker()
        base = batched_summa3d(
            a, b, nprocs=4, batches=3, tracker=full_tracker, timeout=15,
        )
        with pytest.raises(SpmdError):
            batched_summa3d(
                a, b, nprocs=4, batches=3, timeout=15,
                checkpoint_dir=tmp_path / "ck",
                faults=FaultPlan(["crash:rank=2,batch=1"]),
            )
        resumed_tracker = CommTracker()
        r = batched_summa3d(
            a, b, nprocs=4, batches=None, timeout=15,
            checkpoint_dir=tmp_path / "ck", resume=True,
            tracker=resumed_tracker,
        )
        assert_bit_identical(r.matrix, base.matrix)
        assert r.info["resilience"]["resumed_from_batch"] == 1
        # only 2 of 3 batches moved bytes in the resumed run
        assert resumed_tracker.total_bytes() < full_tracker.total_bytes()

    def test_resume_against_different_operands_rejected(self, operands, tmp_path):
        from repro.errors import CheckpointError

        a, b = operands
        with pytest.raises(SpmdError):
            batched_summa3d(
                a, b, nprocs=4, batches=3, timeout=15,
                checkpoint_dir=tmp_path / "ck",
                faults=FaultPlan(["crash:rank=0,batch=1"]),
            )
        other = random_sparse(60, 60, density=0.08, seed=99)
        with pytest.raises(CheckpointError):
            batched_summa3d(
                other, other, nprocs=4, timeout=15,
                checkpoint_dir=tmp_path / "ck", resume=True,
            )

    def test_fault_free_checkpointed_run_matches(self, operands, tmp_path):
        """Checkpointing a healthy run must not change the product."""
        a, b = operands
        base = batched_summa3d(a, b, nprocs=4, batches=3, timeout=15)
        r = batched_summa3d(
            a, b, nprocs=4, batches=3, timeout=15,
            checkpoint_dir=tmp_path / "ck",
        )
        assert_bit_identical(r.matrix, base.matrix)
        assert r.info["resilience"]["resumed_from_batch"] == 0


class TestMemoryPressureRecovery:
    def test_rebatch_to_double_and_complete(self, operands):
        """Acceptance: injected MemoryPressureError mid-run re-batches to
        2b and completes with a bit-identical product."""
        a, b = operands
        base = batched_summa3d(a, b, nprocs=4, batches=2, timeout=15)
        r = batched_summa3d(
            a, b, nprocs=4, batches=2, timeout=15,
            faults=FaultPlan(["mem-pressure:rank=0,batch=1"]),
        )
        assert r.batches == 4
        assert r.info["resilience"]["rebatched"] == [{"from": 2, "to": 4}]
        assert_bit_identical(r.matrix, base.matrix)

    def test_rebatch_with_checkpoint_resets_directory(self, operands, tmp_path):
        a, b = operands
        base = batched_summa3d(a, b, nprocs=4, batches=2, timeout=15)
        r = batched_summa3d(
            a, b, nprocs=4, batches=2, timeout=15,
            checkpoint_dir=tmp_path / "ck",
            faults=FaultPlan(["mem-pressure:rank=1,batch=1"]),
        )
        assert r.batches == 4
        assert_bit_identical(r.matrix, base.matrix)
        import json

        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        assert manifest["batches"] == 4
        assert len(manifest["completed"]) == 4

    def test_unrecoverable_pressure_at_column_limit(self):
        """When b already equals the column count, doubling is impossible
        and the pressure surfaces."""
        a = random_sparse(8, 2, nnz=6, seed=5)
        b = random_sparse(2, 2, nnz=3, seed=6)
        with pytest.raises(SpmdError) as info:
            batched_summa3d(
                a, b, nprocs=1, batches=2, timeout=15,
                faults=FaultPlan(["mem-pressure:rank=0,batch=0"]),
            )
        assert any(
            isinstance(e, MemoryPressureError)
            for e in info.value.failures.values()
        )
