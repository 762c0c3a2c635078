"""Unit tests for the deterministic fault-injection layer."""

import numpy as np
import pytest

from repro.errors import (
    CorruptPayloadError,
    RankCrashError,
    SpmdError,
    TransientCommError,
)
from repro.simmpi import run_spmd
from repro.simmpi.faults import FaultInjector, FaultPlan, FaultSpec
from repro.simmpi.serialization import (
    CHECKSUM_NBYTES,
    Envelope,
    corrupt_copy,
    payload_checksum,
    payload_nbytes,
    wrap_payload,
)
from repro.sparse import random_sparse


class TestFaultSpec:
    def test_parse_full_grammar(self):
        spec = FaultSpec.parse("transient:rank=1,op=bcast,nth=3")
        assert spec == FaultSpec("transient", rank=1, op="bcast", nth=3)

    def test_parse_plan_coordinates(self):
        spec = FaultSpec.parse("crash:rank=2,batch=1,stage=0")
        assert (spec.kind, spec.rank, spec.batch, spec.stage) == \
            ("crash", 2, 1, 0)

    def test_parse_defaults_nth_to_one(self):
        assert FaultSpec.parse("corrupt:rank=0,op=recv").nth == 1

    @pytest.mark.parametrize("text", [
        "meteor:rank=0,op=bcast",        # unknown kind
        "transient:op=bcast",            # missing rank
        "transient:rank=1",              # comm kind without op
        "crash:rank=1",                  # crash without coordinates
        "transient:rank=1,op=bcast,nth=0",   # nth is 1-based
        "transient:rank=1,op=bcast,color=red",  # unknown field
        "transient:rank=1,op",           # malformed field
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            FaultSpec.parse(text)


class TestFaultPlan:
    def test_accepts_strings_and_specs(self):
        plan = FaultPlan([
            "transient:rank=0,op=bcast",
            FaultSpec("crash", rank=1, batch=0),
        ])
        assert len(plan) == 2
        assert all(isinstance(s, FaultSpec) for s in plan)

    def test_random_is_pure_function_of_seed(self):
        kwargs = dict(nprocs=8, transient=5, corrupt=3)
        p1 = FaultPlan.random(42, **kwargs)
        p2 = FaultPlan.random(42, **kwargs)
        p3 = FaultPlan.random(43, **kwargs)
        assert p1.specs == p2.specs
        assert p1.specs != p3.specs
        assert len(p1) == 8

    def test_random_ranks_within_grid(self):
        plan = FaultPlan.random(0, nprocs=4, transient=20)
        assert all(0 <= s.rank < 4 for s in plan)
        assert all(s.nth >= 1 for s in plan)


class TestInjectorCounters:
    def test_nth_attempt_addressing(self):
        inj = FaultInjector(FaultPlan(["transient:rank=0,op=bcast,nth=3"]))
        inj.on_attempt(0, "bcast")
        inj.on_attempt(0, "bcast")
        with pytest.raises(TransientCommError):
            inj.on_attempt(0, "bcast")
        # fourth attempt (the retry) passes
        inj.on_attempt(0, "bcast")
        assert inj.stats()["fired"] == 1

    def test_counters_are_per_op(self):
        inj = FaultInjector(FaultPlan(["transient:rank=0,op=recv,nth=2"]))
        inj.on_attempt(0, "bcast")
        inj.on_attempt(0, "bcast")  # bcast attempts don't advance recv's
        inj.on_attempt(0, "recv")
        with pytest.raises(TransientCommError):
            inj.on_attempt(0, "recv")

    def test_counters_are_per_rank_thread(self):
        inj = FaultInjector(FaultPlan(["transient:rank=1,op=bcast,nth=1"]))

        def prog(comm):
            # every rank attempts once; only rank 1's attempt matches
            if comm.rank == 1:
                with pytest.raises(TransientCommError):
                    inj.on_attempt(comm.rank, "bcast")
            else:
                inj.on_attempt(comm.rank, "bcast")

        run_spmd(4, prog, timeout=10)
        assert inj.stats()["fired"] == 1

    def test_crash_by_attempt(self):
        inj = FaultInjector(FaultPlan(["crash:rank=0,op=send,nth=1"]))
        with pytest.raises(RankCrashError):
            inj.on_attempt(0, "send")

    def test_delivery_corruption_heals_on_redelivery(self):
        inj = FaultInjector(FaultPlan(["corrupt:rank=0,op=recv,nth=1"]))
        payload = np.arange(8.0)
        first = inj.on_delivery(0, "recv", payload)
        assert payload_checksum(first) != payload_checksum(payload)
        second = inj.on_delivery(0, "recv", payload)
        assert second is payload

    def test_plan_op_fires_once_across_reruns(self):
        inj = FaultInjector(FaultPlan(["crash:rank=0,batch=1"]))
        with pytest.raises(RankCrashError):
            inj.on_plan_op(0, "multiply", 1, 0)
        # the re-run (after driver-level recovery) passes the same op
        inj.on_plan_op(0, "multiply", 1, 0)
        assert inj.stats()["injected"] == {"crash": 1}

    def test_stats_shape(self):
        inj = FaultInjector(FaultPlan(["transient:rank=0,op=bcast,nth=9"]))
        inj.record_retry(0, "bcast", "A-Broadcast", 1, 0.001)
        stats = inj.stats()
        assert stats["planned"] == 1
        assert stats["fired"] == 0
        assert stats["retries"] == 1
        assert stats["simulated_backoff_s"] == pytest.approx(0.001)
        assert stats["events"][0]["kind"] == "retry"


def _two_bcasts_past_a_fault_point(comm):
    comm.world.injector.on_plan_op(comm.global_rank, "multiply", 0, 0)
    for _ in range(2):
        comm.bcast("x" * 64 if comm.rank == 0 else None, root=0)
    return comm.rank


class TestCrashFiresOncePerRun:
    """``rank=`` addresses a grid position, and a run that re-enters
    after a death puts a new holder on it under the same number: a
    ``crash`` must not kill that one too, however it is addressed."""

    @pytest.mark.parametrize("world", ["threads", "processes"])
    @pytest.mark.parametrize(
        "fault", ["crash:rank=1,op=bcast,nth=2", "crash:rank=1,batch=0"]
    )
    def test_reentry_spares_the_positions_next_holder(self, world, fault):
        inj = FaultInjector(FaultPlan([fault]))
        run = dict(faults=inj, world=world, timeout=15.0)
        with pytest.raises(SpmdError) as info:
            run_spmd(4, _two_bcasts_past_a_fault_point, **run)
        assert isinstance(info.value.failures[1], RankCrashError)
        # the re-entry: same injector, counting starts over — the death
        # does not
        assert run_spmd(4, _two_bcasts_past_a_fault_point, **run) == [0, 1, 2, 3]
        assert inj.stats()["injected"] == {"crash": 1}

    def test_transient_addresses_every_regions_own_count(self):
        inj = FaultInjector(FaultPlan(["transient:rank=1,op=bcast,nth=1"]))
        for _ in range(2):
            with pytest.raises(SpmdError) as info:
                run_spmd(2, _two_bcasts_past_a_fault_point, faults=inj,
                         timeout=10)
            assert isinstance(info.value.failures[1], TransientCommError)
        assert inj.stats()["injected"] == {"transient": 2}


class TestSerializationChecksums:
    def test_envelope_adds_metadata_only_bytes(self):
        m = random_sparse(16, 16, nnz=40, seed=7)
        env = wrap_payload(m)
        assert isinstance(env, Envelope)
        assert payload_nbytes(env) == payload_nbytes(m) + CHECKSUM_NBYTES

    def test_checksum_deterministic_and_structural(self):
        m = random_sparse(16, 16, nnz=40, seed=7)
        same = random_sparse(16, 16, nnz=40, seed=7)
        other = random_sparse(16, 16, nnz=40, seed=8)
        assert payload_checksum(m) == payload_checksum(same)
        assert payload_checksum(m) != payload_checksum(other)

    def test_corrupt_copy_changes_checksum_not_original(self):
        m = random_sparse(16, 16, nnz=40, seed=7)
        crc = payload_checksum(m)
        bad = corrupt_copy(m)
        assert payload_checksum(bad) != crc
        assert payload_checksum(m) == crc  # original untouched

    def test_corrupt_copy_of_plain_objects(self):
        for payload in (np.arange(5), [np.arange(3), None], "text", 17):
            bad = corrupt_copy(payload)
            assert payload_checksum(bad) != payload_checksum(payload)


class TestWorldWiring:
    def test_engine_builds_injector_from_plan(self):
        plan = FaultPlan(["transient:rank=1,op=bcast,nth=1"])

        def prog(comm):
            return comm.bcast("x" * 100, root=1)

        from repro.errors import SpmdError

        # without retries the injected fault surfaces as a rank failure
        with pytest.raises(SpmdError) as info:
            run_spmd(4, prog, faults=plan, timeout=10)
        assert isinstance(info.value.failures[1], TransientCommError)

    def test_checksums_default_on_with_faults(self):
        seen = {}

        def prog(comm):
            seen[comm.rank] = comm.world.checksums
            comm.barrier()

        run_spmd(2, prog, timeout=10)
        assert seen == {0: False, 1: False}
        run_spmd(2, prog, faults=FaultPlan(), timeout=10)
        assert seen == {0: True, 1: True}

    def test_corruption_without_redelivery_budget_is_typed(self):
        """A corrupt delivery is healed by redelivery; this test asserts
        the detection path raises CorruptPayloadError when the payload is
        corrupted persistently (checksum mismatch on every delivery)."""
        import repro.simmpi.comm as comm_mod

        class AlwaysCorrupt(FaultInjector):
            def on_delivery(self, rank, op, payload, step=""):
                return corrupt_copy(payload)

        def prog(comm):
            return comm.bcast(np.arange(16.0), root=0)

        from repro.errors import SpmdError

        with pytest.raises(SpmdError) as info:
            run_spmd(2, prog, faults=AlwaysCorrupt(FaultPlan()), timeout=10)
        failure = info.value.failures[1]
        assert isinstance(failure, CorruptPayloadError)
        assert str(comm_mod.MAX_REDELIVERIES) in str(failure)
