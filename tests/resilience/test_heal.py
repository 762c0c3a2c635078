"""Unit tests for the healing layer's satellites: checkpoint garbage
collection, randomized crash plans, and classified error context."""

import os

import pytest

from repro.errors import (
    CheckpointError,
    CorruptPayloadError,
    HealError,
    SpmdError,
)
from repro.resilience import HEAL_MODES, CheckpointManager, HealContext
from repro.simmpi import FaultPlan, run_spmd
from repro.sparse import random_sparse


@pytest.fixture
def matrix():
    return random_sparse(24, 24, nnz=120, seed=3)


class TestCheckpointGC:
    def test_keep_last_prunes_older_batch_files(self, tmp_path, matrix):
        ckpt = CheckpointManager(tmp_path / "ck", keep_last=2)
        ckpt.start_run("k1", 4)
        for batch in range(4):
            ckpt.write_batch(batch, [(batch * 6, batch * 6 + 6)], matrix)
        files = sorted(
            f for f in os.listdir(tmp_path / "ck") if f.endswith(".npz")
        )
        assert files == ["batch_2.npz", "batch_3.npz"]

    def test_pruned_batches_still_count_toward_prefix(self, tmp_path, matrix):
        ckpt = CheckpointManager(tmp_path / "ck", keep_last=1)
        ckpt.start_run("k1", 3)
        for batch in range(3):
            ckpt.write_batch(batch, [(0, 8)], matrix)
        # resume must continue from batch 3 even though 0 and 1 are gone
        assert ckpt.completed_prefix() == 3

    def test_load_of_pruned_batch_fails_loudly_with_context(
        self, tmp_path, matrix
    ):
        ckpt = CheckpointManager(tmp_path / "ck", keep_last=1)
        ckpt.start_run("k1", 2)
        ckpt.write_batch(0, [(0, 8)], matrix)
        ckpt.write_batch(1, [(8, 16)], matrix)
        with pytest.raises(CheckpointError, match="garbage-collected") as info:
            ckpt.load_batch(0)
        assert info.value.context["batch"] == 0

    def test_keep_last_must_retain_the_resume_point(self, tmp_path):
        with pytest.raises(CheckpointError, match="keep_last"):
            CheckpointManager(tmp_path / "ck", keep_last=0)

    def test_gc_removes_orphaned_batch_files(self, tmp_path, matrix):
        ckpt = CheckpointManager(tmp_path / "ck")
        ckpt.start_run("k1", 2)
        ckpt.write_batch(0, [(0, 8)], matrix)
        # debris: a stale file from a superseded batch geometry and a
        # torn temporary — neither referenced by the manifest
        for name in ("batch_7.npz", "batch_0.npz.tmp"):
            with open(tmp_path / "ck" / name, "wb") as fh:
                fh.write(b"junk")
        stats = ckpt.gc()
        assert sorted(stats["orphans_removed"]) == [
            "batch_0.npz.tmp", "batch_7.npz",
        ]
        assert stats["pruned"] == []
        # the referenced batch file survives
        assert os.path.exists(tmp_path / "ck" / "batch_0.npz")
        assert ckpt.load_batch(0)[1].nnz == matrix.nnz

    def test_gc_with_explicit_keep_last_prunes(self, tmp_path, matrix):
        ckpt = CheckpointManager(tmp_path / "ck")
        ckpt.start_run("k1", 3)
        for batch in range(3):
            ckpt.write_batch(batch, [(0, 8)], matrix)
        stats = ckpt.gc(keep_last=1)
        assert sorted(stats["pruned"]) == ["batch_0.npz", "batch_1.npz"]
        assert ckpt.completed_prefix() == 3


class TestRandomCrashPlans:
    def test_crash_draws_are_deterministic_per_seed(self):
        p1 = FaultPlan.random(seed=7, nprocs=8, crash=2, max_batch=3)
        p2 = FaultPlan.random(seed=7, nprocs=8, crash=2, max_batch=3)
        assert [(s.kind, s.rank, s.batch) for s in p1] == \
            [(s.kind, s.rank, s.batch) for s in p2]
        crashes = [s for s in p1 if s.kind == "crash"]
        assert len(crashes) == 2
        assert all(0 <= s.rank < 8 and 0 <= s.batch < 3 for s in crashes)

    def test_crash_draws_do_not_disturb_existing_seeds(self):
        """Crash coordinates draw *after* transient/corrupt ones, so
        extending a plan with crashes keeps the older faults identical."""
        base = FaultPlan.random(seed=11, nprocs=4, transient=2, corrupt=1)
        extended = FaultPlan.random(
            seed=11, nprocs=4, transient=2, corrupt=1, crash=1, max_batch=2
        )
        old = [(s.kind, s.rank, s.op, s.nth) for s in base]
        new = [(s.kind, s.rank, s.op, s.nth) for s in extended][:len(old)]
        assert old == new


class TestErrorContext:
    def test_redelivery_exhaustion_carries_rank_op_step(self):
        """A payload corrupted beyond MAX_REDELIVERIES raises with a
        uniform context dict (rank / op / step), not a bare message."""
        plan = FaultPlan([
            f"corrupt:rank=1,op=recv,nth={n}" for n in range(1, 6)
        ])

        def prog(comm):
            if comm.rank == 0:
                comm.send([1, 2, 3], dest=1, tag=0)
                return None
            return comm.recv(source=0, tag=0)

        with pytest.raises(SpmdError) as info:
            run_spmd(2, prog, faults=plan, timeout=10)
        corrupt = [
            e for e in info.value.failures.values()
            if isinstance(e, CorruptPayloadError)
        ]
        assert corrupt, f"expected CorruptPayloadError: {info.value.failures!r}"
        context = corrupt[0].context
        assert context["rank"] == 1
        assert context["op"] == "recv"
        assert context["redeliveries"] >= 1


class TestHealContext:
    def test_rejects_unknown_mode(self):
        with pytest.raises(HealError):
            HealContext("migrate")

    def test_modes_are_published(self):
        assert set(HEAL_MODES) == {"spare", "shrink"}

    def test_report_shape_when_no_heal_happened(self):
        ctx = HealContext("spare")
        report = ctx.report()
        assert report == {
            "mode": "spare", "events": [], "heals": 0,
            "extra_bytes_moved": 0,
        }


class TestRepair:
    """The repair rule, driven the way the driver's amend loop drives it."""

    @staticmethod
    def repair(ctx, dead, restart=0):
        ctx.repair(dead, restart, lambda position: 100 + position, 0.0)
        return ctx.events[-1]

    def test_spare_takes_the_position_and_brings_its_host(self):
        event = self.repair(HealContext("spare", nprocs=4, world_spares=1), {1}, 2)
        assert event["epoch"] == 1 and event["restart_batch"] == 2
        assert event["dead"] == [{"position": 1, "rank": 1}]
        assert event["promoted"] == {4: 1} and event["hosts"][1] == 4
        assert event["bytes_redistributed"] == 101

    def test_a_repaired_position_can_die_again(self):
        ctx = HealContext("spare", nprocs=4, world_spares=2)
        self.repair(ctx, {1})
        event = self.repair(ctx, {1})
        assert event["dead"] == [{"position": 1, "rank": 4}]
        assert event["promoted"] == {5: 1}
        assert ctx.report()["extra_bytes_moved"] == 202

    def test_world_spares_is_the_budget(self):
        ctx = HealContext("spare", nprocs=4, world_spares=1)
        self.repair(ctx, {0})
        with pytest.raises(HealError, match="no spare rank left .* position 2"):
            self.repair(ctx, {2})
        assert ctx.report()["heals"] == 1

    def test_shrink_respawns_onto_the_lowest_surviving_host(self):
        ctx = HealContext("shrink", nprocs=4)
        event = self.repair(ctx, {0, 2})
        assert event["promoted"] == {4: 0, 5: 2}
        assert event["hosts"] == {0: 1, 1: 1, 2: 1, 3: 3}

    def test_round_budget(self):
        ctx = HealContext("shrink", nprocs=2, max_rounds=1)
        self.repair(ctx, {0})
        with pytest.raises(HealError, match="round budget"):
            self.repair(ctx, {1})

    def test_latency_runs_until_the_repaired_region_is_submitted(self):
        ctx = HealContext("spare", nprocs=4, world_spares=1)
        event = self.repair(ctx, {3})
        assert event["latency_s"] == 0.0
        ctx.resubmitted()
        assert ctx.events[-1]["latency_s"] > 0
        closed = ctx.events[-1]["latency_s"]
        ctx.resubmitted()  # a later amendment's submit: nothing open
        assert ctx.events[-1]["latency_s"] == closed


def test_a_repaired_run_keeps_what_it_gathered(tmp_path):
    """``keep_last`` pruning (the service's default) turns old batch files
    into tombstones, so a re-entering run must not read back the batches
    it had already gathered — it keeps them and recomputes the rest."""
    from repro.summa import batched_summa3d

    a = random_sparse(48, 48, nnz=400, seed=71)
    ref = batched_summa3d(a, a, nprocs=4, batches=6)
    healed = batched_summa3d(
        a, a, nprocs=4, batches=6, checkpoint_dir=tmp_path / "ck",
        checkpoint_keep_last=2, faults=["crash:rank=1,batch=4"],
        heal="spare", world_spares=1, timeout=20,
    )
    assert healed.info["resilience"]["heal"]["events"][0]["restart_batch"] == 4
    assert healed.matrix.allclose(ref.matrix)
    assert (healed.matrix.values == ref.matrix.values).all()
