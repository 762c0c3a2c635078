"""The healing layer: checkpoint garbage collection, randomized crash
plans, classified error context, and ``heal=True``'s re-entry through
the driver (event record, a position dying twice, the round budget)."""

import os
import time

import numpy as np
import pytest

from repro.errors import (
    CheckpointError,
    CorruptPayloadError,
    HealError,
    SpmdError,
)
from repro.resilience import CheckpointManager
from repro.simmpi import FaultPlan, run_spmd
from repro.sparse import random_sparse
from repro.summa import batched, batched_summa3d


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


class TestRepair:
    """Re-entry after rank deaths, driven through the driver's amend loop
    (``heal=True``): the same grid re-enters at the checkpointed batch."""

    @staticmethod
    def run(tmp_path, faults, **knobs):
        a = random_sparse(48, 48, nnz=400, seed=71)
        return batched_summa3d(
            a, a, nprocs=4, batches=4, checkpoint_dir=tmp_path / "ck",
            faults=faults, timeout=25, **{"heal": True, **knobs},
        )

    def test_report_shape_when_no_heal_happened(self, tmp_path):
        report = self.run(tmp_path, None).info["resilience"]
        assert report["heal"] == {"heals": 0, "events": []}
        assert "heal" not in self.run(
            tmp_path, None, heal=False
        ).info["resilience"]

    def test_a_repaired_position_can_die_again(self, tmp_path):
        a = random_sparse(48, 48, nnz=400, seed=71)
        ref = batched_summa3d(a, a, nprocs=4, batches=4).matrix
        for world in ("threads", "processes"):
            result = self.run(
                tmp_path / world,
                ["crash:rank=1,batch=1", "crash:rank=1,batch=2"],
                world=world,
            )
            heal = result.info["resilience"]["heal"]
            assert heal["heals"] == 2, world
            assert [(e["epoch"], e["dead"], e["restart_batch"])
                    for e in heal["events"]] == [(1, [1], 1), (2, [1], 2)]
            m = result.matrix
            assert np.array_equal(m.indptr, ref.indptr), world
            assert np.array_equal(m.rowidx, ref.rowidx), world
            assert np.array_equal(m.values, ref.values), world

    def test_round_budget(self, tmp_path, monkeypatch):
        monkeypatch.setattr(batched, "MAX_HEAL_ROUNDS", 1)
        with pytest.raises(SpmdError) as info:
            self.run(tmp_path, ["crash:rank=0,batch=1", "crash:rank=2,batch=2"])
        causes = list(info.value.failures.values())
        assert causes and all(isinstance(e, HealError) for e in causes)
        assert "round budget exhausted (1)" in str(causes[0])
        assert info.value.checkpoint_dir == str(tmp_path / "ck")

    def test_latency_runs_until_the_repaired_region_is_submitted(
        self, tmp_path
    ):
        t0 = time.perf_counter()
        result = self.run(tmp_path, ["crash:rank=3,batch=2"])
        wall = time.perf_counter() - t0
        (event,) = result.info["resilience"]["heal"]["events"]
        assert event["dead"] == [3]
        assert 0 < event["latency_s"] < wall


class TestRebatchComposesWithHeal:
    """A memory-pressure re-batch and a heal are the two amendments of
    one launch loop.  They compose in either order — the crash before the
    re-batch (batch 0) or in the re-batched run (batches 2 and 5) — and
    the product is the one a fixed-``b`` run gives."""

    @pytest.mark.parametrize("world", ["threads", "processes"])
    @pytest.mark.parametrize("crash_batch", [0, 2, 5])
    def test_rebatch_and_crash_match_fixed_b(self, tmp_path, crash_batch, world):
        a = random_sparse(48, 48, nnz=320, seed=21)
        b = random_sparse(48, 48, nnz=320, seed=22)
        run = batched_summa3d(
            a, b, 4, batches=3, checkpoint_dir=tmp_path / "ck",
            faults=["mem-pressure:rank=0,batch=1",
                    f"crash:rank=1,batch={crash_batch}"],
            heal=True, world=world, timeout=60.0,
        )
        fixed = batched_summa3d(a, b, 4, batches=6, timeout=60.0).matrix
        m = run.matrix
        assert np.array_equal(m.indptr, fixed.indptr)
        assert np.array_equal(m.rowidx, fixed.rowidx)
        assert np.array_equal(m.values, fixed.values)
        resilience = run.info["resilience"]
        (event,) = resilience["heal"]["events"]
        assert event["restart_batch"] == crash_batch
        assert resilience["rebatched"] == [{"from": 3, "to": 6}]
        assert run.batches == run.info["plan"]["batches"] == 6


def test_a_repaired_run_keeps_what_it_gathered(tmp_path):
    """``keep_last`` pruning (the service's default) turns old batch files
    into tombstones, so a re-entering run must not read back the batches
    it had already gathered — it keeps them and recomputes the rest."""
    a = random_sparse(48, 48, nnz=400, seed=71)
    ref = batched_summa3d(a, a, nprocs=4, batches=6)
    healed = batched_summa3d(
        a, a, nprocs=4, batches=6, checkpoint_dir=tmp_path / "ck",
        checkpoint_keep_last=2, faults=["crash:rank=1,batch=4"],
        heal=True, timeout=20,
    )
    assert healed.info["resilience"]["heal"]["events"][0]["restart_batch"] == 4
    assert healed.matrix.allclose(ref.matrix)
    assert (healed.matrix.values == ref.matrix.values).all()
