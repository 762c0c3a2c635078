"""Unit tests for manifest-backed batch-granular checkpointing."""

import json
import os

import pytest

from repro.errors import CheckpointError
from repro.resilience import CheckpointManager, run_key
from repro.sparse import random_sparse


@pytest.fixture
def matrix():
    return random_sparse(24, 24, nnz=120, seed=3)


class TestRunKey:
    def test_covers_operand_contents(self, matrix):
        other = random_sparse(24, 24, nnz=120, seed=4)
        assert run_key(matrix, matrix, nprocs=4) == \
            run_key(matrix, matrix, nprocs=4)
        assert run_key(matrix, matrix, nprocs=4) != \
            run_key(matrix, other, nprocs=4)

    def test_covers_configuration(self, matrix):
        assert run_key(matrix, matrix, nprocs=4) != \
            run_key(matrix, matrix, nprocs=8)
        assert run_key(matrix, matrix, suite="esc") != \
            run_key(matrix, matrix, suite="spa")


class TestRunKeyOfARun:
    """What the driver fingerprints.  The multiply / merge tier used to be
    the spec's ``suite`` field and is read off the kernel now — under the
    same fingerprint key, so checkpoints written before still resume."""

    @staticmethod
    def _key(tmp_path, **knobs):
        from repro.summa import batched_summa3d

        a = random_sparse(24, 24, nnz=90, seed=5)
        batched_summa3d(
            a, a, nprocs=4, batches=2, checkpoint_dir=tmp_path, **knobs
        )
        with open(os.path.join(tmp_path, "manifest.json")) as fh:
            return json.load(fh)

    def test_default_run_key_is_what_it_was_before_the_tier_moved(self, tmp_path):
        # hex pinned from the commit before `suite` left ExecSpec
        assert self._key(tmp_path)["run_key"] == "5e4af380"

    def test_the_tier_is_fingerprinted(self, tmp_path):
        plain = self._key(tmp_path / "esc")
        heap = self._key(tmp_path / "heap", kernel="spgemm:sorted-heap")
        assert heap["run_key"] != plain["run_key"]
        assert heap["plan"]["kernel"] == "spgemm:sorted-heap"

    def test_a_manifest_that_names_the_tier_the_old_way_resumes(self, tmp_path):
        manifest = self._key(tmp_path, kernel="spgemm:sorted-heap")
        old_plan = dict(manifest["plan"], kernel="spgemm", suite="sorted-heap")
        mgr = CheckpointManager(tmp_path / "old")
        mgr.start_run(manifest["run_key"], 2, old_plan)
        assert CheckpointManager(tmp_path / "old").resume_run(
            manifest["run_key"], 2, manifest["plan"]
        ) == (2, 0)
        with pytest.raises(CheckpointError, match="different execution plan"):
            CheckpointManager(tmp_path / "old").resume_run(
                manifest["run_key"], 2, dict(manifest["plan"], kernel="spgemm")
            )


class TestCheckpointManager:
    def test_write_then_load_roundtrip(self, tmp_path, matrix):
        ckpt = CheckpointManager(tmp_path / "ck")
        ckpt.start_run("k1", 3)
        ckpt.write_batch(0, [(0, 12)], matrix)
        spans, loaded = ckpt.load_batch(0)
        assert spans == [(0, 12)]
        assert loaded.nnz == matrix.nnz
        assert loaded.allclose(matrix)

    def test_completed_prefix_is_contiguous(self, tmp_path, matrix):
        ckpt = CheckpointManager(tmp_path / "ck")
        ckpt.start_run("k1", 4)
        ckpt.write_batch(0, [(0, 6)], matrix)
        ckpt.write_batch(2, [(12, 18)], matrix)  # gap at 1
        assert ckpt.completed_prefix() == 1

    def test_resume_adopts_manifest_batches(self, tmp_path, matrix):
        ckpt = CheckpointManager(tmp_path / "ck")
        ckpt.start_run("k1", 3)
        ckpt.write_batch(0, [(0, 8)], matrix)
        fresh = CheckpointManager(tmp_path / "ck")
        batches, first = fresh.resume_run("k1", None)
        assert (batches, first) == (3, 1)

    def test_resume_rejects_different_run_key(self, tmp_path, matrix):
        ckpt = CheckpointManager(tmp_path / "ck")
        ckpt.start_run("k1", 3)
        with pytest.raises(CheckpointError, match="different operands"):
            CheckpointManager(tmp_path / "ck").resume_run("k2")

    def test_resume_rejects_conflicting_batch_count(self, tmp_path):
        ckpt = CheckpointManager(tmp_path / "ck")
        ckpt.start_run("k1", 3)
        with pytest.raises(CheckpointError, match="batch geometry"):
            CheckpointManager(tmp_path / "ck").resume_run("k1", 5)

    def test_resume_empty_dir_without_batches_fails(self, tmp_path):
        with pytest.raises(CheckpointError, match="nothing to resume"):
            CheckpointManager(tmp_path / "ck").resume_run("k1", None)

    def test_resume_empty_dir_with_batches_starts_fresh(self, tmp_path):
        batches, first = CheckpointManager(tmp_path / "ck").resume_run("k1", 4)
        assert (batches, first) == (4, 0)

    def test_corrupt_manifest_is_typed(self, tmp_path):
        ckdir = tmp_path / "ck"
        ckdir.mkdir()
        (ckdir / "manifest.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            CheckpointManager(ckdir).load_manifest()

    def test_malformed_manifest_is_typed(self, tmp_path):
        ckdir = tmp_path / "ck"
        ckdir.mkdir()
        (ckdir / "manifest.json").write_text(json.dumps({"version": 99}))
        with pytest.raises(CheckpointError, match="malformed"):
            CheckpointManager(ckdir).load_manifest()

    def test_missing_batch_file_detected(self, tmp_path, matrix):
        ckpt = CheckpointManager(tmp_path / "ck")
        ckpt.start_run("k1", 2)
        ckpt.write_batch(0, [(0, 12)], matrix)
        os.remove(tmp_path / "ck" / "batch_0.npz")
        with pytest.raises(CheckpointError, match="missing"):
            CheckpointManager(tmp_path / "ck").resume_run("k1")

    def test_truncated_batch_file_detected(self, tmp_path, matrix):
        from repro.sparse import save_matrix

        ckpt = CheckpointManager(tmp_path / "ck")
        ckpt.start_run("k1", 2)
        ckpt.write_batch(0, [(0, 12)], matrix)
        save_matrix(
            str(tmp_path / "ck" / "batch_0.npz"),
            random_sparse(24, 24, nnz=7, seed=9),
        )
        with pytest.raises(CheckpointError, match="truncated"):
            ckpt.load_batch(0)

    def test_reset_clears_batch_files(self, tmp_path, matrix):
        ckpt = CheckpointManager(tmp_path / "ck")
        ckpt.start_run("k1", 2)
        ckpt.write_batch(0, [(0, 12)], matrix)
        ckpt.reset("k1", 4)
        assert not os.path.exists(tmp_path / "ck" / "batch_0.npz")
        assert ckpt.completed_prefix() == 0
        assert ckpt.load_manifest()["batches"] == 4

    def test_manifest_written_atomically(self, tmp_path, matrix):
        """No .tmp residue after writes; manifest always parses."""
        ckpt = CheckpointManager(tmp_path / "ck")
        ckpt.start_run("k1", 2)
        ckpt.write_batch(0, [(0, 12)], matrix)
        leftovers = [f for f in os.listdir(tmp_path / "ck") if ".tmp" in f]
        assert leftovers == []
        json.loads((tmp_path / "ck" / "manifest.json").read_text())


class TestAtomicSaveMatrix:
    def test_no_tmp_residue(self, tmp_path, matrix):
        from repro.sparse import load_matrix, save_matrix

        path = tmp_path / "m.npz"
        save_matrix(str(path), matrix)
        assert load_matrix(str(path)).allclose(matrix)
        assert [f for f in os.listdir(tmp_path) if ".tmp" in f] == []

    def test_failed_write_preserves_existing_file(self, tmp_path, matrix):
        """An interrupted save must never clobber the previous good file —
        the crash-safety contract spill/checkpoint files rely on."""
        import numpy as np

        from repro.sparse import load_matrix, save_matrix

        path = tmp_path / "m.npz"
        save_matrix(str(path), matrix)

        original_savez = np.savez_compressed

        def exploding(*args, **kwargs):
            raise OSError("disk full")

        np.savez_compressed = exploding
        try:
            with pytest.raises(OSError):
                save_matrix(str(path), random_sparse(8, 8, nnz=5, seed=1))
        finally:
            np.savez_compressed = original_savez
        assert load_matrix(str(path)).allclose(matrix)


class TestSharedRootConcurrency:
    """Satellite (ISSUE 9): many jobs checkpointing under one shared
    root must never collect each other's batches — per-run subdirs plus
    the gc() plain-file guard make that safe."""

    def test_run_dir_is_stable_and_sanitised(self, tmp_path):
        d1 = CheckpointManager.run_dir(tmp_path, "abc123")
        assert d1 == CheckpointManager.run_dir(tmp_path, "abc123")
        assert os.path.isdir(d1)
        weird = CheckpointManager.run_dir(tmp_path, "a/../b: c")
        assert os.path.dirname(weird) == str(tmp_path)
        assert "/.." not in weird.replace(str(tmp_path), "", 1)

    def test_for_run_isolates_concurrent_jobs(self, tmp_path, matrix):
        ck1 = CheckpointManager.for_run(tmp_path, "job-one", keep_last=1)
        ck2 = CheckpointManager.for_run(tmp_path, "job-two", keep_last=1)
        assert ck1.directory != ck2.directory
        ck1.start_run("job-one", 3)
        ck2.start_run("job-two", 3)
        for i in range(3):
            ck1.write_batch(i, [(i, i + 1)], matrix)
            ck2.write_batch(i, [(i, i + 1)], matrix)
        # both pruned independently down to their own newest batch
        for ck in (ck1, ck2):
            assert ck.completed_prefix() == 3
            _, loaded = ck.load_batch(2)
            assert loaded.allclose(matrix)
            with pytest.raises(CheckpointError, match="garbage-collected"):
                ck.load_batch(0)

    def test_gc_never_touches_sibling_run_dirs(self, tmp_path, matrix):
        ck1 = CheckpointManager.for_run(tmp_path, "alive")
        ck1.start_run("alive", 2)
        ck1.write_batch(0, [(0, 1)], matrix)
        # a second job's directory full of batches, plus stray debris in
        # the first job's own directory
        ck2 = CheckpointManager.for_run(tmp_path, "other")
        ck2.start_run("other", 2)
        ck2.write_batch(0, [(0, 1)], matrix)
        stray = os.path.join(ck1.directory, "batch_9.npz")
        with open(stray, "wb") as fh:
            fh.write(b"debris")
        # gc from a manager rooted at the *shared root* level must not
        # exist — but even a manager whose directory contains the run
        # dirs (legacy layout) skips them: plain files only
        legacy = CheckpointManager(tmp_path)
        legacy.start_run("legacy", 1)
        report = legacy.gc()
        assert ck2.completed_prefix() == 1  # untouched
        _, loaded = ck2.load_batch(0)
        assert loaded.allclose(matrix)
        # the stray file inside ck1's dir is ck1's to collect, not legacy's
        assert "batch_9.npz" not in report["orphans_removed"]
        assert ck1.gc()["orphans_removed"] == ["batch_9.npz"]
        assert ck1.completed_prefix() == 1

    def test_keep_last_tombstones_survive_resume(self, tmp_path, matrix):
        ck = CheckpointManager.for_run(tmp_path, "resume-me", keep_last=1)
        ck.start_run("resume-me", 4)
        for i in range(3):
            ck.write_batch(i, [(i, i + 1)], matrix)
        fresh = CheckpointManager.for_run(tmp_path, "resume-me")
        batches, first = fresh.resume_run("resume-me", None)
        assert (batches, first) == (4, 3)  # pruned batches still count
