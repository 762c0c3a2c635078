"""Mid-run replanning correctness.

The load-bearing invariant: **replanning never changes the product.**  An
amended-plan run must be bit-identical to a fixed-plan run of the final
configuration — across kernels, comm backends, and execution worlds.  On
top of that: the pure decision function's levers fire on the documented
conditions and *only* on them (hysteresis), and checkpoint manifests
reject a resume under a plan whose geometry differs.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import CheckpointError, ReplanSignal
from repro.plan import ExecSpec
from repro.plan.replan import ReplanPolicy, decide_replan
from repro.resilience.checkpoint import CheckpointManager, PLAN_GEOMETRY_KEYS
from repro.sparse import random_sparse
from repro.summa import batched_summa3d


def _identical(x, y) -> bool:
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y)
    return (
        x.shape == y.shape
        and np.array_equal(x.indptr, y.indptr)
        and np.array_equal(x.rowidx, y.rowidx)
        and np.array_equal(x.values, y.values)
    )


# ---------------------------------------------------------------------- #
# decide_replan: the pure lever logic
# ---------------------------------------------------------------------- #

class TestDecideReplan:
    POLICY = ReplanPolicy(threshold=0.15, min_gain_s=1e-4)

    def _decide(self, policy=None, **over):
        kwargs = dict(
            batches=8, batch=0, backend="dense",
            t_fixed=1.0, t_scaled=0.125, t_comm=0.0,
            peak=0.0, fixed_mem=0.0, budget=None, max_batches=64,
        )
        kwargs.update(over)
        return decide_replan(policy or self.POLICY, **kwargs)

    def test_shrink_fires_when_fixed_cost_dominates(self):
        # t_keep = 7 * 1.125 = 7.875; shrink to 4 costs
        # 4*1.0 + 8*0.125 = 5.0 < 0.85 * 7.875 — adopt.
        amended, reason = self._decide()
        assert amended == {"batches": 4}
        assert reason == "fixed-cost-dominated"

    def test_no_amendment_on_final_batch(self):
        assert self._decide(batch=7) is None

    def test_revision_cap_blocks(self):
        policy = ReplanPolicy(max_replans=1, revision=1)
        assert self._decide(policy) is None

    def test_hysteresis_threshold_blocks_marginal_gain(self):
        # same measurements, but demand a 60% predicted gain:
        # 5.0 >= 0.4 * 7.875 — stay the course.
        assert self._decide(ReplanPolicy(threshold=0.6)) is None

    def test_scaled_cost_dominated_never_shrinks(self):
        # fixed cost negligible: shrinking redistributes the same scaled
        # work, t_switch ≈ t_keep + extra fixed savings of ~0 — no gain.
        assert self._decide(t_fixed=0.001, t_scaled=1.0) is None

    def test_shrink_respects_memory_feasibility(self):
        # predicted peak at b=4 is 10 + 40*(8/4) = 90 > 100 * 0.8.
        assert self._decide(peak=50.0, fixed_mem=10.0, budget=100.0) is None

    def test_grow_fires_over_budget(self):
        amended, reason = self._decide(
            batches=2, t_fixed=0.1, t_scaled=0.1,
            peak=150.0, budget=100.0,
        )
        assert amended == {"batches": 4}
        assert reason == "over-budget"

    def test_grow_capped_by_max_batches(self):
        assert self._decide(
            batches=2, t_fixed=0.1, t_scaled=0.1,
            peak=150.0, budget=100.0, max_batches=2,
        ) is None

    def test_backend_flip_fires_when_comm_bound(self):
        # t_keep = 3 * 1.0; other backend's per-batch cost is
        # 1.0 - 0.9 + 0.9*0.2 = 0.28, redo all 4 batches: 1.12 < 2.55.
        policy = ReplanPolicy(
            allow_shrink=False,
            modelled_comm=(("dense", 1.0), ("sparse", 0.2)),
        )
        amended, reason = self._decide(
            policy, batches=4, t_fixed=0.1, t_scaled=0.9, t_comm=0.9,
        )
        assert amended == {"comm_backend": "sparse"}
        assert reason == "comm-bound-backend"

    def test_backend_flip_needs_model_table(self):
        policy = ReplanPolicy(allow_shrink=False, modelled_comm=())
        assert self._decide(
            policy, batches=4, t_fixed=0.1, t_scaled=0.9, t_comm=0.9,
        ) is None

    def test_resumable_flip_only_redoes_remainder(self):
        # with a checkpoint, redo = rem; a flip that is too costly when
        # redoing everything becomes worthwhile.
        modelled = (("dense", 1.0), ("sparse", 0.55))
        base = dict(batches=4, t_fixed=0.1, t_scaled=0.9, t_comm=0.9)
        # per_batch_other = 1.0 - 0.9 + 0.9*0.55 = 0.595
        # not resumable: 4 * 0.595 = 2.38 >= 0.85 * 3 = 2.55? no, fires.
        # tighten threshold so only the resumable case clears it:
        # resumable: 3 * 0.595 = 1.785 < 0.6 * 3 = 1.8; full: 2.38 >= 1.8.
        strict = ReplanPolicy(
            allow_shrink=False, modelled_comm=modelled, threshold=0.4,
        )
        assert self._decide(strict, **base) is None
        resumable = ReplanPolicy(
            allow_shrink=False, modelled_comm=modelled, threshold=0.4,
            resumable=True,
        )
        amended, _ = self._decide(resumable, **base)
        assert amended == {"comm_backend": "sparse"}


def test_replan_signal_pickles_for_process_world():
    sig = ReplanSignal(
        "replan at batch 1", batch=1, batches=4,
        amended={"batches": 2}, reason="forced",
        measurements={"t_fixed": 1.0},
    )
    back = pickle.loads(pickle.dumps(sig))
    assert back.batch == 1
    assert back.amended == {"batches": 2}
    assert back.reason == "forced"


# ---------------------------------------------------------------------- #
# amended runs are bit-identical to fixed-plan runs (the hard rule)
# ---------------------------------------------------------------------- #

CASES = [
    ("spgemm", "dense", "threads"),
    ("spgemm", "sparse", "threads"),
    ("spgemm", "dense", "processes"),
    ("spmm", "dense", "threads"),
]


def _operands(kernel):
    a = random_sparse(48, 48, nnz=320, seed=21)
    if kernel == "spmm":
        b = np.ascontiguousarray(
            np.random.default_rng(3).standard_normal((48, 6))
        )
    else:
        b = random_sparse(48, 48, nnz=320, seed=22)
    return a, b


class TestReplanBitIdentity:
    @pytest.mark.parametrize("kernel,backend,world", CASES)
    def test_forced_rebatch_matches_fixed_plan(self, kernel, backend, world):
        a, b = _operands(kernel)
        common = dict(
            kernel=kernel, comm_backend=backend, world=world, timeout=60.0,
        )
        replanned = batched_summa3d(
            a, b, 4, batches=4,
            replan_force=((1, {"batches": 2}),), **common,
        )
        fixed = batched_summa3d(a, b, 4, batches=2, **common)
        assert _identical(replanned.matrix, fixed.matrix)

        plan = replanned.info["plan"]
        assert plan["revision"] == 1
        assert plan["batches"] == 2
        assert plan["provenance"]["mode"] == "replan"
        (event,) = replanned.info["resilience"]["replans"]
        assert event["at_batch"] == 1
        assert event["reason"] == "forced"
        assert event["from"]["batches"] == 4
        assert event["to"]["batches"] == 2
        # the fixed-plan run carries revision 0 and no replan log
        assert fixed.info["plan"]["revision"] == 0

    def test_forced_backend_flip_matches_fixed_plan(self):
        a, b = _operands("spgemm")
        replanned = batched_summa3d(
            a, b, 4, batches=3, comm_backend="dense",
            replan_force=((0, {"comm_backend": "sparse"}),), timeout=60.0,
        )
        fixed = batched_summa3d(
            a, b, 4, batches=3, comm_backend="sparse", timeout=60.0,
        )
        assert _identical(replanned.matrix, fixed.matrix)
        plan = replanned.info["plan"]
        assert plan["backend"] == "sparse"
        assert plan["batches"] == 3
        assert plan["revision"] == 1
        (event,) = replanned.info["resilience"]["replans"]
        assert event["from"]["backend"] == "dense"
        assert event["to"]["backend"] == "sparse"

    def test_final_plan_spec_reflects_amendment(self):
        a, b = _operands("spgemm")
        r = batched_summa3d(
            a, b, 4, batches=4, replan_force=((0, {"batches": 2}),),
        )
        spec = ExecSpec.from_dict(r.info["plan"]["spec"])
        assert spec.batches == 2


class TestReplanComposesWithHeal:
    """A replan and a repair are amendments of the same loop, re-entering
    at the same batch boundaries from the same checkpoint: they compose
    in either order (the crash before, at or after the forced replan)
    without a second protocol to reconcile."""

    @pytest.mark.parametrize("world", ["threads", "processes"])
    @pytest.mark.parametrize("crash_batch", [0, 2, 5])
    @pytest.mark.parametrize(
        "amended", [{"batches": 8}, {"comm_backend": "sparse"}],
        ids=["rebatch", "flip"],
    )
    def test_forced_replan_and_crash_match_fixed_plan(
        self, tmp_path, amended, crash_batch, world
    ):
        a, b = _operands("spgemm")
        final = {"batches": 6, "comm_backend": "dense", **amended}
        run = batched_summa3d(
            a, b, 4, batches=6, comm_backend="dense",
            replan_force=((1, amended),), checkpoint_dir=tmp_path / "ck",
            faults=[f"crash:rank=1,batch={crash_batch}"],
            heal="spare", world_spares=1, world=world, timeout=60.0,
        )
        fixed = batched_summa3d(a, b, 4, timeout=60.0, **final)
        assert _identical(run.matrix, fixed.matrix)
        resilience = run.info["resilience"]
        assert resilience["heal"]["heals"] == 1
        assert len(resilience["replans"]) == 1
        assert run.info["world"]["heal_epochs"] == 1
        plan = run.info["plan"]
        assert (plan["batches"], plan["backend"]) == (
            final["batches"], final["comm_backend"]
        )


class TestReplanHysteresis:
    def test_noisy_but_stable_workload_never_replans(self):
        # replan="auto" on a small balanced problem: measured timings are
        # noisy, but no lever's predicted gain can clear the threshold
        # (shrinking b=2 conserves the scaled work; no budget, so no
        # grow; the modelled backend ratio is ~1).  Three repeats to give
        # timing noise a chance to thrash — it must not.
        a = random_sparse(40, 40, nnz=240, seed=31)
        b = random_sparse(40, 40, nnz=240, seed=32)
        for _ in range(3):
            r = batched_summa3d(a, b, 4, batches=2, replan="auto")
            assert r.info["plan"]["revision"] == 0
            assert "replans" not in (r.info.get("resilience") or {})
            assert r.matrix.allclose(batched_summa3d(a, b, 4).matrix)


# ---------------------------------------------------------------------- #
# checkpoint manifests embed the plan (satellite 2's consumer)
# ---------------------------------------------------------------------- #

class TestCheckpointPlanGuard:
    SPEC = ExecSpec.from_kwargs(nprocs=4, layers=1, batches=4)

    def test_resume_rejects_geometry_mismatch(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.start_run("k", 4, self.SPEC.to_dict())
        with pytest.raises(CheckpointError, match="layers"):
            CheckpointManager(tmp_path).resume_run(
                "k", plan=self.SPEC.amended(layers=2).to_dict()
            )

    def test_resume_accepts_round_tripped_plan(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.start_run("k", 4, self.SPEC.to_dict())
        resumed = ExecSpec.from_dict(self.SPEC.to_dict())
        batches, first = CheckpointManager(tmp_path).resume_run(
            "k", plan=resumed.to_dict()
        )
        assert (batches, first) == (4, 0)

    def test_resume_accepts_a_manifest_that_still_names_r(self, tmp_path):
        # written before bytes_per_nonzero left the spec (it only ever
        # fed the batch count, which resume checks on its own)
        mgr = CheckpointManager(tmp_path)
        mgr.start_run("k", 4, dict(self.SPEC.to_dict(), bytes_per_nonzero=24))
        assert CheckpointManager(tmp_path).resume_run(
            "k", plan=self.SPEC.to_dict()
        ) == (4, 0)

    def test_backend_flip_is_not_a_geometry_change(self, tmp_path):
        # comm_backend is deliberately outside PLAN_GEOMETRY_KEYS — a
        # replanned flip resumes past durable batches instead of
        # invalidating them.
        assert "comm_backend" not in PLAN_GEOMETRY_KEYS
        mgr = CheckpointManager(tmp_path)
        mgr.start_run("k", 4, self.SPEC.to_dict())
        flipped = self.SPEC.amended(comm_backend="sparse")
        batches, first = CheckpointManager(tmp_path).resume_run(
            "k", plan=flipped.to_dict()
        )
        assert (batches, first) == (4, 0)
