"""Integration tests for the repro.mem ledger wired through the drivers:
uniform ``info["memory"]`` blocks, budget enforcement with graceful
degradation, overlap accounting, and the Table III model loop."""

import pytest

from repro.mem import CATEGORIES
from repro.sparse import multiply, random_sparse
from repro.summa import batched_summa3d, summa2d, summa3d


@pytest.fixture(scope="module")
def operands():
    a = random_sparse(96, 96, nnz=900, seed=7)
    return a, multiply(a, a)


def _assert_uniform_block(mem):
    for key in ("high_water_total", "per_rank_high_water", "categories",
                "batch_peaks", "budget_per_rank", "enforce", "warnings"):
        assert key in mem
    assert mem["high_water_total"] > 0
    assert set(mem["categories"]) <= set(CATEGORIES)
    for entry in mem["categories"].values():
        assert entry["high_water"] > 0


class TestUniformReport:
    def test_all_three_drivers_report_memory(self, operands):
        a, ref = operands
        for result in (
            summa2d(a, a, nprocs=4),
            summa3d(a, a, nprocs=8, layers=2),
            batched_summa3d(a, a, nprocs=4, batches=2),
        ):
            _assert_uniform_block(result.memory)
            assert result.matrix.allclose(ref)
            # satellite (a): max_local_bytes is an alias of the block total
            assert result.max_local_bytes == result.memory["high_water_total"]

    def test_batch_peaks_cover_every_batch(self, operands):
        a, _ = operands
        r = batched_summa3d(a, a, nprocs=4, batches=4)
        assert sorted(r.memory["batch_peaks"]) == [0, 1, 2, 3]
        assert all(p > 0 for p in r.memory["batch_peaks"].values())

    def test_input_tiles_always_resident(self, operands):
        a, _ = operands
        mem = batched_summa3d(a, a, nprocs=4, batches=2).memory
        assert mem["categories"]["a_piece"]["high_water"] > 0
        assert mem["categories"]["b_piece"]["high_water"] > 0

    def test_both_backends_account_recv(self, operands):
        a, _ = operands
        for backend in ("dense", "sparse"):
            mem = batched_summa3d(
                a, a, nprocs=4, batches=2, comm_backend=backend
            ).memory
            assert mem["categories"]["recv_buffer"]["high_water"] > 0

    def test_checkpoint_category_charged(self, operands, tmp_path):
        a, _ = operands
        mem = batched_summa3d(
            a, a, nprocs=4, batches=2, checkpoint_dir=tmp_path / "ck"
        ).memory
        assert mem["categories"]["checkpoint"]["high_water"] > 0


class TestBudgetUnits:
    def test_enforce_needs_budget(self, operands):
        a, _ = operands
        with pytest.raises(ValueError, match="needs a budget"):
            batched_summa3d(a, a, nprocs=4, batches=1, enforce="strict")

    def test_unknown_enforce_rejected(self, operands):
        a, _ = operands
        with pytest.raises(ValueError, match="enforce"):
            batched_summa3d(a, a, nprocs=4, batches=1, enforce="loud")


class TestEnforcement:
    def test_strict_rebatches_to_double_bit_identical(self, operands):
        """A budget between the b=1 and b=2 peaks must degrade 1 -> 2 and
        still produce the exact product (the acceptance scenario)."""
        a, ref = operands
        direct2 = batched_summa3d(a, a, nprocs=4, batches=2)
        peak1 = batched_summa3d(a, a, nprocs=4, batches=1).max_local_bytes
        peak2 = direct2.max_local_bytes
        assert peak2 < peak1  # batching must actually help here
        budget = (peak1 + peak2) // 2
        r = batched_summa3d(
            a, a, nprocs=4, batches=1,
            memory_budget=4 * budget, enforce="strict",
        )
        assert r.batches == 2
        assert r.info["resilience"]["rebatched"] == [{"from": 1, "to": 2}]
        assert r.matrix.allclose(ref)
        # deterministic degradation: bit-identical to a direct b=2 run
        assert (r.matrix.values == direct2.matrix.values).all()
        assert (r.matrix.rowidx == direct2.matrix.rowidx).all()
        assert r.max_local_bytes <= budget

    def test_warn_completes_and_records(self, operands):
        a, ref = operands
        peak1 = batched_summa3d(a, a, nprocs=4, batches=1).max_local_bytes
        r = batched_summa3d(
            a, a, nprocs=4, batches=1,
            memory_budget=4 * (peak1 - 1), enforce="warn",
        )
        assert r.batches == 1  # warn never re-batches
        assert r.matrix.allclose(ref)
        assert len(r.memory["warnings"]) >= 1
        assert r.memory["warnings"][0]["budget_per_rank"] == peak1 - 1

    def test_off_ignores_budget(self, operands):
        a, ref = operands
        r = batched_summa3d(
            a, a, nprocs=4, batches=1, memory_budget=4 * 1024,
        )
        assert r.batches == 1
        assert r.matrix.allclose(ref)
        assert r.memory["warnings"] == []


class TestOverlapAccounting:
    def test_depth1_doubles_inflight_recv(self, operands):
        """Depth-1 overlap holds both the current and the prefetched
        stage's operands, so its recv high-water must be strictly
        higher than sequential execution's."""
        a, _ = operands
        off = summa2d(a, a, nprocs=4, overlap="off")
        d1 = summa2d(a, a, nprocs=4, overlap="depth1")
        assert (
            d1.memory["categories"]["recv_buffer"]["high_water"]
            > off.memory["categories"]["recv_buffer"]["high_water"]
        )
        assert d1.matrix.allclose(off.matrix)


class TestModelLoop:
    def test_model_error_within_2x(self, operands):
        """Acceptance: the Table III prediction lands within 2x of the
        measured high-water on a budgeted (symbolic-stats) run."""
        a, _ = operands
        r = batched_summa3d(
            a, a, nprocs=4, memory_budget=4 * 10**5, keep_output=False,
        )
        mem = r.memory
        assert "model" in mem
        assert mem["model"]["high_water_total"] > 0
        assert 0.5 <= mem["model_error"] <= 2.0

    def test_model_covers_all_paper_categories(self, operands):
        a, _ = operands
        model = batched_summa3d(
            a, a, nprocs=4, memory_budget=4 * 10**5
        ).memory["model"]
        assert set(model["categories"]) == set(CATEGORIES)

    def test_symbolic_result_carries_prediction(self, operands):
        from repro.summa import symbolic3d

        a, _ = operands
        sym = symbolic3d(a, a, nprocs=4, memory_budget=4 * 10**5)
        pred = sym.info["predicted_memory"]
        assert pred["high_water_total"] > 0
        assert pred["params"]["batches"] == sym.batches

    def test_planner_attaches_prediction(self, operands):
        from repro.summa.planner import auto_config

        a, _ = operands
        choice = auto_config(a, a, 4, memory_budget=4 * 10**5)
        assert choice.predicted_memory is not None
        assert choice.predicted_memory["high_water_total"] > 0
        estimate = auto_config(
            a, a, 4, memory_budget=4 * 10**5, use_symbolic=False
        )
        assert estimate.predicted_memory["basis"] == "estimate"


class TestRowsForwarding:
    def test_rows_driver_forwards_memory_knobs(self, operands):
        a, ref = operands
        from repro.summa import batched_summa3d_rows

        peak1 = batched_summa3d_rows(a, a, nprocs=4, batches=1).max_local_bytes
        r = batched_summa3d_rows(
            a, a, nprocs=4, batches=1,
            memory_budget=4 * (peak1 - 1), enforce="warn",
        )
        assert len(r.memory["warnings"]) >= 1
        assert r.matrix.allclose(ref)
