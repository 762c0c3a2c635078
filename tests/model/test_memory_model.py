"""Unit tests for repro.model.memory — the Table III / Sec. III-B
per-process memory estimate and its calibration fit."""

import pytest

from repro.errors import MemoryBudgetError
from repro.mem import CATEGORIES
from repro.model import (
    MemoryFit,
    batches_for_budget,
    estimate_max_tile_stats,
    fit_memory_model,
    predict_memory,
)

STATS = dict(max_nnz_a=10_000, max_nnz_b=10_000, max_nnz_c=100_000)


class TestBatchesForBudget:
    def test_matches_alg3_line12(self):
        import math

        r = 24
        budget = 10**7
        nprocs = 16
        expected = math.ceil(
            r * STATS["max_nnz_c"]
            / (budget / nprocs - r * (STATS["max_nnz_a"] + STATS["max_nnz_b"]))
        )
        got = batches_for_budget(
            memory_budget=budget, nprocs=nprocs, **STATS
        )
        assert got == max(1, expected)

    def test_tight_budget_needs_more_batches(self):
        loose = batches_for_budget(memory_budget=10**8, nprocs=16, **STATS)
        tight = batches_for_budget(memory_budget=10**7, nprocs=16, **STATS)
        assert tight >= loose

    def test_infeasible_inputs_raise(self):
        with pytest.raises(MemoryBudgetError, match="inputs alone"):
            batches_for_budget(memory_budget=1000, nprocs=16, **STATS)

    def test_max_batches_cap(self):
        b = batches_for_budget(
            memory_budget=10**7, nprocs=16, max_batches=2, **STATS
        )
        assert b <= 2


class TestPredictMemory:
    def test_all_categories_present(self):
        pred = predict_memory(nprocs=16, layers=1, batches=4, **STATS)
        assert set(pred["categories"]) == set(CATEGORIES)
        assert pred["categories"]["checkpoint"] == 0
        assert pred["high_water_total"] > 0
        assert pred["basis"] == "symbolic"

    def test_more_batches_less_memory(self):
        totals = [
            predict_memory(nprocs=16, layers=1, batches=b, **STATS)[
                "high_water_total"
            ]
            for b in (1, 2, 4, 8)
        ]
        assert totals == sorted(totals, reverse=True)
        assert totals[-1] < totals[0]

    def test_depth1_raises_recv_term(self):
        off = predict_memory(nprocs=16, layers=1, batches=2, **STATS)
        d1 = predict_memory(
            nprocs=16, layers=1, batches=2, overlap="depth1", **STATS
        )
        assert (
            d1["categories"]["recv_buffer"] > off["categories"]["recv_buffer"]
        )
        assert d1["high_water_total"] > off["high_water_total"]

    def test_scale_applies_linearly(self):
        base = predict_memory(nprocs=16, layers=1, batches=2, **STATS)
        scaled = predict_memory(
            nprocs=16, layers=1, batches=2, scale=2.0, **STATS
        )
        assert scaled["high_water_total"] == pytest.approx(
            2 * base["high_water_total"], rel=1e-9
        )


class TestEstimateMaxTileStats:
    def test_balanced_share_with_imbalance(self):
        stats = estimate_max_tile_stats(
            nnz_a=160_000, nnz_b=160_000, nnz_c=800_000,
            flops=1_600_000, nprocs=16, layers=1,
        )
        assert stats["max_nnz_a"] == 13_000  # ceil(1.3 * 160000 / 16)
        assert stats["max_nnz_b"] == 13_000
        assert stats["max_nnz_c"] >= stats["max_nnz_a"]

    def test_layers_compress_intermediate(self):
        kw = dict(nnz_a=10**5, nnz_b=10**5, nnz_c=10**6, flops=4 * 10**6,
                  nprocs=16)
        flat = estimate_max_tile_stats(layers=1, **kw)
        deep = estimate_max_tile_stats(layers=4, **kw)
        assert deep["max_nnz_c"] >= flat["max_nnz_c"]


class TestFit:
    def test_recovers_synthetic_scale(self):
        observations = []
        for b in (1, 2, 4, 8):
            pred = predict_memory(nprocs=16, layers=1, batches=b, **STATS)
            measured = {
                "high_water_total": 1.5 * pred["high_water_total"],
                "categories": {
                    cat: {"high_water": 1.5 * v}
                    for cat, v in pred["categories"].items()
                },
            }
            observations.append((pred, measured))
        fit = fit_memory_model(observations)
        assert isinstance(fit, MemoryFit)
        assert fit.scale == pytest.approx(1.5, rel=1e-6)
        assert fit.mean_abs_error == pytest.approx(0.0, abs=1e-9)

    def test_apply_rescales_prediction(self):
        pred = predict_memory(nprocs=16, layers=1, batches=2, **STATS)
        fit = MemoryFit(scale=2.0, category_scale={}, mean_abs_error=0.0)
        rescaled = fit.apply(pred)
        assert rescaled["high_water_total"] == pytest.approx(
            2 * pred["high_water_total"]
        )
