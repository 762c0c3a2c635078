"""Tests for the α–β model: machine specs, Table II/III closed forms,
and the predictor's paper-shape behaviours."""


import pytest

from repro.errors import MemoryBudgetError
from repro.model import (
    CORI_HASWELL,
    CORI_KNL,
    CORI_KNL_HT,
    batches_for_budget,
    comm_complexity,
    comp_complexity,
    estimate_batches,
    estimate_dk_nnz,
    estimate_max_tile_stats,
    parallel_efficiency,
    predict_steps,
    strong_scaling_series,
    total_comm_time,
)

STATS = dict(nnz_a=10**9, nnz_b=10**9, nnz_c=10**10, flops=10**12)
#: comm/complexity functions take no nnz_c (Table II does not use it)
CSTATS = {k: v for k, v in STATS.items() if k != "nnz_c"}


class TestMachineSpec:
    def test_procs_for_cores(self):
        # 16 threads per process, 1 thread per core without HT
        assert CORI_KNL.procs_for_cores(16384) == 1024
        assert CORI_KNL.procs_for_cores(16384, hyperthreads=True) == 4096

    def test_aggregate_memory(self):
        nodes = 16384 // 68
        assert CORI_KNL.aggregate_memory(16384) == nodes * CORI_KNL.mem_per_node

    def test_haswell_faster(self):
        assert CORI_HASWELL.sparse_rate > CORI_KNL.sparse_rate
        assert CORI_HASWELL.beta < CORI_KNL.beta

    def test_rate_scale(self):
        fast = CORI_KNL.with_rate_scale(2.0)
        assert fast.sparse_rate == 2 * CORI_KNL.sparse_rate
        assert fast.alpha == CORI_KNL.alpha


class TestCommComplexity:
    def test_abcast_bandwidth_scales_with_batches(self):
        c1 = comm_complexity(nprocs=1024, layers=4, batches=1, **CSTATS)
        c8 = comm_complexity(nprocs=1024, layers=4, batches=8, **CSTATS)
        assert c8["A-Broadcast"]["bytes"] == pytest.approx(
            8 * c1["A-Broadcast"]["bytes"]
        )

    def test_bbcast_bandwidth_independent_of_batches(self):
        c1 = comm_complexity(nprocs=1024, layers=4, batches=1, **CSTATS)
        c8 = comm_complexity(nprocs=1024, layers=4, batches=8, **CSTATS)
        assert c8["B-Broadcast"]["bytes"] == pytest.approx(
            c1["B-Broadcast"]["bytes"]
        )
        assert c8["B-Broadcast"]["latency_hops"] > c1["B-Broadcast"]["latency_hops"]

    def test_abcast_decreases_with_layers(self):
        # Table II: bandwidth ~ 1/sqrt(pl)
        c1 = comm_complexity(nprocs=1024, layers=1, batches=4, **CSTATS)
        c16 = comm_complexity(nprocs=1024, layers=16, batches=4, **CSTATS)
        assert c16["A-Broadcast"]["bytes"] == pytest.approx(
            c1["A-Broadcast"]["bytes"] / 4
        )

    def test_alltoall_grows_with_layers(self):
        c4 = comm_complexity(nprocs=1024, layers=4, batches=2, **CSTATS)
        c16 = comm_complexity(nprocs=1024, layers=16, batches=2, **CSTATS)
        assert c16["AllToAll-Fiber"]["latency_hops"] > c4["AllToAll-Fiber"]["latency_hops"]

    def test_no_fiber_cost_without_layers(self):
        c = comm_complexity(nprocs=1024, layers=1, batches=4, **CSTATS)
        assert c["AllToAll-Fiber"]["bytes"] == 0

    def test_symbolic_batch_independent(self):
        c1 = comm_complexity(nprocs=1024, layers=4, batches=1, **CSTATS)
        c8 = comm_complexity(nprocs=1024, layers=4, batches=8, **CSTATS)
        assert c1["Symbolic"] == c8["Symbolic"]

    def test_dk_tightens_alltoall(self):
        loose = comm_complexity(nprocs=64, layers=4, batches=1, **CSTATS)
        tight = comm_complexity(
            nprocs=64, layers=4, batches=1, dk_nnz_total=10**10, **CSTATS
        )
        assert tight["AllToAll-Fiber"]["bytes"] < loose["AllToAll-Fiber"]["bytes"]


class TestCompComplexity:
    def test_local_multiply_invariant(self):
        c1 = comp_complexity(nprocs=1024, layers=1, batches=1, flops=10**12)
        c2 = comp_complexity(nprocs=1024, layers=16, batches=8, flops=10**12)
        assert c1["Local-Multiply"] == c2["Local-Multiply"]

    def test_merge_layer_shrinks_with_layers(self):
        c1 = comp_complexity(nprocs=1024, layers=1, batches=1, flops=10**12)
        c16 = comp_complexity(nprocs=1024, layers=16, batches=1, flops=10**12)
        assert c16["Merge-Layer"] < c1["Merge-Layer"]

    def test_merge_fiber_zero_without_layers(self):
        c = comp_complexity(nprocs=1024, layers=1, batches=1, flops=10**12)
        assert c["Merge-Fiber"] == 0


class TestDkEstimate:
    def test_bounds(self):
        for layers in (1, 2, 4, 16, 64):
            dk = estimate_dk_nnz(10**10, 10**12, layers)
            assert 10**10 <= dk <= 10**12

    def test_monotone_in_layers(self):
        dks = [estimate_dk_nnz(10**10, 10**12, l) for l in (1, 2, 4, 8, 16)]
        assert dks == sorted(dks)

    def test_one_layer_is_nnz_c(self):
        assert estimate_dk_nnz(5000, 50000, 1) == 5000

    def test_empty(self):
        assert estimate_dk_nnz(0, 0, 4) == 0


class TestEstimateBatches:
    def test_more_memory_fewer_batches(self):
        kwargs = dict(nprocs=1024, layers=16, **STATS)
        b_small = estimate_batches(memory_budget=10**12, **kwargs)
        b_large = estimate_batches(memory_budget=10**13, **kwargs)
        assert b_small >= b_large

    def test_infeasible_raises(self):
        # the one error of Alg. 3 line 12, as from the symbolic step
        with pytest.raises(MemoryBudgetError):
            estimate_batches(memory_budget=10**3, nprocs=4, layers=1, **STATS)

    def test_is_alg3_line_12_on_the_estimated_maxima(self):
        kwargs = dict(nprocs=1024, layers=16, **STATS)
        for budget in (10**11, 10**12, 10**13):
            assert estimate_batches(memory_budget=budget, **kwargs) == \
                batches_for_budget(
                    memory_budget=budget, nprocs=1024,
                    **estimate_max_tile_stats(imbalance=1.0, **kwargs),
                )

    def test_generous_is_one(self):
        assert estimate_batches(
            memory_budget=10**18, nprocs=1024, layers=16, **STATS
        ) == 1


class TestPredictor:
    def test_all_steps_present(self):
        t = predict_steps(CORI_KNL, nprocs=1024, layers=16, batches=4, **STATS)
        for step in ("A-Broadcast", "B-Broadcast", "Local-Multiply",
                     "Merge-Layer", "Merge-Fiber", "AllToAll-Fiber", "Symbolic"):
            assert step in t.seconds

    def test_paper_trends_table6(self):
        """Table VI: sign of each step's change w.r.t. l and b."""
        base = predict_steps(CORI_KNL, nprocs=4096, layers=4, batches=4, **STATS)
        more_b = predict_steps(CORI_KNL, nprocs=4096, layers=4, batches=16, **STATS)
        more_l = predict_steps(CORI_KNL, nprocs=4096, layers=16, batches=4, **STATS)
        # b up: A-Bcast up, B-Bcast ~same bandwidth, others ~unchanged
        assert more_b.get("A-Broadcast") > base.get("A-Broadcast")
        assert more_b.get("Local-Multiply") == pytest.approx(base.get("Local-Multiply"))
        # l up: broadcasts down, fiber costs up
        assert more_l.get("A-Broadcast") < base.get("A-Broadcast")
        assert more_l.get("B-Broadcast") < base.get("B-Broadcast")
        assert more_l.get("AllToAll-Fiber") > base.get("AllToAll-Fiber")
        assert more_l.get("Merge-Fiber") > base.get("Merge-Fiber")

    def test_haswell_faster_than_knl(self):
        knl = predict_steps(CORI_KNL, nprocs=1024, layers=16, batches=4, **STATS)
        hsw = predict_steps(CORI_HASWELL, nprocs=1024, layers=16, batches=4, **STATS)
        assert hsw.total() < knl.total()

    def test_strong_scaling_batches_shrink(self):
        series = strong_scaling_series(
            CORI_KNL,
            core_counts=[4096, 16384, 65536],
            layers=16,
            memory_fraction=0.02,
            **STATS,
        )
        bs = [pt.batches for pt in series]
        assert bs == sorted(bs, reverse=True)

    def test_strong_scaling_time_decreases(self):
        series = strong_scaling_series(
            CORI_KNL,
            core_counts=[4096, 16384, 65536],
            layers=16,
            memory_fraction=0.05,
            **STATS,
        )
        totals = [pt.total for pt in series]
        assert totals == sorted(totals, reverse=True)

    def test_parallel_efficiency_first_is_one(self):
        series = strong_scaling_series(
            CORI_KNL,
            core_counts=[4096, 16384],
            layers=16,
            **STATS,
        )
        eff = parallel_efficiency(series)
        assert eff[0] == pytest.approx(1.0)

    def test_hyperthreading_tradeoff(self):
        """Fig. 12 shape: HT speeds computation, slows communication."""
        plain = predict_steps(CORI_KNL, nprocs=16384, layers=16, batches=4, **STATS)
        ht = predict_steps(CORI_KNL_HT, nprocs=65536, layers=16, batches=4, **STATS)
        comp = ["Local-Multiply", "Merge-Layer", "Merge-Fiber"]
        comm = ["A-Broadcast", "B-Broadcast", "AllToAll-Fiber"]
        assert sum(ht.get(s) for s in comp) < sum(plain.get(s) for s in comp)
        assert sum(ht.get(s) for s in comm) > sum(plain.get(s) for s in comm)


class TestLayerRecommendation:
    def test_total_comm_time_positive(self):
        assert total_comm_time(
            CORI_KNL, nprocs=1024, layers=4, batches=2, **CSTATS
        ) > 0
