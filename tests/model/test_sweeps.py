"""Tests for the Eq. 2 budget sweep."""

from repro.model.sweeps import batch_requirement_sweep

STATS = dict(nnz_a=10**9, nnz_b=10**9, nnz_c=10**10, flops=10**12)


class TestBatchRequirementSweep:
    def test_monotone_in_budget(self):
        budgets = [10**12, 10**13, 10**14]
        rows = batch_requirement_sweep(
            nprocs=1024, layers=16, memory_budgets=budgets, **STATS
        )
        feasible = [r for r in rows if r["feasible"]]
        bs = [r["batches"] for r in feasible]
        assert bs == sorted(bs, reverse=True)

    def test_infeasible_flagged(self):
        rows = batch_requirement_sweep(
            nprocs=4, layers=1, memory_budgets=[10**3], **STATS
        )
        assert rows[0]["feasible"] is False
        assert rows[0]["batches"] is None
