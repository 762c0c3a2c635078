"""The Eq. 2 sweep as a library function.

``bench_eq2_budget_curve`` prints and asserts; this function *produces*
the underlying series as a plain list of dicts, ready for tabulation or
plotting.
"""

from __future__ import annotations

from ..errors import MemoryBudgetError
from .machine import CORI_KNL, MachineSpec
from .memory import estimate_batches


def batch_requirement_sweep(
    *,
    machine: MachineSpec = CORI_KNL,
    nprocs: int,
    layers: int,
    memory_budgets,
    nnz_a: int,
    nnz_b: int,
    nnz_c: int,
    flops: int,
) -> list[dict]:
    """Batch counts across a memory-budget sweep (the Eq. 2 curve)."""
    rows = []
    for budget in memory_budgets:
        try:
            batches = estimate_batches(
                memory_budget=budget,
                nprocs=nprocs,
                layers=layers,
                nnz_a=nnz_a,
                nnz_b=nnz_b,
                nnz_c=nnz_c,
                flops=flops,
            )
            rows.append({"memory_budget": budget, "batches": batches,
                         "feasible": True})
        except MemoryBudgetError:
            rows.append({"memory_budget": budget, "batches": None,
                         "feasible": False})
    return rows
