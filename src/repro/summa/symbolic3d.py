"""Distributed symbolic step driver (paper Alg. 3).

Runs only the structure pass — broadcasts plus local symbolic multiplies —
and returns the exact batch count ``b`` the given memory budget requires,
along with the AllReduce-max statistics it is computed from.
"""

from __future__ import annotations

from ..errors import ShapeError
from ..grid.grid3d import GridComms, ProcGrid3D
from ..kernels.base import resolve_tile
from ..model.memory import predict_memory
from ..simmpi.comm import DEFAULT_TIMEOUT, SimComm
from ..simmpi.engine import run_spmd
from ..simmpi.tracker import CommTracker
from ..sparse.matrix import SparseMatrix
from ..utils.timing import StepTimes
from .core import spmd_symbolic3d
from .result import SymbolicResult
from .trace import Tracer


def _spmd_symbolic(
    comm: SimComm,
    a: SparseMatrix,
    b: SparseMatrix,
    grid: ProcGrid3D,
    memory_budget: int,
) -> dict:
    comms = GridComms.build(comm, grid)
    tracer = Tracer(rank=comm.rank)
    out = spmd_symbolic3d(
        comms, resolve_tile(a, grid, comm.rank, "A", "sparse"),
        resolve_tile(b, grid, comm.rank, "B", "sparse"), b.ncols,
        memory_budget, tracer,
    )
    out["times"] = tracer.step_times()
    return out


def symbolic3d(
    a: SparseMatrix,
    b: SparseMatrix,
    nprocs: int = 4,
    layers: int = 1,
    *,
    memory_budget: int,
    tracker: CommTracker | None = None,
    timeout: float = DEFAULT_TIMEOUT,
    world: str = "threads",
    transport: str = "auto",
) -> SymbolicResult:
    """Compute the exact number of batches a memory budget requires.

    ``memory_budget`` is the aggregate memory ``M`` in bytes across all
    ``nprocs`` processes.  Raises
    :class:`~repro.errors.MemoryBudgetError` when even the inputs do not
    fit (no batch count can help, Sec. II-B).  The result's
    ``info["predicted_memory"]`` carries the Table III closed-form
    per-process estimate at the chosen ``b``.
    """
    if a.ncols != b.nrows:
        raise ShapeError(
            f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}"
        )
    grid = ProcGrid3D(nprocs, layers)
    if tracker is None:
        tracker = CommTracker()
    per_rank = run_spmd(
        nprocs,
        _spmd_symbolic,
        a,
        b,
        grid,
        memory_budget,
        tracker=tracker,
        timeout=timeout,
        world=world,
        transport=transport,
    )
    first = per_rank[0]
    return SymbolicResult(
        batches=first["batches"],
        max_nnz_c=first["max_nnz_c"],
        max_nnz_a=first["max_nnz_a"],
        max_nnz_b=first["max_nnz_b"],
        memory_budget=memory_budget,
        grid=grid,
        step_times=StepTimes.critical_path(r["times"] for r in per_rank),
        tracker=tracker,
        info={
            "predicted_memory": predict_memory(
                nprocs=nprocs,
                layers=layers,
                batches=first["batches"],
                max_nnz_a=first["max_nnz_a"],
                max_nnz_b=first["max_nnz_b"],
                max_nnz_c=first["max_nnz_c"],
            )
        },
    )
