"""The SPMD body shared by SUMMA2D / SUMMA3D / BatchedSUMMA3D.

One rank-program implements Alg. 4 of the paper (with Alg. 1 and Alg. 2 as
inner structure); the public wrappers fix ``layers`` and ``batches`` to
recover the simpler algorithms:

=====================  ========  =========
algorithm              layers    batches
=====================  ========  =========
SUMMA2D (Alg. 1)        1         1
SUMMA3D (Alg. 2)        l         1
BatchedSUMMA3D (Alg.4)  l         b (symbolic or given)
=====================  ========  =========

The rank program is a loop, not a compiled artefact: this module
resolves ``b``, builds the rank's :class:`~repro.summa.exec.RankState`
and calls :func:`repro.summa.exec.run_batches`, which *is* Alg. 4.  All
timing flows through :class:`~repro.summa.trace.Tracer` spans — there is
no inline clock bookkeeping — and reduces to the classic
:class:`~repro.utils.timing.StepTimes` breakdown.

Step labels match the paper's breakdowns exactly: ``Symbolic``,
``A-Broadcast``, ``B-Broadcast``, ``Local-Multiply``, ``Merge-Layer``,
``AllToAll-Fiber``, ``Merge-Fiber`` — every figure in the evaluation
section is a stack of these.
"""

from __future__ import annotations

from ..comm import get_backend
from ..kernels.base import get_kernel, operand_shape
from ..mem import MemoryLedger
from ..model.memory import batches_for_budget
from ..plan.spec import ExecSpec
from ..grid.grid3d import GridComms, ProcGrid3D
from ..resilience import MAX_RETRIES, RetryPolicy
from ..simmpi.comm import SimComm
from ..sparse.matrix import SparseMatrix
from ..sparse.semiring import get_semiring
from ..sparse.spgemm.symbolic import symbolic_nnz
from .exec import RankState, run_batches
from .trace import (
    ALL_STEPS,
    STEP_A_BCAST,
    STEP_ALLTOALL_FIBER,
    STEP_B_BCAST,
    STEP_COMM_PLAN,
    STEP_LOCAL_MULTIPLY,
    STEP_MERGE_FIBER,
    STEP_MERGE_LAYER,
    STEP_POSTPROCESS,
    STEP_SYMBOLIC,
    Tracer,
)

__all__ = [
    "ALL_STEPS",
    "STEP_SYMBOLIC", "STEP_COMM_PLAN", "STEP_A_BCAST", "STEP_B_BCAST",
    "STEP_LOCAL_MULTIPLY", "STEP_MERGE_LAYER", "STEP_ALLTOALL_FIBER",
    "STEP_MERGE_FIBER", "STEP_POSTPROCESS",
    "spmd_symbolic3d", "spmd_batched_summa3d",
]


def spmd_symbolic3d(
    comms: GridComms,
    a_tile: SparseMatrix,
    b_tile: SparseMatrix,
    b_ncols: int,
    memory_budget: int,
    tracer: Tracer,
) -> dict:
    """Alg. 3 as seen by one rank, on its tiles of A and B (``b_ncols``
    is the global column count, the most batches there can be): returns
    the batch count and statistics.

    ``memory_budget`` is the aggregate memory ``M`` over all processes;
    Alg. 3 line 12 works with the per-process share ``M / p``.
    """
    grid = comms.grid
    local_unmerged_nnz = 0
    with tracer.span(STEP_SYMBOLIC), comms.world.step(STEP_SYMBOLIC):
        for s in range(grid.stages):
            a_recv = comms.row.bcast(a_tile, root=s)
            b_recv = comms.col.bcast(b_tile, root=s)
            # LocalSymbolic: nnz of this stage's (internally merged) product;
            # summed over stages it is the unmerged storage of Alg. 1 line 7.
            local_unmerged_nnz += symbolic_nnz(a_recv, b_recv)
        max_nnz_c = comms.world.allreduce(local_unmerged_nnz, op="max")
        max_nnz_a = comms.world.allreduce(a_tile.nnz, op="max")
        max_nnz_b = comms.world.allreduce(b_tile.nnz, op="max")

    # Alg. 3 line 12 lives in the memory model (the same closed form the
    # driver compares measured high-water marks against).
    batches = batches_for_budget(
        memory_budget=memory_budget,
        nprocs=grid.nprocs,
        max_nnz_a=max_nnz_a,
        max_nnz_b=max_nnz_b,
        max_nnz_c=max_nnz_c,
        max_batches=b_ncols,
    )
    return {
        "batches": batches,
        "max_nnz_c": int(max_nnz_c),
        "max_nnz_a": int(max_nnz_a),
        "max_nnz_b": int(max_nnz_b),
    }


def _resolve_batches(
    comms, a, b, a_tile, b_tile, aux, kernel, memory_budget, tracer,
) -> tuple[int, dict]:
    """``b`` when the caller left it open, and the ``info`` entry saying
    how it was found: one batch without a budget, Alg. 3 in-band (on the
    tiles the numeric phase is about to use) for kernels that have a
    symbolic pass, else the kernel's own footprint model — exact
    geometry, computed identically (and deterministically) on every
    rank."""
    if memory_budget is None:
        return 1, {}
    if kernel.supports_symbolic:
        sym = spmd_symbolic3d(
            comms, a_tile, b_tile, operand_shape(b)[1], memory_budget, tracer,
        )
        return sym["batches"], {"symbolic": sym}
    grid = comms.grid
    batches = kernel.batches_for_budget(
        a, b, aux, nprocs=grid.nprocs, layers=grid.layers,
        memory_budget=memory_budget,
    )
    return batches, {"kernel_batches": batches}


def spmd_batched_summa3d(
    comm: SimComm,
    a: SparseMatrix,
    b: SparseMatrix,
    grid: ProcGrid3D,
    spec: ExecSpec,
    *,
    kernel,
    aux=None,
    postprocess=None,
    piece_sink,
    batch_barrier: bool = False,
    batches: int | None,
    comm_backend="dense",
    start_batch: int = 0,
) -> dict:
    """Alg. 4 (BatchedSUMMA3D) as executed by one rank: resolve ``b``,
    build the rank's state, :func:`~repro.summa.exec.run_batches`, report.

    ``spec`` is the run's validated :class:`~repro.plan.ExecSpec`; the
    steps read its fields where they use them.  The keywords are what a
    spec does not hold — the driver's resolutions, the runtime hooks, and
    the values an amendment (re-batch, heal) changes between submits of
    one run, which override the spec's:

    comm:
        This rank's world communicator (size must equal ``grid.nprocs``).
    a, b:
        The *global* input matrices — each rank extracts its own tile,
        the simulation stand-in for data that is already distributed;
        a :class:`~repro.grid.distribution.Squeezed` pair when the driver
        dropped dead inner indices — or :class:`~repro.kernels.TileSource`
        views of resident tiles.
    kernel:
        The resolved :class:`~repro.kernels.LocalKernel`.
    aux:
        The kernel's third operand, distributed like the output: the
        sampling pattern for ``sddmm``, the mask for ``masked_spgemm``.
        Must be the *global* matrix; each rank cuts its own blocks.
    postprocess:
        Optional ``fn(batch, col_start, col_stop, block) -> SparseMatrix``
        applied per batch to the complete column block (all ``nrows``
        rows), distributed along the process-column communicator.  This is
        the hook HipMCL-style pruning uses (paper Sec. V-C).
    piece_sink:
        ``fn(batch, r0, c0, tile)``, the one way a finished batch tile
        leaves the rank: it is called once per batch and the rank keeps
        nothing, so held bytes do not grow with the batch count.  The
        caller decides what it is — the driver's piece collector for a
        one-shot run, a rank-local keeper for a resident context.
    batch_barrier:
        Synchronise all ranks at each batch boundary — the checkpointing
        durability guarantee (:func:`repro.summa.exec.batch_barrier`).
    batches:
        Batch count; ``None`` resolves it in-band from
        ``spec.memory_budget`` (see :func:`_resolve_batches`).
    comm_backend:
        The backend to run on, ``"auto"`` already decided.
    start_batch:
        First batch to execute (resume support): batches below it are
        assumed durably checkpointed by the driver.

    Returns (per rank)
    ------------------
    dict with ``times``, ``batches``, ``max_local_bytes``, the per-rank
    ``trace`` (:class:`~repro.summa.trace.Tracer`) and symbolic
    statistics when run — never the product, which left by ``piece_sink``.
    """
    backend = get_backend(comm_backend)
    kernel = get_kernel(kernel)
    if kernel.uses_aux and aux is None:
        raise ValueError(
            f"kernel {kernel.name!r} requires its aux operand "
            "(mask / sampling pattern); the drivers synthesise it when "
            "they can — pass it explicitly here"
        )
    # Entry hygiene: any cached plan state belongs to a previous entry
    # (an amended run's re-entry, or a caller-shared backend instance)
    # and must be re-planned against the communicators built below.
    backend.revoke()
    # One ledger and one retry policy per rank per attempt, on the rank's
    # endpoint: every op this rank issues retries a transient fault at its
    # entry, and every payload it receives is charged where it lands.  The
    # budget is the aggregate ``M``; a rank enforces its share (Alg. 3
    # line 12).
    budget = spec.memory_budget
    ledger = MemoryLedger(
        rank=comm.rank, enforce=spec.enforce,
        budget=None if budget is None else budget // grid.nprocs,
    )
    comm.world.ledger = ledger
    comm.world.retry = RetryPolicy(MAX_RETRIES)
    comms = GridComms.build(comm, grid)
    tracer = Tracer(rank=comm.rank)
    info: dict = {}
    a_tile = kernel.a_tile(a, grid, comm.rank)
    b_tile = kernel.b_tile(b, grid, comm.rank)
    if batches is None:
        batches, info = _resolve_batches(
            comms, a, b, a_tile, b_tile, aux, kernel, budget, tracer,
        )
    ledger.batches = batches

    a_tile, b_tile = kernel.prepare_tiles(a_tile, b_tile)
    state = RankState(
        spec=spec, comms=comms, backend=backend, kernel=kernel,
        semiring=get_semiring(spec.semiring), ledger=ledger, tracer=tracer,
        a_tile=a_tile, b_tile=b_tile, aux=aux,
        a_nrows=operand_shape(a)[0], b_ncols=operand_shape(b)[1],
        batches=batches, postprocess=postprocess, piece_sink=piece_sink,
        batch_barrier=batch_barrier,
    )
    run_batches(state, start_batch)

    info.update(
        comm_backend=backend.name, overlap=spec.overlap, kernel=kernel.name,
        memory=ledger.report(),
    )
    return {
        "times": tracer.step_times(),
        "batches": batches,
        "max_local_bytes": ledger.high_water_total,
        "fiber_piece_nnz": state.fiber_piece_nnz,
        "info": info,
        "trace": tracer,
    }
