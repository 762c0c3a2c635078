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

The body itself is *compiled*, not hand-written: this module assembles
per-rank state, hands the algorithm's shape to
:func:`repro.summa.exec.compile_batched_summa3d`, and runs the resulting
:class:`~repro.summa.exec.ExecutionPlan` under the executor selected by
the ``overlap=`` knob (``"off"`` — sequential, today's exact behaviour;
``"depth1"`` — broadcasts of stage ``s+1`` prefetched behind stage
``s``'s multiply).  All timing flows through
:class:`~repro.summa.trace.Tracer` spans — there is no inline clock
bookkeeping here — and still reduces to the classic
:class:`~repro.utils.timing.StepTimes` breakdown.

Step labels match the paper's breakdowns exactly: ``Symbolic``,
``A-Broadcast``, ``B-Broadcast``, ``Local-Multiply``, ``Merge-Layer``,
``AllToAll-Fiber``, ``Merge-Fiber`` — every figure in the evaluation
section is a stack of these.
"""

from __future__ import annotations

from ..comm import get_backend
from ..kernels.base import get_kernel, operand_shape, resolve_tile
from ..mem import MemoryLedger, nbytes_of
from ..model.memory import batches_for_budget
from ..grid.grid3d import GridComms, ProcGrid3D
from ..resilience import RetryPolicy
from ..simmpi.comm import SimComm
from ..sparse.matrix import BYTES_PER_NONZERO, SparseMatrix
from ..sparse.ops import split_bounds
from ..sparse.semiring import get_semiring
from ..sparse.spgemm.suite import get_suite
from ..sparse.spgemm.symbolic import symbolic_nnz
from .exec import ExecState, compile_batched_summa3d, get_executor
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
    a: SparseMatrix,
    b: SparseMatrix,
    memory_budget: int,
    bytes_per_nonzero: int,
    tracer: Tracer,
    retry: "RetryPolicy | None" = None,
) -> dict:
    """Alg. 3 as seen by one rank: returns the batch count and statistics.

    ``memory_budget`` is the aggregate memory ``M`` over all processes;
    Alg. 3 line 12 works with the per-process share ``M / p``.  ``retry``
    optionally re-runs transiently-failed symbolic collectives (the
    structure pass is as exposed to flaky messages as the numeric one).
    """
    grid = comms.grid
    a_tile = resolve_tile(a, grid, comms.world.rank, "A", "sparse")
    b_tile = resolve_tile(b, grid, comms.world.rank, "B", "sparse")

    def call(comm, op, fn):
        return fn() if retry is None else retry.call(fn, comm=comm, op=op)

    local_unmerged_nnz = 0
    with tracer.span(STEP_SYMBOLIC), comms.world.step(STEP_SYMBOLIC):
        for s in range(grid.stages):
            a_recv = call(
                comms.row, "bcast", lambda s=s: comms.row.bcast(a_tile, root=s)
            )
            b_recv = call(
                comms.col, "bcast", lambda s=s: comms.col.bcast(b_tile, root=s)
            )
            # LocalSymbolic: nnz of this stage's (internally merged) product;
            # summed over stages it is the unmerged storage of Alg. 1 line 7.
            local_unmerged_nnz += symbolic_nnz(a_recv, b_recv)
        max_nnz_c = call(
            comms.world, "allreduce",
            lambda: comms.world.allreduce(local_unmerged_nnz, op="max"),
        )
        max_nnz_a = call(
            comms.world, "allreduce",
            lambda: comms.world.allreduce(a_tile.nnz, op="max"),
        )
        max_nnz_b = call(
            comms.world, "allreduce",
            lambda: comms.world.allreduce(b_tile.nnz, op="max"),
        )

    # Alg. 3 line 12 lives in the memory model (the same closed form the
    # driver compares measured high-water marks against).
    batches = batches_for_budget(
        memory_budget=memory_budget,
        nprocs=grid.nprocs,
        max_nnz_a=max_nnz_a,
        max_nnz_b=max_nnz_b,
        max_nnz_c=max_nnz_c,
        bytes_per_nonzero=bytes_per_nonzero,
        max_batches=b.ncols,
    )
    return {
        "batches": batches,
        "max_nnz_c": int(max_nnz_c),
        "max_nnz_a": int(max_nnz_a),
        "max_nnz_b": int(max_nnz_b),
    }


def spmd_batched_summa3d(
    comm: SimComm,
    a: SparseMatrix,
    b: SparseMatrix,
    grid: ProcGrid3D,
    *,
    batches: int | None,
    memory_budget: int | None,
    memory_budget_per_rank: int | None = None,
    enforce: str = "off",
    bytes_per_nonzero: int = BYTES_PER_NONZERO,
    suite="esc",
    semiring="plus_times",
    keep_pieces: bool = True,
    postprocess=None,
    batch_scheme: str = "block-cyclic",
    merge_policy: str = "deferred",
    comm_backend="dense",
    overlap: str = "off",
    piece_sink=None,
    max_retries: int | None = 3,
    start_batch: int = 0,
    batch_barrier: bool = False,
    kernel="spgemm",
    aux=None,
    replan=None,
) -> dict:
    """Alg. 4 (BatchedSUMMA3D) as executed by one rank.

    Parameters
    ----------
    comm:
        This rank's world communicator (size must equal ``grid.nprocs``).
    a, b:
        The *global* input matrices; each rank extracts its own tile —
        the simulation stand-in for data that is already distributed.
    batches:
        Batch count; ``None`` runs the symbolic step (requires
        ``memory_budget``).
    memory_budget_per_rank, enforce:
        Per-rank byte limit for the rank's :class:`~repro.mem.MemoryLedger`
        and what to do when the measured high-water mark exceeds it:
        ``"off"`` (account only), ``"warn"`` (record in the memory
        report), ``"strict"`` (raise a deterministic
        :class:`~repro.errors.MemoryBudgetExceededError` at the stage
        boundary that exceeds it — the driver's graceful-degradation
        path catches it and re-batches).  The driver resolves the
        aggregate ↔ per-rank unit conversion before this point
        (:func:`repro.mem.resolve_budget`).
    postprocess:
        Optional ``fn(batch, col_start, col_stop, block) -> SparseMatrix``
        applied per batch to the complete column block (all ``nrows``
        rows), distributed along the process-column communicator.  This is
        the hook HipMCL-style pruning uses (paper Sec. V-C).
    batch_scheme:
        ``"block-cyclic"`` (paper Fig. 1(i), balances Merge-Fiber) or
        ``"block"`` (contiguous; the load-imbalance ablation).
    merge_policy:
        ``"deferred"`` merges all stage partials once per batch (the
        paper's choice, Alg. 1 line 8); ``"incremental"`` folds each stage
        into the running result immediately — lower transient memory, more
        merge work in the worst case (Sec. III-A discussion).
    comm_backend:
        ``"dense"`` (whole-tile collectives, the paper's Table II) or
        ``"sparse"`` (SpComm3D-style sparsity-aware point-to-point; see
        :mod:`repro.comm`), or a :class:`~repro.comm.CommBackend`
        class/instance.  Both produce bit-identical results.  ``"auto"``
        must be resolved by the driver before this point.
    overlap:
        ``"off"`` runs the :class:`~repro.summa.exec.SequentialExecutor`
        (the strict stage order); ``"depth1"`` runs the
        :class:`~repro.summa.exec.PipelinedExecutor`, which prefetches
        stage ``s+1``'s operands behind stage ``s``'s local multiply.
        Bit-identical products either way.
    piece_sink:
        Optional ``fn(batch, r0, c0, tile)`` that receives each finished
        output piece *instead of* it being held in ``pieces`` — the
        memory-constrained streaming path (spilling / per-batch hooks
        with ``keep_output=False``), where held bytes must not grow with
        the batch count.
    max_retries:
        Bound on per-attempt retries of transiently-failed communication
        (a :class:`~repro.resilience.RetryPolicy` attached to the
        backend); ``None`` disables retrying entirely.
    start_batch:
        First batch to execute (resume support): the plan covers batches
        ``start_batch .. batches-1``, and batches below ``start_batch``
        are assumed durably checkpointed by the driver.
    batch_barrier:
        Synchronise all ranks at each batch boundary (see
        :func:`~repro.summa.exec.compile_batched_summa3d`) — the
        checkpointing durability guarantee.
    kernel:
        The :class:`~repro.kernels.LocalKernel` (name or instance)
        deciding what a stage computes — ``"spgemm"`` (default,
        bit-identical to the pre-seam behaviour), ``"spmm"``,
        ``"sddmm"`` or ``"masked_spgemm"``.  The kernel declares operand
        kinds (dense operands ride collectives on both comm backends),
        the merge rule and the memory footprint.
    aux:
        The kernel's third operand, distributed like the output: the
        sampling pattern for ``sddmm``, the mask for ``masked_spgemm``.
        Must be the *global* matrix; each rank cuts its own blocks.
    replan:
        Optional :class:`~repro.plan.ReplanPolicy`.  When set, a
        ``replan-check`` op runs after every non-final batch; the
        :class:`~repro.plan.Replanner` built from the policy may raise a
        collective :class:`~repro.errors.ReplanSignal` carrying an
        amended plan, which the driver applies through the re-batch
        path.  ``None`` (default) compiles no check ops at all.

    Returns (per rank)
    ------------------
    dict with ``pieces`` (list of ``(batch, r0, c0, tile)``), ``times``,
    ``batches``, ``max_local_bytes``, the per-rank ``trace``
    (:class:`~repro.summa.trace.Tracer`) and symbolic statistics when run.
    """
    if merge_policy not in ("deferred", "incremental"):
        raise ValueError(
            f"unknown merge policy {merge_policy!r}; "
            "expected 'deferred' or 'incremental'"
        )
    executor = get_executor(overlap)
    suite = get_suite(suite)
    semiring = get_semiring(semiring)
    backend = get_backend(comm_backend)
    kernel = get_kernel(kernel)
    if kernel.uses_aux and aux is None:
        raise ValueError(
            f"kernel {kernel.name!r} requires its aux operand "
            "(mask / sampling pattern); the drivers synthesise it when "
            "they can — pass it explicitly here"
        )
    retry = RetryPolicy(max_retries) if max_retries is not None else None
    backend.retry = retry
    # Entry hygiene: any cached plan state belongs to a previous grid
    # membership (heal re-entry, or a caller-shared backend instance) and
    # must be re-planned against the communicators built below.
    backend.revoke()
    # One ledger per rank per attempt; the world (thread-local) and the
    # backend both see it, so wire deliveries and recv buffers are
    # charged where they land, whichever path they take.
    ledger = MemoryLedger(
        rank=comm.rank, budget=memory_budget_per_rank, enforce=enforce
    )
    comm.world.ledger = ledger
    backend.ledger = ledger
    comms = GridComms.build(comm, grid)
    tracer = Tracer(rank=comm.rank)
    info: dict = {}

    if batches is None:
        if memory_budget is None:
            batches = 1
        elif kernel.supports_symbolic:
            sym = spmd_symbolic3d(
                comms, a, b, memory_budget, bytes_per_nonzero, tracer,
                retry=retry,
            )
            batches = sym["batches"]
            info["symbolic"] = sym
        else:
            # dense-operand kernels need no symbolic pass: the kernel's
            # own footprint model is exact geometry, computed identically
            # (and deterministically) on every rank.
            batches = kernel.batches_for_budget(
                a, b, aux, nprocs=grid.nprocs, layers=grid.layers,
                memory_budget=memory_budget,
            )
            info["kernel_batches"] = batches

    a_tile = kernel.a_tile(a, grid, comm.rank)
    b_tile = kernel.b_tile(b, grid, comm.rank)
    a_tile, b_tile = kernel.prepare_tiles(a_tile, b_tile, suite)

    a_nrows = operand_shape(a)[0]
    b_ncols = operand_shape(b)[1]

    # assemble the per-rank execution state
    state = ExecState()
    state.comms = comms
    state.grid = grid
    state.backend = backend
    state.suite = suite
    state.semiring = semiring
    state.kernel = kernel
    state.aux = aux
    state.a_tile = a_tile
    state.b_tile = b_tile
    ledger.batches = batches
    state.ledger = ledger
    state.mem["a_tile"] = ledger.acquire("a_piece", nbytes_of(a_tile), "a_tile")
    state.mem["b_tile"] = ledger.acquire("b_piece", nbytes_of(b_tile), "b_tile")
    state.batches = batches
    state.batch_scheme = batch_scheme
    state.a_nrows = a_nrows
    state.b_ncols = b_ncols
    state.row_bounds = split_bounds(a_nrows, grid.pr)
    state.r0 = int(state.row_bounds[comms.i])
    col_super = split_bounds(b_ncols, grid.pc)
    state.c0_super = int(col_super[comms.j])
    state.super_w = int(col_super[comms.j + 1]) - state.c0_super
    state.postprocess = postprocess
    state.keep_pieces = keep_pieces
    state.piece_sink = piece_sink
    state.tracer = tracer
    if replan is not None:
        from ..plan.replan import Replanner
        state.replan = Replanner(replan, start_batch=start_batch)

    plan = compile_batched_summa3d(
        grid,
        batches=batches,
        merge_policy=merge_policy,
        has_postprocess=postprocess is not None,
        first_batch=start_batch,
        batch_barrier=batch_barrier,
        kernel=kernel,
        replan=state.replan is not None,
    )
    executor.run(plan, state, tracer)

    info["comm_backend"] = backend.name
    info["overlap"] = executor.overlap
    info["kernel"] = kernel.name
    info["memory"] = ledger.report()
    return {
        "pieces": state.pieces,
        "times": tracer.step_times(),
        "batches": batches,
        "max_local_bytes": ledger.high_water_total,
        "fiber_piece_nnz": state.fiber_piece_nnz,
        "info": info,
        "trace": tracer,
    }
