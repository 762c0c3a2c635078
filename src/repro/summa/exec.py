"""Execution-plan IR and executors for the SUMMA family.

The SPMD body no longer hard-codes its stage order: `repro.summa.core`
*compiles* BatchedSUMMA3D (and through it SUMMA2D / SUMMA3D, which are
the ``layers=1`` / ``batches=1`` specialisations) into a flat list of
:class:`StageOp` records — one per Symbolic / Comm-Plan / A-Broadcast /
B-Broadcast / Local-Multiply / Merge-Layer / AllToAll-Fiber /
Merge-Fiber / Postprocess step instance, plus untimed bookkeeping ops —
each carrying its *data* dependencies.  An executor then walks the plan:

* :class:`SequentialExecutor` runs ops in program order, reproducing the
  pre-IR monolith bit-for-bit (same collectives, same step attribution);
* :class:`PipelinedExecutor` exploits the one relaxation the dependency
  edges expose — a stage's broadcasts depend only on the batch's
  Comm-Plan, *not* on the previous stage's multiply — to software
  double-buffer: it issues stage ``s+1``'s operand delivery through
  :meth:`CommBackend.prefetch_stage` (nonblocking ``ibcast`` / tagged
  ``isend``/``irecv``) immediately before running stage ``s``'s local
  multiply, then the broadcast ops of stage ``s+1`` merely wait.

Both executors run the *same program order on every rank* — the SPMD
contract that makes the simulated collectives line up — and move exactly
the same bytes per step, so :class:`~repro.simmpi.tracker.CommTracker`
totals are identical between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..errors import DistributionError, ExecPlanError
from ..kernels.base import operand_shape
from ..kernels.spgemm import SpgemmKernel
from ..mem import MemoryLedger, nbytes_of
from ..grid.distribution import (
    batch_layer_blocks,
    batch_local_columns,
    c_tile_columns,
    gather_tiles,
)
from ..sparse.matrix import SparseMatrix
from ..sparse.ops import submatrix
from .trace import (
    STEP_A_BCAST,
    STEP_ALLTOALL_FIBER,
    STEP_B_BCAST,
    STEP_COMM_PLAN,
    STEP_LOCAL_MULTIPLY,
    STEP_MERGE_FIBER,
    STEP_MERGE_LAYER,
    STEP_POSTPROCESS,
    Tracer,
)

#: supported settings of the ``overlap=`` knob.
OVERLAP_MODES = ("off", "depth1")


@dataclass(frozen=True)
class StageOp:
    """One node of the execution plan.

    ``kind`` is the structural role (``"bcast-a"``, ``"multiply"``, …);
    ``op`` is the trace/StepTimes label the span is recorded under;
    ``timed=False`` marks bookkeeping that never fed the paper's step
    breakdown (column splits, memory metering, piece accounting).
    ``deps`` lists the opids whose *outputs* this op reads — the edges
    that legitimise (or forbid) reordering by a smarter executor.
    ``mem_delta``, when set, predicts the bytes this op will charge to
    the :class:`~repro.mem.MemoryLedger` *before* it runs — a
    ``state -> {category: bytes}`` closure.  The pipelined executor
    prices in-flight prefetches with it (charging *both* buffers of the
    depth-1 double-buffer), and planners can walk a plan's deltas to
    shape a run's footprint without executing it.
    """

    opid: int
    kind: str
    op: str
    batch: int | None
    stage: int | None
    deps: tuple[int, ...]
    run: Callable[["ExecState", Any], None]
    timed: bool = True
    mem_delta: Callable[["ExecState"], dict] | None = None


@dataclass
class ExecutionPlan:
    """A compiled SUMMA program: ops in program order plus the prefetch
    issuers a pipelining executor may fire early.

    ``prefetch_issuers`` maps ``(batch, stage)`` to a closure that starts
    that stage's operand delivery via the backend's nonblocking path and
    returns a :class:`~repro.comm.backend.StagePrefetch`.  Stage 0 of
    every batch has no issuer — its broadcasts run blocking, right after
    the batch's Comm-Plan (whose collectives must not be overtaken).

    ``mem_annotations`` indexes the broadcast ops' ``mem_delta``
    predictors by ``(batch, stage)`` as ``(operand, closure)`` pairs, so
    the pipelined executor can charge a stage's in-flight operands the
    moment it issues the prefetch.
    """

    ops: list[StageOp] = field(default_factory=list)
    prefetch_issuers: dict[tuple[int, int], Callable] = field(default_factory=dict)
    mem_annotations: dict[tuple[int, int], tuple] = field(default_factory=dict)
    #: registry name of the local kernel this plan was compiled for —
    #: recorded so plans are self-describing (the op bodies themselves
    #: dispatch through ``state.kernel``).
    kernel: str = "spgemm"

    def validate(self) -> None:
        """Check the plan is a DAG consistent with program order: every
        dependency must point at an earlier op."""
        for idx, op in enumerate(self.ops):
            if op.opid != idx:
                raise ExecPlanError(f"plan op {idx} carries opid {op.opid}")
            for dep in op.deps:
                if not 0 <= dep < idx:
                    raise ExecPlanError(
                        f"op {idx} ({op.kind}) depends on {dep}, which is "
                        "not an earlier op"
                    )

    def ops_of_kind(self, kind: str) -> list[StageOp]:
        return [op for op in self.ops if op.kind == kind]


class ExecState:
    """Mutable per-rank state the ops read and write.

    The compiler only bakes *indices* (batch, stage) into op closures;
    everything rank-specific — communicators, backend instance, tiles,
    geometry, the memory ledger — lives here, assembled by
    :func:`repro.summa.core.spmd_batched_summa3d` before execution.

    ``ledger`` is this rank's :class:`~repro.mem.MemoryLedger`; ``mem``
    maps logical buffer names (``"a_recv"``, ``"d_local"``, the
    ``"partials"`` list, prefetch keys …) to the live
    :class:`~repro.mem.MemAllocation` handles tracking them.  Op bodies
    release a buffer's old handle before acquiring its successor, so the
    ledger's continuous totals equal the historical boundary snapshots.
    """

    __slots__ = (
        "comms", "grid", "backend", "suite", "semiring", "kernel",
        "a_tile", "b_tile", "b_batch", "aux", "aux_batch",
        "a_recv", "b_recv",
        "partials", "stage_out", "d_local", "sendlist", "received", "c_tile",
        "pieces", "fiber_piece_nnz", "ledger", "mem", "prefetched",
        "batches", "batch_scheme", "super_w", "row_bounds", "r0", "c0_super",
        "a_nrows", "b_ncols", "c0", "c1",
        "postprocess", "keep_pieces", "piece_sink", "info",
        "tracer", "replan",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, None)
        self.partials = []
        self.pieces = []
        self.fiber_piece_nnz = []
        self.prefetched = {}
        self.info = {}
        self.mem = {}
        self.kernel = SpgemmKernel()  # default; core installs the chosen one
        self.ledger = MemoryLedger()  # unlimited unless core installs one


def compile_batched_summa3d(
    grid,
    *,
    batches: int,
    merge_policy: str = "deferred",
    has_postprocess: bool = False,
    first_batch: int = 0,
    batch_barrier: bool = False,
    kernel=None,
    replan: bool = False,
) -> ExecutionPlan:
    """Compile Alg. 4 for ``grid`` into an :class:`ExecutionPlan`.

    The op sequence (and which instants are timed under which step
    label) mirrors the pre-IR monolith exactly, so a
    :class:`SequentialExecutor` run is indistinguishable from it.

    ``first_batch`` compiles only batches ``first_batch .. batches-1`` —
    the resume path: batches below it are already durable in a
    checkpoint, and every op closure is keyed by its *global* batch
    index, so a resumed plan computes exactly the same column blocks the
    full plan would have.

    ``batch_barrier`` appends a world-wide barrier as each batch's last
    op.  Checkpointing needs it for its durability guarantee: a rank can
    only reach batch ``i`` by passing batch ``i-1``'s barrier, which it
    only passes once *every* rank has finalized batch ``i-1`` — i.e. the
    batch's last piece has landed and its checkpoint entry is written.
    Without the barrier a fast rank crashing in batch ``i`` can abort
    slower peers while they are still mid-batch ``i-1``, losing it.

    ``kernel`` is the :class:`~repro.kernels.LocalKernel` the plan is
    compiled for (default: SpGEMM).  The op *structure* is kernel-
    agnostic — bodies dispatch through ``state.kernel`` — but kernels
    with dense accumulators declare :attr:`incremental_only` and force
    ``merge_policy="incremental"`` here, so the plan never holds one
    dense partial per stage.

    ``replan`` appends a ``replan-check`` op after every non-final
    batch's last op.  The op consults ``state.replan`` (a
    :class:`~repro.plan.Replanner`, when the driver installed one) and
    may raise a collective :class:`~repro.errors.ReplanSignal`.  It runs
    *after* the batch barrier so a checkpointed batch is durable before
    any amendment abandons the attempt.
    """
    if kernel is None:
        kernel = SpgemmKernel()
    if kernel.incremental_only:
        merge_policy = "incremental"
    if not 0 <= first_batch <= batches:
        raise ExecPlanError(
            f"first_batch {first_batch} outside [0, {batches}]"
        )
    plan = ExecutionPlan(kernel=kernel.name)
    last = -1  # opid of the most recent op (default dependency)

    def add(kind, label, run, *, batch=None, stage=None, timed=True, deps=None,
            mem_delta=None):
        nonlocal last
        opid = len(plan.ops)
        if deps is None:
            deps = (last,) if last >= 0 else ()
        plan.ops.append(StageOp(
            opid=opid, kind=kind, op=label, batch=batch, stage=stage,
            deps=tuple(deps), run=run, timed=timed, mem_delta=mem_delta,
        ))
        last = opid
        return opid

    for batch in range(first_batch, batches):
        add("col-split", "ColSplit", _run_col_split(batch), batch=batch,
            timed=False)
        plan_id = add("comm-plan", STEP_COMM_PLAN, _run_comm_plan,
                      batch=batch)

        stage_tail = plan_id  # accumulation chain within the layer
        for s in range(grid.stages):
            # The broadcasts of stage s depend only on this batch's
            # Comm-Plan — not on stage s-1's multiply.  That missing edge
            # is exactly the freedom the PipelinedExecutor exploits.
            a_id = add("bcast-a", STEP_A_BCAST, _run_bcast_a(batch, s),
                       batch=batch, stage=s, deps=(plan_id,),
                       mem_delta=_delta_bcast_a)
            b_id = add("bcast-b", STEP_B_BCAST, _run_bcast_b(batch, s),
                       batch=batch, stage=s, deps=(plan_id,),
                       mem_delta=_delta_bcast_b)
            plan.mem_annotations[(batch, s)] = (
                ("a", _delta_bcast_a), ("b", _delta_bcast_b),
            )
            mul_id = add("multiply", STEP_LOCAL_MULTIPLY, _run_multiply,
                         batch=batch, stage=s, deps=(a_id, b_id),
                         mem_delta=_delta_multiply)
            if merge_policy == "incremental" and s > 0:
                acc_id = add("merge-stage", STEP_MERGE_LAYER,
                             _run_merge_stage, batch=batch, stage=s,
                             deps=(mul_id, stage_tail))
            else:
                acc_id = add("accumulate", "Accumulate", _run_accumulate,
                             batch=batch, stage=s, timed=False,
                             deps=(mul_id, stage_tail))
            stage_tail = add("meter", "Meter", _run_meter_stage,
                             batch=batch, stage=s, timed=False,
                             deps=(acc_id,))
            if s + 1 < grid.stages:
                plan.prefetch_issuers[(batch, s + 1)] = _issue_prefetch(s + 1)

        add("merge-layer", STEP_MERGE_LAYER, _run_merge_layer, batch=batch,
            deps=(stage_tail,))
        add("meter", "Meter", _run_meter_layer, batch=batch, timed=False)

        if grid.layers > 1:
            add("fiber-split", "FiberSplit", _run_fiber_split(batch),
                batch=batch, timed=False)
            add("fiber-exchange", STEP_ALLTOALL_FIBER, _run_fiber_exchange,
                batch=batch, mem_delta=_delta_fiber_exchange)
            add("meter", "Meter", _run_meter_fiber, batch=batch, timed=False)
            add("merge-fiber", STEP_MERGE_FIBER, _run_merge_fiber,
                batch=batch)
        else:
            add("sort-output", "SortOutput", _run_sort_output, batch=batch,
                timed=False)
        add("meter", "Meter", _run_meter_output, batch=batch, timed=False)

        add("c-range", "CRange", _run_c_range(batch), batch=batch,
            timed=False)
        if has_postprocess:
            add("postprocess", STEP_POSTPROCESS, _run_postprocess(batch),
                batch=batch)
        add("finalize", "Finalize", _run_finalize(batch), batch=batch,
            timed=False)
        if batch_barrier:
            add("batch-barrier", "Batch-Barrier", _run_batch_barrier,
                batch=batch, timed=False)
        if replan and batch + 1 < batches:
            add("replan-check", "Replan-Check", _run_replan_check(batch),
                batch=batch, timed=False)

    plan.validate()
    return plan


# --------------------------------------------------------------------- #
# predicted memory deltas (StageOp.mem_delta annotations)
# --------------------------------------------------------------------- #

def _delta_bcast_a(state) -> dict:
    """A stage receives a whole peer A tile; size a rank's own tile."""
    return {"recv_buffer": state.a_tile.nbytes}


def _delta_bcast_b(state) -> dict:
    """A stage receives a peer's batch column block of B."""
    return {"recv_buffer": state.b_batch.nbytes}


def _delta_multiply(state) -> dict:
    """Upper bound on the stage product: the merge scratch cannot exceed
    the operands' combined flop expansion; used for introspection only
    (the multiply charges its *actual* output size)."""
    return {"merge_scratch": state.a_recv.nbytes + state.b_recv.nbytes}


def _delta_fiber_exchange(state) -> dict:
    """The fiber pieces received are the peers' shares of intermediates
    the same size as this rank's; size our own layer result."""
    return {"recv_buffer": state.d_local.nbytes}


# --------------------------------------------------------------------- #
# op bodies (closures over compile-time indices; all data via ExecState)
# --------------------------------------------------------------------- #

def _run_col_split(batch):
    def run(state, span):
        local_cols = batch_local_columns(
            state.super_w, state.batches, state.grid.layers, batch,
            state.batch_scheme,
        )
        state.b_batch = state.kernel.select_columns(state.b_tile, local_cols)
        if state.kernel.uses_aux:
            # the aux operand (mask / sampling pattern) is distributed
            # like the output: this rank's row block × the batch's global
            # columns.  Identical at every stage of the batch, so it is
            # cut once here and charged next to the input tiles.
            led = state.ledger
            led.release(state.mem.pop("aux_batch", None))
            state.aux_batch = state.kernel.aux_block(
                state.aux, state.r0, int(state.row_bounds[state.comms.i + 1]),
                state.c0_super + local_cols,
            )
            state.mem["aux_batch"] = led.acquire(
                "b_piece", nbytes_of(state.aux_batch), "aux_batch"
            )
    return run


def _run_comm_plan(state, span):
    with state.comms.world.step(STEP_COMM_PLAN):
        state.backend.prepare_batch(state.comms, state.a_tile, state.b_batch)


def _issue_prefetch(stage):
    def issue(state):
        return state.backend.prefetch_stage(
            state.comms, state.a_tile, state.b_batch, stage
        )
    return issue


def _run_bcast_a(batch, stage):
    def run(state, span):
        led = state.ledger
        # the previous stage's operand buffer is reused — release its
        # handle before the replacement lands
        led.release(state.mem.pop("a_recv", None))
        pf = state.prefetched.get((batch, stage))
        if pf is not None:
            state.a_recv = pf.wait_a()
            # the in-flight charge placed at issue time hands over to
            # the actual buffer's handle
            led.release(state.mem.pop(("pf", batch, stage, "a"), None))
        else:
            with state.comms.row.step(STEP_A_BCAST):
                state.a_recv = state.backend.bcast_a(
                    state.comms, state.a_tile, stage
                )
        state.mem["a_recv"] = led.acquire(
            "recv_buffer", state.a_recv.nbytes, "a_recv"
        )
        span.nbytes = state.a_recv.nbytes
    return run


def _run_bcast_b(batch, stage):
    def run(state, span):
        led = state.ledger
        led.release(state.mem.pop("b_recv", None))
        pf = state.prefetched.pop((batch, stage), None)
        if pf is not None:
            state.b_recv = pf.wait_b()
            led.release(state.mem.pop(("pf", batch, stage, "b"), None))
        else:
            with state.comms.col.step(STEP_B_BCAST):
                state.b_recv = state.backend.bcast_b(
                    state.comms, state.b_batch, stage
                )
        state.mem["b_recv"] = led.acquire(
            "recv_buffer", state.b_recv.nbytes, "b_recv"
        )
        span.nbytes = state.b_recv.nbytes
    return run


def _run_multiply(state, span):
    state.stage_out = state.kernel.stage_multiply(state)
    state.mem["stage_out"] = state.ledger.acquire(
        "merge_scratch", state.stage_out.nbytes, "stage_out"
    )


def _run_merge_stage(state, span):
    led = state.ledger
    merged = state.kernel.merge(
        [state.partials[0], state.stage_out], state
    )
    # release inputs before acquiring the merged result: the ledger's
    # totals stay at the historical stage-boundary value (the merge's
    # own double-buffering instant is deliberately not charged, matching
    # the paper's Table III terms)
    for h in state.mem.pop("partials", []):
        led.release(h)
    led.release(state.mem.pop("stage_out", None))
    state.partials = [merged]
    state.stage_out = None
    state.mem["partials"] = [
        led.acquire("merge_scratch", merged.nbytes, "partial")
    ]


def _run_accumulate(state, span):
    state.partials.append(state.stage_out)
    state.stage_out = None
    state.mem.setdefault("partials", []).append(state.mem.pop("stage_out"))


def _run_meter_stage(state, span):
    # stage boundary: enforcement happens in the executor's check() call
    pass


def _run_merge_layer(state, span):
    led = state.ledger
    partials = state.partials
    state.d_local = (
        state.kernel.merge(partials, state)
        if len(partials) > 1 else partials[0]
    )
    state.partials = []
    for h in state.mem.pop("partials", []):
        led.release(h)
    # the last stage's operand buffers are dead once the layer merges
    led.release(state.mem.pop("a_recv", None))
    led.release(state.mem.pop("b_recv", None))
    state.mem["d_local"] = led.acquire(
        "merge_scratch", state.d_local.nbytes, "d_local"
    )


def _run_meter_layer(state, span):
    pass


def _run_fiber_split(batch):
    def run(state, span):
        widths = [
            e - s_ for s_, e in batch_layer_blocks(
                state.super_w, state.batches, state.grid.layers, batch,
                state.batch_scheme,
            )
        ]
        offsets = np.concatenate(([0], np.cumsum(widths)))
        state.sendlist = [
            state.kernel.slice_columns(
                state.d_local, int(offsets[t]), int(offsets[t + 1])
            )
            for t in range(state.grid.layers)
        ]
    return run


def _run_fiber_exchange(state, span):
    with state.comms.fiber.step(STEP_ALLTOALL_FIBER):
        state.received = state.backend.fiber_exchange(
            state.comms, state.sendlist
        )
    state.sendlist = None
    span.nbytes = sum(p.nbytes for p in state.received)
    state.mem["received"] = state.ledger.acquire(
        "recv_buffer", span.nbytes, "fiber_pieces"
    )


def _piece_count(piece) -> int:
    """Entry count of an intermediate piece: stored nonzeros for sparse,
    all elements for dense blocks."""
    if isinstance(piece, SparseMatrix):
        return piece.nnz
    return int(piece.size)


def _run_meter_fiber(state, span):
    state.fiber_piece_nnz.append(sum(_piece_count(p) for p in state.received))


def _run_merge_fiber(state, span):
    led = state.ledger
    received = state.received
    c_tile = (
        state.kernel.merge(received, state)
        if len(received) > 1 else received[0]
    )
    # the final output is canonicalised (sorted within columns for
    # sparse, contiguous for dense; Sec. IV-D)
    state.c_tile = state.kernel.finalize_tile(c_tile)
    state.received = None
    state.d_local = None
    led.release(state.mem.pop("received", None))
    led.release(state.mem.pop("d_local", None))
    state.mem["c_tile"] = led.acquire(
        "output_batch", state.c_tile.nbytes, "c_tile"
    )


def _run_sort_output(state, span):
    led = state.ledger
    state.c_tile = state.kernel.finalize_tile(state.d_local)
    state.d_local = None
    led.release(state.mem.pop("d_local", None))
    state.mem["c_tile"] = led.acquire(
        "output_batch", state.c_tile.nbytes, "c_tile"
    )


def _run_meter_output(state, span):
    pass


def _run_c_range(batch):
    def run(state, span):
        state.c0, state.c1 = c_tile_columns(
            state.grid, state.b_ncols, state.batches, batch,
            state.comms.j, state.comms.k, state.batch_scheme,
        )
        tile_cols = operand_shape(state.c_tile)[1]
        if state.c1 - state.c0 != tile_cols:
            raise DistributionError(
                f"batch {batch}: output tile spans {tile_cols} "
                f"columns but owns [{state.c0}, {state.c1})"
            )
    return run


def _run_postprocess(batch):
    def run(state, span):
        comms, row_bounds = state.comms, state.row_bounds
        with comms.col.step(STEP_POSTPROCESS):
            gathered = comms.col.allgather(state.c_tile)
        block = gather_tiles(
            state.a_nrows,
            state.c1 - state.c0,
            (
                (int(row_bounds[ii]), 0, tile)
                for ii, tile in enumerate(gathered)
            ),
        )
        block = state.postprocess(batch, state.c0, state.c1, block)
        state.c_tile = submatrix(
            block, state.r0, int(row_bounds[comms.i + 1]), 0,
            state.c1 - state.c0,
        )
        # the hook replaced the tile (masking/pruning usually shrinks it)
        state.ledger.resize(state.mem["c_tile"], state.c_tile.nbytes)
    return run


def _run_replan_check(batch):
    def run(state, span):
        if state.replan is not None:
            state.replan.check(state, batch)
    return run


def _run_batch_barrier(state, span):
    with state.comms.world.step("Batch-Barrier"):
        state.comms.world.barrier()


def _run_finalize(batch):
    def run(state, span):
        led = state.ledger
        handle = state.mem.pop("c_tile", None)
        if state.piece_sink is not None:
            # streaming mode: the piece leaves the rank immediately, so
            # held memory stays flat across batches.
            state.piece_sink(batch, state.r0, state.c0, state.c_tile)
            led.release(handle)
        elif state.keep_pieces:
            state.pieces.append((batch, state.r0, state.c0, state.c_tile))
            # the piece stays resident: its handle stays live
            state.mem.setdefault("held", []).append(handle)
        else:
            led.release(handle)
        state.c_tile = None
    return run


# --------------------------------------------------------------------- #
# executors
# --------------------------------------------------------------------- #

class SequentialExecutor:
    """Run ops strictly in program order — the pre-IR behaviour."""

    name = "sequential"
    overlap = "off"

    def run(self, plan: ExecutionPlan, state: ExecState, tracer: Tracer) -> None:
        # plan-level fault hook: a FaultInjector may crash this rank (or
        # raise synthetic memory pressure) when it reaches a chosen
        # (batch, stage) op — the deterministic stand-in for node death
        # and under-estimated symbolic bounds.
        world = state.comms.world.world
        injector = world.injector
        rank = state.comms.world.global_rank
        ledger = state.ledger
        for op in plan.ops:
            if injector is not None:
                injector.on_plan_op(
                    rank, op.kind, op.batch, op.stage, batches=state.batches
                )
            if ledger is not None and op.batch is not None:
                ledger.enter_batch(op.batch)
            self._before(op, plan, state)
            with tracer.span(
                op.op, stage=op.stage, batch=op.batch, timed=op.timed
            ) as span:
                op.run(state, span)
            if ledger is not None and op.kind == "meter":
                # stage boundary: the deterministic enforcement point —
                # a strict budget overrun raises here, at the same
                # program point on every run.
                ledger.check(batch=op.batch, stage=op.stage)

    def _before(self, op: StageOp, plan: ExecutionPlan, state: ExecState) -> None:
        """Hook for subclasses; the sequential executor does nothing."""


class PipelinedExecutor(SequentialExecutor):
    """Depth-1 software double-buffering.

    Identical program order, with one addition: immediately before each
    Local-Multiply of stage ``s``, issue stage ``s+1``'s operand
    delivery through the backend's nonblocking path.  The broadcasts of
    stage ``s+1`` then find the prefetch in flight (or already buffered)
    and merely wait, so on a broadcast-bound machine the transfer hides
    behind the multiply.  Legal because the plan's dependency edges show
    the broadcasts need only the batch's Comm-Plan, every rank issues
    the prefetch at the same program point, and per-stage message tags
    keep in-flight stages from matching each other.
    """

    name = "pipelined"
    overlap = "depth1"

    def _before(self, op: StageOp, plan: ExecutionPlan, state: ExecState) -> None:
        if op.kind != "multiply":
            return
        nxt = (op.batch, op.stage + 1)
        issuer = plan.prefetch_issuers.get(nxt)
        if issuer is not None and nxt not in state.prefetched:
            state.prefetched[nxt] = issuer(state)
            # depth-1 double-buffering holds *two* stages of operands at
            # once: charge the in-flight buffers (sized by the plan's
            # predicted deltas) next to the current stage's live ones,
            # so the overlap/memory trade-off shows up in the ledger.
            led = state.ledger
            if led is not None:
                for operand, delta in plan.mem_annotations.get(nxt, ()):
                    nbytes = delta(state).get("recv_buffer", 0)
                    state.mem[("pf", nxt[0], nxt[1], operand)] = led.acquire(
                        "recv_buffer", nbytes, f"prefetch-{operand}"
                    )


def get_executor(overlap: str) -> SequentialExecutor:
    """Resolve the ``overlap=`` knob to an executor instance."""
    if overlap == "off":
        return SequentialExecutor()
    if overlap == "depth1":
        return PipelinedExecutor()
    raise ValueError(
        f"unknown overlap mode {overlap!r}; expected one of {OVERLAP_MODES}"
    )
