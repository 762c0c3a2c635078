"""BatchedSUMMA3D as one rank runs it: Alg. 4 written as the loop it is.

:func:`run_batches` is the paper's three-deep loop — batches → SUMMA
stages → fiber exchange — over one :class:`RankState`; SUMMA2D and
SUMMA3D are its ``layers=1`` / ``batches=1`` specialisations.  Every step
body is a plain function of the state, and every step runs inside
:func:`step`: the plan-level fault hook (a
:class:`~repro.simmpi.faults.FaultInjector` may crash the rank or raise
synthetic memory pressure at a chosen ``(batch, stage)`` of one of
:data:`STEP_KINDS`), then the :class:`~repro.summa.trace.Tracer` span the
step is timed under.

Memory is charged where it is held: a step releases a buffer's old
:class:`~repro.mem.MemAllocation` before acquiring its successor, and
the budget is enforced by ``ledger.check`` at four boundaries per batch
— after each stage, the layer merge, the fiber exchange and the output
tile.  Those are the same program points on every run, so a strict
overrun raises deterministically.

``overlap="depth1"`` adds one thing in one place: right before stage
``s``'s Local-Multiply, stage ``s+1``'s operand delivery is started
through :meth:`CommBackend.prefetch_stage` (nonblocking ``ibcast`` /
tagged ``isend``/``irecv``), and that stage's broadcast steps merely
wait.  Legal because a stage's broadcasts need only the batch's
Comm-Plan (not the previous multiply), every rank issues the prefetch at
the same program point, and per-stage tags keep in-flight stages apart;
the bytes moved per step are identical either way.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..errors import DistributionError
from ..grid.distribution import (
    batch_layer_blocks,
    batch_local_columns,
    c_tile_columns,
    gather_tiles,
)
from ..kernels.base import operand_shape
from ..mem import nbytes_of
from ..sparse.matrix import SparseMatrix
from ..sparse.ops import split_bounds, submatrix
from .trace import (
    STEP_A_BCAST,
    STEP_ALLTOALL_FIBER,
    STEP_B_BCAST,
    STEP_COMM_PLAN,
    STEP_LOCAL_MULTIPLY,
    STEP_MERGE_FIBER,
    STEP_MERGE_LAYER,
    STEP_POSTPROCESS,
)

__all__ = [
    "MERGE_POLICIES", "OVERLAP_MODES", "STEP_KINDS",
    "RankState", "run_batches", "step",
]

#: supported settings of the ``overlap=`` knob.
OVERLAP_MODES = ("off", "depth1")

#: ``merge_policy=`` → is each stage's product folded into the running
#: partial at once (True), or kept until the batch's one Merge-Layer?
_FOLDS_EACH_STAGE = {"deferred": False, "incremental": True}
#: supported settings of the ``merge_policy=`` knob.
MERGE_POLICIES = tuple(_FOLDS_EACH_STAGE)

#: step kind → (trace / StepTimes label, timed).  ``timed=False`` marks
#: bookkeeping that never fed the paper's step breakdown (column splits,
#: piece accounting): on the timeline, not in the stacked bars.
_STEPS = {
    "col-split": ("ColSplit", False),
    "comm-plan": (STEP_COMM_PLAN, True),
    "bcast-a": (STEP_A_BCAST, True),
    "bcast-b": (STEP_B_BCAST, True),
    "multiply": (STEP_LOCAL_MULTIPLY, True),
    "merge-stage": (STEP_MERGE_LAYER, True),
    "accumulate": ("Accumulate", False),
    "merge-layer": (STEP_MERGE_LAYER, True),
    "fiber-split": ("FiberSplit", False),
    "fiber-exchange": (STEP_ALLTOALL_FIBER, True),
    "merge-fiber": (STEP_MERGE_FIBER, True),
    "sort-output": ("SortOutput", False),
    "c-range": ("CRange", False),
    "postprocess": (STEP_POSTPROCESS, True),
    "finalize": ("Finalize", False),
    "batch-barrier": ("Batch-Barrier", False),
    "replan-check": ("Replan-Check", False),
}
#: the kinds a plan-level fault may name (``FaultSpec.kind_op``).
STEP_KINDS = tuple(_STEPS)


@dataclass(slots=True)
class RankState:
    """What one rank holds while it runs :func:`run_batches`.

    The first block is fixed for the attempt and handed in by
    :func:`repro.summa.core.spmd_batched_summa3d` — the run's
    :class:`~repro.plan.ExecSpec` as it is (steps read ``spec.overlap``,
    ``.merge_policy``, ``.batch_scheme``, ``.keep_output`` where they use
    them) and what was resolved from it; the geometry is derived from
    it; the rest is the working set the steps pass to each other.
    :class:`~repro.kernels.LocalKernel` methods and
    :meth:`repro.plan.Replanner.check` read these attributes by name.

    ``mem`` maps logical buffer names (``"a_recv"``, ``"d_local"``, the
    ``"partials"`` list, prefetch keys …) to the live
    :class:`~repro.mem.MemAllocation` handles tracking them; the input
    tiles are charged for as long as the state exists.
    """

    spec: object
    comms: object
    backend: object
    kernel: object
    semiring: object
    ledger: object
    tracer: object
    a_tile: object
    b_tile: object
    aux: object
    a_nrows: int
    b_ncols: int
    batches: int
    postprocess: Callable | None
    piece_sink: Callable | None
    batch_barrier: bool
    replan: object

    # geometry: this rank's row block and super-column of the output
    grid: object = field(init=False)
    row_bounds: np.ndarray = field(init=False)
    r0: int = field(init=False)
    r1: int = field(init=False)
    c0_super: int = field(init=False)
    super_w: int = field(init=False)
    mem: dict = field(init=False)

    # working set
    b_batch: object = None
    aux_batch: object = None
    a_recv: object = None
    b_recv: object = None
    stage_out: object = None
    partials: list = field(default_factory=list)
    d_local: object = None
    sendlist: list | None = None
    received: list | None = None
    c_tile: object = None
    c0: int | None = None
    c1: int | None = None
    prefetched: dict = field(default_factory=dict)
    pieces: list = field(default_factory=list)
    fiber_piece_nnz: list = field(default_factory=list)

    def __post_init__(self) -> None:
        comms = self.comms
        self.grid = grid = comms.grid
        self.row_bounds = split_bounds(self.a_nrows, grid.pr)
        self.r0 = int(self.row_bounds[comms.i])
        self.r1 = int(self.row_bounds[comms.i + 1])
        col_super = split_bounds(self.b_ncols, grid.pc)
        self.c0_super = int(col_super[comms.j])
        self.super_w = int(col_super[comms.j + 1]) - self.c0_super
        acquire = self.ledger.acquire
        self.mem = {
            "a_tile": acquire("a_piece", nbytes_of(self.a_tile), "a_tile"),
            "b_tile": acquire("b_piece", nbytes_of(self.b_tile), "b_tile"),
        }


# --------------------------------------------------------------------- #
# the loop
# --------------------------------------------------------------------- #

def fault_point(state, kind, batch, stage=None) -> None:
    """The plan-level fault hook — the deterministic stand-in for node
    death and under-estimated symbolic bounds."""
    world = state.comms.world
    injector = world.world.injector
    if injector is not None:
        injector.on_plan_op(
            world.global_rank, kind, batch, stage, batches=state.batches
        )


def _span(state, kind, batch, stage):
    label, timed = _STEPS[kind]
    return state.tracer.span(label, stage=stage, batch=batch, timed=timed)


def step(state, kind, batch, stage=None):
    """What surrounds every step: its fault point fires now, and the
    returned context is the span it runs in (``with step(...) as span``)."""
    fault_point(state, kind, batch, stage)
    return _span(state, kind, batch, stage)


def run_batches(state: RankState, start_batch: int = 0) -> None:
    """Alg. 4 on one rank: batches ``start_batch .. batches-1`` (lower
    ones are durable in a checkpoint; every step is keyed by its *global*
    batch index, so a resumed run computes exactly the same column
    blocks)."""
    if not 0 <= start_batch <= state.batches:
        raise ValueError(
            f"start_batch {start_batch} outside [0, {state.batches}]"
        )
    stages, layers, ledger = state.grid.stages, state.grid.layers, state.ledger
    # kernels with dense accumulators never hold one partial per stage
    incremental = (
        state.kernel.incremental_only
        or _FOLDS_EACH_STAGE[state.spec.merge_policy]
    )
    for batch in range(start_batch, state.batches):
        ledger.enter_batch(batch)
        with step(state, "col-split", batch):
            col_split(state, batch)
        with step(state, "comm-plan", batch):
            comm_plan(state)

        for s in range(stages):  # Alg. 1: one SUMMA stage per process column
            with step(state, "bcast-a", batch, s) as span:
                bcast_a(state, batch, s, span)
            with step(state, "bcast-b", batch, s) as span:
                bcast_b(state, batch, s, span)
            # Local-Multiply, its two halves apart: the next stage's
            # operands start moving after its fault point, before its span
            fault_point(state, "multiply", batch, s)
            if state.spec.overlap == "depth1" and s + 1 < stages:
                prefetch(state, batch, s + 1)
            with _span(state, "multiply", batch, s):
                multiply(state)
            if incremental and s > 0:
                with step(state, "merge-stage", batch, s):
                    merge_stage(state)
            else:
                with step(state, "accumulate", batch, s):
                    accumulate(state)
            ledger.check(batch=batch, stage=s)

        with step(state, "merge-layer", batch):
            merge_layer(state)
        ledger.check(batch=batch)

        if layers > 1:  # Alg. 2: exchange and merge along the fiber
            with step(state, "fiber-split", batch):
                fiber_split(state, batch)
            with step(state, "fiber-exchange", batch) as span:
                fiber_exchange(state, span)
            state.fiber_piece_nnz.append(
                sum(_piece_count(p) for p in state.received)
            )
            ledger.check(batch=batch)
            with step(state, "merge-fiber", batch):
                merge_fiber(state)
        else:
            with step(state, "sort-output", batch):
                output_tile(state, state.d_local)
        ledger.check(batch=batch)

        with step(state, "c-range", batch):
            c_range(state, batch)
        if state.postprocess is not None:
            with step(state, "postprocess", batch):
                postprocess(state, batch)
        with step(state, "finalize", batch):
            finalize(state, batch)
        if state.batch_barrier:
            with step(state, "batch-barrier", batch):
                batch_barrier(state)
        # after the barrier, so a checkpointed batch is durable before
        # any amendment abandons the attempt
        if state.replan is not None and batch + 1 < state.batches:
            with step(state, "replan-check", batch):
                state.replan.check(state, batch)


# --------------------------------------------------------------------- #
# step bodies
# --------------------------------------------------------------------- #

def col_split(state, batch) -> None:
    local_cols = batch_local_columns(
        state.super_w, state.batches, state.grid.layers, batch,
        state.spec.batch_scheme,
    )
    state.b_batch = state.kernel.select_columns(state.b_tile, local_cols)
    if state.kernel.uses_aux:
        # the aux operand (mask / sampling pattern) is distributed like
        # the output: this rank's row block × the batch's global columns.
        # Identical at every stage of the batch, so it is cut once here
        # and charged next to the input tiles.
        led = state.ledger
        led.release(state.mem.pop("aux_batch", None))
        state.aux_batch = state.kernel.aux_block(
            state.aux, state.r0, state.r1, state.c0_super + local_cols,
        )
        state.mem["aux_batch"] = led.acquire(
            "b_piece", nbytes_of(state.aux_batch), "aux_batch"
        )


def comm_plan(state) -> None:
    with state.comms.world.step(STEP_COMM_PLAN):
        state.backend.prepare_batch(state.comms, state.a_tile, state.b_batch)


def bcast_a(state, batch, stage, span) -> None:
    led = state.ledger
    # the previous stage's operand buffer is reused — release its handle
    # before the replacement lands
    led.release(state.mem.pop("a_recv", None))
    pf = state.prefetched.get((batch, stage))
    if pf is not None:
        state.a_recv = pf.wait_a()
        # the in-flight charge placed at issue time hands over to the
        # actual buffer's handle
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


def bcast_b(state, batch, stage, span) -> None:
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


def prefetch(state, batch, stage) -> None:
    """Depth-1 double-buffering holds *two* stages of operands at once:
    start ``stage``'s delivery and charge its in-flight buffers (a peer's
    tiles, sized by this rank's own) next to the current stage's live
    ones, so the overlap/memory trade-off shows up in the ledger."""
    state.prefetched[(batch, stage)] = state.backend.prefetch_stage(
        state.comms, state.a_tile, state.b_batch, stage
    )
    for operand, tile in (("a", state.a_tile), ("b", state.b_batch)):
        state.mem[("pf", batch, stage, operand)] = state.ledger.acquire(
            "recv_buffer", tile.nbytes, f"prefetch-{operand}"
        )


def multiply(state) -> None:
    state.stage_out = state.kernel.stage_multiply(state)
    state.mem["stage_out"] = state.ledger.acquire(
        "merge_scratch", state.stage_out.nbytes, "stage_out"
    )


def merge_stage(state) -> None:
    led = state.ledger
    merged = state.kernel.merge([state.partials[0], state.stage_out], state)
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


def accumulate(state) -> None:
    state.partials.append(state.stage_out)
    state.stage_out = None
    state.mem.setdefault("partials", []).append(state.mem.pop("stage_out"))


def merge_layer(state) -> None:
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


def fiber_split(state, batch) -> None:
    widths = [
        e - s_ for s_, e in batch_layer_blocks(
            state.super_w, state.batches, state.grid.layers, batch,
            state.spec.batch_scheme,
        )
    ]
    offsets = np.concatenate(([0], np.cumsum(widths)))
    state.sendlist = [
        state.kernel.slice_columns(
            state.d_local, int(offsets[t]), int(offsets[t + 1])
        )
        for t in range(state.grid.layers)
    ]


def fiber_exchange(state, span) -> None:
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


def merge_fiber(state) -> None:
    received = state.received
    merged = (
        state.kernel.merge(received, state)
        if len(received) > 1 else received[0]
    )
    state.received = None
    state.ledger.release(state.mem.pop("received", None))
    output_tile(state, merged)


def output_tile(state, tile) -> None:
    """The batch's output tile from the layer result (``layers == 1``) or
    the merged fiber pieces.  Only the *final* output is canonicalised —
    sorted within columns for sparse, contiguous for dense (Sec. IV-D)."""
    led = state.ledger
    state.c_tile = state.kernel.finalize_tile(tile)
    state.d_local = None
    led.release(state.mem.pop("d_local", None))
    state.mem["c_tile"] = led.acquire(
        "output_batch", state.c_tile.nbytes, "c_tile"
    )


def c_range(state, batch) -> None:
    state.c0, state.c1 = c_tile_columns(
        state.grid, state.b_ncols, state.batches, batch,
        state.comms.j, state.comms.k, state.spec.batch_scheme,
    )
    tile_cols = operand_shape(state.c_tile)[1]
    if state.c1 - state.c0 != tile_cols:
        raise DistributionError(
            f"batch {batch}: output tile spans {tile_cols} "
            f"columns but owns [{state.c0}, {state.c1})"
        )


def postprocess(state, batch) -> None:
    """The per-batch hook sees the complete column block (all rows),
    gathered along the process column; this rank keeps its row block."""
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
        block, state.r0, state.r1, 0, state.c1 - state.c0,
    )
    # the hook replaced the tile (masking/pruning usually shrinks it)
    state.ledger.resize(state.mem["c_tile"], state.c_tile.nbytes)


def finalize(state, batch) -> None:
    led = state.ledger
    handle = state.mem.pop("c_tile", None)
    if state.piece_sink is not None:
        # streaming mode: the piece leaves the rank immediately, so
        # held memory stays flat across batches.
        state.piece_sink(batch, state.r0, state.c0, state.c_tile)
        led.release(handle)
    elif state.spec.keep_output:
        state.pieces.append((batch, state.r0, state.c0, state.c_tile))
        # the piece stays resident: its handle stays live
        state.mem.setdefault("held", []).append(handle)
    else:
        led.release(handle)
    state.c_tile = None


def batch_barrier(state) -> None:
    """Checkpointing's durability guarantee: a rank reaches batch ``i``
    only past batch ``i-1``'s barrier, which it passes only once *every*
    rank has finalized batch ``i-1`` — its last piece has landed and its
    checkpoint entry is written.  Without it a fast rank crashing in
    batch ``i`` can abort slower peers still mid-batch ``i-1``."""
    with state.comms.world.step("Batch-Barrier"):
        state.comms.world.barrier()
