"""BatchedSUMMA3D driver (paper Alg. 4) — the library's flagship entry point.

There is one driver, :func:`drive`, a short pipeline of phases: resolve
the spec → prepare (kernel, aux, shapes, backend; every refusal) → open
the checkpoint / symbolic pre-pass → execute (the launch loop, re-entered
on a re-batch or heal amendment) → assemble the report.  Entry
points differ only in the operands they hand it (global matrices, or a
:class:`~repro.dist.DistContext`'s resident tiles) and in where the
finished batch tiles go: every rank hands each one to the run's single
sink as the batch ends.  :func:`run_plan`'s sink is the driver's
collector, which assembles one global matrix; a context's ranks keep
their tiles distributed.

The run configuration is a first-class value: :func:`run_plan` executes
an :class:`~repro.plan.ExecSpec` (or a resolved
:class:`~repro.plan.ExecPlan`), and the keyword surfaces —
:func:`batched_summa3d`, :func:`batched_summa3d_rows`, :func:`summa2d`,
:func:`summa3d` — are thin shims whose knobs funnel through the single
conversion point :meth:`~repro.plan.ExecSpec.from_kwargs`.  Every result
records the final resolved plan verbatim in ``info["plan"]``, with the
batch count a memory-pressure re-batch ended at.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import (
    DistributionError,
    HealError,
    MemoryPressureError,
    RankCrashError,
    ShapeError,
    SpmdError,
)
from ..grid.distribution import Squeezed, gather_tiles, squeeze_inner
from ..grid.grid3d import ProcGrid3D
from ..kernels import LocalKernel, TileSource, get_kernel, operand_shape
from ..mem import MemoryLedger
from ..model.memory import predict_memory
from ..mp.bridge import DriverCallback
from ..plan.spec import ExecPlan, ExecSpec, _registry_name
from ..resilience import CheckpointManager
from ..resilience import run_key as _checkpoint_run_key
from ..simmpi.engine import as_injector, open_world
from ..simmpi.faults import FaultInjector
from ..simmpi.tracker import CommTracker
from ..sparse.matrix import SparseMatrix
from ..utils.timing import StepTimes
from .core import spmd_batched_summa3d
from .exec import STEP_KINDS
from .result import SummaResult

#: re-entries one run may spend on rank deaths under ``heal=True``; the
#: next death fails the run with a :class:`~repro.errors.HealError`
MAX_HEAL_ROUNDS = 8


class _BatchPieceCollector:
    """The driver's end of a one-shot run's way home: each rank hands
    every finished batch tile to :meth:`sink` and frees it (from the rank
    threads, hence the lock; in the parent, under processes).

    With ``per_batch`` (``on_batch`` or a checkpoint takes the batches)
    a batch is gathered the moment its ``nprocs``-th piece is in; the
    driver flushes completed batches in batch order after the run.
    Otherwise the pieces wait in :attr:`pieces` for one assembly."""

    def __init__(
        self, nprocs: int, nrows: int, ncols: int, *, per_batch: bool,
        on_complete=None,
    ) -> None:
        self._lock = threading.Lock()
        self._nprocs = nprocs
        self._nrows = nrows
        self._ncols = ncols
        self.per_batch = per_batch
        self._pending: dict[int, list] = {}
        self._on_complete = on_complete
        self.completed: dict[int, tuple[list, SparseMatrix]] = {}
        #: ``(r0, c0, tile)`` of every batch, when not ``per_batch``
        self.pieces: list = []

    def sink(self, batch: int, r0: int, c0: int, tile) -> None:
        with self._lock:
            if not self.per_batch:
                self.pieces.append((r0, c0, tile))
                return
            pieces = self._pending.setdefault(batch, [])
            pieces.append((r0, c0, tile))
            if len(pieces) == self._nprocs:
                del self._pending[batch]
                spans = sorted({(c, c + t.ncols) for _r, c, t in pieces})
                gathered = gather_tiles(self._nrows, self._ncols, pieces)
                self.completed[batch] = (spans, gathered)
            else:
                return
        # durability hook (checkpointing) runs outside the collector lock
        # but still *during* the run, the moment the batch's last piece
        # lands — so a later crash can never lose this batch.
        if self._on_complete is not None:
            self._on_complete(batch, spans, gathered)

    def drop_pending(self) -> None:
        """Discard half-gathered batches: a run that re-enters from the
        checkpointed batch boundary recomputes every incomplete batch
        from scratch, so stale pieces — possibly including ones sunk by
        a rank that died — must not mix with their recomputed
        replacements."""
        with self._lock:
            self._pending.clear()


def _drop(batch, r0, c0, tile) -> None:
    """The sink of a run whose product nobody takes: the tile is freed."""


def coerce_plan(plan, nprocs, layers, knobs):
    """The drivers' shared plan/knobs funnel.

    Either the caller passed ``plan=`` (an :class:`ExecSpec`,
    :class:`ExecPlan` or their dict form) and no loose knobs, or the
    loose knobs — including the positional ``nprocs``/``layers`` — are
    folded into a spec through the single conversion point
    :meth:`ExecSpec.from_kwargs`.
    """
    for name, value in (("nprocs", nprocs), ("layers", layers)):
        if value is not None:
            knobs[name] = value
    if plan is None:
        return ExecSpec.from_kwargs(**knobs)
    if knobs:
        raise TypeError(
            "pass either plan= or loose execution knobs, not both "
            f"(got plan= plus {', '.join(sorted(knobs))}); amend the plan's "
            "spec instead (ExecPlan.with_spec / ExecSpec.amended)"
        )
    return plan


def _plan_to_spec(plan, pinned=None) -> tuple[ExecSpec, "ExecPlan | None"]:
    """Resolve ``plan`` to the spec to execute, keeping the originating
    :class:`ExecPlan` (when there is one) for provenance.  ``pinned``
    fields override whatever the plan says (a resident context's grid,
    world and timeout)."""
    src = None
    if isinstance(plan, dict):
        plan = (
            ExecPlan.from_dict(plan)
            if ("spec" in plan or "backend" in plan or "provenance" in plan)
            else ExecSpec.from_dict(plan)
        )
    if isinstance(plan, ExecPlan):
        spec = plan.spec if plan.spec is not None else ExecSpec()
        changes: dict = {"layers": plan.layers}
        if plan.batches is not None:
            changes["batches"] = plan.batches
        if plan.backend:
            changes["comm_backend"] = plan.backend
        spec, src = spec.amended(**changes), plan
    elif isinstance(plan, ExecSpec):
        spec = plan
    else:
        raise TypeError(
            "plan must be an ExecSpec, ExecPlan or their dict form, "
            f"got {type(plan).__name__}"
        )
    return spec.amended(**(pinned or {})), src


def batched_summa3d(
    a,
    b,
    nprocs: int | None = None,
    layers: int | None = None,
    *,
    plan=None,
    mask: SparseMatrix | None = None,
    sample: SparseMatrix | None = None,
    postprocess=None,
    on_batch=None,
    tracker: CommTracker | None = None,
    faults=None,
    **knobs,
) -> SummaResult:
    """Multiply ``C = A @ B`` with the memory-constrained, communication-
    avoiding BatchedSUMMA3D algorithm.

    Configuration is an :class:`~repro.plan.ExecSpec`: pass one (or a
    resolved :class:`~repro.plan.ExecPlan`) as ``plan=``, or pass its
    fields as loose keywords (``batches=``, ``memory_budget=``,
    ``comm_backend=``, ... — every spec field is a knob and nothing else
    is; see the spec's field docs for semantics), which are folded into a
    spec through :meth:`~repro.plan.ExecSpec.from_kwargs`, the single
    conversion point.  The two styles are mutually exclusive.

    Runtime-only arguments — objects with no serialised form — stay
    keywords in either style:

    ``mask``
        Optional output mask of shape ``(a.nrows, b.ncols)``: only
        coordinates present in the mask's pattern survive (GraphBLAS
        ``mxm``).  With ``kernel="masked_spgemm"`` the mask is applied
        inside the local multiply instead of as a postprocess.
    ``sample``
        SDDMM's sampling pattern ``S`` (sparse, shape of the product).
        Required for ``kernel="sddmm"``, invalid otherwise.
    ``postprocess``
        Distributed per-batch hook ``fn(batch, c0, c1, column_block) ->
        SparseMatrix`` running inside the SPMD region.
    ``on_batch``
        Driver-side hook ``fn(batch, c0_c1_list, batch_matrix)`` called
        with each gathered batch, in batch order.
    ``tracker``
        Optional communication meter shared with the caller.
    ``faults``
        A :class:`~repro.simmpi.faults.FaultPlan` / ``FaultInjector`` /
        list of CLI fault-spec strings for deterministic fault injection.

    Returns
    -------
    SummaResult — with ``info["plan"]`` recording the final resolved
    :class:`~repro.plan.ExecPlan` (as a dict).
    """
    return run_plan(
        a, b, coerce_plan(plan, nprocs, layers, knobs),
        mask=mask, sample=sample, postprocess=postprocess,
        on_batch=on_batch, tracker=tracker, faults=faults,
    )


def summa2d(a, b, nprocs: int = 4, **knobs) -> SummaResult:
    """2D sparse SUMMA (paper Alg. 1, the classic CombBLAS baseline) on a
    square process grid: :func:`batched_summa3d` with ``layers = 1`` and
    ``batches = 1`` — the stage structure, broadcasts and layer merge are
    identical; the fiber steps vanish.  Every other argument passes
    through unchanged; passing a pinned one raises ``TypeError``."""
    return batched_summa3d(a, b, nprocs=nprocs, layers=1, batches=1, **knobs)


def summa3d(a, b, nprocs: int = 8, layers: int = 2, **knobs) -> SummaResult:
    """3D sparse SUMMA (paper Alg. 2; communication-avoiding, unbatched)
    on a ``sqrt(p/l) x sqrt(p/l) x l`` grid: :func:`batched_summa3d` with
    ``batches = 1`` — per-layer SUMMA2D followed by the fiber ColSplit /
    AllToAll / Merge.  Every other argument passes through unchanged;
    passing ``batches`` raises ``TypeError``."""
    return batched_summa3d(
        a, b, nprocs=nprocs, layers=layers, batches=1, **knobs
    )


def run_plan(
    a,
    b,
    plan,
    *,
    mask: SparseMatrix | None = None,
    sample: SparseMatrix | None = None,
    postprocess=None,
    on_batch=None,
    tracker: CommTracker | None = None,
    faults=None,
) -> SummaResult:
    """Execute one multiplication under ``plan`` (an
    :class:`~repro.plan.ExecSpec`, a resolved
    :class:`~repro.plan.ExecPlan`, or either's dict form).

    This is the real driver; :func:`batched_summa3d` and every other
    keyword surface delegate here.  See :func:`batched_summa3d` for the
    runtime-only arguments.  It is :func:`drive` plus the *gathered*
    delivery mode: batches are consumed (``on_batch``) in batch order and
    the pieces assembled into one global matrix.
    """
    run = drive(
        a, b, plan, mask=mask, sample=sample, postprocess=postprocess,
        on_batch=on_batch, tracker=tracker, faults=faults,
    )
    run.result.matrix = _deliver_gathered(run)
    return run.result


@dataclass
class _Run:
    """One multiplication's driver state, handed from phase to phase."""

    a: object
    b: object
    #: what every region is handed: ``(a, b)``, as a Squeezed pair when
    #: global sparse operands have dead inner indices
    operands: tuple
    spec: ExecSpec
    exec_plan: ExecPlan | None
    kern: LocalKernel
    aux: object
    out_shape: tuple
    grid: ProcGrid3D
    tracker: CommTracker
    injector: FaultInjector | None
    #: opens the world the run's regions are submitted to (see `drive`)
    world: object
    postprocess: object
    on_batch: object
    #: the field a memory-pressure re-batch rewrites
    batches: int | None
    #: the backend every region runs on, ``"auto"`` already decided
    comm_backend: object
    #: an operand is a TileSource: tiles already live on the ranks
    resident: bool
    # checkpoint phase
    ckpt: CheckpointManager | None = None
    ckpt_key: str | None = None
    first_batch: int = 0
    sym_prepass: dict | None = None
    # execute phase
    collector: _BatchPieceCollector | None = None
    rebatched: list = field(default_factory=list)
    #: one event per re-entry after rank deaths (``spec.heal``)
    heals: list = field(default_factory=list)
    #: when the region the latest heal answers failed, until the
    #: re-entered region is submitted (``time.perf_counter()``)
    heal_failed_at: float | None = None
    world_info: dict = field(default_factory=dict)
    per_rank: list = field(default_factory=list)
    result: SummaResult | None = None

    def ckpt_plan(self, batches) -> dict:
        # the manifest's embedded plan: this spec with the batch geometry
        # pinned, so a resume proves it resumes under the same plan
        return self.spec.amended(batches=batches).to_dict()

    def sink(self, *piece) -> None:
        # one stable sink for the life of the world: an amendment makes a
        # new collector, the workers keep the callback they forked with
        self.collector.sink(*piece)


def drive(a, b, plan, *, world=None, pinned=None, **runtime) -> _Run:
    """The one driver: runs the phases named in the module docstring, in
    order, on global or resident (:class:`~repro.kernels.TileSource`)
    operands.

    Returns the run with ``per_rank`` (each rank's return value),
    ``collector`` (what the ranks sank, for :func:`_deliver_gathered`)
    and ``result`` (``matrix=None``; ``info``, times and rank traces
    assembled) set.  ``world`` is for a caller that owns its world (a
    resident context): a context manager ``world(run, fn, *args,
    **fixed)`` yielding the ``submit(batches=, start_batch=)`` that runs
    one region of ``fn(comm, *args, **fixed, batches=, start_batch=)``; the default opens a
    one-shot world and stops it.  ``pinned`` are spec fields the caller's
    slot fixes, whatever the plan says; ``runtime`` are
    :func:`run_plan`'s runtime-only arguments.
    """
    run = _prepare(a, b, *_plan_to_spec(plan, pinned), world, **runtime)
    _open_checkpoint(run)
    run.collector = _make_collector(run)
    run.per_rank = _execute(run)
    run.result = _assemble_report(run)
    return run


def _refuse(kern, spec: ExecSpec, resident: bool, hooks: dict) -> None:
    """Every kernel × feature composition the drivers cannot run, refused
    off the kernel's declared capabilities before anything is launched."""
    wants_ckpt = {
        "checkpoint_dir": spec.checkpoint_dir is not None,
        "resume": spec.resume,
        "heal": spec.heal,
    }
    if any(wants_ckpt.values()) and not kern.checkpointable:
        raise NotImplementedError(
            "checkpoint/resume/heal currently require the default SpGEMM "
            f"kernel (got kernel={kern.name!r}): run fingerprints and "
            "batch files do not cover kernel/aux operands yet"
        )
    if kern.output_kind != "sparse":
        for name, value in hooks.items():
            if value is not None:
                raise ValueError(
                    f"{name}= requires a sparse-output kernel; "
                    f"{kern.name!r} produces a dense result"
                )
    if resident:
        # fingerprints, batch files and the α–β backend chooser read the
        # global matrices; the product stays distributed, so nothing
        # driver-side could discard it
        unmet = {
            **wants_ckpt,
            "keep_output=False": not spec.keep_output,
            'comm_backend="auto"':
                spec.comm_backend == "auto" and kern.supports_symbolic,
            # a rank joins its batch tiles into one contiguous tile,
            # which across layers only the block-cyclic scheme yields
            f"batch_scheme={spec.batch_scheme!r} with layers > 1":
                spec.batch_scheme != "block-cyclic" and spec.layers > 1,
        }
        if any(unmet.values()):
            raise DistributionError(
                ", ".join(name for name, asked in unmet.items() if asked)
                + " cannot be honoured on resident operands; gather them "
                "and use run_plan, or drop the field"
            )
        if spec.world == "processes" and hooks["postprocess"] is not None:
            # the ranks were forked before this call: a hook reaches them
            # pickled, i.e. by reference to an importable name
            try:
                pickle.dumps(hooks["postprocess"])
            except Exception as exc:
                raise DistributionError(
                    "postprocess= must pickle by reference (a module-level "
                    "function or picklable callable, not a lambda or "
                    f"closure) on a process-world context: {exc}"
                ) from exc


def _prepare(
    a, b, spec: ExecSpec, exec_plan, world=None, *, mask=None, sample=None,
    postprocess=None, on_batch=None, tracker=None, faults=None,
) -> _Run:
    """Resolve everything a launch needs and refuse what cannot run."""
    kern = get_kernel(spec.kernel)
    resident = isinstance(a, TileSource) or isinstance(b, TileSource)
    for operand, kind in ((a, kern.a_kind), (b, kern.b_kind)):
        if isinstance(operand, TileSource) and kind != "sparse":
            raise DistributionError(
                "resident multiply supports sparse-operand kernels (got "
                f"{kern.name!r}): handles hold sparse tiles; use "
                "DistContext.spmm for a dense right operand"
            )
    aux, mask = kern.resolve_aux(a, b, mask=mask, sample=sample)
    out_shape = kern.validate(a, b, aux)
    _refuse(kern, spec, resident, {
        "postprocess": postprocess, "mask": mask, "on_batch": on_batch,
    })
    spec.validate()

    injector = as_injector(faults)
    for fault in injector.plan if injector is not None else ():
        if fault.kind_op is not None and fault.kind_op not in STEP_KINDS:
            raise ValueError(
                f"unknown kind_op {fault.kind_op!r} in {fault}: a plan-level "
                f"fault addresses one of the rank program's steps {STEP_KINDS}"
            )

    # what the ranks are handed; the checkpoint key, the backend chooser
    # and the memory models keep reading the caller's operands
    operands = (a, b)
    if kern.a_kind == kern.b_kind == "sparse":
        operands = squeeze_inner(a, b)

    comm_backend = spec.comm_backend
    if comm_backend == "auto":
        if kern.supports_symbolic:
            from .planner import choose_backend

            comm_backend = choose_backend(
                a, b, nprocs=spec.nprocs, layers=spec.layers,
                batches=spec.batches or 1, overlap=spec.overlap,
            )
        else:
            # the α–β chooser needs nonzero statistics of both operands;
            # dense-operand kernels ship dense panels by collectives on
            # either backend, so "dense" is the honest default.
            comm_backend = "dense"

    if mask is not None:
        if mask.shape != out_shape:
            raise ShapeError(
                f"mask shape {mask.shape} != product shape {out_shape}"
            )
        postprocess = _MaskFilter(mask, postprocess)

    return _Run(
        a=a, b=b, operands=operands, spec=spec, exec_plan=exec_plan,
        kern=kern, aux=aux, out_shape=out_shape,
        grid=ProcGrid3D(spec.nprocs, spec.layers),
        tracker=tracker if tracker is not None else CommTracker(),
        injector=injector, world=world or _one_shot_world,
        postprocess=postprocess, on_batch=on_batch,
        batches=spec.batches, comm_backend=comm_backend, resident=resident,
    )


def _open_checkpoint(run: _Run) -> None:
    """Checkpointing: the batch is the durability granule.  The driver
    must know the batch count before the run to fingerprint the batch
    geometry, so when the symbolic step would normally run in-band it
    runs as a driver pre-pass instead (same Alg. 3, same metering)."""
    spec = run.spec
    if spec.checkpoint_dir is None:
        return
    # checkpoint buffers live on the driver, not on any rank; they get
    # their own ledger so the merged memory report still accounts them
    run.ckpt = ckpt = CheckpointManager(
        spec.checkpoint_dir, keep_last=spec.checkpoint_keep_last,
        ledger=MemoryLedger(rank="driver"),
    )
    # the mask filters every batch by its pattern, so a different one is a
    # different product; unmasked runs keep the key they always had
    masked = isinstance(run.postprocess, _MaskFilter)
    run.ckpt_key = _checkpoint_run_key(
        run.a, run.b,
        nprocs=spec.nprocs, layers=spec.layers,
        batch_scheme=spec.batch_scheme, merge_policy=spec.merge_policy,
        semiring=_registry_name(spec.semiring), **run.kern.run_key_items(),
        **({"mask": run.postprocess.mask.structure_key.hex()} if masked else {}),
    )
    manifest = ckpt.load_manifest() if spec.resume else None
    if run.batches is None and manifest is None:
        if spec.memory_budget is not None:
            from .symbolic3d import symbolic3d

            sym = symbolic3d(
                run.a, run.b, spec.nprocs, spec.layers,
                memory_budget=spec.memory_budget,
                tracker=run.tracker, timeout=spec.timeout,
                world=spec.world, transport=spec.transport,
            )
            run.batches = sym.batches
            run.sym_prepass = {
                key: getattr(sym, key)
                for key in ("batches", "max_nnz_c", "max_nnz_a", "max_nnz_b")
            }
        else:
            run.batches = 1
    if spec.resume:
        run.batches, run.first_batch = ckpt.resume_run(
            run.ckpt_key, run.batches, run.ckpt_plan(run.batches)
        )
    else:
        ckpt.start_run(run.ckpt_key, run.batches, run.ckpt_plan(run.batches))


def _make_collector(run: _Run):
    """The driver's end of the run's way home, or ``None`` when nothing
    is taken (the output discarded and unconsumed) or the ranks keep the
    product (a resident context).  A checkpointing run gathers each
    batch the moment it completes: it must become durable then, not
    after the run."""
    spec = run.spec
    durable = run.ckpt.write_batch if run.ckpt is not None else None
    per_batch = durable is not None or run.on_batch is not None
    if run.resident or not (per_batch or spec.keep_output):
        return None
    return _BatchPieceCollector(
        spec.nprocs, *run.out_shape, per_batch=per_batch,
        on_complete=durable,
    )


def _execute(run: _Run) -> list:
    """The one launch loop: open the world, submit the region; when what
    failed it is an amendment — memory pressure, or ranks died under
    ``heal=True`` — apply it and submit again."""
    with _launch(run) as submit:
        while True:
            try:
                return submit(batches=run.batches, start_batch=run.first_batch)
            except SpmdError as err:
                if _amend(run, err):
                    continue
                if run.ckpt is not None:
                    raise SpmdError(
                        err.failures,
                        checkpoint_dir=os.fspath(run.spec.checkpoint_dir),
                    ) from err
                raise


@contextlib.contextmanager
def _one_shot_world(run: _Run, fn, *args, **fixed):
    """The default world of a run: opened for it, stopped after it — and
    opened again when a rank death stopped it under a region (the process
    world's rule), so the re-entered region gets fresh workers on fresh
    pipes and inherits nothing a dying rank may have left half-written."""
    spec = run.spec

    def launch():
        return open_world(
            spec.nprocs, fn, *args, world=spec.world,
            transport=spec.transport, **fixed,
        )

    world = launch()

    def submit(**amendable):
        nonlocal world
        if not world.alive:
            world = launch()
        if run.heal_failed_at is not None:
            run.heals[-1]["latency_s"] = round(
                time.perf_counter() - run.heal_failed_at, 6
            )
            run.heal_failed_at = None
        return world.submit(
            tracker=run.tracker, timeout=spec.timeout, faults=run.injector,
            world_info=run.world_info, **amendable,
        )

    try:
        yield submit
    finally:
        world.stop()


@contextlib.contextmanager
def _launch(run: _Run):
    """Open the run's world on the SPMD body; yields ``submit(batches=,
    start_batch=)`` — what an amendment changes is what a submit
    carries, everything else is fixed here."""
    spec = run.spec
    # Under the process world the collector's sink must run in the
    # driver (it feeds gather/checkpoint state workers cannot see); the
    # DriverCallback wrapper ships each piece back on the transport.  A
    # resident context's world replaces the sink with the ranks' own.
    sink = _drop
    if run.collector is not None:
        sink = run.sink
        if spec.world == "processes":
            sink = DriverCallback(sink)
    with run.world(
        run, spmd_batched_summa3d, *run.operands, run.grid, spec,
        kernel=run.kern, aux=run.aux, postprocess=run.postprocess,
        piece_sink=sink, batch_barrier=run.ckpt is not None,
        comm_backend=run.comm_backend,
    ) as submit:
        yield submit


def _amend(run: _Run, err: SpmdError) -> bool:
    """Apply a mid-run amendment, if that is what the failed ranks of
    ``err`` carry: memory pressure, answered by the paper's own lever of
    doubling the batch count and restarting from batch 0, or, under
    ``heal=True``, rank deaths, answered by resuming past the durable
    prefix.  Returns whether the run should re-enter."""
    failures = list(err.failures.values())
    if failures and all(isinstance(e, MemoryPressureError) for e in failures):
        cur = next((e.batches for e in failures if e.batches), None)
        cur = cur or run.batches or 1
        new_b = min(cur * 2, max(1, run.out_shape[1]))
        if new_b <= cur:
            raise err  # nothing left to double
        run.rebatched.append({"from": int(cur), "to": int(new_b)})
        # the column geometry is a function of b: every batch computed
        # so far, checkpointed or not, is invalid — restart
        run.batches, run.first_batch = new_b, 0
        if run.ckpt is not None:
            run.ckpt.reset(run.ckpt_key, new_b, run.ckpt_plan(new_b))
        run.collector = _make_collector(run)
        return True
    if not (run.spec.heal and failures and all(
        isinstance(e, RankCrashError) for e in failures
    )):
        return False
    # the survivors keep nothing a re-entry would not rebuild (tiles
    # re-extracted, communicators re-derived, finished pieces already
    # streamed to the driver), so a death costs the re-entry alone
    if len(run.heals) >= MAX_HEAL_ROUNDS:
        exc = HealError(f"heal round budget exhausted ({MAX_HEAL_ROUNDS})")
        raise SpmdError(
            dict.fromkeys(err.failures, exc),
            checkpoint_dir=os.fspath(run.spec.checkpoint_dir),
        ) from err
    run.heal_failed_at = time.perf_counter()
    # completed batches stay durable and gathered, half-gathered ones are
    # recomputed — resume past them
    run.first_batch = run.ckpt.completed_prefix()
    run.collector.drop_pending()
    run.heals.append({
        "epoch": len(run.heals) + 1,
        "dead": sorted(int(r) for r in err.failures),
        "restart_batch": run.first_batch,
        "latency_s": 0.0,
    })
    return True


def _memory_report(run: _Run, info: dict, ran_batches: int) -> dict:
    """Uniform memory report: per-rank ledger marks merged into one block,
    plus the driver-side checkpoint category and — when symbolic matrix
    statistics exist — the Table III closed-form prediction with the
    measured-vs-predicted ratio (the closed-loop calibration signal)."""
    spec = run.spec
    block = MemoryLedger.merge_reports(
        [r["info"]["memory"] for r in run.per_rank]
    )
    ledger = run.ckpt.ledger if run.ckpt is not None else None
    if ledger is not None and ledger.high_water("checkpoint"):
        block["categories"]["checkpoint"] = {
            "high_water": ledger.high_water("checkpoint"),
            "current": ledger.current("checkpoint"),
        }
    model = dict(
        nprocs=spec.nprocs, layers=spec.layers, batches=ran_batches,
        overlap=spec.overlap,
    )
    sym_stats = info.get("symbolic") or run.sym_prepass
    if sym_stats is not None:
        predicted = predict_memory(
            max_nnz_a=sym_stats["max_nnz_a"],
            max_nnz_b=sym_stats["max_nnz_b"],
            max_nnz_c=sym_stats["max_nnz_c"], **model,
        )
    else:
        # no symbolic statistics (non-SpGEMM kernels, or SpGEMM without a
        # budget): the kernel's own geometry-exact footprint model stands
        # in for the Table III closed form.
        predicted = run.kern.predict_memory(run.a, run.b, run.aux, **model)
    if predicted is not None:
        block["model"] = predicted
        if block["high_water_total"]:
            block["model_error"] = (
                predicted["high_water_total"] / block["high_water_total"]
            )
    return block


def _assemble_report(run: _Run) -> SummaResult:
    """Fold the per-rank returns into one :class:`SummaResult` (matrix
    not yet delivered): critical-path times, the merged memory block,
    resilience and fault summaries, and the final resolved plan."""
    spec, per_rank, ckpt = run.spec, run.per_rank, run.ckpt
    ran_batches = per_rank[0]["batches"]
    per_rank_times = [r["times"] for r in per_rank]
    info = dict(per_rank[0]["info"])
    info.update(
        semiring=_registry_name(spec.semiring),
        layers=spec.layers,
        nprocs=spec.nprocs,
    )
    info["world"] = (
        dict(run.world_info) if run.world_info else {"world": spec.world}
    )
    info["memory"] = _memory_report(run, info, ran_batches)
    info["fiber_piece_nnz"] = [r["fiber_piece_nnz"] for r in per_rank]
    info["batch_scheme"] = spec.batch_scheme
    info["merge_policy"] = spec.merge_policy
    # the inner dimension: the caller's size, and how many of its
    # indices the ranks' tiles span (fewer when dead ones were dropped)
    dist_a = run.operands[0]
    inner = operand_shape(run.a)[1]
    info["inner"] = {
        "n": inner,
        "distributed": dist_a.matrix.ncols
        if isinstance(dist_a, Squeezed) else inner,
    }
    if run.sym_prepass is not None and "symbolic" not in info:
        info["symbolic"] = run.sym_prepass
    if run.resident:
        info["resident"] = True
    if run.injector is not None:
        info["fault_stats"] = run.injector.stats()
    if run.injector is not None or ckpt is not None or run.rebatched:
        resilience: dict = {}
        if ckpt is not None:
            resilience["checkpoint_dir"] = os.fspath(spec.checkpoint_dir)
            resilience["resumed_from_batch"] = run.first_batch
            resilience["checkpoint_io"] = ckpt.io_stats()
        if spec.heal:
            resilience["heal"] = {"heals": len(run.heals), "events": run.heals}
        if run.rebatched:
            resilience["rebatched"] = run.rebatched
        info["resilience"] = resilience

    # The final resolved plan, recorded verbatim: what actually ran,
    # with the provenance trail of how the configuration was reached.
    src = run.exec_plan if run.exec_plan is not None else ExecPlan()
    backend_name = info.get("comm_backend", _registry_name(run.comm_backend))
    prov = dict(src.provenance)
    prov.setdefault("mode", "explicit")
    info["plan"] = replace(
        src,
        layers=spec.layers,
        batches=int(ran_batches),
        backend=backend_name,
        spec=spec.amended(batches=int(ran_batches), comm_backend=backend_name),
        provenance=prov,
    ).to_dict()

    return SummaResult(
        matrix=None,
        grid=run.grid,
        batches=ran_batches,
        step_times=StepTimes.critical_path(per_rank_times),
        per_rank_times=per_rank_times,
        tracker=run.tracker,
        # alias of info["memory"]["high_water_total"] (== max over ranks)
        max_local_bytes=info["memory"]["high_water_total"],
        info=info,
        trace=[r["trace"] for r in per_rank],
    )


def _deliver_gathered(run: _Run, view=None):
    """The global delivery mode: consume every batch in batch order (the
    ``on_batch`` hook) and assemble the global product when the output is
    kept.  ``view`` maps what the run computed to what the caller sees
    (row batching's transpose back)."""
    spec, ckpt, collector, on_batch = (
        run.spec, run.ckpt, run.collector, run.on_batch
    )
    matrix = None
    if collector is not None and not collector.per_batch:
        # the kernel knows its output representation: sparse kernels
        # place COO pieces, dense kernels place panels in an ndarray
        matrix = run.kern.gather(*run.out_shape, collector.pieces)
    elif spec.keep_output or on_batch is not None:
        # what this run gathered — before or after a geometry-preserving
        # re-entry — comes from the collector, a resumed prefix from the
        # checkpoint; consumption replays in batch order either way, and
        # the final assembly concatenates the same canonical COO set one
        # gather of every piece would, so products are bit-identical.
        # When nothing downstream consumes batches the prefix is never
        # loaded back — required under keep_last pruning, where older
        # batch files are tombstones by design (and why a re-entering
        # run keeps what it has gathered instead of reading it back).
        completed, batch_matrices = collector.completed, []
        for batch in range(run.result.batches):
            spans, batch_matrix = (
                completed.pop(batch) if batch in completed
                else ckpt.load_batch(batch)
            )
            if on_batch is not None:
                on_batch(
                    batch, spans,
                    batch_matrix if view is None else view(batch_matrix),
                )
            batch_matrices.append(batch_matrix)
        if spec.keep_output:
            matrix = gather_tiles(
                *run.out_shape, [(0, 0, m) for m in batch_matrices]
            )
    if ckpt is not None:
        collector.completed.clear()
        gc_stats = ckpt.gc()
        if gc_stats["orphans_removed"] or gc_stats["pruned"]:
            run.result.info.setdefault("resilience", {})["checkpoint_gc"] = gc_stats
    return matrix if view is None or matrix is None else view(matrix)


class _MaskFilter:
    """Postprocess hook applying an output mask per column block,
    composed before any user-provided hook.  A class, not a closure: a
    resident process-world context ships it to ranks forked long ago."""

    def __init__(self, mask: SparseMatrix, inner) -> None:
        self.mask, self.inner = mask, inner

    def __call__(self, batch: int, c0: int, c1: int,
                 block: SparseMatrix) -> SparseMatrix:
        from ..sparse.ops import hadamard, submatrix

        mask_block = submatrix(self.mask, 0, self.mask.nrows, c0, c1)
        pattern = SparseMatrix(
            mask_block.nrows, mask_block.ncols, mask_block.indptr,
            mask_block.rowidx, np.ones(mask_block.nnz),
            sorted_within_columns=mask_block.sorted_within_columns,
            validate=False,
        )
        block = hadamard(block, pattern)
        if self.inner is not None:
            block = self.inner(batch, c0, c1, block)
        return block


def batched_summa3d_rows(
    a,
    b,
    nprocs: int | None = None,
    layers: int | None = None,
    *,
    plan=None,
    mask: SparseMatrix | None = None,
    sample: SparseMatrix | None = None,
    postprocess=None,
    on_batch=None,
    tracker: CommTracker | None = None,
    faults=None,
    **knobs,
) -> SummaResult:
    """Row-wise batched SpGEMM: each batch computes ``nrows / b`` *rows*
    of ``C`` (paper Sec. IV-B).

    Column batching re-broadcasts **A** once per batch, which is expensive
    when ``nnz(A) >> nnz(B)``; batching over rows re-broadcasts **B**
    instead.  Implemented through the transpose identity
    ``C = (Bᵀ Aᵀ)ᵀ``: the column-batched algorithm runs on the transposed
    operands, so inside the run the roles of the A- and B-Broadcast steps
    are swapped (metered accordingly).  ``on_batch`` receives each batch
    already transposed back — a row block of ``C``, with ``spans`` giving
    its global *row* ranges.

    Only ordinary arithmetic and other commutative-multiply semirings
    preserve the identity; the multiply order is swapped by the transpose.

    The signature is *identical* to :func:`batched_summa3d` (same
    conversion point).  Every spec knob applies unchanged, acting on the
    transposed run; checkpoints fingerprint the transposed operands, so
    resuming requires this same entry point.  The runtime hooks ``mask=``, ``sample=`` and
    ``postprocess=`` are column-batched concepts and raise here.
    """
    from ..sparse.ops import transpose

    plan = coerce_plan(plan, nprocs, layers, knobs)
    for value, name in (
        (mask, "mask"), (sample, "sample"), (postprocess, "postprocess"),
    ):
        if value is not None:
            raise ValueError(
                f"{name}= applies to the column-batched drivers only; "
                "row batching runs through the transpose identity and has "
                "no transposed equivalent of it yet"
            )
    kern = get_kernel(_plan_to_spec(plan)[0].kernel)
    if not kern.row_batchable:
        raise NotImplementedError(
            "row batching runs through the transpose identity, which only "
            "holds for sparse operands on both sides; "
            f"kernel={kern.name!r} is column-batched only"
        )
    # the inner run computes Cᵀ; what the caller sees — on_batch blocks,
    # the product — is transposed back on delivery
    run = drive(
        transpose(b), transpose(a), plan,
        on_batch=on_batch, tracker=tracker, faults=faults,
    )
    run.result.matrix = _deliver_gathered(run, view=transpose)
    run.result.info["batch_axis"] = "rows"
    return run.result
