"""BatchedSUMMA3D driver (paper Alg. 4) — the library's flagship entry point.

The driver validates inputs, builds the process grid, launches the SPMD
program on the simulated-MPI engine, and reassembles the distributed
output.  When a memory budget is given and no explicit batch count, the
distributed symbolic step (Alg. 3) chooses ``b`` exactly as the paper does.

The run configuration is a first-class value: :func:`run_plan` executes
an :class:`~repro.plan.ExecSpec` (or a resolved
:class:`~repro.plan.ExecPlan`), and the classic keyword surfaces —
:func:`batched_summa3d`, :func:`batched_summa3d_rows`, ``summa2d/3d`` —
are thin shims whose knobs funnel through the single conversion point
:meth:`~repro.plan.ExecSpec.from_kwargs`.  Every result records the
final resolved plan verbatim in ``info["plan"]``, including any mid-run
amendments the :class:`~repro.plan.Replanner` made.
"""

from __future__ import annotations

import os
import threading
from dataclasses import replace

import numpy as np

from ..errors import MemoryPressureError, ReplanSignal, ShapeError, SpmdError
from ..grid.distribution import extract_a_tile, extract_b_tile, gather_tiles
from ..grid.grid3d import ProcGrid3D
from ..kernels import MaskedSpgemmKernel, get_kernel
from ..mem import MemoryLedger
from ..model.memory import predict_memory
from ..mp.bridge import DriverCallback
from ..plan.spec import ExecPlan, ExecSpec, _registry_name
from ..resilience import CheckpointManager, HealContext, HealingBody
from ..resilience import run_key as _checkpoint_run_key
from ..simmpi.engine import run_spmd
from ..simmpi.faults import FaultInjector
from ..simmpi.tracker import CommTracker
from ..sparse.io import save_matrix
from ..sparse.matrix import SparseMatrix
from ..utils.timing import StepTimes
from .core import spmd_batched_summa3d
from .result import SummaResult


class _BatchPieceCollector:
    """Driver-side sink for the memory-constrained streaming path.

    When the caller discards the output (``keep_output=False``) but still
    consumes batches (``spill_dir`` / ``on_batch``), ranks used to hold
    every piece anyway so the driver could gather them afterwards —
    defeating the point of batching.  Instead each rank now hands its
    finished piece to :meth:`sink` (called from the rank threads, hence
    the lock) and frees it; once all ``nprocs`` pieces of a batch are in,
    the batch is gathered immediately and the pieces dropped.  The driver
    flushes completed batches in batch order after the run.
    """

    def __init__(
        self, nprocs: int, nrows: int, ncols: int, on_complete=None
    ) -> None:
        self._lock = threading.Lock()
        self._nprocs = nprocs
        self._nrows = nrows
        self._ncols = ncols
        self._pending: dict[int, list] = {}
        self._on_complete = on_complete
        self.completed: dict[int, tuple[list, SparseMatrix]] = {}

    def sink(self, batch: int, r0: int, c0: int, tile: SparseMatrix) -> None:
        with self._lock:
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
        """Discard half-gathered batches (online heal): the repaired run
        re-enters from the checkpointed batch boundary and every
        incomplete batch is recomputed from scratch, so stale pieces —
        possibly including ones sunk by the dead rank — must not mix
        with their recomputed replacements."""
        with self._lock:
            self._pending.clear()


def _coerce_plan(plan, nprocs, layers, knobs):
    """The drivers' shared plan/knobs funnel.

    Either the caller passed ``plan=`` (an :class:`ExecSpec`,
    :class:`ExecPlan` or their dict form) and no loose knobs, or the
    loose knobs — including the positional ``nprocs``/``layers`` — are
    folded into a spec through the single conversion point
    :meth:`ExecSpec.from_kwargs`.
    """
    if plan is not None:
        if knobs or nprocs is not None or layers is not None:
            extras = sorted(knobs)
            if nprocs is not None:
                extras.insert(0, "nprocs")
            if layers is not None:
                extras.insert(1 if nprocs is not None else 0, "layers")
            raise TypeError(
                "pass either plan= or loose execution knobs, not both "
                f"(got plan= plus {', '.join(extras)}); amend the plan's "
                "spec instead (ExecPlan.with_spec / ExecSpec.amended)"
            )
        return plan
    if nprocs is not None:
        knobs["nprocs"] = nprocs
    if layers is not None:
        knobs["layers"] = layers
    return ExecSpec.from_kwargs(**knobs)


def _plan_to_spec(plan) -> tuple[ExecSpec, "ExecPlan | None"]:
    """Resolve ``plan`` to the spec to execute, keeping the originating
    :class:`ExecPlan` (when there is one) for provenance."""
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
        return spec.amended(**changes), plan
    if isinstance(plan, ExecSpec):
        return plan, None
    raise TypeError(
        "plan must be an ExecSpec, ExecPlan or their dict form, "
        f"got {type(plan).__name__}"
    )


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
    fields as loose keywords — ``batches=``, ``memory_budget=``,
    ``enforce=``, ``suite=``, ``semiring=``, ``kernel=``,
    ``mask_complement=``, ``keep_output=``, ``batch_scheme=``,
    ``merge_policy=``, ``comm_backend=``, ``overlap=``, ``spill_dir=``,
    ``timeout=``, ``checksums=``, ``max_retries=``, ``checkpoint_dir=``,
    ``resume=``, ``checkpoint_keep_last=``, ``heal=``, ``world_spares=``,
    ``world=``, ``transport=``, ``replan=`` and friends — which are
    folded into a spec through :meth:`~repro.plan.ExecSpec.from_kwargs`
    (the single conversion point; see the spec's field docs for
    semantics).  The two styles are mutually exclusive.

    Runtime-only arguments — objects with no serialised form — stay
    keywords in either style:

    ``mask``
        Optional output mask of shape ``(a.nrows, b.ncols)``: only
        coordinates present in the mask's pattern survive (GraphBLAS
        ``mxm``; with ``mask_complement=True`` only coordinates *absent*
        from it).  With ``kernel="masked_spgemm"`` the mask is applied
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
    :class:`~repro.plan.ExecPlan` (as a dict), including any mid-run
    replanning amendments.
    """
    return run_plan(
        a, b, _coerce_plan(plan, nprocs, layers, knobs),
        mask=mask, sample=sample, postprocess=postprocess,
        on_batch=on_batch, tracker=tracker, faults=faults,
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
    runtime-only arguments.
    """
    spec, exec_plan = _plan_to_spec(plan)

    kern = get_kernel(spec.kernel)
    aux = None
    if kern.name == "masked_spgemm":
        # the mask is the kernel's aux operand; a caller-level name-based
        # request honours mask_complement= through the kernel constructor
        if isinstance(spec.kernel, str) and spec.mask_complement:
            kern = MaskedSpgemmKernel(complement=True)
        if mask is not None:
            aux = mask
        else:
            # symbolic pass as the mask-producing prologue: the product
            # pattern keeps every structural nonzero, so this matches the
            # unmasked product while exercising the masked pipeline.
            from ..sparse.spgemm.symbolic import symbolic_pattern

            aux = symbolic_pattern(a, b)
        mask = None  # consumed by the kernel, not the postprocess path
    elif kern.name == "sddmm":
        if sample is None:
            raise ValueError(
                'kernel="sddmm" requires sample= (the sparse sampling '
                "pattern S, shaped like the product)"
            )
        aux = sample
    elif sample is not None:
        raise ValueError(
            f'sample= only applies to kernel="sddmm", not {kern.name!r}'
        )
    out_nrows, out_ncols = kern.validate(a, b, aux)
    if mask is not None and kern.name != "spgemm":
        raise ValueError(
            'mask= applies to kernel="spgemm" (postprocess filtering) or '
            'kernel="masked_spgemm" (in-multiply masking), '
            f"not {kern.name!r}"
        )
    if kern.name != "spgemm" and (
        spec.checkpoint_dir is not None or spec.resume or spec.heal is not None
    ):
        raise NotImplementedError(
            "checkpoint/resume/heal currently require the default SpGEMM "
            f"kernel (got kernel={kern.name!r}): run fingerprints and "
            "batch files do not cover kernel/aux operands yet"
        )
    if kern.output_kind != "sparse":
        for value, name in (
            (postprocess, "postprocess"), (mask, "mask"),
            (spec.spill_dir, "spill_dir"), (on_batch, "on_batch"),
        ):
            if value is not None:
                raise ValueError(
                    f"{name}= requires a sparse-output kernel; "
                    f"{kern.name!r} produces a dense result"
                )
    spec.validate()
    memory_budget, budget_per_rank = spec.resolved_budget()

    nprocs = spec.nprocs
    layers = spec.layers
    batches = spec.batches
    comm_backend = spec.comm_backend
    suite = spec.suite
    semiring = spec.semiring
    keep_output = spec.keep_output
    spill_dir = spec.spill_dir
    checkpoint_dir = spec.checkpoint_dir
    heal = spec.heal
    world = spec.world

    grid = ProcGrid3D(nprocs, layers)
    if tracker is None:
        tracker = CommTracker()

    injector = None
    if faults is not None:
        if isinstance(faults, FaultInjector):
            injector = faults
        else:
            from ..simmpi.faults import FaultPlan

            injector = FaultInjector(
                faults if isinstance(faults, FaultPlan) else FaultPlan(faults)
            )

    if comm_backend == "auto":
        if not kern.supports_symbolic:
            # the α–β chooser needs nonzero statistics of both operands;
            # dense-operand kernels ship dense panels by collectives on
            # either backend, so "dense" is the honest default.
            comm_backend = "dense"
        else:
            from .planner import choose_backend

            comm_backend = choose_backend(
                a, b, nprocs=nprocs, layers=layers, batches=batches or 1,
                overlap=spec.overlap,
            )

    if mask is not None:
        if mask.shape != (out_nrows, out_ncols):
            raise ShapeError(
                f"mask shape {mask.shape} != product shape "
                f"{(out_nrows, out_ncols)}"
            )
        postprocess = _compose_mask(mask, spec.mask_complement, postprocess)

    def ckpt_plan(b_count) -> dict:
        # the manifest's embedded plan: this spec with the batch geometry
        # pinned, so a resume proves it resumes under the same plan
        return spec.amended(batches=b_count).to_dict()

    # Checkpointing: the batch is the durability granule.  The driver
    # must know the batch count before the run to fingerprint the batch
    # geometry, so when the symbolic step would normally run in-band it
    # runs as a driver pre-pass instead (same Alg. 3, same metering).
    ckpt = None
    first_batch = 0
    sym_prepass = None
    # Checkpoint buffers live on the driver, not on any rank; they get
    # their own ledger so the merged memory report still accounts them.
    ckpt_ledger = MemoryLedger(rank="driver")
    if checkpoint_dir is not None:
        ckpt = CheckpointManager(
            checkpoint_dir, keep_last=spec.checkpoint_keep_last,
            ledger=ckpt_ledger,
        )
        ckpt_key = _checkpoint_run_key(
            a, b,
            nprocs=nprocs, layers=layers, batch_scheme=spec.batch_scheme,
            merge_policy=spec.merge_policy,
            suite=str(getattr(suite, "name", suite)),
            semiring=str(getattr(semiring, "name", semiring)),
        )
        manifest = ckpt.load_manifest() if spec.resume else None
        if batches is None and manifest is None:
            if memory_budget is not None:
                from .symbolic3d import symbolic3d

                sym = symbolic3d(
                    a, b, nprocs, layers,
                    memory_budget=memory_budget,
                    bytes_per_nonzero=spec.bytes_per_nonzero,
                    tracker=tracker, timeout=spec.timeout,
                    world=world, transport=spec.transport,
                )
                batches = sym.batches
                sym_prepass = {
                    "batches": sym.batches, "max_nnz_c": sym.max_nnz_c,
                    "max_nnz_a": sym.max_nnz_a, "max_nnz_b": sym.max_nnz_b,
                }
            else:
                batches = 1
        if spec.resume:
            batches, first_batch = ckpt.resume_run(
                ckpt_key, batches, ckpt_plan(batches)
            )
        else:
            ckpt.start_run(ckpt_key, batches, ckpt_plan(batches))

    # Mid-run replanning: build the picklable decision policy shipped to
    # every rank.  Forced amendments (spec.replan_force) run even with
    # replan="off" — the deterministic test/demo hook.
    replan_policy = None
    if spec.replan == "auto" or spec.replan_force:
        from ..plan.replan import ReplanPolicy, modelled_comm_per_batch

        modelled = ()
        if spec.replan == "auto" and kern.supports_symbolic:
            modelled = modelled_comm_per_batch(a, b, spec, batches)
        auto = spec.replan == "auto"
        replan_policy = ReplanPolicy(
            threshold=spec.replan_threshold,
            min_batches=spec.replan_min_batches,
            max_replans=spec.max_replans,
            allow_shrink=auto,
            allow_grow=auto,
            allow_backend_flip=auto and bool(modelled),
            resumable=ckpt is not None,
            modelled_comm=modelled,
            force=spec.replan_force,
        )

    # Memory-constrained streaming: when the output is discarded but
    # batches are still consumed, ranks stream each finished piece to the
    # driver instead of holding it, so per-rank memory stays flat.  A
    # checkpointing run always streams: batches must become durable the
    # moment they complete, not after the run.
    def make_collector():
        if ckpt is not None:
            return _BatchPieceCollector(
                nprocs, out_nrows, out_ncols, on_complete=ckpt.write_batch
            )
        if not keep_output and (on_batch is not None or spill_dir is not None):
            return _BatchPieceCollector(nprocs, out_nrows, out_ncols)
        return None

    collector = make_collector()
    rebatched: list[dict] = []
    replans: list[dict] = []
    heal_ctx = None
    world_info: dict = {}
    while True:
        # Under the process world the collector's sink must run in the
        # driver (it feeds gather/checkpoint state workers cannot see);
        # the DriverCallback wrapper ships each piece back through the
        # engine's results queue.
        sink = collector.sink if collector is not None else None
        if sink is not None and world == "processes":
            sink = DriverCallback(sink)
        spmd_kwargs = dict(
            kernel=kern,
            aux=aux,
            batches=batches,
            memory_budget=memory_budget,
            memory_budget_per_rank=budget_per_rank,
            enforce=spec.enforce,
            bytes_per_nonzero=spec.bytes_per_nonzero,
            suite=suite,
            semiring=semiring,
            keep_pieces=keep_output,
            postprocess=postprocess,
            batch_scheme=spec.batch_scheme,
            merge_policy=spec.merge_policy,
            comm_backend=comm_backend,
            overlap=spec.overlap,
            piece_sink=sink,
            max_retries=spec.max_retries,
            batch_barrier=ckpt is not None,
            replan=replan_policy,
        )
        try:
            if heal is None:
                per_rank = run_spmd(
                    nprocs,
                    spmd_batched_summa3d,
                    a,
                    b,
                    grid,
                    start_batch=first_batch,
                    **spmd_kwargs,
                    tracker=tracker,
                    timeout=spec.timeout,
                    faults=injector,
                    checksums=spec.checksums,
                    world=world,
                    transport=spec.transport,
                    world_info=world_info,
                )
            else:
                # Online healing: each rank runs a HealingBody that
                # re-enters the SPMD program from the checkpointed batch
                # boundary after every membership epoch change, instead of
                # the whole world aborting on the first crash.
                heal_ctx = HealContext(
                    heal, checkpoint=ckpt, collector=collector,
                    first_batch=first_batch,
                )

                def attempt(comm, start_batch, _kw=spmd_kwargs):
                    return spmd_batched_summa3d(
                        comm, a, b, grid, start_batch=start_batch, **_kw
                    )

                def join_bytes(position, _grid=grid):
                    # uniform nbytes protocol (repro.mem.nbytes_of): the
                    # tiles themselves know their storage footprint.
                    ta = extract_a_tile(a, _grid, position)
                    tb = extract_b_tile(b, _grid, position)
                    return ta.nbytes + tb.nbytes

                body = HealingBody(heal_ctx, attempt, join_bytes=join_bytes)
                if isinstance(sink, DriverCallback):
                    # the sink hides inside the attempt closure; expose
                    # it so the process engine can index the callback.
                    body.driver_callbacks = [sink]
                per_rank = run_spmd(
                    nprocs,
                    body,
                    tracker=tracker,
                    timeout=spec.timeout,
                    faults=injector,
                    checksums=spec.checksums,
                    world_spares=spec.world_spares,
                    heal=heal_ctx,
                    world=world,
                    transport=spec.transport,
                    world_info=world_info,
                )
            break
        except SpmdError as err:
            signals = [
                e for e in err.failures.values()
                if isinstance(e, ReplanSignal)
            ]
            if signals and all(
                isinstance(e, ReplanSignal) for e in err.failures.values()
            ):
                # a collective mid-run amendment: every rank raised the
                # same decision at the same batch boundary.  Apply it
                # through the re-batch machinery and re-enter.
                sig = signals[0]
                cur = sig.batches or (batches or 1)
                new_b = int(sig.amended.get("batches", cur))
                new_backend = sig.amended.get("comm_backend", comm_backend)
                geometry_changed = new_b != cur
                replans.append({
                    "at_batch": sig.batch,
                    "reason": sig.reason,
                    "from": {
                        "batches": int(cur),
                        "backend": _registry_name(comm_backend),
                    },
                    "to": {
                        "batches": int(new_b),
                        "backend": _registry_name(new_backend),
                    },
                    "measurements": dict(sig.measurements),
                })
                batches = new_b
                comm_backend = new_backend
                # one amendment spent; a force that fired never re-fires
                replan_policy = replace(
                    replan_policy,
                    revision=replan_policy.revision + 1,
                    force=tuple(
                        (bt, am) for bt, am in replan_policy.force
                        if int(bt) != sig.batch
                    ),
                )
                if ckpt is not None:
                    if geometry_changed:
                        # the column geometry is a function of b: every
                        # checkpointed batch is invalid — restart
                        ckpt.reset(ckpt_key, new_b, ckpt_plan(new_b))
                        first_batch = 0
                    else:
                        # backend flip preserves geometry: completed
                        # batches stay durable, resume past them
                        first_batch = ckpt.completed_prefix()
                else:
                    first_batch = 0
                collector = make_collector()
                continue
            pressures = [
                e for e in err.failures.values()
                if isinstance(e, MemoryPressureError)
            ]
            if pressures and all(
                isinstance(e, MemoryPressureError) for e in err.failures.values()
            ):
                # graceful degradation (the paper's own memory lever):
                # double the batch count and rerun.  The column geometry
                # changes with b, so checkpointed batches are invalid.
                cur = next(
                    (e.batches for e in pressures if e.batches), None
                ) or (batches or 1)
                new_b = min(cur * 2, max(1, out_ncols))
                if new_b <= cur:
                    raise
                rebatched.append({"from": int(cur), "to": int(new_b)})
                batches = new_b
                first_batch = 0
                if ckpt is not None:
                    ckpt.reset(ckpt_key, new_b, ckpt_plan(new_b))
                collector = make_collector()
                continue
            if ckpt is not None:
                raise SpmdError(
                    err.failures, checkpoint_dir=os.fspath(checkpoint_dir)
                ) from err
            raise

    ran_batches = per_rank[0]["batches"]
    per_rank_times = [r["times"] for r in per_rank]
    step_times = StepTimes.critical_path(per_rank_times)
    info = dict(per_rank[0]["info"])
    info.update(
        suite=str(getattr(suite, "name", suite)),
        semiring=str(getattr(semiring, "name", semiring)),
        layers=layers,
        nprocs=nprocs,
    )
    info["world"] = dict(world_info) if world_info else {"world": world}

    # Uniform memory report: per-rank ledger marks merged into one block,
    # plus the driver-side checkpoint category and — when symbolic matrix
    # statistics exist — the Table III closed-form prediction with the
    # measured-vs-predicted ratio (the closed-loop calibration signal).
    mem_block = MemoryLedger.merge_reports(
        [r["info"]["memory"] for r in per_rank]
    )
    if ckpt_ledger.high_water("checkpoint"):
        mem_block["categories"]["checkpoint"] = {
            "high_water": ckpt_ledger.high_water("checkpoint"),
            "current": ckpt_ledger.current("checkpoint"),
        }
    sym_stats = info.get("symbolic") or sym_prepass
    predicted = None
    if sym_stats is not None:
        predicted = predict_memory(
            nprocs=nprocs,
            layers=layers,
            batches=ran_batches,
            max_nnz_a=sym_stats["max_nnz_a"],
            max_nnz_b=sym_stats["max_nnz_b"],
            max_nnz_c=sym_stats["max_nnz_c"],
            keep_output=keep_output,
            overlap=spec.overlap,
            bytes_per_nonzero=spec.bytes_per_nonzero,
        )
    else:
        # no symbolic statistics (non-SpGEMM kernels, or SpGEMM without a
        # budget): the kernel's own geometry-exact footprint model stands
        # in for the Table III closed form.
        predicted = kern.predict_memory(
            a, b, aux,
            nprocs=nprocs,
            layers=layers,
            batches=ran_batches,
            keep_output=keep_output,
            overlap=spec.overlap,
        )
    if predicted is not None:
        mem_block["model"] = predicted
        if mem_block["high_water_total"]:
            mem_block["model_error"] = (
                predicted["high_water_total"] / mem_block["high_water_total"]
            )
    info["memory"] = mem_block
    # alias of info["memory"]["high_water_total"] (== max over ranks)
    max_local_bytes = mem_block["high_water_total"]

    info["fiber_piece_nnz"] = [r["fiber_piece_nnz"] for r in per_rank]
    info["batch_scheme"] = spec.batch_scheme
    info["merge_policy"] = spec.merge_policy
    if sym_prepass is not None and "symbolic" not in info:
        info["symbolic"] = sym_prepass
    if injector is not None:
        info["fault_stats"] = injector.stats()
    if injector is not None or ckpt is not None or rebatched or replans:
        resilience: dict = {"max_retries": spec.max_retries}
        if ckpt is not None:
            resilience["checkpoint_dir"] = os.fspath(checkpoint_dir)
            resilience["resumed_from_batch"] = first_batch
            resilience["checkpoint_io"] = ckpt.io_stats()
        if heal_ctx is not None:
            resilience["heal"] = heal_ctx.report()
            resilience["world_spares"] = spec.world_spares
        if rebatched:
            resilience["rebatched"] = rebatched
        if replans:
            resilience["replans"] = replans
        info["resilience"] = resilience

    # The final resolved plan, recorded verbatim: what actually ran,
    # with the provenance trail of how the configuration was reached.
    backend_name = info.get("comm_backend", _registry_name(comm_backend))
    prov = dict(exec_plan.provenance) if exec_plan is not None else {}
    prov.setdefault("mode", "explicit")
    if replans:
        prov["replans"] = list(prov.get("replans", ())) + replans
        prov["mode"] = "replan"
    final_plan = ExecPlan(
        layers=layers,
        batches=int(ran_batches),
        predicted_seconds=(
            exec_plan.predicted_seconds if exec_plan is not None else None
        ),
        candidates=exec_plan.candidates if exec_plan is not None else (),
        backend=backend_name,
        predicted_memory=(
            exec_plan.predicted_memory if exec_plan is not None else None
        ),
        spec=spec.amended(batches=int(ran_batches), comm_backend=backend_name),
        provenance=prov,
        revision=(
            (exec_plan.revision if exec_plan is not None else 0) + len(replans)
        ),
    )
    info["plan"] = final_plan.to_dict()

    if spill_dir is not None:
        os.makedirs(spill_dir, exist_ok=True)

    def consume(batch: int, spans: list, batch_matrix: SparseMatrix) -> None:
        if spill_dir is not None:
            save_matrix(
                os.path.join(spill_dir, f"batch_{batch}.npz"), batch_matrix
            )
        if on_batch is not None:
            on_batch(batch, spans, batch_matrix)

    matrix = None
    if ckpt is not None:
        # resumed prefix from the checkpoint, computed suffix from the
        # collector; consumption replays in batch order either way, and
        # the final assembly concatenates the same canonical COO set the
        # non-checkpointed path would, so products are bit-identical.
        # When nothing downstream consumes batches the prefix is never
        # loaded back — required under keep_last pruning, where older
        # batch files are tombstones by design.
        needs_batches = (
            keep_output or on_batch is not None or spill_dir is not None
        )
        if needs_batches:
            batch_matrices = []
            for batch in range(first_batch):
                spans, batch_matrix = ckpt.load_batch(batch)
                consume(batch, spans, batch_matrix)
                batch_matrices.append(batch_matrix)
            for batch in range(first_batch, ran_batches):
                spans, batch_matrix = collector.completed.pop(batch)
                consume(batch, spans, batch_matrix)
                batch_matrices.append(batch_matrix)
            if keep_output:
                matrix = gather_tiles(
                    out_nrows, out_ncols, [(0, 0, m) for m in batch_matrices]
                )
        else:
            collector.completed.clear()
        gc_stats = ckpt.gc()
        if gc_stats["orphans_removed"] or gc_stats["pruned"]:
            info.setdefault("resilience", {})["checkpoint_gc"] = gc_stats
    elif collector is not None:
        for batch in range(ran_batches):
            spans, batch_matrix = collector.completed.pop(batch)
            consume(batch, spans, batch_matrix)
    elif keep_output:
        if on_batch is not None or spill_dir is not None:
            for batch in range(ran_batches):
                batch_pieces = [
                    (r0, c0, tile)
                    for r in per_rank
                    for (bt, r0, c0, tile) in r["pieces"]
                    if bt == batch
                ]
                batch_matrix = gather_tiles(out_nrows, out_ncols, batch_pieces)
                spans = sorted({(c0, c0 + t.ncols) for _r0, c0, t in batch_pieces})
                consume(batch, spans, batch_matrix)
        all_pieces = [
            (r0, c0, tile)
            for r in per_rank
            for (_batch, r0, c0, tile) in r["pieces"]
        ]
        # the kernel knows its output representation: sparse kernels
        # concatenate COO pieces, dense kernels place panels in an ndarray
        matrix = kern.gather(out_nrows, out_ncols, all_pieces)

    return SummaResult(
        matrix=matrix,
        grid=grid,
        batches=ran_batches,
        step_times=step_times,
        per_rank_times=per_rank_times,
        tracker=tracker,
        max_local_bytes=max_local_bytes,
        info=info,
        trace=[r["trace"] for r in per_rank],
    )


def _compose_mask(mask: SparseMatrix, complement: bool, inner):
    """Build a postprocess hook applying an output mask per column block,
    composed before any user-provided hook."""
    from ..sparse.ops import hadamard, submatrix

    def hook(batch: int, c0: int, c1: int, block: SparseMatrix) -> SparseMatrix:
        mask_block = submatrix(mask, 0, mask.nrows, c0, c1)
        if complement:
            from ..sparse.coo import colmajor_keys
            from ..sparse.matrix import INDEX_DTYPE
            from ..sparse.spgemm.masked import _mask_keys

            keys = colmajor_keys(block.nrows, block.rowidx, block.col_indices())
            mkeys = _mask_keys(mask_block)
            pos = np.searchsorted(mkeys, keys)
            pos = np.minimum(pos, max(mkeys.shape[0] - 1, 0))
            inside = (
                mkeys[pos] == keys
                if mkeys.shape[0]
                else np.zeros(keys.shape[0], bool)
            )
            keep = ~inside
            csum = np.concatenate(([0], np.cumsum(keep, dtype=INDEX_DTYPE)))
            block = SparseMatrix(
                block.nrows, block.ncols, csum[block.indptr],
                block.rowidx[keep], block.values[keep],
                sorted_within_columns=block.sorted_within_columns,
                validate=False,
            )
        else:
            pattern = SparseMatrix(
                mask_block.nrows, mask_block.ncols, mask_block.indptr,
                mask_block.rowidx, np.ones(mask_block.nnz),
                sorted_within_columns=mask_block.sorted_within_columns,
                validate=False,
            )
            block = hadamard(block, pattern)
        if inner is not None:
            block = inner(batch, c0, c1, block)
        return block

    return hook


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

    The signature is *identical* to :func:`batched_summa3d` — both are
    derived from :class:`~repro.plan.ExecSpec` through the same
    conversion point, so the two surfaces cannot drift apart.  Every spec
    knob applies unchanged (acting on the transposed run); ``spill_dir``
    files hold *row* blocks of ``C`` (already transposed back),
    consistent with ``on_batch``; checkpoints fingerprint the transposed
    operands, so resuming requires this same entry point.  The runtime
    hooks ``mask=``, ``sample=`` and ``postprocess=`` are column-batched
    concepts and raise here.
    """
    from ..sparse.ops import transpose

    spec_or_plan = _coerce_plan(plan, nprocs, layers, knobs)
    for value, name in (
        (mask, "mask"), (sample, "sample"), (postprocess, "postprocess"),
    ):
        if value is not None:
            raise ValueError(
                f"{name}= applies to the column-batched drivers only; "
                "row batching runs through the transpose identity and has "
                "no transposed equivalent of it yet"
            )
    spec, exec_plan = _plan_to_spec(spec_or_plan)
    kern = get_kernel(spec.kernel)
    if kern.name != "spgemm":
        raise NotImplementedError(
            "row batching runs through the transpose identity, which only "
            "holds for sparse operands on both sides; "
            f"kernel={kern.name!r} is column-batched only"
        )

    # spilling is handled here, not forwarded: the inner run computes
    # Cᵀ, and files must hold row blocks of C, transposed back.
    spill_dir = spec.spill_dir
    on_batch_outer = on_batch

    def transposed_hook(batch, spans, batch_matrix):
        mat = transpose(batch_matrix)
        if spill_dir is not None:
            os.makedirs(spill_dir, exist_ok=True)
            save_matrix(os.path.join(spill_dir, f"batch_{batch}.npz"), mat)
        if on_batch_outer is not None:
            on_batch_outer(batch, spans, mat)

    inner_spec = spec.amended(spill_dir=None)
    inner_plan = (
        replace(exec_plan, spec=inner_spec)
        if exec_plan is not None else inner_spec
    )
    result = run_plan(
        transpose(b),
        transpose(a),
        inner_plan,
        on_batch=(
            transposed_hook
            if (on_batch is not None or spill_dir is not None)
            else None
        ),
        tracker=tracker,
        faults=faults,
    )
    if result.matrix is not None:
        result.matrix = transpose(result.matrix)
    result.info["batch_axis"] = "rows"
    return result
