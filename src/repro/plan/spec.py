"""The reified execution plan: :class:`ExecSpec` and :class:`ExecPlan`.

Before this module the library's run configuration lived as ~25 loose
keyword arguments copy-pasted across ``batched_summa3d``, its ``_rows``
twin, ``summa2d/3d``, ``DistContext``, the CLI and ``repro.serve`` —
a call-site convention that had already drifted once.  Here the
configuration becomes a *value*:

* :class:`ExecSpec` — the frozen record of every run knob (kernel /
  semiring, comm backend, overlap, world/transport, batching, budget +
  enforcement, resilience, checkpointing, replanning).
  ``ExecSpec.from_kwargs`` is the **single** legacy-kwargs → spec
  conversion point every driver shares, and ``to_dict`` / ``from_dict``
  round-trip the spec through JSON (unknown keys ride along in
  ``extra`` for forward compatibility — a newer writer's spec still
  loads, and re-serialises, under an older reader).

* :class:`ExecPlan` — a *resolved* spec: the chosen ``(layers,
  batches, backend)`` triple plus the model's predicted makespan and
  Table III memory estimate and the provenance of how the choice was
  made (explicit / auto-tuned / mid-run replan, with the measurements
  that drove it).  ``repro.summa.auto_config`` returns one, the serving
  plan cache stores them, ``run_plan`` executes them, and every
  :class:`~repro.summa.result.SummaResult` records the final resolved
  plan verbatim in ``info["plan"]``.

Runtime-only arguments — callables and operand-sized objects that have
no serialised form (``mask``, ``sample``, ``postprocess``, ``on_batch``,
``tracker``, ``faults``) — deliberately stay *out* of the spec; the
drivers accept them next to ``plan=``.

The ``semiring`` / ``kernel`` / ``comm_backend`` fields hold
either a registry name (the normal, serialisable case) or a live
instance passed by an advanced caller; ``to_dict`` normalises instances
to their registry ``name``, so persisted plans are always plain data.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace

from ..errors import ShapeError
from ..simmpi.comm import DEFAULT_TIMEOUT
from ..sparse.matrix import BYTES_PER_NONZERO

#: serialisation format version of ``ExecSpec.to_dict`` / ``ExecPlan.to_dict``.
SPEC_VERSION = 1

#: supported settings of the ``replan=`` knob.
REPLAN_MODES = ("off", "auto")

#: ``world=`` values accepted by the drivers (mirrors ``repro.simmpi.engine``).
_WORLDS = ("threads", "processes")


def _registry_name(value):
    """Normalise a registry object (semiring/kernel/backend) to its name;
    strings pass through."""
    if isinstance(value, str) or value is None:
        return value
    name = getattr(value, "name", None)
    if name is None and isinstance(value, type):
        name = getattr(value, "name", value.__name__)
    return str(name) if name is not None else str(value)


@dataclass(frozen=True)
class ExecSpec:
    """Every knob of one multiplication, as one frozen, serialisable value.

    The fields are the :func:`~repro.summa.batched_summa3d` keywords
    (which are derived from this record).  What the less obvious ones
    mean:

    ``batches``, ``memory_budget``
        The batch count ``b``; ``None`` lets the symbolic step (Alg. 3)
        pick it from the budget — aggregate bytes ``M`` over all ranks
        (a rank's share, what its ledger enforces, is ``M // nprocs``).
    ``enforce``
        What a rank's :class:`~repro.mem.MemoryLedger` does when its
        high-water mark exceeds the per-rank budget: ``"off"`` (account
        only), ``"warn"`` (record it in the memory report), ``"strict"``
        (raise a deterministic
        :class:`~repro.errors.MemoryBudgetExceededError` at the stage
        boundary that exceeds it; the driver re-batches and re-enters).
    ``batch_scheme``
        ``"block-cyclic"`` (paper Fig. 1(i), balances Merge-Fiber) or
        ``"block"`` (contiguous; the load-imbalance ablation).
    ``merge_policy``
        ``"deferred"`` merges all stage partials once per batch (the
        paper's choice, Alg. 1 line 8); ``"incremental"`` folds each
        stage into the running result at once — lower transient memory,
        more merge work in the worst case (Sec. III-A).  Kernels with
        dense accumulators always fold.
    ``comm_backend``
        ``"dense"`` (whole-tile collectives, the paper's Table II),
        ``"sparse"`` (SpComm3D-style sparsity-aware point-to-point; see
        :mod:`repro.comm`), ``"auto"`` (the driver prices both), or a
        :class:`~repro.comm.CommBackend` class/instance.  Bit-identical
        products either way.
    ``overlap``
        ``"off"`` runs the stages strictly in order; ``"depth1"`` starts
        stage ``s+1``'s operand delivery behind stage ``s``'s local
        multiply.  Bit-identical products, identical bytes.
    ``max_retries``
        Bound on per-attempt retries of transiently-failed communication
        (:class:`~repro.resilience.RetryPolicy`); ``None`` disables them.
    ``kernel``
        The :class:`~repro.kernels.LocalKernel` (name or instance)
        deciding what a stage computes — ``"spgemm"`` (default),
        ``"spmm"``, ``"sddmm"`` or ``"masked_spgemm"``.  It declares
        operand kinds (dense operands ride collectives on both comm
        backends), the merge rule and the memory footprint.  The SpGEMM
        kernels take their (multiply, merge) implementation tier after a
        colon — ``"spgemm:sorted-heap"`` (Table VII / Fig. 15); the
        default is the vectorised ESC tier.
    ``replan``
        ``"off"`` (default) or ``"auto"`` — enable the mid-run
        :class:`~repro.plan.replan.Replanner` at batch boundaries.
    ``max_replans``
        Hard bound on mid-run amendments per run (termination guarantee).
    ``replan_force``
        Deterministic testing/demo hook: ``((batch, {field: value}),
        ...)`` amendments applied unconditionally at the named batch
        boundaries, bypassing measurement.  Serialises like everything
        else.
    """

    nprocs: int = 4
    layers: int = 1
    batches: int | None = None
    memory_budget: int | None = None
    enforce: str = "off"
    semiring: object = "plus_times"
    kernel: object = "spgemm"
    keep_output: bool = True
    batch_scheme: str = "block-cyclic"
    merge_policy: str = "deferred"
    comm_backend: object = "dense"
    overlap: str = "off"
    timeout: float = DEFAULT_TIMEOUT
    checksums: bool | None = None
    max_retries: int | None = 3
    checkpoint_dir: str | None = None
    resume: bool = False
    checkpoint_keep_last: int | None = None
    heal: str | None = None
    world_spares: int = 0
    world: str = "threads"
    transport: str = "auto"
    replan: str = "off"
    max_replans: int = 1
    replan_force: tuple = ()
    #: unknown keys from a newer writer's ``to_dict`` — preserved verbatim
    #: so round-tripping a forward-compatible dict is lossless.
    extra: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_kwargs(cls, **knobs) -> "ExecSpec":
        """The single legacy-kwargs → spec conversion point.

        Every driver's ``**knobs`` surface funnels through here, so the
        accepted knob set *is* the field set of this class — the two can
        never drift apart again.  Unknown knobs raise ``TypeError`` with
        the offending names, exactly like a misspelled keyword argument.
        """
        unknown = set(knobs) - set(SPEC_FIELDS)
        if unknown:
            raise TypeError(
                "unknown execution knob(s) "
                f"{', '.join(sorted(repr(k) for k in unknown))}; "
                "expected fields of repro.plan.ExecSpec"
            )
        if knobs.get("checkpoint_dir") is not None:
            knobs["checkpoint_dir"] = os.fspath(knobs["checkpoint_dir"])
        if knobs.get("replan_force"):
            knobs["replan_force"] = _canon_force(knobs["replan_force"])
        return cls(**knobs)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #

    def validate(self) -> "ExecSpec":
        """Check the knob combination is runnable; returns ``self``.

        Raises the same exception types (and messages) the drivers
        historically raised, so existing callers' error handling holds.
        """
        from ..grid.distribution import BATCH_SCHEMES
        from ..mem import ENFORCE_MODES
        from ..resilience import HEAL_MODES
        from ..summa.exec import MERGE_POLICIES, OVERLAP_MODES

        if self.batches is not None and self.batches < 1:
            raise ShapeError(f"batches must be >= 1, got {self.batches}")
        for what, value, known in (
            ("overlap mode", self.overlap, OVERLAP_MODES),
            ("merge policy", self.merge_policy, MERGE_POLICIES),
            ("batch scheme", self.batch_scheme, BATCH_SCHEMES),
        ):
            if value not in known:
                raise ValueError(
                    f"unknown {what} {value!r}; expected one of {known}"
                )
        if self.enforce not in ENFORCE_MODES:
            raise ValueError(
                f"unknown enforce mode {self.enforce!r}; "
                f"expected one of {ENFORCE_MODES}"
            )
        if self.memory_budget is not None and self.memory_budget <= 0:
            raise ValueError(
                f"memory_budget must be > 0, got {self.memory_budget}"
            )
        if self.enforce != "off" and self.memory_budget is None:
            raise ValueError(
                f'enforce="{self.enforce}" needs a budget: pass '
                "memory_budget= (aggregate bytes over all ranks)"
            )
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir=")
        if self.heal is not None:
            if self.heal not in HEAL_MODES:
                raise ValueError(
                    f"unknown heal mode {self.heal!r}; "
                    f"expected one of {HEAL_MODES}"
                )
            if self.checkpoint_dir is None:
                raise ValueError(
                    "heal= requires checkpoint_dir=: the re-entry point "
                    "after a repair is the last durably checkpointed batch"
                )
            if self.heal == "spare" and self.world_spares < 1:
                raise ValueError('heal="spare" needs world_spares >= 1')
        if self.world_spares < 0:
            raise ValueError(
                f"world_spares must be >= 0, got {self.world_spares}"
            )
        if self.replan not in REPLAN_MODES:
            raise ValueError(
                f"unknown replan mode {self.replan!r}; "
                f"expected one of {REPLAN_MODES}"
            )
        if self.max_replans < 0:
            raise ValueError(
                f"max_replans must be >= 0, got {self.max_replans}"
            )
        return self

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """Plain-data form (JSON-safe): named fields plus preserved
        unknown keys, with registry objects normalised to their names."""
        d = {"spec_version": SPEC_VERSION}
        for name in SPEC_FIELDS:
            value = getattr(self, name)
            if name in ("semiring", "kernel", "comm_backend"):
                value = _registry_name(value)
            elif name == "replan_force":
                value = [[int(b), dict(a)] for b, a in value]
            d[name] = value
        d.update(self.extra)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExecSpec":
        """Inverse of :meth:`to_dict`; unknown keys land in ``extra``.

        A dict written while :data:`_REMOVED` names were still knobs loads
        when each holds the one value the library now always runs at
        (a ``suite`` tier of the default kernel moves behind ``kernel``);
        any other value is refused, naming what replaces the knob — never
        carried along silently in ``extra``.
        """
        if not isinstance(d, dict):
            raise TypeError(f"ExecSpec.from_dict needs a dict, got {type(d)}")
        d = dict(d)
        if d.get("suite", "esc") != "esc" and d.get("kernel", "spgemm") == "spgemm":
            d["kernel"] = f"spgemm:{d.pop('suite')}"
        for key, (only, instead) in _REMOVED.items():
            if d.get(key, only) != only:
                raise ValueError(
                    f"plan was written with {key}={d[key]!r}, which is no "
                    f"longer a knob: {instead}"
                )
            d.pop(key, None)
        d.pop("spec_version", None)
        known = {key: d.pop(key) for key in SPEC_FIELDS if key in d}
        if "replan_force" in known:
            known["replan_force"] = _canon_force(known["replan_force"] or ())
        return cls(**known, extra=d)

    def amended(self, **changes) -> "ExecSpec":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return replace(self, **changes)


#: the knob names every driver surface is derived from (``extra`` is the
#: forward-compat carrier, not a knob).
SPEC_FIELDS = tuple(
    f.name for f in fields(ExecSpec) if f.name != "extra"
)

#: former knobs a stored plan may still carry → (the one value it may
#: hold, what replaces it).  Outside input: see :meth:`ExecSpec.from_dict`.
_REMOVED = {
    "bytes_per_nonzero": (
        BYTES_PER_NONZERO,
        f"runs are sized and metered at r = {BYTES_PER_NONZERO} only",
    ),
    "memory_budget_per_rank": (
        None, "pass memory_budget = per_rank × nprocs (aggregate bytes)",
    ),
    "mask_complement": (
        False, "a complement mask is a postprocess= filter of the caller's",
    ),
    "spill_dir": (None, "save each batch from an on_batch= hook"),
    "replan_threshold": (0.15, "it is a constant of repro.plan.replan"),
    "replan_min_batches": (1, "it is a constant of repro.plan.replan"),
    "suite": ("esc", 'the tiers are spelt kernel="spgemm:<tier>"'),
}


def _canon_force(force) -> tuple:
    """Canonicalise a ``replan_force`` value to ``((batch, {..}), ...)``."""
    out = []
    for item in force:
        batch, amend = item
        out.append((int(batch), dict(amend)))
    return tuple(out)


@dataclass(frozen=True)
class ExecPlan:
    """A resolved :class:`ExecSpec`: the chosen configuration plus the
    model's predictions and the provenance of the choice.

    ``layers``, ``batches``, ``predicted_seconds``, ``candidates``,
    ``backend`` and ``predicted_memory`` are the auto-tuner's outcome, in
    that positional order.

    ``provenance`` records *how* the plan was chosen — ``{"mode":
    "explicit" | "auto" | "replan", ...}`` with mode-specific detail
    (the scoring basis for ``auto``, the measurements and amendment for
    ``replan``).  ``revision`` counts mid-run amendments: an original
    plan is revision 0 and every adopted replan bumps it by one.
    """

    layers: int = 1
    batches: int | None = None
    predicted_seconds: float | None = None
    candidates: tuple = ()
    backend: str = "dense"
    predicted_memory: dict | None = None
    spec: ExecSpec | None = None
    provenance: dict = field(default_factory=dict)
    revision: int = 0
    extra: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # derivation
    # ------------------------------------------------------------------ #

    def with_spec(self, **changes) -> "ExecPlan":
        """A copy whose embedded spec has ``changes`` applied — the hook
        runtime layers (the serving pool, the CLI) use to graft their
        slot-specific knobs (world, transport, timeout, resilience) onto
        a cached plan without disturbing the chosen configuration."""
        base = self.spec if self.spec is not None else ExecSpec()
        return replace(self, spec=base.amended(**changes))

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        d = {
            "spec_version": SPEC_VERSION,
            "layers": self.layers,
            "batches": self.batches,
            "predicted_seconds": self.predicted_seconds,
            "candidates": [list(c) for c in self.candidates],
            "backend": _registry_name(self.backend),
            "predicted_memory": self.predicted_memory,
            "spec": None if self.spec is None else self.spec.to_dict(),
            "provenance": dict(self.provenance),
            "revision": self.revision,
        }
        d.update(self.extra)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExecPlan":
        if not isinstance(d, dict):
            raise TypeError(f"ExecPlan.from_dict needs a dict, got {type(d)}")
        known_names = {
            "layers", "batches", "predicted_seconds", "candidates",
            "backend", "predicted_memory", "spec", "provenance", "revision",
        }
        known = {}
        extra = {}
        for key, value in d.items():
            if key == "spec_version":
                continue
            if key in known_names:
                known[key] = value
            else:
                extra[key] = value
        if known.get("candidates"):
            known["candidates"] = tuple(
                tuple(c) for c in known["candidates"]
            )
        else:
            known["candidates"] = ()
        if known.get("spec") is not None:
            known["spec"] = ExecSpec.from_dict(known["spec"])
        known["provenance"] = dict(known.get("provenance") or {})
        return cls(**known, extra=extra)
