"""The reified execution plan: :class:`ExecSpec` and :class:`ExecPlan`.

Before this module the library's run configuration lived as ~25 loose
keyword arguments copy-pasted across ``batched_summa3d``, its ``_rows``
twin, ``summa2d/3d``, ``DistContext``, the CLI and ``repro.serve`` —
a call-site convention that had already drifted once.  Here the
configuration becomes a *value*:

* :class:`ExecSpec` — the frozen record of every run knob (kernel /
  semiring, comm backend, overlap, world/transport, batching, budget +
  enforcement, resilience, checkpointing).
  ``ExecSpec.from_kwargs`` is the **single** legacy-kwargs → spec
  conversion point every driver shares, and ``to_dict`` / ``from_dict``
  round-trip the spec through JSON (unknown keys ride along in
  ``extra`` for forward compatibility — a newer writer's spec still
  loads, and re-serialises, under an older reader).

* :class:`ExecPlan` — a *resolved* spec: the chosen ``(layers,
  batches, backend)`` triple plus the model's predicted makespan and
  Table III memory estimate and the provenance of how the choice was
  made (explicit or auto-tuned, with the scoring basis).
  ``repro.summa.auto_config`` returns one, the serving plan cache
  stores them, ``run_plan`` executes them, and every
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

import math
import os
from dataclasses import dataclass, field, fields, replace
from numbers import Integral, Real

from ..comm.backend import COMM_BACKENDS
from ..errors import ShapeError
from ..grid.distribution import BATCH_SCHEMES
from ..mem import ENFORCE_MODES
from ..mp.transport import TRANSPORTS
from ..simmpi.comm import DEFAULT_TIMEOUT
from ..simmpi.engine import WORLDS
from ..sparse.matrix import BYTES_PER_NONZERO
from ..summa.exec import MERGE_POLICIES, OVERLAP_MODES

#: serialisation format version of ``ExecSpec.to_dict`` / ``ExecPlan.to_dict``.
SPEC_VERSION = 1

#: fields that hold a registry name or a live instance of it
_REGISTRY_FIELDS = ("semiring", "kernel", "comm_backend")


def _registry_name(value):
    """Normalise a registry object (semiring/kernel/backend) to its name;
    strings pass through."""
    if isinstance(value, str) or value is None:
        return value
    name = getattr(value, "name", None)
    if name is None and isinstance(value, type):
        name = getattr(value, "name", value.__name__)
    return str(name) if name is not None else str(value)


def _knob(default, help: str, *, choices: tuple | None = None, type=None):
    """One run knob: its default and one-line help, plus — where a string
    takes one of a fixed set — the value set :meth:`ExecSpec.validate`
    checks, and the argparse ``type`` where the default does not say it.
    ``repro multiply`` generates its flags from these."""
    meta = {"help": help}
    if choices is not None:
        meta["choices"] = choices
    if type is not None:
        meta["type"] = type
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class ExecSpec:
    """Every knob of one multiplication, as one frozen, serialisable value.

    The fields are the :func:`~repro.summa.batched_summa3d` keywords
    (which are derived from this record).  Each declares its one-line
    help beside itself in ``field(metadata=...)``, and a string with a
    fixed set of values that set: :meth:`validate` checks it, and
    ``repro multiply`` generates one flag per field from the three.
    ``semiring``, ``kernel`` and ``comm_backend`` also take a registry
    instance (a :class:`~repro.kernels.LocalKernel`, a
    :class:`~repro.comm.CommBackend`, ...).
    """

    nprocs: int = _knob(4, "number of ranks p")
    layers: int = _knob(1, "layers l of the sqrt(p/l) x sqrt(p/l) x l grid")
    batches: int | None = _knob(
        None, "batch count b (default: from the budget, else 1)", type=int,
    )
    memory_budget: int | None = _knob(
        None, "aggregate bytes M over all ranks; Alg. 3 picks b from it "
        "(a rank's share is M // nprocs)", type=int,
    )
    enforce: str = _knob(
        "off", "what a rank's ledger does over its budget share: account "
        "only, record a warning, or fail the stage (strict re-batches to "
        "2b)", choices=ENFORCE_MODES,
    )
    semiring: object = _knob("plus_times", "semiring registry name")
    kernel: object = _knob(
        "spgemm", "local kernel: spgemm, spmm, sddmm, masked_spgemm, or "
        "spgemm:<tier> for a Table VII loop tier (e.g. spgemm:sorted-heap)",
    )
    keep_output: bool = _knob(
        True, "assemble the product (--no-keep-output discards each batch)",
    )
    batch_scheme: str = _knob(
        "block-cyclic", "batch columns: block-cyclic (Fig. 1(i), balances "
        "Merge-Fiber) or block (contiguous; the load-imbalance ablation)",
        choices=BATCH_SCHEMES,
    )
    merge_policy: str = _knob(
        "deferred", "merge stage partials once per batch (Alg. 1 line 8) "
        "or fold each stage at once (Sec. III-A)", choices=MERGE_POLICIES,
    )
    comm_backend: object = _knob(
        "dense", "operand exchange: dense collectives, sparse "
        "(SpComm3D-style point-to-point), or auto (the model prices both)",
        choices=COMM_BACKENDS,
    )
    overlap: str = _knob(
        "off", "depth1 prefetches stage s+1's operands behind stage s's "
        "multiply", choices=OVERLAP_MODES,
    )
    timeout: float = _knob(
        DEFAULT_TIMEOUT, "seconds a rank may block in one op before the "
        "watchdog fails the run",
    )
    checkpoint_dir: str | None = _knob(
        None, "write a manifest-backed checkpoint of each completed batch "
        "here",
    )
    resume: bool = _knob(
        False, "continue from the last completed batch in checkpoint_dir",
    )
    checkpoint_keep_last: int | None = _knob(
        None, "keep only the newest K checkpointed batch files", type=int,
    )
    heal: bool = _knob(
        False, "re-enter from the last checkpointed batch when ranks die "
        "(needs checkpoint_dir)",
    )
    world: str = _knob(
        "threads", "one thread or one OS process per rank (bit-identical "
        "products)", choices=WORLDS,
    )
    transport: str = _knob(
        "auto", "process-world payloads: pickle, shared memory, or by size",
        choices=TRANSPORTS,
    )
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
        return cls(**knobs)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #

    def validate(self) -> "ExecSpec":
        """Check the knob combination is runnable; returns ``self``.

        Raises the exception types the drivers historically raised, so
        existing callers' error handling holds.
        """
        b = self.batches
        if b is not None and (
            isinstance(b, bool) or not isinstance(b, Integral) or b < 1
        ):
            raise ShapeError(f"batches must be an int >= 1, got {b!r}")
        t = self.timeout
        if isinstance(t, bool) or not isinstance(t, Real) or not (
            math.isfinite(t) and t > 0
        ):
            raise ValueError(
                f"timeout must be a finite number of seconds > 0, got {t!r}"
            )
        for f in fields(self):
            known = f.metadata.get("choices")
            value = getattr(self, f.name)
            if f.name in _REGISTRY_FIELDS and not isinstance(value, str):
                continue  # an instance: the registry resolves it
            if known is not None and value not in known:
                raise ValueError(
                    f"unknown {f.name.replace('_', ' ')} {value!r}; "
                    f"expected one of {known}"
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
        if not isinstance(self.heal, bool):
            raise ValueError(
                f"heal must be True or False, got {self.heal!r} (there are "
                "no heal modes: a death re-enters at the checkpointed batch)"
            )
        if self.heal and self.checkpoint_dir is None:
            raise ValueError(
                "heal=True requires checkpoint_dir=: the re-entry point "
                "after a rank death is the last durably checkpointed batch"
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
            if name in _REGISTRY_FIELDS:
                value = _registry_name(value)
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
        return cls(**known, extra=d)

    def amended(self, **changes) -> "ExecSpec":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return replace(self, **changes)


#: the knob names every driver surface is derived from (``extra`` is the
#: forward-compat carrier, not a knob).
SPEC_FIELDS = tuple(
    f.name for f in fields(ExecSpec) if f.name != "extra"
)

_CHOSEN_ONCE = (
    "b and the comm backend are chosen once, before the run (batches=, "
    "memory_budget=, comm_backend=); memory pressure under "
    'enforce="strict" still re-batches'
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
    "replan_threshold": (0.15, _CHOSEN_ONCE),
    "replan_min_batches": (1, _CHOSEN_ONCE),
    "suite": ("esc", 'the tiers are spelt kernel="spgemm:<tier>"'),
    "checksums": (None, "checksums are on exactly when faults= is given"),
    "max_retries": (3, "it is repro.resilience.MAX_RETRIES"),
    "max_replans": (1, _CHOSEN_ONCE),
    "replan_force": ([], _CHOSEN_ONCE),
    "replan": ("off", _CHOSEN_ONCE),
}


@dataclass(frozen=True)
class ExecPlan:
    """A resolved :class:`ExecSpec`: the chosen configuration plus the
    model's predictions and the provenance of the choice.

    ``layers``, ``batches``, ``predicted_seconds``, ``candidates``,
    ``backend`` and ``predicted_memory`` are the auto-tuner's outcome, in
    that positional order.

    ``provenance`` records *how* the plan was chosen — ``{"mode":
    "explicit" | "auto", ...}`` with the scoring basis for ``auto``.
    """

    layers: int = 1
    batches: int | None = None
    predicted_seconds: float | None = None
    candidates: tuple = ()
    backend: str = "dense"
    predicted_memory: dict | None = None
    spec: ExecSpec | None = None
    provenance: dict = field(default_factory=dict)
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
        }
        d.update(self.extra)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExecPlan":
        if not isinstance(d, dict):
            raise TypeError(f"ExecPlan.from_dict needs a dict, got {type(d)}")
        known_names = {
            "layers", "batches", "predicted_seconds", "candidates",
            "backend", "predicted_memory", "spec", "provenance",
        }
        known = {}
        extra = {}
        for key, value in d.items():
            # a stored ``revision`` counted mid-run amendments, which no
            # run makes now: it says nothing about the plan
            if key in ("spec_version", "revision"):
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
