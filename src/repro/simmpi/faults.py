"""Deterministic fault injection for the simulated-MPI runtime.

At 262K cores the dominant non-algorithmic failure mode is the transient
fault: a dropped or corrupted message, a node dying mid-run, a rank whose
actual memory use outruns the symbolic estimate.  This module makes those
events *reproducible* so the recovery machinery (:mod:`repro.resilience`)
can be tested bit-for-bit:

* :class:`FaultSpec` — one planned fault, addressed by deterministic
  coordinates: the rank, the operation (or step kind), and the n-th
  matching attempt on that rank.  Four kinds:

  - ``"transient"`` — the addressed communication attempt raises
    :class:`~repro.errors.TransientCommError` *before* touching any shared
    state, so a retry of the same call is always safe;
  - ``"corrupt"`` — the addressed message *delivery* hands the receiver a
    perturbed copy of the payload; per-message checksums
    (:func:`~repro.simmpi.serialization.payload_checksum`) catch it and the
    transport redelivers;
  - ``"crash"`` — the addressed rank raises
    :class:`~repro.errors.RankCrashError` (a hard, non-retryable death) at
    a communication attempt or at a chosen (batch, stage) step;
  - ``"mem-pressure"`` — the addressed rank raises
    :class:`~repro.errors.MemoryPressureError` at a chosen (batch, stage),
    modelling an under-estimated symbolic bound; the batched driver reacts
    by doubling the batch count and re-running.

* :class:`FaultPlan` — an ordered collection of specs; build explicitly,
  parse from CLI strings (:meth:`FaultPlan.parse`), or draw a seeded
  pseudo-random plan (:meth:`FaultPlan.random`) — all fully deterministic.

* :class:`FaultInjector` — the per-run engine: owns per-rank attempt
  counters (each rank is one thread, so counters are contention-free), a
  thread-safe event log, and the retry bookkeeping the recovery side
  reports as ``fault_stats``.

Determinism contract: each rank's program order is deterministic, the
counters key on ``(rank, op)``, and nothing consults wall clock or global
RNG state — the same plan against the same program injects the same
faults at the same instants, every run.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..errors import MemoryPressureError, RankCrashError, TransientCommError
from .serialization import corrupt_copy

FAULT_KINDS = ("transient", "corrupt", "crash", "mem-pressure")


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    ``rank`` is the grid position it targets: the rank number the SPMD
    body sees.  A run that re-enters after a rank death puts a new holder
    on the dead position *under the same number*, so the coordinates keep
    addressing the position, not a process — which is why a ``crash``
    fires once per run however it is addressed (its position's next
    holder would otherwise die at the same point, for ever), while
    ``transient`` / ``corrupt`` address every region's own attempt count.

    Communication-level kinds (``transient``, ``corrupt``, and ``crash``
    with an ``op``) address the ``nth`` (1-based) attempt/delivery of
    communicator operation ``op`` (``"bcast"``, ``"send"``, ``"recv"``,
    ``"alltoallv"``, ...) on that rank.  Plan-level kinds (``crash`` /
    ``mem-pressure`` with ``batch``) fire when the rank's program reaches
    the given ``(batch, stage)`` (``stage=None`` matches the batch's
    first matching step; ``kind_op`` narrows to one step kind such as
    ``"multiply"`` — the batched driver refuses a name outside
    :data:`repro.summa.STEP_KINDS`).
    """

    kind: str
    rank: int
    op: str | None = None
    nth: int = 1
    batch: int | None = None
    stage: int | None = None
    kind_op: str | None = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.kind in ("transient", "corrupt") and self.op is None:
            raise ValueError(f"{self.kind!r} fault needs an op= to address")
        if self.kind in ("crash", "mem-pressure"):
            if self.op is None and self.batch is None:
                raise ValueError(
                    f"{self.kind!r} fault needs op= or batch= coordinates"
                )
        if self.nth < 1:
            raise ValueError(f"nth is 1-based, got {self.nth}")

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the CLI grammar ``kind:key=value,key=value,...``.

        Examples: ``transient:rank=1,op=bcast,nth=3``,
        ``corrupt:rank=0,op=send,nth=2``, ``crash:rank=2,batch=1``,
        ``mem-pressure:rank=0,batch=1,stage=0``.
        """
        head, _, rest = text.strip().partition(":")
        kind = head.strip()
        fields: dict = {}
        if rest:
            for item in rest.split(","):
                key, eq, value = item.partition("=")
                if not eq:
                    raise ValueError(f"bad fault field {item!r} in {text!r}")
                key = key.strip()
                value = value.strip()
                if key in ("rank", "nth", "batch", "stage"):
                    fields[key] = int(value)
                elif key == "op":
                    fields["op"] = value
                elif key == "kind_op":
                    fields["kind_op"] = value
                else:
                    raise ValueError(f"unknown fault field {key!r} in {text!r}")
        if "rank" not in fields:
            raise ValueError(f"fault spec {text!r} needs rank=")
        return cls(kind=kind, **fields)


@dataclass
class FaultEvent:
    """One thing the injector did or observed, in injection order."""

    kind: str        # "transient" / "corrupt" / "crash" / "mem-pressure"
                     # / "retry" / "redelivery"
    rank: int
    op: str | None = None
    step: str = ""
    batch: int | None = None
    stage: int | None = None
    attempt: int = 0
    backoff_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "kind": self.kind, "rank": self.rank, "op": self.op,
            "step": self.step, "batch": self.batch, "stage": self.stage,
            "attempt": self.attempt, "backoff_s": self.backoff_s,
        }


class FaultPlan:
    """An ordered, immutable-after-construction set of :class:`FaultSpec`."""

    def __init__(self, specs=()) -> None:
        self.specs: tuple[FaultSpec, ...] = tuple(
            FaultSpec.parse(s) if isinstance(s, str) else s for s in specs
        )

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def __repr__(self) -> str:
        return f"FaultPlan({list(self.specs)!r})"

    @classmethod
    def parse(cls, texts) -> "FaultPlan":
        """Build from CLI strings (one spec each; see :meth:`FaultSpec.parse`)."""
        if isinstance(texts, str):
            texts = [texts]
        return cls(FaultSpec.parse(t) for t in texts)

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        nprocs: int,
        transient: int = 0,
        corrupt: int = 0,
        crash: int = 0,
        ops=("bcast", "send", "recv", "alltoallv"),
        max_nth: int = 8,
        max_batch: int = 1,
    ) -> "FaultPlan":
        """A seeded pseudo-random plan of faults.

        Coordinates are drawn from ``numpy.random.RandomState(seed)``, so
        the plan — and therefore the whole faulty run — is a pure function
        of the seed.  Specs addressing attempts that never happen simply
        never fire; :meth:`FaultInjector.stats` reports planned vs fired.
        ``transient``/``corrupt`` draw retryable attempt/delivery faults;
        ``crash`` draws plan-level rank crashes addressed by batch
        (``0..max_batch-1``) — the chaos-test lever: a run that recovers
        from rank deaths must survive each crash, any other must abort
        with a classified, checkpoint-pointing error.  The ``crash`` draws
        come last, so extending a plan with crashes never changes which
        transient/corrupt coordinates an existing seed produces.
        """
        rng = np.random.RandomState(seed)
        specs = []
        for kind, count in (("transient", transient), ("corrupt", corrupt)):
            for _ in range(count):
                specs.append(FaultSpec(
                    kind=kind,
                    rank=int(rng.randint(nprocs)),
                    op=str(ops[int(rng.randint(len(ops)))]),
                    nth=int(rng.randint(1, max_nth + 1)),
                ))
        for _ in range(crash):
            specs.append(FaultSpec(
                kind="crash",
                rank=int(rng.randint(nprocs)),
                batch=int(rng.randint(max_batch)),
            ))
        return cls(specs)


class FaultInjector:
    """Executes a :class:`FaultPlan` against one SPMD run.

    One injector per :class:`~repro.simmpi.comm.World`.  Attempt and
    delivery counters are per ``(rank, op)``; since each rank runs on its
    own thread and only touches its own counters, counting is lock-free.
    The event log is shared and lock-protected.
    """

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self._lock = threading.Lock()
        self.events: list[FaultEvent] = []
        #: process-world hook: when set, a firing ``crash`` spec calls
        #: ``crash_action(spec, event)`` — which must not return — instead
        #: of raising :class:`RankCrashError`.  The worker engine installs
        #: an action that reports the event to the parent and then kills
        #: the process with ``SIGKILL``, turning the injected crash into a
        #: real OS-level death.
        self.crash_action = None
        self._tls = threading.local()
        # index the plan by addressing mode for O(1) hot-path lookups
        self._by_attempt: dict[tuple[int, str, int], FaultSpec] = {}
        self._by_delivery: dict[tuple[int, str, int], FaultSpec] = {}
        self._plan_ops: list[FaultSpec] = []
        self._fired: set[int] = set()
        for idx, spec in enumerate(self.plan):
            if spec.kind in ("transient",) or (
                spec.kind == "crash" and spec.op is not None
            ):
                self._by_attempt[(spec.rank, spec.op, spec.nth)] = spec
            elif spec.kind == "corrupt":
                self._by_delivery[(spec.rank, spec.op, spec.nth)] = spec
            else:
                self._plan_ops.append(spec)
        self._spec_ids = {id(spec): idx for idx, spec in enumerate(self.plan)}

    def __getstate__(self) -> dict:
        # what crosses to a worker process: the plan and what has fired.
        # Locks, thread-local counters and id-keyed indices do not pickle
        # (counting starts over per region, as it does per launch), and
        # the event log stays home so a worker's snapshot is its own
        # activity only — absorbing it never duplicates an event.
        return {"plan": self.plan, "fired": self.snapshot()[1]}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["plan"])
        self.absorb((), state["fired"])

    # ------------------------------------------------------------------ #
    # counters (per rank-thread, lock-free)
    # ------------------------------------------------------------------ #

    def _counters(self, family: str) -> dict:
        counters = getattr(self._tls, family, None)
        if counters is None:
            counters = {}
            setattr(self._tls, family, counters)
        return counters

    def _log(self, event: FaultEvent) -> None:
        with self._lock:
            self.events.append(event)

    def _mark_fired(self, spec: FaultSpec) -> bool:
        """Record that ``spec`` fired; returns whether it had not before
        (in this region or, through :meth:`absorb`, an earlier one)."""
        idx = self._spec_ids[id(spec)]
        with self._lock:
            first = idx not in self._fired
            self._fired.add(idx)
        return first

    # ------------------------------------------------------------------ #
    # hooks (called by SimComm / the rank program)
    # ------------------------------------------------------------------ #

    def on_attempt(self, rank: int, op: str, step: str = "") -> None:
        """Called at the *entry* of every communicator operation, before
        any shared state is touched — so a raise here leaves the run in a
        state where simply calling the operation again is correct."""
        counters = self._counters("attempts")
        n = counters.get(op, 0) + 1
        counters[op] = n
        spec = self._by_attempt.get((rank, op, n))
        if spec is None:
            return
        if not self._mark_fired(spec) and spec.kind == "crash":
            return  # counting starts over per region; a death does not
        event = FaultEvent(spec.kind, rank, op=op, step=step, attempt=n)
        self._log(event)
        if spec.kind == "crash":
            if self.crash_action is not None:
                self.crash_action(spec, event)
            raise RankCrashError(
                f"injected crash: rank {rank} at {op} attempt {n}"
            )
        raise TransientCommError(
            f"injected transient fault: rank {rank}, {op} attempt {n}"
        )

    def on_delivery(self, rank: int, op: str, payload, step: str = ""):
        """Called for every enveloped message delivered to ``rank``;
        returns the payload — corrupted when a ``corrupt`` spec addresses
        this delivery.  Redelivery of the same message counts as a fresh
        delivery, so the injected corruption (addressed to one attempt)
        is gone on retransmission, exactly like a real transient bit flip."""
        counters = self._counters("deliveries")
        n = counters.get(op, 0) + 1
        counters[op] = n
        spec = self._by_delivery.get((rank, op, n))
        if spec is None:
            return payload
        self._mark_fired(spec)
        self._log(FaultEvent("corrupt", rank, op=op, step=step, attempt=n))
        return corrupt_copy(payload)

    def on_plan_op(
        self, rank: int, kind: str, batch: int | None, stage: int | None,
        *, batches: int | None = None,
    ) -> None:
        """Called by the rank program before each step; fires crash /
        mem-pressure specs addressed by ``(batch, stage)``."""
        if batch is None or not self._plan_ops:
            return
        for spec in self._plan_ops:
            if spec.rank != rank or spec.batch != batch:
                continue
            if spec.stage is not None and spec.stage != stage:
                continue
            if spec.kind_op is not None and spec.kind_op != kind:
                continue
            if not self._mark_fired(spec):
                continue
            event = FaultEvent(spec.kind, rank, batch=batch, stage=stage)
            self._log(event)
            if spec.kind == "crash":
                if self.crash_action is not None:
                    self.crash_action(spec, event)
                raise RankCrashError(
                    f"injected crash: rank {rank} at batch {batch}"
                    + (f" stage {stage}" if stage is not None else "")
                )
            raise MemoryPressureError(
                f"injected memory pressure: rank {rank} at batch {batch}"
                + (f" stage {stage}" if stage is not None else ""),
                batches=batches,
            )

    # ------------------------------------------------------------------ #
    # retry / redelivery bookkeeping (called by the recovery side)
    # ------------------------------------------------------------------ #

    def record_retry(
        self, rank: int, op: str, step: str, attempt: int, backoff_s: float,
        kind: str = "retry",
    ) -> None:
        self._log(FaultEvent(
            kind, rank, op=op, step=step, attempt=attempt, backoff_s=backoff_s
        ))

    # ------------------------------------------------------------------ #
    # process-world merge (fork-inherited copies report back)
    # ------------------------------------------------------------------ #

    def snapshot(self) -> tuple[list[FaultEvent], list[int]]:
        """This injector's events and fired spec indices, for shipping a
        forked worker's fault activity back to the parent's injector."""
        with self._lock:
            return list(self.events), sorted(self._fired)

    def absorb(self, events, fired) -> None:
        """Merge a worker injector's :meth:`snapshot` into this one.

        Under ``world="processes"`` every worker runs a fork-inherited
        copy of the plan injector; the per-``(rank, op)`` counters stay
        per-rank by construction (one process per rank), and the parent
        absorbs each copy's event log and fired-spec set so
        :meth:`stats` reports the whole run.
        """
        with self._lock:
            self.events.extend(events)
            self._fired.update(int(i) for i in fired)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """Aggregate view surfaced as ``SummaResult.fault_stats``."""
        with self._lock:
            events = list(self.events)
            fired = len(self._fired)
        injected: dict[str, int] = {}
        retries = 0
        backoff = 0.0
        for ev in events:
            if ev.kind in FAULT_KINDS:
                injected[ev.kind] = injected.get(ev.kind, 0) + 1
            else:
                retries += 1
                backoff += ev.backoff_s
        return {
            "planned": len(self.plan),
            "fired": fired,
            "injected": injected,
            "retries": retries,
            "simulated_backoff_s": backoff,
            "events": [ev.as_dict() for ev in events],
        }
