"""Online recovery: continue a BatchedSUMMA3D run through a rank crash.

PR 3 made crashes survivable *by restart*; this layer makes them
survivable **in place**, following MPI's ULFM model (revoke → agree →
repair → continue):

1. The crashing rank's death revokes every live communicator
   (:meth:`~repro.simmpi.membership.Membership.declare_dead` bumps the
   world's revoke epoch; survivors observe
   :class:`~repro.errors.RankRevokedError` at op entry or inside the
   rendezvous they are blocked in).
2. :class:`HealingBody` — the SPMD body the engine runs under
   ``heal=`` — catches the revocation and joins the deterministic
   survivor agreement (:meth:`Membership.agree`).
3. The published :class:`~repro.simmpi.membership.HealDecision` repairs
   the grid: a parked **spare** rank is promoted into the dead position
   (``mode="spare"``), or a fresh rank is **respawned** oversubscribed
   onto the lowest surviving host (``mode="shrink"`` — host-pool
   shrink).  The logical grid never changes: floating-point reductions
   do not compose across grid geometries, so preserving bit-identical
   results requires preserving the stage/layer decomposition.
4. Every holder re-enters the run on fresh epoch-``e`` communicators:
   grid communicators are re-split, operand tiles re-extracted (the
   bytes moved to the *new* holder are metered as redistribution
   traffic), the batch loop re-entered at the decision's
   ``restart_batch`` — the last batch made durable by the per-batch
   checkpoint — and the multiplication continues.

:class:`HealContext` is the driver-side half: it owns the heal knobs,
links the membership layer to the checkpoint manager and the driver's
piece collector, and accumulates the per-event report that surfaces as
``info["resilience"]["heal"]``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from ..errors import HealError, RankRevokedError
from ..simmpi.membership import epoch_comm
from ..summa.trace import STEP_HEAL, TraceSpan

HEAL_MODES = ("spare", "shrink")


class HealContext:
    """Driver-side coordination and reporting for one healing run.

    Parameters
    ----------
    mode:
        ``"spare"`` (promote a parked spare rank) or ``"shrink"``
        (shrink the host pool; respawn the position oversubscribed onto
        a survivor host).
    checkpoint:
        The run's :class:`~repro.resilience.checkpoint.CheckpointManager`.
        Healing requires checkpointing: the restart point of every heal
        is the durable completed-batch prefix.
    collector:
        The driver's piece collector (its partially gathered batches are
        dropped on heal and recomputed), or ``None``.
    first_batch:
        Batch the run started from (resume support).
    max_rounds:
        Heal-round budget: more than this many revoke epochs fails the
        run with :class:`~repro.errors.HealError`.
    """

    def __init__(self, mode: str, *, checkpoint=None, collector=None,
                 first_batch: int = 0, max_rounds: int = 8) -> None:
        if mode not in HEAL_MODES:
            raise HealError(
                f"unknown heal mode {mode!r}; expected one of {HEAL_MODES}"
            )
        self.mode = mode
        self.checkpoint = checkpoint
        self.collector = collector
        self.first_batch = int(first_batch)
        self.max_rounds = int(max_rounds)
        self.events: list[dict] = []
        self._lock = threading.Lock()

    # ---- hooks called by the membership layer ------------------------ #

    def restart_point(self) -> int:
        """Durable re-entry batch: the completed checkpoint prefix."""
        if self.checkpoint is None:
            return self.first_batch
        return max(self.checkpoint.completed_prefix(), self.first_batch)

    def on_decision(self, decision) -> None:
        """A heal decision was published: drop half-gathered batches
        (they restart from the checkpoint boundary) and open the event
        record for this epoch."""
        if self.collector is not None:
            self.collector.drop_pending()
        with self._lock:
            event = decision.describe()
            event["bytes_redistributed"] = 0
            event["latency_s"] = 0.0
            self.events.append(event)

    # ---- hooks called by the healing bodies -------------------------- #

    def add_bytes(self, epoch: int, nbytes: int) -> None:
        """Meter operand bytes moved to a repaired position."""
        with self._lock:
            for event in self.events:
                if event["epoch"] == epoch:
                    event["bytes_redistributed"] += int(nbytes)
                    return

    def add_latency(self, epoch: int, seconds: float) -> None:
        """Record one rank's recovery latency; the event keeps the max
        across ranks (the run resumes when the slowest rank has)."""
        with self._lock:
            for event in self.events:
                if event["epoch"] == epoch:
                    event["latency_s"] = max(event["latency_s"],
                                             round(seconds, 6))
                    return

    # ---- reporting --------------------------------------------------- #

    def total_extra_bytes(self) -> int:
        with self._lock:
            return sum(e["bytes_redistributed"] for e in self.events)

    def report(self) -> dict:
        """The ``info["resilience"]["heal"]`` payload."""
        with self._lock:
            return {
                "mode": self.mode,
                "events": [dict(e) for e in self.events],
                "heals": len(self.events),
                "extra_bytes_moved": sum(
                    e["bytes_redistributed"] for e in self.events
                ),
            }


class HealingBody:
    """The SPMD body run under healing: attempt → revoked → agree → re-enter.

    ``attempt(comm, start_batch)`` runs the full per-rank multiplication
    on the given world communicator, re-splitting grid communicators and
    re-compiling the execution plan from ``start_batch``.
    ``join_bytes(position)`` returns the operand bytes a *new* holder of
    ``position`` must receive (its A and B tiles) — the redistribution
    cost metered per heal event.
    """

    def __init__(self, heal_ctx: HealContext,
                 attempt: Callable[..., dict],
                 join_bytes: Callable[[int], int] | None = None) -> None:
        self.heal_ctx = heal_ctx
        self.attempt = attempt
        self.join_bytes = join_bytes
        #: driver callbacks buried in the ``attempt`` closure (e.g. a
        #: piece sink), listed here so the process engine's callback
        #: scan can find and index them.
        self.driver_callbacks: list = []

    def __call__(self, comm, *args, **kwargs):
        """Entry point for primary ranks (engine calls ``fn(comm)``)."""
        comm.world.membership.register_body(self)
        return self.run(comm.world, comm.rank, comm.global_rank)

    def run(self, world, position: int, global_rank: int):
        """Entry point for every holder of ``position`` (primaries,
        promoted spares, respawned ranks)."""
        membership = world.membership
        membership.register_body(self)
        # The process world forks workers, so a worker's ``self.heal_ctx``
        # is a dead copy of the driver's; its world exposes a proxy that
        # ships add_bytes/add_latency to the parent's real HealContext.
        heal = getattr(world, "heal_proxy", None) or self.heal_ctx
        heal_spans: list[tuple[int, float, float]] = []
        decision = membership.current_decision()
        if decision.promoted.get(global_rank) == position:
            # This rank just joined a repaired grid: meter the operand
            # redistribution it receives before taking part.
            if self.join_bytes is not None:
                heal.add_bytes(decision.epoch, self.join_bytes(position))
        while True:
            comm = epoch_comm(world, decision, position)
            try:
                result = self.attempt(comm, decision.restart_batch)
                break
            except RankRevokedError:
                t0 = time.perf_counter()
                decision = membership.agree(global_rank)
                t1 = time.perf_counter()
                heal_spans.append((decision.epoch, t0, t1))
                heal.add_latency(decision.epoch, t1 - t0)
        tracer = result.get("trace") if isinstance(result, dict) else None
        if tracer is not None:
            for epoch, t0, t1 in heal_spans:
                tracer.spans.append(TraceSpan(
                    rank=position, op=STEP_HEAL, stage=epoch, batch=None,
                    nbytes=0, t0=t0, t1=t1, timed=False,
                ))
            tracer.spans.sort(key=lambda sp: sp.t0)
        return result
