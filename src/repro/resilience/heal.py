"""Recovery from a rank death: repair the grid, re-enter at a batch boundary.

Every batch of BatchedSUMMA3D (paper Alg. 4) is an independent column
block of ``C`` — nothing batch ``i`` computes is read by batch ``i+1`` —
so a rank death is recovered the way the driver recovers from memory
pressure or a replan: the failed region is over, the driver amends the
run and submits it again from the last durably checkpointed batch
(:func:`repro.summa.batched._amend`, the one re-entry loop).  Nothing
inside a region knows about it: the engines and communicators only ever
report the death as a :class:`~repro.errors.RankCrashError`.

What a death adds to that amendment is a **repair** — deciding who holds
the dead grid position from now on: a **spare** rank takes it
(``mode="spare"``, at most ``world_spares`` times per run), or a fresh
rank is **respawned** oversubscribed onto the lowest surviving host
(``mode="shrink"`` — the host pool shrinks, the grid does not).  The
logical grid is preserved in both modes: partial floating-point
reductions do not compose across grid geometries, so a geometric shrink
could not stay bit-identical to the fault-free run.  The position's new
holder runs under the position's own rank number; the holder's global
rank and host are bookkeeping in the event record.

:class:`HealContext` is the driver-side state of those decisions and the
report that surfaces as ``info["resilience"]["heal"]``.
"""

from __future__ import annotations

import itertools
import time

from ..errors import HealError

HEAL_MODES = ("spare", "shrink")


class HealDecision:
    """Who holds the grid after one repair.

    ``members`` maps grid position -> global rank holding it.  ``hosts``
    maps grid position -> host id (initially its own position; a
    respawned position is oversubscribed onto a survivor's host).
    ``mode`` is ``"initial"``, ``"spare"`` or ``"shrink"``.
    """

    __slots__ = ("epoch", "members", "restart_batch", "mode", "dead",
                 "promoted", "hosts")

    def __init__(self, epoch, members, restart_batch, mode, dead=(),
                 promoted=None, hosts=None):
        self.epoch = int(epoch)
        self.members = tuple(members)
        self.restart_batch = int(restart_batch)
        self.mode = mode
        self.dead = tuple(dead)                    # ((position, global_rank), ...)
        self.promoted = dict(promoted or {})       # global rank -> position
        self.hosts = dict(hosts or {})             # position -> host id

    def describe(self) -> dict:
        return {
            "epoch": self.epoch,
            "mode": self.mode,
            "restart_batch": self.restart_batch,
            "dead": [{"position": p, "rank": g} for p, g in self.dead],
            "promoted": {int(g): int(p) for g, p in self.promoted.items()},
            "hosts": {int(p): int(h) for p, h in self.hosts.items()},
        }


def compute_decision(
    epoch: int,
    prev: HealDecision,
    dead_positions,
    mode: str,
    restart_batch: int,
    *,
    spares: list,
    alloc_rank,
    max_rounds: int,
) -> HealDecision:
    """Deterministic repair of ``prev``'s grid: the pure rule.

    ``spares`` is the mutable pool of unused spare ranks (popped in rank
    order); ``alloc_rank()`` allocates a fresh global rank for a shrink
    respawn.  Raises :class:`~repro.errors.HealError` when the grid
    cannot be repaired (no spare left, no surviving host, round budget).
    """
    if epoch > max_rounds:
        raise HealError(f"heal round budget exhausted ({max_rounds})")
    members = list(prev.members)
    hosts = dict(prev.hosts)
    dead = [(p, members[p]) for p in sorted(dead_positions)]
    promoted: dict[int, int] = {}
    for position, _ in dead:
        if mode == "spare":
            if not spares:
                raise HealError(
                    f"no spare rank left for grid position {position}"
                )
            fresh = spares.pop(0)
            hosts[position] = fresh  # the spare brings its own host
        else:  # shrink: respawn on the lowest surviving host
            alive_hosts = [hosts[q] for q in range(len(members))
                           if q not in dead_positions]
            if not alive_hosts:
                raise HealError("no surviving host to respawn onto")
            fresh = alloc_rank()
            hosts[position] = min(alive_hosts)
        members[position] = fresh
        promoted[fresh] = position
    return HealDecision(
        epoch, members, restart_batch, mode,
        dead=dead, promoted=promoted, hosts=hosts,
    )


class HealContext:
    """Driver-side repair state and report of one run under ``heal=``.

    Parameters
    ----------
    mode:
        ``"spare"`` (a spare rank takes the dead position) or
        ``"shrink"`` (the position is respawned oversubscribed onto a
        survivor's host).
    nprocs:
        Grid size; positions ``0 .. nprocs-1`` start out held by the
        same-numbered ranks on their own hosts.
    world_spares:
        The ``"spare"`` repair budget: how many dead positions may be
        handed to a spare rank over the run (global ranks ``nprocs ..
        nprocs + world_spares - 1`` in the event records).  Nothing is
        forked or parked for them.
    max_rounds:
        Repair-round budget: more than this many rounds fails the run
        with :class:`~repro.errors.HealError`.
    """

    def __init__(self, mode: str, *, nprocs: int = 0, world_spares: int = 0,
                 max_rounds: int = 8) -> None:
        if mode not in HEAL_MODES:
            raise HealError(
                f"unknown heal mode {mode!r}; expected one of {HEAL_MODES}"
            )
        self.mode = mode
        self.max_rounds = int(max_rounds)
        self.decision = HealDecision(
            0, range(nprocs), 0, "initial",
            hosts={p: p for p in range(nprocs)},
        )
        self._spares = list(range(nprocs, nprocs + world_spares))
        self._respawns = itertools.count(nprocs + world_spares)
        self.events: list[dict] = []
        #: when the region that the latest, not yet re-submitted repair
        #: answers had failed (``time.perf_counter()``)
        self._failed_at: float | None = None

    def repair(self, dead_positions, restart_batch: int, join_bytes,
               failed_at: float) -> None:
        """Decide who holds ``dead_positions`` from now on and open the
        event record; raises :class:`~repro.errors.HealError` when the
        grid cannot be repaired.  ``join_bytes(position)`` is what a
        *new* holder of ``position`` must receive (its A and B tiles) —
        the redistribution traffic metered per event."""
        self.decision = compute_decision(
            self.decision.epoch + 1, self.decision, set(dead_positions),
            self.mode, restart_batch, spares=self._spares,
            alloc_rank=self._respawns.__next__, max_rounds=self.max_rounds,
        )
        event = self.decision.describe()
        event["bytes_redistributed"] = sum(
            int(join_bytes(p)) for p in self.decision.promoted.values()
        )
        event["latency_s"] = 0.0
        self.events.append(event)
        self._failed_at = failed_at

    def resubmitted(self) -> None:
        """The repaired region is about to run (its world relaunched, if
        the death had stopped it): close the latest event's latency."""
        if self._failed_at is not None:
            self.events[-1]["latency_s"] = round(
                time.perf_counter() - self._failed_at, 6
            )
            self._failed_at = None

    def report(self) -> dict:
        """The ``info["resilience"]["heal"]`` payload."""
        return {
            "mode": self.mode,
            "events": [dict(e) for e in self.events],
            "heals": len(self.events),
            "extra_bytes_moved": sum(
                e["bytes_redistributed"] for e in self.events
            ),
        }
