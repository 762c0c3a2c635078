"""Membership, failure agreement and grid repair for the simulated MPI.

This is the ULFM-style survivor side of a rank crash.  The engine
attaches a :class:`Membership` to the :class:`~repro.simmpi.comm.World`
when healing is enabled; from then on:

1. A crashing rank's runner calls :meth:`Membership.declare_dead`, which
   records the death, bumps ``world.revoke_epoch`` (revoking every
   communicator of older epochs) and wakes all blocked ranks.
2. Survivors observe the revocation as
   :class:`~repro.errors.RankRevokedError` at their next operation entry
   or inside the rendezvous they are blocked in, and call
   :meth:`Membership.agree`.
3. The agreement is deterministic: every surviving holder of the latest
   decision votes for the current revoke epoch; the *last* voter to
   arrive computes the new :class:`HealDecision` under the lock —
   replacing each dead grid position either with a parked **spare** rank
   (``mode="spare"``) or with a freshly **respawned** rank oversubscribed
   onto the lowest surviving host (``mode="shrink"``, the ULFM
   shrink-then-respawn strategy) — publishes it, and wakes everyone.
4. All participants (survivors, promoted spares, respawns) re-enter the
   run from the decision's ``restart_batch`` on epoch-``e``
   communicators (see :mod:`repro.resilience.heal`).

The logical 3D grid is deliberately **preserved** in both modes: partial
floating-point reductions do not compose across grid geometries, so a
geometric shrink could not stay bit-identical to the fault-free run.
``mode="shrink"`` therefore shrinks the *host pool*, not the grid.
"""

from __future__ import annotations

import threading
import time

from ..errors import CommError, HealError
from .comm import SimComm, World


class HealDecision:
    """One published agreement outcome.

    ``members`` maps grid position -> global rank holding it.  ``hosts``
    maps grid position -> host id (initially its own position; a
    respawned position is oversubscribed onto a survivor's host).
    ``mode`` is ``"initial"``, ``"spare"``, ``"shrink"`` or ``"failed"``.
    """

    __slots__ = ("epoch", "members", "restart_batch", "mode", "dead",
                 "promoted", "hosts", "reason")

    def __init__(self, epoch, members, restart_batch, mode, dead=(),
                 promoted=None, hosts=None, reason=""):
        self.epoch = int(epoch)
        self.members = tuple(members)
        self.restart_batch = int(restart_batch)
        self.mode = mode
        self.dead = tuple(dead)                    # ((position, global_rank), ...)
        self.promoted = dict(promoted or {})       # global rank -> position
        self.hosts = dict(hosts or {})             # position -> host id
        self.reason = reason

    def describe(self) -> dict:
        return {
            "epoch": self.epoch,
            "mode": self.mode,
            "restart_batch": self.restart_batch,
            "dead": [{"position": p, "rank": g} for p, g in self.dead],
            "promoted": {int(g): int(p) for g, p in self.promoted.items()},
            "hosts": {int(p): int(h) for p, h in self.hosts.items()},
        }


def epoch_comm(world, decision: HealDecision, position: int) -> SimComm:
    """World communicator of ``decision``'s epoch for one grid position.

    Built from the world's own communicator class (``world.comm_class``,
    default :class:`SimComm`), so the process world's healing bodies get
    :class:`~repro.mp.comm.MpComm` handles on the repaired grid.
    """
    epoch = decision.epoch
    cls = getattr(world, "comm_class", SimComm)
    return cls(
        world, world_comm_id(epoch), decision.members, position, epoch=epoch
    )


def world_comm_id(epoch: int) -> tuple:
    """Id of the epoch-``epoch`` world communicator.  A heal round and a
    resident world's next region are the same thing to the wire: a new
    epoch, whose predecessors' traffic is stale."""
    return ("world",) if epoch == 0 else ("world", "epoch", epoch)


def comm_epoch(comm_id: tuple) -> int:
    """Membership epoch a communicator id belongs to.

    Epoch-``e`` world communicators are ``("world", "epoch", e)`` and
    every derived communicator (split/dup) appends to its parent's id,
    so the epoch is recoverable from the prefix; ids not rooted in an
    epoch-tagged world communicator are epoch 0.
    """
    if len(comm_id) >= 3 and comm_id[0] == "world" and comm_id[1] == "epoch":
        return int(comm_id[2])
    return 0


def compute_decision(
    epoch: int,
    prev: HealDecision,
    dead: set,
    mode: str,
    restart_batch: int,
    *,
    parked: list,
    alloc_rank,
    max_rounds: int,
) -> tuple[HealDecision, list[tuple[int, int]]]:
    """Deterministic repair of ``prev``'s grid for revoke ``epoch``.

    The pure half of the agreement protocol, shared by the threaded
    :class:`Membership` (last voter computes under the lock) and the
    process world's parent-side coordinator (computes once all survivor
    votes arrive).  ``parked`` is the mutable spare-rank pool (popped in
    park order); ``alloc_rank()`` allocates a fresh global rank for a
    shrink respawn.  Returns ``(decision, respawns)`` where ``respawns``
    lists ``(global_rank, position)`` pairs the caller must launch; a
    non-repairable grid yields a ``mode="failed"`` decision.
    """
    def failed(reason: str) -> tuple[HealDecision, list]:
        return HealDecision(
            epoch, prev.members, prev.restart_batch, "failed", reason=reason,
        ), []

    if epoch > max_rounds:
        return failed(f"heal round budget exhausted ({max_rounds})")
    members = list(prev.members)
    hosts = dict(prev.hosts)
    dead_positions = [(p, g) for p, g in enumerate(members) if g in dead]
    promoted: dict[int, int] = {}
    respawns: list[tuple[int, int]] = []
    for position, _ in dead_positions:
        if mode == "spare":
            if not parked:
                return failed(
                    f"no spare rank left for grid position {position}"
                )
            spare = parked.pop(0)
            members[position] = spare
            promoted[spare] = position
            hosts[position] = spare  # the spare brings its own host
        else:  # shrink: respawn on the lowest surviving host
            alive_hosts = [hosts[q] for q, m in enumerate(members)
                           if m not in dead and q != position]
            if not alive_hosts:
                return failed("no surviving host to respawn onto")
            fresh = alloc_rank()
            members[position] = fresh
            promoted[fresh] = position
            hosts[position] = min(alive_hosts)
            respawns.append((fresh, position))
    decision = HealDecision(
        epoch, members, restart_batch, mode,
        dead=dead_positions, promoted=promoted, hosts=hosts,
    )
    return decision, respawns


class Membership:
    """Survivor-set agreement state attached to a healing ``World``.

    All mutation happens under ``cv``.  ``world.revoke_epoch`` is the
    only piece read lock-free (a monotonic int on the comm hot path).
    """

    def __init__(self, world: World, nprocs: int, mode: str, ctx,
                 first_batch: int = 0, max_rounds: int = 8) -> None:
        if mode not in ("spare", "shrink"):
            raise HealError(f"unknown heal mode {mode!r}")
        self.world = world
        self.nprocs = int(nprocs)
        self.mode = mode
        self.ctx = ctx                      # driver hooks (HealContext)
        self.max_rounds = int(max_rounds)
        self.cv = threading.Condition()
        self.dead: set[int] = set()
        self.healed: dict[int, BaseException] = {}   # position -> crash exc
        self.decisions: dict[int, HealDecision] = {
            0: HealDecision(0, tuple(range(nprocs)), first_batch, "initial",
                            hosts={p: p for p in range(nprocs)})
        }
        self.latest = 0
        self.votes: dict[int, set[int]] = {}
        self.parked: list[int] = []                  # parked spare global ranks
        self.assignments: dict[int, tuple[int, int]] = {}  # spare -> (pos, epoch)
        self.finished = False
        self.active = 0                              # live worker bodies
        self.body = None                             # registered healing body
        self.spawn = None                            # engine thread spawner
        self._next_rank = None                       # respawn rank allocator

    # ------------------------------------------------------------------ #
    # engine-side lifecycle
    # ------------------------------------------------------------------ #

    def wake(self) -> None:
        with self.cv:
            self.cv.notify_all()

    def register_body(self, body) -> None:
        """First caller wins; all positions run the same SPMD body."""
        with self.cv:
            if self.body is None:
                self.body = body

    def worker_started(self, n: int = 1) -> None:
        with self.cv:
            self.active += n

    def worker_done(self) -> None:
        with self.cv:
            self.active -= 1
            self.cv.notify_all()

    def wait_idle(self) -> None:
        """Block until every worker body (primary, promoted, respawned)
        has returned — only then can no further promotion happen."""
        with self.cv:
            while self.active > 0:
                self.cv.wait(0.5)

    def finish(self) -> None:
        """Release parked spares that were never promoted."""
        with self.cv:
            self.finished = True
            self.cv.notify_all()

    def alloc_rank(self) -> int:
        """Fresh global rank for a respawned thread (caller holds cv).
        The engine pre-sets ``_next_rank`` past its spare ranks."""
        if self._next_rank is None:
            self._next_rank = self.nprocs
        rank = self._next_rank
        self._next_rank = rank + 1
        return rank

    # ------------------------------------------------------------------ #
    # failure notification
    # ------------------------------------------------------------------ #

    def declare_dead(self, global_rank: int, exc: BaseException) -> None:
        """Record a rank's death and revoke all current communicators."""
        with self.cv:
            self.dead.add(global_rank)
            prev = self.decisions[self.latest]
            if global_rank in prev.members:
                self.healed[prev.members.index(global_rank)] = exc
            self.world.revoke_epoch += 1
            self.cv.notify_all()
        # Wake every blocked rank so the revocation is observed promptly.
        self.world.wake_all()

    # ------------------------------------------------------------------ #
    # spare parking
    # ------------------------------------------------------------------ #

    def park(self, global_rank: int, timeout: float | None = None):
        """Park a spare rank until it is promoted.  Returns the promoted
        decision (whose ``promoted`` names this rank's position) or
        ``None`` when the run ends without needing this spare."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.cv:
            self.parked.append(global_rank)
            self.cv.notify_all()
            while True:
                assigned = self.assignments.get(global_rank)
                if assigned is not None:
                    _, epoch = assigned
                    return self.decisions[epoch]
                if self.finished or self.world.failed.is_set():
                    return None
                if deadline is not None and time.monotonic() >= deadline:
                    return None
                self.cv.wait(0.25)

    # ------------------------------------------------------------------ #
    # the agreement protocol
    # ------------------------------------------------------------------ #

    def current_decision(self) -> HealDecision:
        with self.cv:
            return self.decisions[self.latest]

    def agree(self, global_rank: int) -> HealDecision:
        """Join the survivor agreement for the current revoke epoch.

        Deterministic: participants are the surviving holders of the
        latest decision; each votes for the epoch it observes (re-voting
        if a further death advances it mid-wait); the last arriving voter
        computes and publishes the :class:`HealDecision` under the lock.
        Raises :class:`~repro.errors.HealError` when the heal cannot
        proceed (capacity, round budget, agreement timeout).
        """
        world = self.world
        deadline = time.monotonic() + world.timeout
        with self.cv:
            while True:
                if world.failed.is_set():
                    raise CommError("heal agreement aborted: a peer rank failed")
                epoch = world.revoke_epoch
                decision = self.decisions.get(epoch)
                if decision is not None:
                    return self._adopt(decision, global_rank)
                voters = self.votes.setdefault(epoch, set())
                voters.add(global_rank)
                prev = self.decisions[self.latest]
                alive = {m for m in prev.members if m not in self.dead}
                if alive <= voters:
                    decision = self._decide(epoch, prev)
                    self.cv.notify_all()
                    return self._adopt(decision, global_rank)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    world.abort()
                    raise HealError(
                        f"heal agreement for epoch {epoch} timed out: "
                        f"{len(voters)}/{len(alive)} survivors voted"
                    ).with_context(
                        rank=global_rank, epoch=epoch,
                        voted=sorted(voters), expected=sorted(alive),
                    )
                self.cv.wait(min(remaining, 0.25))

    def _adopt(self, decision: HealDecision, global_rank: int) -> HealDecision:
        if decision.mode == "failed":
            raise HealError(decision.reason).with_context(
                rank=global_rank, epoch=decision.epoch,
            )
        return decision

    def _decide(self, epoch: int, prev: HealDecision) -> HealDecision:
        """Compute, publish and act on the decision (caller holds cv)."""
        decision, respawns = compute_decision(
            epoch, prev, self.dead, self.mode, self.ctx.restart_point(),
            parked=self.parked, alloc_rank=self.alloc_rank,
            max_rounds=self.max_rounds,
        )
        self.decisions[epoch] = decision
        self.latest = epoch
        self.ctx.on_decision(decision)
        if decision.mode == "failed":
            self.cv.notify_all()
            return decision
        # Count the replacements as live workers *before* publishing, so
        # the engine's wait_idle can never observe a gap.
        self.active += len(decision.promoted)
        for spare, position in decision.promoted.items():
            if (spare, position) not in respawns:
                self.assignments[spare] = (position, epoch)
        for fresh, position in respawns:
            self.spawn(fresh, position)
        return decision
