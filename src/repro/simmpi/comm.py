"""Simulated MPI communicators.

A :class:`SimComm` is one rank's handle on a communicator, mirroring the
mpi4py API surface the SUMMA algorithms need: ``barrier``, ``bcast``,
``allreduce``, ``allgather``, ``gather``, ``scatter``, ``alltoall``,
``alltoallv``, ``send``/``recv``/``isend``/``irecv``/``ibcast`` and ``split``.  Ranks run as threads (see
:mod:`repro.simmpi.engine`); collectives rendezvous through
generation-counted slots, so the same program order on every member lines
up automatically — exactly the SPMD contract of MPI.

Determinism: reductions combine contributions in rank order, and all
payloads pass by reference (ranks must treat received objects as
read-only, as real MPI buffers would be after a receive).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any

import numpy as np

from ..errors import CommError, CorruptPayloadError, HangError
from .serialization import (
    CHECKSUM_NBYTES,
    Envelope,
    payload_checksum,
    payload_nbytes,
    wrap_payload,
)
from .tracker import CommTracker

#: seconds a rank waits inside a collective before declaring deadlock.
DEFAULT_TIMEOUT = 120.0

#: extra delivery attempts per message before a checksum mismatch becomes
#: a hard :class:`~repro.errors.CorruptPayloadError`.
MAX_REDELIVERIES = 3


class _Slot:
    """Rendezvous state for one collective instance on one communicator.

    Point-to-point messages reuse the same structure with ``tag`` set:
    one slot per in-flight message, queued in send (``seq``) order.
    """

    __slots__ = ("contrib", "complete", "taken", "tag")

    def __init__(self, tag: int | None = None) -> None:
        self.contrib: dict[int, Any] = {}
        self.complete = False
        self.taken = 0
        self.tag = tag


class _CommContext:
    """Shared (cross-thread) state of one communicator."""

    __slots__ = ("cv", "slots", "seq")

    def __init__(self) -> None:
        self.cv = threading.Condition()
        self.slots: dict[int, _Slot] = {}
        self.seq = 0  # monotonic id source for point-to-point messages


class _WaitInfo:
    """One blocked rank's entry in the wait-for graph.

    ``pending`` lists the *global* ranks this rank is still waiting on —
    the outgoing edges of the wait-for graph.  ``since`` and ``op_id``
    identify this particular wait instance: the watchdog only declares
    deadlock when the exact same cycle (same ranks, same wait instances)
    is observed on two consecutive sweeps.
    """

    __slots__ = ("rank", "op", "comm_id", "tag", "op_id", "pending",
                 "since", "heartbeat")

    def __init__(self, rank, op, comm_id, tag, op_id, pending, since,
                 heartbeat) -> None:
        self.rank = rank
        self.op = op
        self.comm_id = comm_id
        self.tag = tag
        self.op_id = op_id
        self.pending = tuple(pending)
        self.since = since
        self.heartbeat = heartbeat

    def describe(self) -> dict:
        return {
            "rank": self.rank,
            "op": self.op,
            "comm": str(self.comm_id),
            "tag": self.tag,
            "op_id": self.op_id,
            "pending": list(self.pending),
            "blocked_s": round(max(time.monotonic() - self.since, 0.0), 3),
            "heartbeat": self.heartbeat,
        }


class World:
    """Process-global state of one SPMD run: contexts, tracker, failure flag.

    ``injector`` is an optional
    :class:`~repro.simmpi.faults.FaultInjector` consulted at the entry of
    every communicator operation and at every enveloped delivery.
    ``checksums`` enables per-message envelopes
    (:class:`~repro.simmpi.serialization.Envelope`) on broadcast,
    point-to-point and all-to-all payloads; it defaults to on exactly when
    an injector is present, so fault-free runs keep the seed wire format.
    """

    def __init__(self, nprocs: int, tracker: CommTracker | None = None,
                 timeout: float = DEFAULT_TIMEOUT, injector=None,
                 checksums: bool | None = None) -> None:
        self.nprocs = nprocs
        self.tracker = tracker if tracker is not None else CommTracker()
        self.timeout = timeout
        self.injector = injector
        self.checksums = bool(
            checksums if checksums is not None else injector is not None
        )
        self.failed = threading.Event()
        self._contexts: dict[tuple, _CommContext] = {}
        self._ctx_lock = threading.Lock()
        self._tls = threading.local()
        #: wait-for graph: global rank -> _WaitInfo of its current block.
        self._waits: dict[int, _WaitInfo] = {}
        self._wait_lock = threading.Lock()
        #: ranks whose threads have returned (feeds peer-exited diagnosis).
        self._finished_ranks: set[int] = set()
        #: per-rank operation-entry counters (progress heartbeats). Each
        #: key is written by exactly one thread, so a plain dict suffices.
        self._heartbeats: dict[int, int] = {}
        self.watchdog_interval = max(0.05, min(1.0, timeout / 20.0))

    def context(self, comm_id: tuple) -> _CommContext:
        with self._ctx_lock:
            ctx = self._contexts.get(comm_id)
            if ctx is None:
                ctx = self._contexts[comm_id] = _CommContext()
            return ctx

    def abort(self) -> None:
        """Mark the run failed and wake every rank blocked in any
        rendezvous."""
        self.failed.set()
        with self._ctx_lock:
            contexts = list(self._contexts.values())
        for ctx in contexts:
            with ctx.cv:
                ctx.cv.notify_all()

    # ------------------------------------------------------------------ #
    # watchdog: wait-for graph of blocked ranks
    # ------------------------------------------------------------------ #

    def heartbeat(self, global_rank: int) -> int:
        beat = self._heartbeats.get(global_rank, 0) + 1
        self._heartbeats[global_rank] = beat
        return beat

    def mark_finished(self, global_rank: int) -> None:
        with self._wait_lock:
            self._finished_ranks.add(global_rank)

    def register_wait(self, global_rank: int, info: _WaitInfo) -> None:
        with self._wait_lock:
            self._waits[global_rank] = info

    def clear_wait(self, global_rank: int) -> None:
        with self._wait_lock:
            self._waits.pop(global_rank, None)

    def wait_snapshot(self) -> tuple[dict[int, _WaitInfo], set[int]]:
        with self._wait_lock:
            return dict(self._waits), set(self._finished_ranks)

    def hang_dump(self, ranks=None) -> dict[int, dict]:
        """Per-rank wait records for a :class:`~repro.errors.HangError`."""
        waits, _ = self.wait_snapshot()
        if ranks is not None:
            waits = {r: w for r, w in waits.items() if r in set(ranks)}
        return {r: w.describe() for r, w in sorted(waits.items())}

    def watchdog_diagnose(self, global_rank: int):
        """Diagnose a definite hang observable from ``global_rank``.

        Returns ``("peer-exited", gone_peers, None)`` when a pending peer's
        thread has already returned and can never arrive;
        ``("deadlock", cycle, signature)`` when the wait-for graph has
        a cycle through ``global_rank`` (the caller must observe the same
        signature on two consecutive sweeps before firing, so a cycle that
        resolves itself between sweeps never trips the watchdog); else
        ``None`` — possibly slow, not provably hung.
        """
        waits, finished = self.wait_snapshot()
        info = waits.get(global_rank)
        if info is None:
            return None
        gone = tuple(p for p in info.pending if p in finished)
        if gone:
            return ("peer-exited", gone, None)
        cycle = self._find_cycle(waits, global_rank)
        if cycle is not None:
            sig = tuple((r, waits[r].op_id, waits[r].since) for r in cycle)
            return ("deadlock", tuple(cycle), sig)
        return None

    @staticmethod
    def _find_cycle(waits: dict[int, _WaitInfo], start: int):
        """DFS over blocked ranks for a wait-for cycle through ``start``.
        Returns the rank list of the cycle (beginning at ``start``) or
        ``None``.  Only ranks currently registered as blocked are nodes —
        a computing (unblocked) rank breaks every path through it.
        """
        visited: set[int] = set()

        def dfs(rank: int, trail: list[int]):
            info = waits.get(rank)
            if info is None:
                return None
            for peer in info.pending:
                if peer == start:
                    return trail + [rank]
                if peer in trail or peer in visited:
                    continue
                visited.add(peer)
                found = dfs(peer, trail + [rank])
                if found is not None:
                    return found
            return None

        return dfs(start, [])

    @property
    def step_label(self) -> str:
        return getattr(self._tls, "step", "")

    @step_label.setter
    def step_label(self, value: str) -> None:
        self._tls.step = value

    @property
    def backend_label(self) -> str:
        """Communication-backend tag ("" / "dense" / "sparse") attached to
        every event this thread records — set by :mod:`repro.comm`."""
        return getattr(self._tls, "backend", "")

    @backend_label.setter
    def backend_label(self, value: str) -> None:
        self._tls.backend = value

    @property
    def ledger(self):
        """This rank thread's :class:`~repro.mem.MemoryLedger` (or ``None``).

        Thread-local like :attr:`step_label`: each SPMD rank installs its
        own ledger at body entry, and every payload the thread *receives*
        is charged as a momentary ``recv_buffer`` spike at the delivery
        chokepoint — the accounting SpComm3D argues for: where the bytes
        land, not where a driver sums them afterwards."""
        return getattr(self._tls, "ledger", None)

    @ledger.setter
    def ledger(self, value) -> None:
        self._tls.ledger = value

    @property
    def store(self) -> dict:
        """This rank's resident tile store (key -> tile) — thread-local,
        installed by the engine from the world that outlives the region
        (:class:`~repro.simmpi.engine.ThreadWorld`)."""
        return self._tls.store

    @store.setter
    def store(self, value: dict) -> None:
        self._tls.store = value


class SimComm:
    """One rank's communicator handle.

    Parameters
    ----------
    world:
        Shared :class:`World`.
    comm_id:
        Hashable identity shared by all members (contexts key off it).
    members:
        Global ranks belonging to this communicator, in local-rank order.
    rank:
        This process's local rank within the communicator.
    """

    __slots__ = ("world", "comm_id", "members", "rank", "_opseq")

    def __init__(self, world: World, comm_id: tuple, members: tuple[int, ...],
                 rank: int):
        self.world = world
        self.comm_id = comm_id
        self.members = tuple(members)
        self.rank = int(rank)
        self._opseq = 0

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def global_rank(self) -> int:
        return self.members[self.rank]

    def __repr__(self) -> str:
        return f"SimComm(id={self.comm_id}, rank={self.rank}/{self.size})"

    # ------------------------------------------------------------------ #
    # step labelling (feeds the tracker)
    # ------------------------------------------------------------------ #

    @contextmanager
    def step(self, label: str):
        """Label all communication inside the block for metering."""
        prev = self.world.step_label
        self.world.step_label = label
        try:
            yield
        finally:
            self.world.step_label = prev

    @contextmanager
    def backend_scope(self, label: str):
        """Tag all communication inside the block with a backend name
        (``"dense"`` / ``"sparse"``) so :meth:`CommTracker.by_backend`
        can compare how much each backend moved."""
        prev = self.world.backend_label
        self.world.backend_label = label
        try:
            yield
        finally:
            self.world.backend_label = prev

    # ------------------------------------------------------------------ #
    # the rendezvous primitive
    # ------------------------------------------------------------------ #

    def _exchange(self, payload, op: str = "collective") -> tuple[dict[int, Any], bool]:
        """Contribute ``payload``; return (all contributions, completed_here).

        ``completed_here`` is True on exactly one rank (the last to arrive)
        — used so each collective is metered exactly once.
        """
        ctx = self.world.context(self.comm_id)
        op_id = self._opseq
        self._opseq += 1
        with ctx.cv:
            slot = ctx.slots.get(op_id)
            if slot is None:
                slot = ctx.slots[op_id] = _Slot()
            if self.rank in slot.contrib:
                raise CommError(
                    f"rank {self.rank} participated twice in collective {op_id} "
                    f"on {self.comm_id} — mismatched program order"
                )
            slot.contrib[self.rank] = payload
            completed_here = len(slot.contrib) == self.size
            if completed_here:
                slot.complete = True
                ctx.cv.notify_all()
            else:
                self._blocked_wait(
                    ctx, op, tag=None, op_id=op_id,
                    ready=lambda: slot.complete,
                    pending=lambda: (
                        self.members[r] for r in range(self.size)
                        if r not in slot.contrib
                    ),
                    abort_msg="collective aborted: a peer rank failed",
                )
            result = slot.contrib
            slot.taken += 1
            if slot.taken == self.size:
                del ctx.slots[op_id]
        return result, completed_here

    def _blocked_wait(self, ctx: _CommContext, op: str, *, tag, op_id,
                      ready, pending, abort_msg: str) -> None:
        """Wait under ``ctx.cv`` until ``ready()`` — watchdog-supervised.

        Registers this rank in the world's wait-for graph (with the
        current ``pending()`` peer set) each sweep, diagnoses cyclic
        deadlock / exited peers via :meth:`World.watchdog_diagnose`, and
        enforces the flat-timeout backstop.  A deadlock only fires after
        the identical cycle is seen on two consecutive sweeps.  The
        caller must hold ``ctx.cv``; ``ready``/``pending`` run under it.
        """
        world = self.world
        me = self.global_rank
        since = time.monotonic()
        deadline = since + world.timeout
        interval = world.watchdog_interval
        next_check = since + interval
        last_sig = None
        try:
            while not ready():
                if world.failed.is_set():
                    raise CommError(abort_msg)
                pend = tuple(pending())
                world.register_wait(me, _WaitInfo(
                    rank=me, op=op, comm_id=self.comm_id, tag=tag,
                    op_id=op_id, pending=pend, since=since,
                    heartbeat=world._heartbeats.get(me, 0),
                ))
                now = time.monotonic()
                if now >= deadline:
                    world.abort()
                    raise self._hang_error(
                        "timeout", op, pend, tag=tag, op_id=op_id, since=since
                    )
                if now >= next_check:
                    diag = world.watchdog_diagnose(me)
                    if diag is not None:
                        kind, nodes, sig = diag
                        if kind == "peer-exited":
                            world.abort()
                            raise self._hang_error(
                                "peer-exited", op, pend, tag=tag,
                                op_id=op_id, since=since, cycle=nodes,
                            )
                        if sig is not None and sig == last_sig:
                            world.abort()
                            raise self._hang_error(
                                "deadlock", op, pend, tag=tag,
                                op_id=op_id, since=since, cycle=nodes,
                            )
                        last_sig = sig
                    else:
                        last_sig = None
                    next_check = now + interval
                ctx.cv.wait(min(max(deadline - now, 0.001), interval, 0.5))
        finally:
            world.clear_wait(me)

    def _hang_error(self, kind: str, op: str, pend, *, tag, op_id, since,
                    cycle=()) -> HangError:
        world = self.world
        me = self.global_rank
        dump = world.hang_dump()
        dump.setdefault(me, _WaitInfo(
            rank=me, op=op, comm_id=self.comm_id, tag=tag, op_id=op_id,
            pending=pend, since=since,
            heartbeat=world._heartbeats.get(me, 0),
        ).describe())
        if kind == "deadlock":
            chain = " -> ".join(f"rank {r}" for r in (*cycle, cycle[0]))
            message = f"deadlock: wait-for cycle {chain}"
        elif kind == "peer-exited":
            who = ", ".join(str(r) for r in (cycle or pend))
            message = (
                f"rank {me}: {op} waits on rank(s) {who} whose thread(s) "
                "already returned and can never arrive"
            )
        else:
            message = (
                f"rank {me}: {op} on {self.comm_id} timed out after "
                f"{world.timeout:g}s waiting on rank(s) "
                f"{', '.join(str(r) for r in pend)}"
            )
        for r, rec in sorted(dump.items()):
            message += (
                f"\n  rank {r}: {rec['op']} on {rec['comm']}"
                + (f" tag {rec['tag']}" if rec["tag"] is not None else "")
                + f" op #{rec['op_id']} waiting on {rec['pending']}"
                + f" for {rec['blocked_s']}s (heartbeat {rec['heartbeat']})"
            )
        return HangError(message, kind=kind, cycle=cycle, dump=dump).with_context(
            rank=me, op=op, peers=list(pend), tag=tag, op_id=op_id,
            comm=str(self.comm_id),
        )

    def _record(
        self,
        op: str,
        nbytes: int,
        total_bytes: int | None = None,
        comm_size: int | None = None,
    ) -> None:
        self.world.tracker.record(
            self.world.step_label,
            op,
            self.size if comm_size is None else comm_size,
            nbytes,
            total_bytes,
            backend=self.world.backend_label,
        )

    # ------------------------------------------------------------------ #
    # fault injection + per-message integrity
    # ------------------------------------------------------------------ #

    def _inject(self, op: str) -> None:
        """Operation-entry hook — heartbeat, fault injection.  Runs before
        ``_opseq`` advances or any shared state is touched, so a raise
        here leaves the operation perfectly retryable on this rank alone
        (peers just keep waiting in the rendezvous)."""
        world = self.world
        world.heartbeat(self.global_rank)
        injector = world.injector
        if injector is not None:
            injector.on_attempt(self.global_rank, op, world.step_label)

    def _wrap(self, obj):
        """Envelope ``obj`` with its checksum when integrity is on."""
        return wrap_payload(obj) if self.world.checksums else obj

    def _deliver(self, obj, op: str):
        """Unwrap a possibly-enveloped received payload for this rank.

        Each delivery passes through the injector (which may hand back a
        corrupted copy) and is verified against the envelope checksum; a
        mismatch meters a redelivery — the retransmission a real transport
        would perform — and tries again, up to :data:`MAX_REDELIVERIES`
        extra attempts.  The slot keeps the *original* payload, so
        redelivery always undoes injected corruption."""
        ledger = self.world.ledger
        if ledger is not None:
            ledger.touch(
                "recv_buffer",
                payload_nbytes(obj.payload if isinstance(obj, Envelope) else obj),
            )
        if not isinstance(obj, Envelope):
            if self.world.injector is not None:
                return self.world.injector.on_delivery(
                    self.global_rank, op, obj, self.world.step_label
                )
            return obj
        injector = self.world.injector
        for attempt in range(1 + MAX_REDELIVERIES):
            payload = obj.payload
            if injector is not None:
                payload = injector.on_delivery(
                    self.global_rank, op, payload, self.world.step_label
                )
            if payload_checksum(payload) == obj.crc:
                return payload
            if attempt == MAX_REDELIVERIES:
                break
            # checksum mismatch: meter the point-to-point retransmission
            # and record the recovery event before redelivering
            nbytes = payload_nbytes(obj.payload) + CHECKSUM_NBYTES
            self._record("redelivery", nbytes, nbytes, comm_size=2)
            if injector is not None:
                injector.record_retry(
                    self.global_rank, op, self.world.step_label,
                    attempt + 1, 0.0, kind="redelivery",
                )
        raise CorruptPayloadError(
            f"rank {self.global_rank}: {op} payload failed checksum "
            f"{obj.crc:#010x} after {MAX_REDELIVERIES} redeliveries"
        ).with_context(
            rank=self.global_rank, op=op, step=self.world.step_label,
            comm=str(self.comm_id), crc=f"{obj.crc:#010x}",
            redeliveries=MAX_REDELIVERIES,
        )

    # ------------------------------------------------------------------ #
    # collectives
    # ------------------------------------------------------------------ #

    def barrier(self) -> None:
        """Synchronise all members."""
        self._inject("barrier")
        _, last = self._exchange(None, "barrier")
        if last:
            self._record("barrier", 0, 0)

    def bcast(self, obj, root: int = 0):
        """Broadcast ``obj`` from local rank ``root`` to all members."""
        self._check_root(root)
        self._inject("bcast")
        payload = self._wrap(obj) if self.rank == root else None
        contrib, last = self._exchange(payload, "bcast")
        result = contrib[root]
        if last:
            nbytes = payload_nbytes(result)
            self._record("bcast", nbytes, nbytes * max(self.size - 1, 0))
        if self.rank == root:
            return obj  # root keeps its own reference, like MPI_Bcast
        return self._deliver(result, "bcast")

    def allgather(self, obj) -> list:
        """Every member receives the list of all contributions (rank order)."""
        self._inject("allgather")
        contrib, last = self._exchange(obj, "allgather")
        if last:
            sizes = [payload_nbytes(v) for v in contrib.values()]
            self._record("allgather", max(sizes, default=0),
                         sum(sizes) * max(self.size - 1, 0))
        return [contrib[r] for r in range(self.size)]

    def allreduce(self, value, op: str = "sum"):
        """Reduce scalars or same-shape ndarrays across members.

        ``op`` is ``"sum"``, ``"max"`` or ``"min"``; combination is in rank
        order so floating-point results are deterministic.
        """
        self._inject("allreduce")
        contrib, last = self._exchange(value, "allreduce")
        if last:
            nbytes = payload_nbytes(value)
            self._record("allreduce", nbytes, nbytes * max(self.size - 1, 0))
        values = [contrib[r] for r in range(self.size)]
        return _reduce(values, op)

    def alltoall(self, sendlist) -> list:
        """Personalised all-to-all: member ``i`` sends ``sendlist[j]`` to
        member ``j`` and receives a list indexed by source rank."""
        sendlist = list(sendlist)
        if len(sendlist) != self.size:
            raise CommError(
                f"alltoall needs {self.size} payloads, got {len(sendlist)}"
            )
        self._inject("alltoall")
        contrib, last = self._exchange([self._wrap(x) for x in sendlist], "alltoall")
        if last:
            per_rank = [
                sum(payload_nbytes(x) for x in contrib[r]) for r in range(self.size)
            ]
            self._record("alltoall", max(per_rank, default=0), sum(per_rank))
        return [
            self._deliver(contrib[src][self.rank], "alltoall")
            for src in range(self.size)
        ]

    def alltoallv(self, sendlist, counts=None) -> list:
        """Variable-size personalised all-to-all (MPI_Alltoallv semantics).

        Two calling conventions:

        * ``alltoallv(sendlist)`` — like :meth:`alltoall`, ``sendlist[j]``
          is the (arbitrarily sized) payload for member ``j``; member
          ``i`` receives a list indexed by source rank.
        * ``alltoallv(flat, counts)`` — MPI-style: ``flat`` is a flat
          sequence of items and ``counts[j]`` says how many consecutive
          items go to member ``j`` (``sum(counts) == len(flat)``); member
          ``i`` receives a list of per-source item *lists*.

        Metering differs from :meth:`alltoall`: the per-process ``nbytes``
        is the *actual* maximum any member sends (not assumed uniform),
        and the event op is ``"alltoallv"`` so the α–β model can apply
        variable-size costs.
        """
        sendlist = _normalize_alltoallv(sendlist, counts, self.size)
        self._inject("alltoallv")
        contrib, last = self._exchange([self._wrap(x) for x in sendlist], "alltoallv")
        if last:
            per_rank = [
                sum(payload_nbytes(x) for x in contrib[r]) for r in range(self.size)
            ]
            self._record("alltoallv", max(per_rank, default=0), sum(per_rank))
        return [
            self._deliver(contrib[src][self.rank], "alltoallv")
            for src in range(self.size)
        ]

    # ------------------------------------------------------------------ #
    # communicator management
    # ------------------------------------------------------------------ #

    def split(self, color: int, key: int | None = None) -> "SimComm":
        """MPI_Comm_split: members sharing ``color`` form a new communicator,
        ordered by ``(key, old local rank)``."""
        if key is None:
            key = self.rank
        op_marker = self._opseq  # consistent across members (same program order)
        contrib, _ = self._exchange((int(color), int(key)), "split")
        mine = (int(color), int(key))
        group = sorted(
            (ck[1], r) for r, ck in contrib.items() if ck[0] == mine[0]
        )
        local_ranks = [r for _, r in group]
        members = tuple(self.members[r] for r in local_ranks)
        new_rank = local_ranks.index(self.rank)
        comm_id = (*self.comm_id, op_marker, mine[0])
        # type(self) so process-world subclasses split into their own kind
        return type(self)(self.world, comm_id, members, new_rank)

    def derive(self, color: int, local_ranks) -> "SimComm":
        """The communicator :meth:`split` would return for ``color``,
        without the rendezvous: the caller already knows its group —
        ``local_ranks``, in the new communicator's rank order, this rank
        among them.  Collective like ``split`` (every member calls it at
        the same program point, with groups that partition the members);
        it takes the op id ``split`` would, so the id is unique per call,
        equal on all members and extends this communicator's."""
        comm_id = (*self.comm_id, self._opseq, int(color))
        self._opseq += 1
        members = tuple(self.members[r] for r in local_ranks)
        return type(self)(
            self.world, comm_id, members, members.index(self.global_rank)
        )

    # ------------------------------------------------------------------ #
    # point-to-point
    # ------------------------------------------------------------------ #

    def isend(self, obj, dest: int, tag: int = 0) -> "Request":
        """Nonblocking send.  The simulated send buffers immediately, so
        the request is born complete; the object models MPI semantics
        (communication/computation overlap) for algorithm structure."""
        self.send(obj, dest, tag)
        return Request(ready=True)

    def ibcast(self, obj, root: int = 0, tag: int = 0) -> "Request":
        """Nonblocking broadcast built on the tag-matched point-to-point
        layer: the root fans ``obj`` out with :meth:`isend` (buffered, so
        its request is born complete and carries ``obj`` as its value);
        every other member gets an :meth:`irecv` request it can wait on
        after overlapped computation.

        Unlike :meth:`bcast` there is no rendezvous — the root returns
        immediately — so a stage's broadcast can be *issued* while the
        previous stage's multiply runs (software double-buffering).  The
        ``tag`` keeps concurrent in-flight broadcasts (e.g. stage ``s``
        and the prefetched stage ``s+1``) from matching each other's
        messages.

        Metering: the root's fan-out records ``size - 1`` individual
        ``send`` events of ``nbytes`` each — the same total bytes as one
        ``bcast`` event of ``nbytes * (size - 1)``.
        """
        self._check_root(root)
        if self.rank == root:
            for dest in range(self.size):
                if dest != root:
                    self.isend(obj, dest, tag)
            return Request(ready=True, value=obj)
        return self.irecv(root, tag)

    def irecv(self, source: int, tag: int = 0) -> "Request":
        """Nonblocking receive: returns a :class:`Request` whose
        :meth:`~Request.wait` yields the message and whose
        :meth:`~Request.test` probes without blocking.  The caller
        computes in between — the overlap pattern of pipelined
        algorithms.

        Matching follows MPI: messages between one (source, dest) pair
        are queued in send order, a receive takes the *earliest* message
        whose tag matches, and :meth:`~Request.test` claims the message
        atomically — two outstanding requests can never complete against
        the same message, and a ``test()`` never blocks.
        """
        return Request(
            wait_fn=lambda: self.recv(source, tag),
            try_fn=lambda: self._try_recv(source, tag),
        )

    def _p2p_context(self, src: int, dst: int) -> _CommContext:
        """The shared message queue for one directed (src, dst) pair.

        One queue per pair — not per (pair, tag) — so that tag matching
        happens at *receive* time against the send-ordered queue, exactly
        MPI's non-overtaking rule: a receive takes the earliest matching
        message, and messages with other tags stay queued untouched.
        """
        return self.world.context((*self.comm_id, "p2p", src, dst))

    def _match(self, ctx: _CommContext, tag: int):
        """Earliest deliverable slot key matching ``tag``, else None.
        Caller must hold ``ctx.cv``."""
        ready = [
            k for k, s in ctx.slots.items()
            if s.complete and s.taken == 0 and s.tag == tag
        ]
        return min(ready) if ready else None

    def _try_recv(self, source: int, tag: int) -> tuple[bool, Any]:
        """Atomically claim the earliest matching message if one is
        deliverable; returns ``(claimed, obj_or_None)`` without blocking."""
        self._check_root(source, "source")
        ctx = self._p2p_context(self.members[source], self.global_rank)
        with ctx.cv:
            key = self._match(ctx, tag)
            if key is None:
                return False, None
            slot = ctx.slots.pop(key)
            slot.taken = 1
            obj = slot.contrib[0]
        return True, self._deliver(obj, "recv")

    def send(self, obj, dest: int, tag: int = 0) -> None:
        """Blocking-buffered send to local rank ``dest``."""
        self._check_root(dest, "dest")
        self._inject("send")
        payload = self._wrap(obj)
        ctx = self._p2p_context(self.global_rank, self.members[dest])
        with ctx.cv:
            seq = ctx.seq
            ctx.seq += 1
            slot = ctx.slots[seq] = _Slot(tag=int(tag))
            slot.contrib[0] = payload
            slot.complete = True
            ctx.cv.notify_all()
        self._record("send", payload_nbytes(payload), comm_size=2)

    def recv(self, source: int, tag: int = 0):
        """Blocking receive from local rank ``source``.

        Delivery is FIFO per (source, tag): among in-flight messages from
        ``source``, the earliest one bearing ``tag`` is taken; messages
        with other tags are left for their own receives (MPI tag
        matching).
        """
        self._check_root(source, "source")
        self._inject("recv")
        ctx = self._p2p_context(self.members[source], self.global_rank)
        matched: dict[str, int] = {}

        def ready() -> bool:
            key = self._match(ctx, tag)
            if key is None:
                return False
            matched["key"] = key
            return True

        with ctx.cv:
            self._blocked_wait(
                ctx, "recv", tag=tag, op_id=ctx.seq,
                ready=ready,
                pending=lambda: (self.members[source],),
                abort_msg="recv aborted: a peer rank failed",
            )
            slot = ctx.slots.pop(matched["key"])
            slot.taken = 1
            obj = slot.contrib[0]
        return self._deliver(obj, "recv")

    # ------------------------------------------------------------------ #

    def _check_root(self, root: int, name: str = "root") -> None:
        if not 0 <= root < self.size:
            raise CommError(f"{name} {root} out of range [0, {self.size})")


class Request:
    """Handle for a nonblocking operation (mpi4py-style).

    ``wait()`` blocks until completion and returns the received object
    (``None`` for sends); ``test()`` returns ``(done, value_or_None)``
    and never blocks: it atomically claims the matching message via the
    communicator's ``_try_recv`` (a probe-then-receive pair would race
    with other requests on the same source and block inside ``test``).
    """

    __slots__ = ("_wait_fn", "_try_fn", "_done", "_value")

    def __init__(
        self, *, ready: bool = False, wait_fn=None, try_fn=None, value=None
    ) -> None:
        self._wait_fn = wait_fn
        self._try_fn = try_fn
        self._done = ready
        self._value = value

    def wait(self):
        if not self._done:
            if self._wait_fn is not None:
                self._value = self._wait_fn()
            self._done = True
        return self._value

    def test(self) -> tuple[bool, object]:
        """Non-blocking completion check; completes the receive when the
        matching message has arrived."""
        if self._done:
            return True, self._value
        if self._try_fn is not None:
            claimed, value = self._try_fn()
            if claimed:
                self._done = True
                self._value = value
                return True, value
            return False, None
        return True, self.wait()


def _reduce(values: list, op: str):
    if not values:
        raise CommError("reduction over empty contribution set")
    first = values[0]
    if isinstance(first, np.ndarray):
        stack = np.stack(values)
        if op == "sum":
            return stack.sum(axis=0)
        if op == "max":
            return stack.max(axis=0)
        if op == "min":
            return stack.min(axis=0)
    else:
        if op == "sum":
            out = values[0]
            for v in values[1:]:
                out = out + v
            return out
        if op == "max":
            return max(values)
        if op == "min":
            return min(values)
    raise CommError(f"unknown reduction op {op!r}")


def _normalize_alltoallv(sendlist, counts, size: int) -> list:
    """Normalise the two ``alltoallv`` calling conventions to one
    per-destination payload list of length ``size`` (shared between the
    threaded and process-backed communicators so validation and
    count-splitting behave identically)."""
    if counts is not None:
        counts = [int(c) for c in counts]
        if len(counts) != size:
            raise CommError(
                f"alltoallv needs {size} counts, got {len(counts)}"
            )
        flat = list(sendlist)
        if sum(counts) != len(flat):
            raise CommError(
                f"alltoallv counts sum to {sum(counts)} but "
                f"{len(flat)} items were supplied"
            )
        bounds = np.concatenate(([0], np.cumsum(counts)))
        return [
            flat[int(bounds[j]) : int(bounds[j + 1])] for j in range(size)
        ]
    sendlist = list(sendlist)
    if len(sendlist) != size:
        raise CommError(
            f"alltoallv needs {size} payloads, got {len(sendlist)}"
        )
    return sendlist
