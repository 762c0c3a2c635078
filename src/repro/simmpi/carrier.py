"""Carriers: how the messages of a :class:`~repro.simmpi.comm.SimComm` op
travel between ranks.

Every communicator op is written once, in :class:`SimComm`, over the
rank's *endpoint* and its three primitives:

* ``post(dests, key, obj)`` files ``obj`` under ``key`` in the mailbox of
  every global rank in ``dests`` (``meta=True``: unmetered bookkeeping,
  carried inline);
* ``take(key, comm=, op=, peers=)`` blocks — watchdog-supervised — until
  ``key`` is in this rank's mailbox, and returns its object;
* ``take_p2p(channel, tag, ...)`` takes the earliest message on a
  point-to-point channel that bears ``tag`` (MPI's non-overtaking rule).

A key is ``(comm_id, kind, op_id, src)``; a point-to-point key is
``(comm_id, "p", src_global, tag)`` and files under the channel
``key[:3]`` in send order.  Two carriers implement the primitives:
:class:`ThreadEndpoint` (ranks are threads of this process; each has a
mailbox under its own condition, all sharing one lock, and objects pass
by reference) and :class:`repro.mp.comm.MpWorld` (ranks are forked
processes; items ride one pipe per rank pair through the transport).

Hang classification is shared as well: one wait record
(:class:`WaitRecord`), one classifier (:func:`diagnose`: a pending peer
that already returned, else a wait-for cycle, which the caller confirms
on two consecutive sweeps) and one builder of the
:class:`~repro.errors.HangError` message and dump (:func:`hang_error`).
The thread world's watchdog runs in each blocked rank; the process
world's runs in the parent (:class:`repro.mp.engine.ProcessWorld`).
"""

from __future__ import annotations

import threading
import time

from ..errors import CommError, HangError
from .tracker import CommTracker

#: what ``ready()`` returns while a wait is not satisfied.
_NOTHING = object()


class WaitRecord:
    """One blocked rank's entry in the wait-for graph.

    ``pending`` lists the *global* ranks it still waits on — the outgoing
    edges of the graph.  ``since`` identifies this wait instance: a
    deadlock is declared only when the same cycle of the same instances
    is seen on two consecutive sweeps.  ``pid`` is the worker process of
    a process-world rank (``None`` for a thread).
    """

    __slots__ = ("rank", "op", "comm", "tag", "op_id", "pending", "since",
                 "heartbeat", "pid")

    def __init__(self, rank, op, comm, tag, op_id, pending, since,
                 heartbeat, pid=None) -> None:
        self.rank = rank
        self.op = op
        self.comm = str(comm)
        self.tag = tag
        self.op_id = op_id
        self.pending = tuple(sorted({int(p) for p in pending}))
        self.since = since
        self.heartbeat = heartbeat
        self.pid = pid

    def describe(self) -> dict:
        record = {
            "rank": self.rank,
            "op": self.op,
            "comm": self.comm,
            "tag": self.tag,
            "op_id": self.op_id,
            "pending": list(self.pending),
            "blocked_s": round(max(time.monotonic() - self.since, 0.0), 3),
            "heartbeat": self.heartbeat,
        }
        if self.pid is not None:
            record["pid"] = self.pid
        return record


def _find_cycle(waits: dict, start: int):
    """DFS over blocked ranks for a wait-for cycle through ``start``.
    Returns the rank list of the cycle (beginning at ``start``) or
    ``None``.  Only ranks currently registered as blocked are nodes — a
    computing (unblocked) rank breaks every path through it."""
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


def diagnose(waits: dict, finished, rank: int):
    """Diagnose a definite hang observable from ``rank``'s wait.

    ``waits`` maps global rank to :class:`WaitRecord`; ``finished`` holds
    the ranks that left the region.  Returns ``("peer-exited",
    gone_peers, None)`` when a pending peer already left and can never
    arrive; ``("deadlock", cycle, signature)`` when the wait-for graph
    has a cycle through ``rank`` (the caller fires only when it sees the
    same signature on two consecutive sweeps, so a cycle that resolves
    itself never trips it); else ``None`` — possibly slow, not provably
    hung.
    """
    info = waits.get(rank)
    if info is None:
        return None
    gone = tuple(p for p in info.pending if p in finished)
    if gone:
        return ("peer-exited", gone, None)
    cycle = _find_cycle(waits, rank)
    if cycle is None:
        return None
    return ("deadlock", tuple(cycle), tuple((r, waits[r].since) for r in cycle))


def _verdict(kind: str, me: WaitRecord, cycle, timeout) -> str:
    if kind == "deadlock":
        chain = " -> ".join(f"rank {r}" for r in (*cycle, cycle[0]))
        return f"deadlock: wait-for cycle {chain}"
    who = f"rank {me.rank}" + ("" if me.pid is None else f" (pid {me.pid})")
    if kind == "peer-exited":
        gone = ", ".join(str(r) for r in (cycle or me.pending))
        return (f"{who}: {me.op} waits on rank(s) {gone} that already "
                "returned and can never arrive")
    return (f"{who}: {me.op} on {me.comm} timed out after {timeout:g}s "
            f"waiting on rank(s) {', '.join(map(str, me.pending))}")


def hang_error(kind: str, me: WaitRecord, waits: dict, *, cycle=(),
               timeout: float | None = None, head: str | None = None
               ) -> HangError:
    """The :class:`HangError` of ``kind`` for the wait ``me``: a verdict
    line (``head`` overrides it), then one line per wait record of
    ``waits`` and ``me`` — the error's ``dump``."""
    records = dict(waits)
    records.setdefault(me.rank, me)
    dump = {r: w.describe() for r, w in sorted(records.items())}
    lines = [head or _verdict(kind, me, cycle, timeout)]
    for r, rec in dump.items():
        lines.append(
            f"  rank {r}: {rec['op']} on {rec['comm']}"
            + (f" tag {rec['tag']}" if rec["tag"] is not None else "")
            + (f" op #{rec['op_id']}" if rec["op_id"] is not None else "")
            + f" waiting on {rec['pending']} for {rec['blocked_s']}s"
            + f" (heartbeat {rec['heartbeat']})"
            + (f" in pid {rec['pid']}" if "pid" in rec else "")
        )
    context = {} if me.pid is None else {"pid": me.pid}
    return HangError(
        "\n".join(lines), kind=kind, cycle=cycle, dump=dump
    ).with_context(
        rank=me.rank, op=me.op, peers=list(me.pending), tag=me.tag,
        op_id=me.op_id, comm=me.comm, **context,
    )


class Endpoint:
    """One rank's end of a carrier.

    Holds what the rank's communicators read — ``tracker``, ``timeout``,
    ``injector``, ``failed`` (set by the carrier) — its
    own ``step_label`` / ``backend_label`` / ``ledger`` / ``retry`` /
    ``store`` as plain attributes, its operation-entry counter
    (``beats``), and its mailbox.  A carrier adds ``post`` and ``_await``.
    """

    #: whether a retry's backoff really sleeps
    #: (:meth:`repro.resilience.retry.RetryPolicy.call`).
    real_backoff = False
    #: worker process id named in wait records (process carrier only).
    pid = None

    @property
    def checksums(self) -> bool:
        """Per-message envelopes: on exactly when faults are injected."""
        return self.injector is not None

    def __init__(self, rank: int) -> None:
        self.rank = int(rank)
        self.step_label = self.backend_label = ""
        #: this rank's :class:`~repro.mem.MemoryLedger` (or ``None``):
        #: every payload it *receives* is charged as a momentary
        #: ``recv_buffer`` spike where it lands.
        self.ledger = None
        #: this rank's :class:`~repro.resilience.RetryPolicy` (or ``None``):
        #: re-runs an op's entry hook on a transient fault
        #: (:meth:`~repro.simmpi.comm.SimComm._inject`).
        self.retry = None
        #: rank-owned tiles of a resident context (key -> tile), the one
        #: thing that outlives a region.
        self.store: dict = {}
        self.beats = 0
        self._msgs: dict[tuple, object] = {}
        self._p2p: dict[tuple, list] = {}

    def heartbeat(self) -> None:
        """Operation entry (progress shown in wait records)."""
        self.beats += 1

    def _file(self, key: tuple, obj) -> None:
        """Put an arrived item in the mailbox."""
        if key[1] == "p":
            self._p2p.setdefault(key[:3], []).append((key[3], obj))
        elif key in self._msgs:
            comm_id, kind, op_id, src = key
            raise CommError(
                f"rank {src} participated twice in collective {op_id} "
                f"({kind}) on {comm_id} — mismatched program order"
            )
        else:
            self._msgs[key] = obj

    def _match(self, channel: tuple, tag: int):
        """Pop the earliest message on ``channel`` bearing ``tag``."""
        entries = self._p2p.get(channel) or ()
        for i, (mtag, obj) in enumerate(entries):
            if mtag == tag:
                del entries[i]
                return obj
        return _NOTHING

    def take(self, key: tuple, *, comm, op: str, peers):
        return self._await(key, lambda: self._msgs.pop(key, _NOTHING),
                           comm, op, peers, None, key[2])

    def take_p2p(self, channel: tuple, tag: int, *, comm, op: str, peers):
        return self._await(channel, lambda: self._match(channel, tag),
                           comm, op, peers, tag, None)

    def _wait_record(self, comm, op, peers, tag, op_id, since) -> WaitRecord:
        return WaitRecord(self.rank, op, comm.comm_id, tag, op_id, peers,
                          since, self.beats, self.pid)


class World:
    """Shared state of one thread-world region: the lock every mailbox
    waits under, the wait-for graph, the ranks that returned, the abort
    flag and one :class:`ThreadEndpoint` per rank.

    ``injector`` is an optional :class:`~repro.simmpi.faults.FaultInjector`
    consulted at the entry of every communicator operation and at every
    delivery; with one present, broadcast, point-to-point and all-to-all
    payloads travel in checksummed envelopes
    (:class:`~repro.simmpi.serialization.Envelope`).
    """

    def __init__(self, nprocs: int, stores, *, tracker: CommTracker | None,
                 timeout: float, injector) -> None:
        self.tracker = tracker if tracker is not None else CommTracker()
        self.timeout = timeout
        self.injector = injector
        self.failed = threading.Event()
        self.lock = threading.Lock()
        #: global rank -> WaitRecord of its current block (under ``lock``)
        self.waits: dict[int, WaitRecord] = {}
        #: ranks whose threads returned (feeds the peer-exited verdict)
        self.finished: set[int] = set()
        self.interval = max(0.05, min(1.0, timeout / 20.0))
        self.endpoints = [ThreadEndpoint(self, r, stores[r])
                          for r in range(nprocs)]

    def _wake_all(self) -> None:  # caller holds ``lock``
        for endpoint in self.endpoints:
            endpoint.cv.notify_all()

    def abort(self) -> None:
        """Mark the region failed and wake every blocked rank."""
        self.failed.set()
        with self.lock:
            self._wake_all()

    def mark_finished(self, rank: int) -> None:
        with self.lock:
            self.finished.add(rank)


class ThreadEndpoint(Endpoint):
    """The thread carrier: a mailbox under a condition on the world's lock."""

    def __init__(self, world: World, rank: int, store: dict) -> None:
        super().__init__(rank)
        self.shared = world
        self.tracker, self.timeout = world.tracker, world.timeout
        self.injector = world.injector
        self.failed = world.failed
        self.store = store
        self.cv = threading.Condition(world.lock)
        #: the key (or p2p channel) this rank is blocked on, if any
        self.wanted = None

    def post(self, dests, key: tuple, obj, meta: bool = False) -> None:
        """File ``obj`` by reference (``meta`` changes nothing here)."""
        endpoints = self.shared.endpoints
        with self.shared.lock:
            for dest in dests:
                endpoint = endpoints[dest]
                endpoint._file(key, obj)
                if endpoint.wanted in (key, key[:3]):
                    endpoint.cv.notify()

    def _await(self, want, ready, comm, op, peers, tag, op_id):
        """Wait under the world's lock until ``ready()`` has an object;
        a post wakes this rank only when it files ``want``.

        A wait that outlives one watchdog interval enters the wait-for
        graph; from then on every interval sweeps it with
        :func:`diagnose` (a deadlock fires on the second sweep that sees
        the same cycle), and the flat timeout is the backstop.  Any
        verdict aborts the world."""
        shared = self.shared
        with shared.lock:
            hit = ready()
            if hit is not _NOTHING:
                return hit
            since = time.monotonic()
            deadline = since + self.timeout
            next_check = since + shared.interval
            me = last_sig = None
            self.wanted = want
            try:
                while (hit := ready()) is _NOTHING:
                    if self.failed.is_set():
                        raise CommError(f"{op} aborted: a peer rank failed")
                    now = time.monotonic()
                    if now >= min(next_check, deadline):
                        if me is None:
                            me = shared.waits[self.rank] = self._wait_record(
                                comm, op, peers, tag, op_id, since)
                        verdict = ("timeout", ()) if now >= deadline else None
                        if verdict is None:
                            diag = diagnose(shared.waits, shared.finished,
                                            self.rank)
                            sig = None if diag is None else diag[2]
                            if diag is not None and (sig is None or sig == last_sig):
                                verdict = diag[:2]
                            last_sig = sig
                        if verdict is not None:
                            self.failed.set()
                            shared._wake_all()
                            raise hang_error(verdict[0], me, shared.waits,
                                             cycle=verdict[1],
                                             timeout=self.timeout)
                        next_check = now + shared.interval
                    self.cv.wait(min(max(deadline - now, 0.001),
                                     shared.interval, 0.5))
                return hit
            finally:
                self.wanted = None
                if me is not None:
                    del shared.waits[self.rank]
