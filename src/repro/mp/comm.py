"""The process carrier: :class:`MpWorld`, one worker process's endpoint.

Every communicator op is :class:`~repro.simmpi.comm.SimComm`'s, written
once over the endpoint primitives of :mod:`repro.simmpi.carrier`; this
carrier implements them with per-rank queues.  ``post`` encodes a
payload once through the world's transport (see
:mod:`repro.mp.transport`) and puts the wire in each destination's
inbox; ``take`` / ``take_p2p`` pump the inbox into the mailbox until the
awaited item is there and decode it.  Ledger charging still happens only
in :meth:`SimComm._deliver`, so a zero-copy receive is charged once, to
the receiver's ``recv_buffer``.

Hang classification is two-tier.  A blocked wait first ships its
:class:`~repro.simmpi.carrier.WaitRecord` (op, pending peers, PID) to
the parent after a short grace period; the parent's cross-process
watchdog runs :func:`~repro.simmpi.carrier.diagnose` over all shipped
records, confirms a cycle over two sweeps, and notifies one member with
a ``("ctl", "hang", ...)`` item — the notified worker raises the
classified :class:`~repro.errors.HangError` (kind ``"deadlock"`` or
``"peer-exited"``), built as the thread watchdog builds it.  The flat
per-rank deadline stays as the backstop (kind ``"timeout"``, dump naming
this stuck process's PID) for hangs the graph cannot prove.

Region ``n`` of a world runs on epoch-``n`` communicators
(:func:`world_comm_id`): what an aborted region left on the wire is
stale to the next one and is reaped, never decoded
(:meth:`MpWorld.epoch_reset`).
"""

from __future__ import annotations

import os
import pickle
import queue as _queue
import time
from multiprocessing.connection import wait as _wait_any

from ..errors import CommError
from ..simmpi.carrier import _NOTHING, Endpoint, hang_error
from ..simmpi.tracker import CommTracker
from .shm import SegmentRegistry
from .transport import get_transport, reap_wire


def world_comm_id(epoch: int) -> tuple:
    """Id of the epoch-``epoch`` world communicator: a world's next
    region is a new epoch, whose predecessors' traffic is stale."""
    return ("world",) if epoch == 0 else ("world", "epoch", epoch)


def comm_epoch(comm_id: tuple) -> int:
    """Region epoch a communicator id belongs to.

    Epoch-``e`` world communicators are ``("world", "epoch", e)`` and
    every derived communicator appends to its parent's id, so the epoch
    is recoverable from the prefix; ids not rooted in an epoch-tagged
    world communicator are epoch 0.
    """
    if len(comm_id) >= 3 and comm_id[0] == "world" and comm_id[1] == "epoch":
        return int(comm_id[2])
    return 0


class MpWorld(Endpoint):
    """One worker process's endpoint: queues, buffers, transport.

    Besides the :class:`~repro.simmpi.carrier.Endpoint` surface it holds
    the worker's side of the parent link — ``jobs`` (the job pipe) and
    ``results`` (the results queue, also used by the driver-callback
    bridge and for wait records).
    """

    real_backoff = True

    def __init__(self, rank: int, inboxes, failed, *, transport: str,
                 run_id: str) -> None:
        super().__init__(rank)
        self.inboxes = inboxes
        self.inbox = inboxes[rank]
        self.failed = failed
        self.pid = os.getpid()
        #: read end of the parent's job pipe; installed by the worker main.
        self.jobs = None
        self.transport = get_transport(transport)(
            SegmentRegistry(run_id, rank), post_ack=self._post_ack
        )
        #: parent result queue; installed by the worker main.
        self.results = None
        #: epoch of the latest region this worker began; older wires and
        #: buffers are stale and get reaped, not decoded.
        self.adopted_epoch = 0

    # -------------------------------------------------------------- #
    # region lifecycle: park -> begin_region -> body -> finish -> park
    # -------------------------------------------------------------- #

    def pump(self, timeout: float) -> bool:
        """Wait up to ``timeout`` for one inbox item and buffer it;
        returns whether one arrived."""
        try:
            item = self.inbox.get(timeout=timeout)
        except _queue.Empty:
            return False
        self._demux(item)
        return True

    def next_job(self, parent_pid: int):
        """Park until the parent submits the next region: blocks on the
        job pipe and the inbox (no idle tick), looks about once a second
        whether the parent is still there.  Returns the job's fields, or
        ``None`` when the world was stopped or orphaned.  What arrives in
        the inbox meanwhile — a faster peer's traffic for the region this
        rank has not been told about yet, late acks — is buffered."""
        while True:
            ready = _wait_any([self.jobs, self.inbox._reader], timeout=1.0)
            if self.jobs in ready:
                try:
                    return pickle.loads(self.jobs.recv_bytes())
                except EOFError:  # every write end closed: no parent
                    return None
            if ready:
                self.pump(0)
            elif os.getppid() != parent_pid:
                return None

    def begin_region(self, region: int, timeout: float, checksums: bool,
                     injector) -> None:
        """Fresh per-region state: deadline, meters, fault injector.
        The region number is the epoch tag of its communicators, so
        whatever an aborted earlier region left behind (buffered wires,
        the segments behind them) is reaped, not decoded."""
        self.timeout = float(timeout)
        self._tick = max(0.005, min(0.2, self.timeout / 50.0))
        # how long a wait blocks before shipping its record to the
        # parent watchdog (short enough to classify well before the
        # flat deadline, long enough to skip the fast path entirely)
        self._watch_grace = max(0.05, min(1.0, self.timeout / 20.0))
        self.checksums = bool(checksums)
        self.injector = injector
        self.tracker = CommTracker()
        self.transport.reset_stats()
        self.step_label = self.backend_label = ""
        self.ledger = self.retry = None
        self._hang_notice = None
        #: global ranks this rank posted to in the region (see finish)
        self._sent_to: set[int] = set()
        self.epoch_reset(region)

    # -------------------------------------------------------------- #
    # the carrier primitives
    # -------------------------------------------------------------- #

    def heartbeat(self) -> None:
        """Drain what is queued first: acks release their segments, and
        a control item already sitting in the inbox is seen at op entry
        — before fault injection."""
        self.drain()
        self.beats += 1

    def post(self, dests, key: tuple, obj, meta: bool = False) -> None:
        wire = ("py", obj) if meta else self.transport.encode(
            obj, receivers=len(dests))
        for dest in dests:
            self.inboxes[dest].put(("msg", key, wire))
        self._sent_to.update(dests)

    def _post_ack(self, creator_global: int, name: str) -> None:
        self.inboxes[creator_global].put(("ack", (name,)))

    def _demux(self, item) -> None:
        kind = item[0]
        if kind == "ctl":
            self._handle_ctl(item)
        elif kind == "ack":
            self.transport.segments.ack(item[1])
        elif comm_epoch(item[1][0]) < self.adopted_epoch:
            # stale wire from an aborted region: never decode it, but do
            # remove the segment it may point at — nobody else will.
            reap_wire(item[2])
        else:
            self._file(item[1], item[2])

    def _handle_ctl(self, item) -> None:
        """Parent-coordinator control items."""
        what = item[1]
        if what == "hang":
            self._hang_notice = item[2:]
        elif what == "abort":
            # a wake-up, nothing more: the parent set ``failed`` and the
            # wait this item ends reads it — a tick sooner than it would
            pass
        else:
            raise CommError(f"rank {self.rank}: unknown ctl item {what!r}")

    def check_hang_notice(self, me) -> None:
        """Raise the parent watchdog's classified hang, once received.

        The notice is bound to the wait it classified (its ``since``
        stamp): if this rank has already moved on — the awaited data
        raced in just as the peer exited — the notice is stale and is
        dropped; the parent re-arms when it sees the record replaced.
        """
        notice, self._hang_notice = self._hang_notice, None
        if notice is None:
            return
        kind, cycle, waits, target_since = notice
        if me.since != target_since:
            return
        # the classified rank is the one that aborts the run
        self.failed.set()
        raise hang_error(kind, me, waits, cycle=cycle)

    def drain(self) -> None:
        """Process everything currently queued, without blocking."""
        while True:
            try:
                item = self.inbox.get_nowait()
            except _queue.Empty:
                return
            self._demux(item)

    def epoch_reset(self, epoch: int) -> None:
        """Begin region ``epoch``: purge pre-``epoch`` buffers + segments.

        Selective, not wholesale — a fast peer's new-epoch traffic can
        land in this inbox *before* this rank is told of the region, and
        must survive the reset.  Each dropped wire's shared-memory
        segment is reaped here, as is whatever this rank still owned of
        the aborted region.  Received mappings close with their views.
        """
        if epoch <= self.adopted_epoch:
            return
        self.adopted_epoch = epoch
        for key in [k for k in self._msgs if comm_epoch(k[0]) < epoch]:
            reap_wire(self._msgs.pop(key))
        for key in [k for k in self._p2p if comm_epoch(k[0]) < epoch]:
            for _tag, wire in self._p2p.pop(key):
                reap_wire(wire)
        self.transport.segments.abandon()

    def _await(self, want, ready, comm, op, peers, tag, op_id):
        """Pump the inbox until ``ready()`` has a wire; decode it.

        Respects the shared abort event (raising :class:`CommError`, the
        cascade error the engine filters), the parent watchdog's
        classified hang notices, and the flat per-rank timeout backstop.
        A wait outlasting the grace period ships its record to the
        parent, which classifies over all shipped records.
        """
        hit = ready()
        if hit is _NOTHING:
            hit = self._block(ready, self._wait_record(
                comm, op, peers, tag, op_id, time.monotonic()))
        return self.transport.decode(hit)

    def _block(self, ready, me):
        self.check_hang_notice(me)
        deadline = me.since + self.timeout
        watch_at = me.since + self._watch_grace
        posted = False
        try:
            while True:
                if self.failed.is_set():
                    raise CommError(f"{me.op} aborted: a peer rank failed")
                arrived = self.pump(self._tick)
                # what arrived wins over a verdict that crossed it
                if arrived and (hit := ready()) is not _NOTHING:
                    return hit
                self.check_hang_notice(me)
                now = time.monotonic()
                if not posted and self.results is not None and now >= watch_at:
                    self.results.put(("wait", self.rank, me))
                    posted = True
                if not arrived and now >= deadline:
                    self.failed.set()
                    raise hang_error("timeout", me, {}, timeout=self.timeout)
        finally:
            if posted:
                try:
                    self.results.put(("endwait", self.rank))
                except Exception:
                    pass

    # -------------------------------------------------------------- #
    # teardown
    # -------------------------------------------------------------- #

    def finish(self) -> None:
        """Hand every posted item to its pipe and drain outstanding
        segment acks.

        Runs after the SPMD body returned, before the rank reports: a
        peer still waiting on one of this rank's messages must not see
        the rank gone (the parent's peer-exited verdict) while the item
        sits in a queue's feeder buffer.  An empty ack behind each
        destination's last item marks the flush: once a queue's buffer
        is empty, its feeder has written everything before the marker.
        Every message this rank sent was matched, so each receiver will
        attach (and ack) as it drains its own queue — the wait ends as
        soon as the slowest consumer of our broadcasts catches up.
        """
        queues = [self.inboxes[dest] for dest in self._sent_to]
        for q in queues:
            q.put(("ack", ()))
        registry = self.transport.segments
        deadline = time.monotonic() + self.timeout
        while registry.outstanding() or any(q._buffer for q in queues):
            tick = self._tick if registry.outstanding() else 0.001
            if not self.pump(tick) and (
                self.failed.is_set() or time.monotonic() >= deadline
            ):
                registry.abandon()
                break

    def abandon(self) -> None:
        self.transport.segments.abandon()
