"""The process carrier: :class:`MpWorld`, one worker process's endpoint.

Every communicator op is :class:`~repro.simmpi.comm.SimComm`'s, written
once over the endpoint primitives of :mod:`repro.simmpi.carrier`; this
carrier implements them over one pipe per ordered rank pair — one
writer each, so no lock and no feeder thread.  ``post`` encodes a
payload once through the world's transport (see
:mod:`repro.mp.transport`), pickles the item once and writes it straight
into each destination's pipe; what does not fit waits in that
destination's backlog, in order, and is written from the rank's own
waits (``pump``: on a wait's tick and whenever a backlogged pipe drains)
— posting never blocks.  ``take`` / ``take_p2p`` pump the pipes into the
mailbox until the awaited item is there and decode it.  Ledger charging
still happens only in :meth:`SimComm._deliver`, so a zero-copy receive
is charged once, to the receiver's ``recv_buffer``.

Hang classification is two-tier.  A blocked wait first ships its
:class:`~repro.simmpi.carrier.WaitRecord` (op, pending peers, PID) to
the parent after a short grace period; the parent's cross-process
watchdog runs :func:`~repro.simmpi.carrier.diagnose` over all shipped
records, confirms a cycle over two sweeps, and notifies one member with
a ``("ctl", "hang", ...)`` item on the job pipe — the notified worker
raises the classified :class:`~repro.errors.HangError` (kind
``"deadlock"`` or ``"peer-exited"``), built as the thread watchdog
builds it.  The flat per-rank deadline stays as the backstop (kind
``"timeout"``, dump naming this stuck process's PID) for hangs the graph
cannot prove.

Region ``n`` of a world runs on epoch-``n`` communicators
(:func:`world_comm_id`): what an aborted region left on the wire is
stale to the next one and is reaped, never decoded
(:meth:`MpWorld.epoch_reset`).
"""

from __future__ import annotations

import os
import pickle
import select
import struct
import time
from collections import deque

from ..errors import CommError
from ..simmpi.carrier import _NOTHING, Endpoint, hang_error
from ..simmpi.tracker import CommTracker
from .shm import SegmentRegistry
from .transport import get_transport, reap_wire

#: length prefix of every item on a rank-pair pipe.
_HEAD = struct.Struct("<Q")


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
    """One worker process's endpoint: pipes, buffers, transport.

    ``links`` maps every ordered rank pair ``(src, dst)`` to its pipe's
    ``(read, write)`` descriptors; the constructor keeps this rank's
    inbound read ends and outbound write ends and closes the rest, so a
    peer that exits reads as end-of-file and a vanished reader as
    ``EPIPE``.  ``jobs`` is the read end of the parent's job pipe
    (regions, and the parent's ``ctl`` items), ``results`` the write end
    of this rank's report pipe (:meth:`report`).
    """

    real_backoff = True

    def __init__(self, rank: int, links: dict, jobs, results, failed, *,
                 transport: str, run_id: str) -> None:
        super().__init__(rank)
        #: inbound read end -> bytes of a partly arrived item
        self._inbound: dict[int, bytearray] = {}
        #: destination rank -> outbound (non-blocking) write end
        self._outbound: dict[int, int] = {}
        for (src, dst), (read_fd, write_fd) in links.items():
            if dst == rank:
                self._inbound[read_fd] = bytearray()
            else:
                os.close(read_fd)
            if src == rank:
                os.set_blocking(write_fd, False)
                self._outbound[dst] = write_fd
            else:
                os.close(write_fd)
        #: outbound write end -> frames still to be written, in order
        self._backlog: dict[int, deque] = {}
        self._scratch = bytearray(1 << 16)
        self.jobs, self.results = jobs, results
        #: jobs read while a region was running (``None``: stop)
        self._jobs: deque = deque()
        self._poll = select.poll()
        for fd in (*self._inbound, jobs.fileno()):
            self._poll.register(fd, select.POLLIN)
        self.failed = failed
        self.pid = os.getpid()
        self.transport = get_transport(transport)(
            SegmentRegistry(run_id, rank), post_ack=self._post_ack
        )
        #: epoch of the latest region this worker began; older wires and
        #: buffers are stale and get reaped, not decoded.
        self.adopted_epoch = 0

    # -------------------------------------------------------------- #
    # the pipes
    # -------------------------------------------------------------- #

    def pump(self, timeout: float) -> bool:
        """Wait up to ``timeout`` for traffic — a peer's items, the
        parent's, room in a backlogged pipe — buffer every item that
        arrived whole and write what fits of the backlog; returns whether
        an item arrived."""
        arrived = False
        for fd, _event in self._poll.poll(timeout * 1000.0):
            if fd in self._inbound:
                arrived |= self._read_peer(fd)
            elif fd == self.jobs.fileno():
                arrived |= self._read_job()
        for fd, frames in list(self._backlog.items()):
            if _write(fd, frames):
                del self._backlog[fd]
                self._poll.unregister(fd)
        return arrived

    def _read_peer(self, fd: int) -> bool:
        done = os.readv(fd, [self._scratch])
        if not done:  # the peer exited; an item it left half-written dies
            self._poll.unregister(fd)
            os.close(fd)
            del self._inbound[fd]
            return False
        buf = self._inbound[fd]
        buf += memoryview(self._scratch)[:done]
        items, pos = [], 0
        with memoryview(buf) as view:
            while len(buf) - pos >= _HEAD.size:
                end = pos + _HEAD.size + _HEAD.unpack_from(buf, pos)[0]
                if end > len(buf):
                    break
                items.append(pickle.loads(view[pos + _HEAD.size:end]))
                pos = end
        del buf[:pos]
        for item in items:
            self._demux(item)
        return bool(items)

    def _read_job(self) -> bool:
        try:
            job = pickle.loads(self.jobs.recv_bytes())
        except EOFError:  # every write end closed: the parent is gone
            self._poll.unregister(self.jobs.fileno())
            self.failed.set()
            job = None
        if job is not None and job[0] == "ctl":
            self._handle_ctl(job)
            return True
        self._jobs.append(job)
        return False

    def _send(self, dest: int, frame: bytes) -> None:
        """Write one framed item to ``dest`` now, or queue it behind
        what is already waiting for that pipe."""
        if dest == self.rank:
            self._demux(pickle.loads(memoryview(frame)[_HEAD.size:]))
            return
        fd = self._outbound[dest]
        frames = self._backlog.get(fd)
        if frames is not None:
            frames.append(frame)
        elif not _write(fd, frames := deque([frame])):
            self._backlog[fd] = frames
            self._poll.register(fd, select.POLLOUT)

    def report(self, *msg) -> None:
        """Tell the parent, inline: its supervisor keeps draining the
        pipe, so a report waits for nothing but the parent.  A parent
        that is gone is not this rank's error."""
        blob = pickle.dumps(msg)
        try:
            self.results.send_bytes(blob)
        except OSError:
            pass

    # -------------------------------------------------------------- #
    # region lifecycle: park -> begin_region -> body -> finish -> park
    # -------------------------------------------------------------- #

    def next_job(self, parent_pid: int):
        """Park until the parent submits the next region: blocks on the
        job pipe and the peer pipes (no idle tick), looks about once a
        second whether the parent is still there.  Returns the job's
        fields, or ``None`` when the world was stopped or orphaned.  What
        peers send meanwhile — a faster peer's traffic for the region
        this rank has not been told about yet, late acks — is buffered,
        and what is left of this rank's backlog is written."""
        while not self._jobs:
            if not self.pump(1.0) and os.getppid() != parent_pid:
                return None
        return self._jobs.popleft()

    def begin_region(self, region: int, timeout: float, injector) -> None:
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
        self.injector = injector
        self.tracker = CommTracker()
        self.transport.reset_stats()
        self.step_label = self.backend_label = ""
        self.ledger = self.retry = None
        self._hang_notice = None
        self.epoch_reset(region)

    # -------------------------------------------------------------- #
    # the carrier primitives
    # -------------------------------------------------------------- #

    def heartbeat(self) -> None:
        """Drain what has arrived first: acks release their segments,
        and a control item already sitting in the job pipe is seen at op
        entry — before fault injection."""
        while self.pump(0):
            pass
        self.beats += 1

    def post(self, dests, key: tuple, obj, meta: bool = False) -> None:
        wire = ("py", obj) if meta else self.transport.encode(
            obj, receivers=len(dests))
        frame = _frame(("msg", key, wire))
        for dest in dests:
            self._send(dest, frame)

    def _post_ack(self, creator_global: int, name: str) -> None:
        self._send(creator_global, _frame(("ack", (name,))))

    def _demux(self, item) -> None:
        if item[0] == "ack":
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

    def epoch_reset(self, epoch: int) -> None:
        """Begin region ``epoch``: purge pre-``epoch`` buffers + segments.

        Selective, not wholesale — a fast peer's new-epoch traffic can
        land in this mailbox *before* this rank is told of the region, and
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
        """Pump the pipes until ``ready()`` has a wire; decode it.

        Respects the shared abort event (raising :class:`CommError`, the
        cascade error the engine filters — also for a segment an aborted
        creator unlinked before it was mapped), the parent watchdog's
        classified hang notices, and the flat per-rank timeout backstop.
        A wait outlasting the grace period ships its record to the
        parent, which classifies over all shipped records.
        """
        hit = ready()
        if hit is _NOTHING:
            hit = self._block(ready, self._wait_record(
                comm, op, peers, tag, op_id, time.monotonic()))
        try:
            return self.transport.decode(hit)
        except FileNotFoundError:
            if not self.failed.is_set():
                raise
            raise CommError(f"{op} aborted: a peer rank failed") from None

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
                if not posted and now >= watch_at:
                    self.report("wait", self.rank, me)
                    posted = True
                if not arrived and now >= deadline:
                    self.failed.set()
                    raise hang_error("timeout", me, {}, timeout=self.timeout)
        finally:
            if posted:
                self.report("endwait", self.rank)

    # -------------------------------------------------------------- #
    # teardown
    # -------------------------------------------------------------- #

    def finish(self) -> None:
        """Write out the backlog and drain outstanding segment acks.

        Runs after the SPMD body returned, before the rank reports: a
        peer still waiting on one of this rank's messages must not see
        the rank gone (the parent's peer-exited verdict) while the
        message waits in the backlog.  Every message this rank sent was
        matched, so each receiver will attach (and ack) as it drains its
        own pipes — the wait ends as soon as the slowest consumer of our
        broadcasts catches up.
        """
        registry = self.transport.segments
        deadline = time.monotonic() + self.timeout
        while self._backlog or registry.outstanding():
            if not self.pump(self._tick) and (
                self.failed.is_set() or time.monotonic() >= deadline
            ):
                registry.abandon()
                break

    def abandon(self) -> None:
        self.transport.segments.abandon()


def _frame(item) -> bytes:
    blob = pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEAD.pack(len(blob)) + blob


def _write(fd: int, frames: deque) -> bool:
    """Write ``frames`` in order until the pipe is full; returns whether
    none is left.  A reader that is gone takes the rest with it: its
    rank's exit is the parent's to classify."""
    try:
        while frames:
            done = os.write(fd, frames[0])
            if done < len(frames[0]):
                frames[0] = memoryview(frames[0])[done:]
                return False
            frames.popleft()
    except BlockingIOError:
        return False
    except BrokenPipeError:
        frames.clear()
    return True
