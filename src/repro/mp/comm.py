"""Process-backed communicator: :class:`MpComm` and its per-worker world.

:class:`MpComm` subclasses :class:`~repro.simmpi.comm.SimComm` and keeps
its public API, metering formulas and delivery chokepoint byte-for-byte;
only the rendezvous machinery changes.  Where the threaded world meets
under a condition variable, the process world routes messages through
per-rank queues:

* generic collectives (:meth:`SimComm._exchange` — barrier, allgather,
  allreduce, gather, scatter, reduce, split) relay through the
  communicator's local rank 0, which assembles the contribution dict
  and fans it back out; rank 0 is the (single) metering rank, preserving
  the "exactly one rank records per collective" invariant;
* ``bcast`` fans out directly from the root (recorded at the root with
  the same ``nbytes * (size - 1)`` formula);
* ``alltoall`` / ``alltoallv`` send personalised payloads directly
  point-to-point; a tiny unmetered size-row gather lets local rank 0
  record the event with exactly the threaded world's max/sum figures;
* point-to-point messages travel per-(communicator, source) channels in
  send (seq) order, and tag matching takes the earliest match — MPI's
  non-overtaking rule, same as the threaded ``_match``.

Every payload crosses via the world's transport (see
:mod:`repro.mp.transport`); ledger charging still happens only in the
inherited :meth:`SimComm._deliver`, so a zero-copy receive is charged
once, to the receiver's ``recv_buffer``.

Hang classification is two-tier.  A blocked wait first ships its wait
record (op, pending peers, PID) to the parent after a short grace
period; the parent's cross-process watchdog assembles the wait-for
graph, confirms a cycle over two sweeps, and notifies one member with a
``("ctl", "hang", ...)`` item — the notified worker raises the
classified :class:`~repro.errors.HangError` (kind ``"deadlock"`` or
``"peer-exited"``) exactly as the threaded watchdog would.  The flat
per-rank deadline stays as the backstop (kind ``"timeout"``, dump
naming this stuck process's PID) for hangs the graph cannot prove.

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

from ..errors import CommError, HangError
from ..simmpi.comm import SimComm, _normalize_alltoallv
from ..simmpi.serialization import payload_nbytes
from ..simmpi.tracker import CommTracker
from .shm import SegmentRegistry
from .transport import get_transport, reap_wire

_NOTHING = object()


def world_comm_id(epoch: int) -> tuple:
    """Id of the epoch-``epoch`` world communicator: a world's next
    region is a new epoch, whose predecessors' traffic is stale."""
    return ("world",) if epoch == 0 else ("world", "epoch", epoch)


def comm_epoch(comm_id: tuple) -> int:
    """Region epoch a communicator id belongs to.

    Epoch-``e`` world communicators are ``("world", "epoch", e)`` and
    every derived communicator (split) appends to its parent's id,
    so the epoch is recoverable from the prefix; ids not rooted in an
    epoch-tagged world communicator are epoch 0.
    """
    if len(comm_id) >= 3 and comm_id[0] == "world" and comm_id[1] == "epoch":
        return int(comm_id[2])
    return 0


class MpWorld:
    """One worker process's view of the run: queues, buffers, transport.

    Exposes the attribute surface :class:`SimComm` and the layers above
    it read from a world — ``tracker``, ``timeout``, ``checksums``,
    ``injector`` (the region's :class:`FaultInjector`, or ``None``),
    ``failed`` (the shared abort event),
    ``step_label`` / ``backend_label`` / ``ledger`` (plain attributes —
    one thread per process, so no TLS needed) and ``heartbeat``.
    """

    #: retries in this world really sleep — see
    #: :meth:`repro.resilience.retry.RetryPolicy.call`.
    real_backoff = True

    def __init__(self, rank: int, nprocs: int, inboxes, failed, *,
                 transport: str, run_id: str) -> None:
        self.rank = int(rank)
        self.nprocs = int(nprocs)
        self.inboxes = inboxes
        self.inbox = inboxes[rank]
        self.failed = failed
        #: rank-owned tiles of a resident context (key -> tile): the one
        #: thing that outlives a region.  Owning arrays only — a view of
        #: a shared-memory segment dies with the region's ``finish()``.
        self.store: dict = {}
        #: read end of the parent's job pipe; installed by the worker main.
        self.jobs = None
        self.run_id = run_id
        registry = SegmentRegistry(run_id, rank)
        self.transport = get_transport(transport)(
            registry, post_ack=self._post_ack
        )
        #: parent result queue; installed by the worker main for the
        #: driver-callback bridge and wait records.
        self.results = None
        #: epoch of the latest region this worker began; older wires and
        #: buffers are stale and get reaped, not decoded.
        self.adopted_epoch = 0
        self._heartbeats: dict[int, int] = {}
        # demux buffers
        self._msgs: dict[tuple, object] = {}
        self._multi: dict[tuple, dict] = {}
        self._p2p: dict[tuple, list] = {}
        self._seq: dict[tuple, int] = {}

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
        self.ledger = None
        self._hang_notice = None
        self.epoch_reset(region)

    # -------------------------------------------------------------- #
    # plumbing shared with the threaded World's attribute surface
    # -------------------------------------------------------------- #

    def heartbeat(self, global_rank: int) -> int:
        beat = self._heartbeats.get(global_rank, 0) + 1
        self._heartbeats[global_rank] = beat
        return beat

    # -------------------------------------------------------------- #
    # message plumbing
    # -------------------------------------------------------------- #

    def post(self, dest_global: int, item) -> None:
        self.inboxes[dest_global].put(item)

    def _post_ack(self, creator_global: int, name: str) -> None:
        self.post(creator_global, ("ack", (name,)))

    def next_seq(self, comm_id: tuple, dest_global: int) -> int:
        key = (comm_id, dest_global)
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        return seq

    def _demux(self, item) -> None:
        kind = item[0]
        if kind == "ctl":
            self._handle_ctl(item)
            return
        if kind == "ack":
            self.transport.segments.ack(item[1])
            return
        if comm_epoch(item[1]) < self.adopted_epoch:
            # stale wire from an aborted region: never decode it, but do
            # remove the segment it may point at — nobody else will.
            reap_wire(item[-1])
            return
        if kind in ("c", "a", "m"):
            _, comm_id, op_id, src, body = item
            self._multi.setdefault((comm_id, kind, op_id), {})[src] = body
        elif kind in ("r", "b"):
            _, comm_id, op_id, body = item
            self._msgs[(comm_id, kind, op_id)] = body
        elif kind == "p":
            _, comm_id, src_g, seq, tag, body = item
            self._p2p.setdefault((comm_id, src_g), []).append(
                (seq, tag, body)
            )
        else:
            raise CommError(f"rank {self.rank}: unknown wire item {kind!r}")

    def _handle_ctl(self, item) -> None:
        """Parent-coordinator control items."""
        what = item[1]
        if what == "hang":
            _, _, kind, cycle, dump, message, target_since = item
            self._hang_notice = (kind, tuple(cycle), dump, message,
                                 target_since)
        elif what == "abort":
            # a wake-up, nothing more: the parent set ``failed`` and the
            # wait this item ends reads it — a tick sooner than it would
            pass
        else:
            raise CommError(f"rank {self.rank}: unknown ctl item {what!r}")

    def check_hang_notice(self, op: str, since: float | None = None) -> None:
        """Raise the parent watchdog's classified hang, once received.

        The notice is bound to the wait it classified (its ``since``
        stamp): if this rank has already moved on — the awaited data
        raced in just as the peer exited — the notice is stale and is
        dropped; the parent re-arms when it sees the record replaced.
        """
        notice = self._hang_notice
        if notice is None:
            return
        kind, cycle, dump, message, target_since = notice
        if since is None or since != target_since:
            self._hang_notice = None
            return
        self._hang_notice = None
        # the classified rank is the one that aborts the run
        self.failed.set()
        raise HangError(message, kind=kind, cycle=cycle, dump=dump).with_context(
            rank=self.rank, pid=os.getpid(), op=op,
        )

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
        the aborted region.  Adopted mappings with live views are
        untouched.
        """
        if epoch <= self.adopted_epoch:
            return
        self.adopted_epoch = epoch
        for key in [k for k in self._msgs if comm_epoch(k[0]) < epoch]:
            reap_wire(self._msgs.pop(key))
        for key in [k for k in self._multi if comm_epoch(k[0]) < epoch]:
            for wire in self._multi.pop(key).values():
                reap_wire(wire)
        for key in [k for k in self._p2p if comm_epoch(k[0]) < epoch]:
            for _seq, _tag, wire in self._p2p.pop(key):
                reap_wire(wire)
        for key in [k for k in self._seq if comm_epoch(k[0]) < epoch]:
            del self._seq[key]
        self.transport.segments.abandon()

    def _wait(self, ready, *, comm, op: str, tag=None, peers=()):
        """Pump the inbox until ``ready()`` returns something.

        ``ready`` returns :data:`_NOTHING` while unsatisfied.  Respects
        the shared abort event (raising :class:`CommError`, the cascade
        error the engine filters), the parent watchdog's classified hang
        notices, and the flat per-rank timeout backstop (raising a
        PID-naming :class:`HangError`).  A wait outlasting the grace
        period ships its record to the parent, which runs cross-process
        deadlock/peer-exited classification over all shipped records.
        """
        peers = tuple(int(p) for p in peers)
        hit = ready()
        if hit is not _NOTHING:
            return hit
        since = time.monotonic()
        self.check_hang_notice(op, since)
        deadline = since + self.timeout
        watch_at = since + self._watch_grace
        posted = False
        try:
            while True:
                if self.failed.is_set():
                    raise CommError(f"{op} aborted: a peer rank failed")
                arrived = self.pump(self._tick)
                self.check_hang_notice(op, since)
                if arrived:
                    hit = ready()
                    if hit is not _NOTHING:
                        return hit
                now = time.monotonic()
                if not posted and self.results is not None and now >= watch_at:
                    self.results.put(("wait", self.rank, {
                        "rank": self.rank,
                        "pid": os.getpid(),
                        "op": op,
                        "comm": str(comm.comm_id) if comm is not None else "?",
                        "tag": tag,
                        "op_id": None,
                        "pending": sorted(set(peers)),
                        "since": since,
                        "heartbeat": self._heartbeats.get(self.rank, 0),
                    }))
                    posted = True
                if not arrived and now >= deadline:
                    self.failed.set()
                    raise self._hang(comm, op, tag=tag, peers=peers)
        finally:
            if posted:
                try:
                    self.results.put(("endwait", self.rank))
                except Exception:
                    pass

    def _hang(self, comm, op: str, *, tag, peers) -> HangError:
        me = self.rank
        pid = os.getpid()
        pending = sorted(set(int(p) for p in peers))
        record = {
            "rank": me,
            "pid": pid,
            "op": op,
            "comm": str(comm.comm_id),
            "tag": tag,
            "op_id": None,
            "pending": pending,
            "blocked_s": round(self.timeout, 3),
            "heartbeat": self._heartbeats.get(me, 0),
        }
        message = (
            f"rank {me} (worker process pid {pid}): {op} on "
            f"{comm.comm_id} timed out after {self.timeout:g}s waiting "
            f"on rank(s) {', '.join(str(p) for p in pending) or '?'}"
            "\n  (process world: flat per-rank deadline backstop; the "
            "parent watchdog classified no deadlock or exited peer)"
            f"\n  rank {me}: {op} on {comm.comm_id}"
            + (f" tag {tag}" if tag is not None else "")
            + f" waiting on {pending} for {round(self.timeout, 3)}s "
            f"in pid {pid}"
        )
        return HangError(
            message, kind="timeout", cycle=(), dump={me: record}
        ).with_context(
            rank=me, pid=pid, op=op, peers=pending, tag=tag,
            comm=str(comm.comm_id),
        )

    # wait helpers used by MpComm ---------------------------------- #

    def wait_msg(self, key: tuple, *, comm, op: str, peers=()):
        def ready():
            return self._msgs.pop(key, _NOTHING)

        return self._wait(ready, comm=comm, op=op, peers=peers)

    def wait_multi(self, key: tuple, need: int, *, comm, op: str, peers=()):
        def ready():
            got = self._multi.get(key)
            if got is not None and len(got) >= need:
                return self._multi.pop(key)
            return _NOTHING

        return self._wait(ready, comm=comm, op=op, peers=peers)

    def match_p2p(self, channel: tuple, tag: int):
        """Pop the earliest buffered message on ``channel`` bearing
        ``tag`` (arrival order == send order: one queue per producer)."""
        entries = self._p2p.get(channel)
        if not entries:
            return _NOTHING
        for i, (_seq, mtag, body) in enumerate(entries):
            if mtag == tag:
                entries.pop(i)
                return body
        return _NOTHING

    def wait_p2p(self, channel: tuple, tag: int, *, comm, op: str, peers=()):
        def ready():
            return self.match_p2p(channel, tag)

        return self._wait(ready, comm=comm, op=op, tag=tag, peers=peers)

    # -------------------------------------------------------------- #
    # teardown
    # -------------------------------------------------------------- #

    def finish(self) -> None:
        """Drain outstanding segment acks, then close adopted handles.

        Runs after the SPMD body returned: every message this rank sent
        was matched, so each receiver will attach (and ack) as it drains
        its own queue — the wait below ends as soon as the slowest
        consumer of our broadcasts catches up.
        """
        registry = self.transport.segments
        deadline = time.monotonic() + self.timeout
        while registry.outstanding():
            if not self.pump(self._tick) and (
                self.failed.is_set() or time.monotonic() >= deadline
            ):
                registry.abandon()
                break
        for name in list(registry.adopted):
            registry.release(name)

    def abandon(self) -> None:
        self.transport.segments.abandon()


class MpComm(SimComm):
    """One process rank's communicator — API-compatible with SimComm.

    ``world`` is an :class:`MpWorld`.  All inherited operations that go
    through :meth:`_exchange`, :meth:`send`/:meth:`recv` or
    :meth:`_try_recv` (barrier, allgather, allreduce, split, isend,
    irecv, ibcast, step/backend scopes,
    envelope checksums, ledger charging) work unmodified on top of the
    overrides below.
    """

    __slots__ = ()

    # ------------------------------------------------------------------ #
    # the rendezvous primitive, re-based on queues
    # ------------------------------------------------------------------ #

    def _exchange(self, payload, op: str = "collective"):
        """Relay through local rank 0; completion is metered there."""
        op_id = self._opseq
        self._opseq += 1
        rt: MpWorld = self.world
        if self.rank == 0:
            contrib = {0: payload}
            if self.size > 1:
                wires = rt.wait_multi(
                    (self.comm_id, "c", op_id), self.size - 1,
                    comm=self, op=op,
                    peers=(m for m in self.members if m != self.global_rank),
                )
                for src, wire in wires.items():
                    contrib[src] = rt.transport.decode(wire)
                wire_all = rt.transport.encode(contrib, receivers=self.size - 1)
                for dst in range(1, self.size):
                    rt.post(
                        self.members[dst],
                        ("r", self.comm_id, op_id, wire_all),
                    )
            return contrib, True
        rt.post(
            self.members[0],
            ("c", self.comm_id, op_id, self.rank,
             rt.transport.encode(payload, receivers=1)),
        )
        wire = rt.wait_msg(
            (self.comm_id, "r", op_id), comm=self, op=op,
            peers=(self.members[0],),
        )
        return rt.transport.decode(wire), False

    # ------------------------------------------------------------------ #
    # direct collectives (data goes point-to-point, not via the relay)
    # ------------------------------------------------------------------ #

    def bcast(self, obj, root: int = 0):
        self._check_root(root)
        self._inject("bcast")
        op_id = self._opseq
        self._opseq += 1
        rt: MpWorld = self.world
        if self.rank == root:
            payload = self._wrap(obj)
            nbytes = payload_nbytes(payload)
            if self.size > 1:
                wire = rt.transport.encode(payload, receivers=self.size - 1)
                for dst in range(self.size):
                    if dst != root:
                        rt.post(
                            self.members[dst],
                            ("b", self.comm_id, op_id, wire),
                        )
            self._record("bcast", nbytes, nbytes * max(self.size - 1, 0))
            return obj
        wire = rt.wait_msg(
            (self.comm_id, "b", op_id), comm=self, op="bcast",
            peers=(self.members[root],),
        )
        return self._deliver(rt.transport.decode(wire), "bcast")

    def alltoall(self, sendlist) -> list:
        sendlist = list(sendlist)
        if len(sendlist) != self.size:
            raise CommError(
                f"alltoall needs {self.size} payloads, got {len(sendlist)}"
            )
        return self._direct_alltoall(sendlist, "alltoall")

    def alltoallv(self, sendlist, counts=None) -> list:
        sendlist = _normalize_alltoallv(sendlist, counts, self.size)
        return self._direct_alltoall(sendlist, "alltoallv")

    def _direct_alltoall(self, sendlist, op: str) -> list:
        self._inject(op)
        op_id = self._opseq
        self._opseq += 1
        rt: MpWorld = self.world
        wrapped = [self._wrap(x) for x in sendlist]
        sizes = [payload_nbytes(x) for x in wrapped]
        for dst in range(self.size):
            if dst != self.rank:
                rt.post(
                    self.members[dst],
                    ("a", self.comm_id, op_id, self.rank,
                     rt.transport.encode(wrapped[dst], receivers=1)),
                )
        # metering: local rank 0 gathers every rank's send-size row
        # (unmetered metadata) and records the event with the threaded
        # world's exact per-rank max/sum figures.
        if self.rank == 0:
            rows = {0: sizes}
            if self.size > 1:
                rows.update(rt.wait_multi(
                    (self.comm_id, "m", op_id), self.size - 1,
                    comm=self, op=op,
                    peers=(m for m in self.members if m != self.global_rank),
                ))
            per_rank = [sum(rows[r]) for r in range(self.size)]
            self._record(op, max(per_rank, default=0), sum(per_rank))
        else:
            rt.post(
                self.members[0],
                ("m", self.comm_id, op_id, self.rank, sizes),
            )
        out: list = [None] * self.size
        out[self.rank] = self._deliver(wrapped[self.rank], op)
        return self._collect_a2a(out, op_id, op)

    def _collect_a2a(self, out: list, op_id: int, op: str) -> list:
        """Receive the personalised payloads, in source-rank order."""
        rt: MpWorld = self.world
        key = (self.comm_id, "a", op_id)

        for src in range(self.size):
            if src == self.rank:
                continue

            def ready(src=src):
                got = rt._multi.get(key)
                if got is not None and src in got:
                    return got.pop(src)
                return _NOTHING

            wire = rt._wait(
                ready, comm=self, op=op, peers=(self.members[src],)
            )
            out[src] = self._deliver(rt.transport.decode(wire), op)
        got = rt._multi.get(key)
        if got is not None and not got:
            del rt._multi[key]
        return out

    # ------------------------------------------------------------------ #
    # point-to-point
    # ------------------------------------------------------------------ #

    def send(self, obj, dest: int, tag: int = 0) -> None:
        self._check_root(dest, "dest")
        self._inject("send")
        payload = self._wrap(obj)
        rt: MpWorld = self.world
        dest_g = self.members[dest]
        seq = rt.next_seq(self.comm_id, dest_g)
        rt.post(
            dest_g,
            ("p", self.comm_id, self.global_rank, seq, int(tag),
             rt.transport.encode(payload, receivers=1)),
        )
        self._record("send", payload_nbytes(payload), comm_size=2)

    def recv(self, source: int, tag: int = 0):
        self._check_root(source, "source")
        self._inject("recv")
        rt: MpWorld = self.world
        src_g = self.members[source]
        wire = rt.wait_p2p(
            (self.comm_id, src_g), int(tag), comm=self, op="recv",
            peers=(src_g,),
        )
        return self._deliver(rt.transport.decode(wire), "recv")

    def _try_recv(self, source: int, tag: int):
        self._check_root(source, "source")
        rt: MpWorld = self.world
        rt.drain()
        body = rt.match_p2p((self.comm_id, self.members[source]), int(tag))
        if body is _NOTHING:
            return False, None
        return True, self._deliver(rt.transport.decode(body), "recv")

    # ------------------------------------------------------------------ #
    # operation-entry hook
    # ------------------------------------------------------------------ #

    def _inject(self, op: str) -> None:
        """Drain what is queued first: acks release their segments, and
        a control item already sitting in the inbox is seen at op entry
        — before fault injection."""
        self.world.drain()
        super()._inject(op)
