"""Simulated MPI communicators.

A :class:`SimComm` is one rank's handle on a communicator, mirroring the
mpi4py API surface the SUMMA algorithms need: ``barrier``, ``bcast``,
``allreduce``, ``allgather``, ``alltoall``, ``alltoallv``,
``send``/``recv``/``isend``/``irecv`` and ``derive``.  Each op is written
once, over the rank's carrier endpoint (:mod:`repro.simmpi.carrier`);
the wire protocol is the same in both worlds:

* generic collectives (barrier, allgather, allreduce) relay through the
  communicator's local rank 0, which records the event and sends the
  contributions back out;
* ``bcast`` fans out from the root, which records it;
* ``alltoall`` / ``alltoallv`` go point to point, plus an unmetered row
  of send sizes to local rank 0, which records the event;
* point-to-point messages travel per (communicator, source) channel in
  send order, and a receive takes the earliest one bearing its tag.

So exactly one rank records each event, the same rank in both worlds.

Determinism: reductions combine contributions in rank order.  Under
threads payloads pass by reference (ranks must treat received objects as
read-only, as real MPI buffers would be after a receive); the process
world's transport hands out read-only views.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import CommError, CorruptPayloadError
from .serialization import (
    CHECKSUM_NBYTES,
    Envelope,
    payload_checksum,
    payload_nbytes,
    wrap_payload,
)

#: seconds a rank waits inside a collective before declaring deadlock.
DEFAULT_TIMEOUT = 120.0

#: extra delivery attempts per message before a checksum mismatch becomes
#: a hard :class:`~repro.errors.CorruptPayloadError`.
MAX_REDELIVERIES = 3


class SimComm:
    """One rank's communicator handle.

    Parameters
    ----------
    world:
        This rank's carrier endpoint (:class:`~repro.simmpi.carrier.Endpoint`).
    comm_id:
        Hashable identity shared by all members (message keys start with it).
    members:
        Global ranks belonging to this communicator, in local-rank order.
    rank:
        This process's local rank within the communicator.
    """

    __slots__ = ("world", "comm_id", "members", "rank", "_opseq")

    def __init__(self, world, comm_id: tuple, members: tuple[int, ...],
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
    # the relay and the meter
    # ------------------------------------------------------------------ #

    def _next_op(self) -> int:
        op_id = self._opseq
        self._opseq += 1
        return op_id

    def _others(self, skip: int) -> list[int]:
        """Global ranks of every member but local rank ``skip``."""
        return [g for r, g in enumerate(self.members) if r != skip]

    def _relay(self, payload, op: str) -> tuple[dict, bool]:
        """Contribute ``payload``; return (all contributions by local
        rank, recorded_here).  Contributions travel to local rank 0, which
        sends the whole set back out; ``recorded_here`` is True there
        only, so each collective is metered exactly once."""
        op_id = self._next_op()
        world = self.world
        if self.rank:
            world.post(self.members[:1], (self.comm_id, "c", op_id, self.rank),
                       payload)
            contrib = world.take((self.comm_id, "r", op_id, 0), comm=self,
                                 op=op, peers=self.members[:1])
            return contrib, False
        contrib = {0: payload}
        for src in range(1, self.size):
            contrib[src] = world.take(
                (self.comm_id, "c", op_id, src), comm=self, op=op,
                peers=(self.members[src],),
            )
        if self.size > 1:
            world.post(self._others(0), (self.comm_id, "r", op_id, 0), contrib)
        return contrib, True

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
        an op id is taken or anything is posted, so a transient fault
        raised here leaves the operation perfectly retryable on this rank
        alone (peers just keep waiting): the retry policy the rank program
        installed (``world.retry``), if any, re-runs this hook — for every
        op."""
        world = self.world

        def attempt() -> None:
            world.heartbeat()
            if world.injector is not None:
                world.injector.on_attempt(world.rank, op, world.step_label)

        if world.retry is None:
            attempt()
        else:
            world.retry.call(attempt, comm=self, op=op)

    def _wrap(self, obj):
        """Envelope ``obj`` with its checksum when integrity is on."""
        return wrap_payload(obj) if self.world.checksums else obj

    def _deliver(self, obj, op: str):
        """Unwrap a possibly-enveloped received payload for this rank.

        Each delivery passes through the injector (which may hand back a
        corrupted copy) and is verified against the envelope checksum; a
        mismatch meters a redelivery — the retransmission a real transport
        would perform — and tries again, up to :data:`MAX_REDELIVERIES`
        extra attempts.  The mailbox handed over the *original* payload,
        so redelivery always undoes injected corruption."""
        world = self.world
        if world.ledger is not None:
            world.ledger.touch(
                "recv_buffer",
                payload_nbytes(obj.payload if isinstance(obj, Envelope) else obj),
            )
        injector = world.injector
        if not isinstance(obj, Envelope):
            if injector is not None:
                return injector.on_delivery(world.rank, op, obj, world.step_label)
            return obj
        for attempt in range(1 + MAX_REDELIVERIES):
            payload = obj.payload
            if injector is not None:
                payload = injector.on_delivery(
                    world.rank, op, payload, world.step_label
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
                    world.rank, op, world.step_label,
                    attempt + 1, 0.0, kind="redelivery",
                )
        raise CorruptPayloadError(
            f"rank {world.rank}: {op} payload failed checksum "
            f"{obj.crc:#010x} after {MAX_REDELIVERIES} redeliveries"
        ).with_context(
            rank=world.rank, op=op, step=world.step_label,
            comm=str(self.comm_id), crc=f"{obj.crc:#010x}",
            redeliveries=MAX_REDELIVERIES,
        )

    # ------------------------------------------------------------------ #
    # collectives
    # ------------------------------------------------------------------ #

    def barrier(self) -> None:
        """Synchronise all members."""
        self._inject("barrier")
        _, recorded = self._relay(None, "barrier")
        if recorded:
            self._record("barrier", 0, 0)

    def bcast(self, obj, root: int = 0):
        """Broadcast ``obj`` from local rank ``root`` to all members."""
        self._check_root(root)
        self._inject("bcast")
        op_id = self._next_op()
        key = (self.comm_id, "b", op_id, root)
        if self.rank != root:
            root_g = self.members[root]
            wire = self.world.take(key, comm=self, op="bcast", peers=(root_g,))
            return self._deliver(wire, "bcast")
        payload = self._wrap(obj)
        if self.size > 1:
            self.world.post(self._others(root), key, payload)
        nbytes = payload_nbytes(payload)
        self._record("bcast", nbytes, nbytes * (self.size - 1))
        return obj  # root keeps its own reference, like MPI_Bcast

    def allgather(self, obj) -> list:
        """Every member receives the list of all contributions (rank order)."""
        self._inject("allgather")
        contrib, recorded = self._relay(obj, "allgather")
        if recorded:
            sizes = [payload_nbytes(v) for v in contrib.values()]
            self._record("allgather", max(sizes, default=0),
                         sum(sizes) * (self.size - 1))
        return [contrib[r] for r in range(self.size)]

    def allreduce(self, value, op: str = "sum"):
        """Reduce scalars or same-shape ndarrays across members.

        ``op`` is ``"sum"``, ``"max"`` or ``"min"``; combination is in rank
        order so floating-point results are deterministic.
        """
        self._inject("allreduce")
        contrib, recorded = self._relay(value, "allreduce")
        if recorded:
            nbytes = payload_nbytes(value)
            self._record("allreduce", nbytes, nbytes * (self.size - 1))
        return _reduce([contrib[r] for r in range(self.size)], op)

    def alltoall(self, sendlist) -> list:
        """Personalised all-to-all: member ``i`` sends ``sendlist[j]`` to
        member ``j`` and receives a list indexed by source rank."""
        return self._alltoall(sendlist, "alltoall")

    def alltoallv(self, sendlist) -> list:
        """Variable-size personalised all-to-all (MPI_Alltoallv
        semantics): ``sendlist[j]`` is the (arbitrarily sized) payload for
        member ``j``.  Metered as its own op, with the *actual* maximum
        any member sends, so the α–β model can apply variable-size
        costs."""
        return self._alltoall(sendlist, "alltoallv")

    def _alltoall(self, sendlist, op: str) -> list:
        sendlist = list(sendlist)
        if len(sendlist) != self.size:
            raise CommError(
                f"{op} needs {self.size} payloads, got {len(sendlist)}"
            )
        self._inject(op)
        op_id = self._next_op()
        world = self.world
        wrapped = [self._wrap(x) for x in sendlist]
        for dst in range(self.size):
            if dst != self.rank:
                world.post((self.members[dst],),
                           (self.comm_id, "a", op_id, self.rank), wrapped[dst])
        # metering: local rank 0 takes every member's row of send sizes
        # (unmetered metadata) and records per-member max and total
        sizes = [payload_nbytes(x) for x in wrapped]
        if self.rank:
            world.post(self.members[:1], (self.comm_id, "m", op_id, self.rank),
                       sizes, meta=True)
        else:
            rows = [sizes] + [
                world.take((self.comm_id, "m", op_id, src), comm=self, op=op,
                           peers=(self.members[src],))
                for src in range(1, self.size)
            ]
            per_rank = [sum(row) for row in rows]
            self._record(op, max(per_rank), sum(per_rank))
        return [
            self._deliver(
                wrapped[src] if src == self.rank else world.take(
                    (self.comm_id, "a", op_id, src), comm=self, op=op,
                    peers=(self.members[src],),
                ),
                op,
            )
            for src in range(self.size)
        ]

    # ------------------------------------------------------------------ #
    # communicator management
    # ------------------------------------------------------------------ #

    def derive(self, color: int, local_ranks) -> "SimComm":
        """A sub-communicator of the members ``local_ranks`` (in its rank
        order, this rank among them), without a rendezvous: the caller
        already knows its group.  Collective (every member calls it at
        the same program point, with groups that partition the members);
        it takes an op id, so the new id is unique per call, equal on
        all members of a group and extends this communicator's."""
        comm_id = (*self.comm_id, self._next_op(), int(color))
        members = tuple(self.members[r] for r in local_ranks)
        return SimComm(
            self.world, comm_id, members, members.index(self.global_rank)
        )

    # ------------------------------------------------------------------ #
    # point-to-point
    # ------------------------------------------------------------------ #

    def isend(self, obj, dest: int, tag: int = 0) -> "Request":
        """Nonblocking send.  Sends buffer immediately, so the request is
        born complete; the object models MPI semantics
        (communication/computation overlap) for algorithm structure."""
        self.send(obj, dest, tag)
        return Request(ready=True)

    def irecv(self, source: int, tag: int = 0) -> "Request":
        """Nonblocking receive: returns a :class:`Request` whose
        :meth:`~Request.wait` yields the message — the caller computes in
        between, the overlap pattern of pipelined algorithms.  Matching
        is :meth:`recv`'s."""
        return Request(wait_fn=lambda: self.recv(source, tag))

    def send(self, obj, dest: int, tag: int = 0) -> None:
        """Blocking-buffered send to local rank ``dest``."""
        self._check_root(dest, "dest")
        self._inject("send")
        payload = self._wrap(obj)
        self.world.post((self.members[dest],),
                        (self.comm_id, "p", self.global_rank, int(tag)), payload)
        self._record("send", payload_nbytes(payload), comm_size=2)

    def recv(self, source: int, tag: int = 0):
        """Blocking receive from local rank ``source``.

        Messages from ``source`` queue in send order; the earliest one
        bearing ``tag`` is taken, and messages with other tags are left
        for their own receives (MPI's non-overtaking tag matching).
        """
        self._check_root(source, "source")
        self._inject("recv")
        src = self.members[source]
        wire = self.world.take_p2p((self.comm_id, "p", src), int(tag),
                                   comm=self, op="recv", peers=(src,))
        return self._deliver(wire, "recv")

    # ------------------------------------------------------------------ #

    def _check_root(self, root: int, name: str = "root") -> None:
        if not 0 <= root < self.size:
            raise CommError(f"{name} {root} out of range [0, {self.size})")


class Request:
    """Handle for a nonblocking operation (mpi4py-style): ``wait()``
    blocks until completion and returns the received object (``None``
    for sends)."""

    __slots__ = ("_wait_fn", "_done", "_value")

    def __init__(self, *, ready: bool = False, wait_fn=None, value=None) -> None:
        self._wait_fn = wait_fn
        self._done = ready
        self._value = value

    def wait(self):
        if not self._done:
            if self._wait_fn is not None:
                self._value = self._wait_fn()
            self._done = True
        return self._value


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
