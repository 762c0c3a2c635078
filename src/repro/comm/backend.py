"""The pluggable communication-backend interface of the SUMMA core.

The SPMD body (:mod:`repro.summa.core`) never calls collectives directly
for its data-movement steps; it asks a :class:`CommBackend` to move the
A tile along the row communicator, the B batch along the column
communicator, and the fiber pieces along the fiber communicator.  Two
implementations ship:

* :class:`DenseCollective` — the paper's Table II behaviour: whole tiles
  travel by ``bcast`` and fiber pieces by ``alltoallv``;
* :class:`~repro.comm.sparse_p2p.SparseP2P` — SpComm3D-style
  sparsity-aware exchange: a symbolic prologue computes a
  :class:`~repro.comm.plan.CommPlan` and only the tile segments each
  receiver will touch travel, via metered point-to-point messages.

Both are *bit-identical* in their effect on the computed product; they
differ only in bytes on the wire and message counts.  Backend instances
hold per-rank plan state, so each SPMD rank must build its own instance —
pass backend *names* (or classes) across the driver boundary, never a
shared instance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..errors import CommError
from ..simmpi.comm import Request
from ..sparse.matrix import SparseMatrix


class StagePrefetch:
    """In-flight operand delivery for one pipelined SUMMA stage.

    Returned by :meth:`CommBackend.prefetch_stage`; holds the two
    nonblocking requests (A along the row communicator, B along the
    column communicator) so the rank program can run the *previous* stage's
    local multiply before calling :meth:`wait_a` / :meth:`wait_b`.
    """

    __slots__ = ("_a", "_b")

    def __init__(self, a_req: Request, b_req: Request) -> None:
        self._a = a_req
        self._b = b_req

    def wait_a(self) -> SparseMatrix:
        """Block until the stage's A operand has arrived; return it."""
        return self._a.wait()

    def wait_b(self) -> SparseMatrix:
        """Block until the stage's B operand has arrived; return it."""
        return self._b.wait()

    @classmethod
    def ready(cls, a_tile: SparseMatrix, b_tile: SparseMatrix) -> "StagePrefetch":
        """A prefetch that already completed (both operands in hand)."""
        return cls(
            Request(ready=True, value=a_tile),
            Request(ready=True, value=b_tile),
        )


class CommBackend(ABC):
    """How SUMMA moves operand tiles and fiber pieces between ranks.

    ``prepare_batch`` runs once per batch before the stage loop (the hook
    the sparse backend uses for its symbolic prologue); the three movement
    methods run inside the corresponding metered step contexts.
    """

    #: registry key and the tag attached to every CommEvent this backend
    #: records.
    name: str = ""

    #: optional :class:`~repro.resilience.RetryPolicy` applied around each
    #: individual communication attempt.  Injected transient faults raise
    #: at operation entry (before any rendezvous state advances), so
    #: re-calling the primitive on the failing rank alone is always safe.
    retry = None

    #: optional :class:`~repro.mem.MemoryLedger` this backend charges its
    #: received buffers to; installed per rank by the SPMD core alongside
    #: ``retry``.  Both concrete backends call :meth:`_charge_recv` on
    #: every payload they deliver, so recv-buffer spikes are accounted at
    #: the backend boundary whichever wire path the bytes took.
    ledger = None

    def _charge_recv(self, obj) -> None:
        """Record a received payload as a momentary ``recv_buffer`` spike
        (the receiving step's handle takes over the persistent charge)."""
        if self.ledger is not None:
            from ..mem import nbytes_of

            self.ledger.touch("recv_buffer", nbytes_of(obj))

    def _call(self, comm, op: str, fn):
        """Run one communication attempt under the retry policy (if any)."""
        if self.retry is None:
            return fn()
        return self.retry.call(fn, comm=comm, op=op)

    def _guard(self, comm, op: str, req: Request) -> Request:
        """Wrap a nonblocking request so its completing ``wait`` (a
        ``recv`` that may hit an injected transient fault at entry) is
        retried under the policy.  A failed ``wait`` leaves the request
        incomplete, so re-waiting re-runs the receive cleanly."""
        if self.retry is None:
            return req
        return Request(
            wait_fn=lambda: self.retry.call(req.wait, comm=comm, op=op),
            try_fn=req.test,
        )

    def prepare_batch(self, comms, a_tile: SparseMatrix, b_batch: SparseMatrix) -> None:
        """Per-batch prologue; default no-op."""

    def _ibcast(self, comm, obj, stage: int) -> Request:
        """Nonblocking ``ibcast``-shaped fan-out with retry applied to
        each individual ``isend`` — never to the fan-out as a whole,
        which would re-send to peers that already got their copy and
        leave a stale duplicate for a later stage's tag to match.

        Shared across backends: the dense backend prefetches every
        operand this way, and the sparse backend falls back to it for
        *dense* operands (a dense panel has no nonzero structure to
        thin, so collectives are the right path on any backend)."""
        if comm.rank == stage:
            for t in range(comm.size):
                if t != stage:
                    self._call(
                        comm, "send", lambda t=t: comm.isend(obj, t, tag=stage)
                    )
            return Request(ready=True, value=obj)
        return self._guard(comm, "recv", comm.irecv(stage, tag=stage))

    def revoke(self) -> None:
        """Discard all cached per-run plan state.

        Called on every (re-)entry of the SPMD body — a first launch, or
        an amended one (replan, re-batch, a repaired grid): anything
        derived from the previous entry's communicators — exchange
        plans, occupancy masks, outstanding prefetches — must be
        recomputed against the ones just built.  Default no-op: the
        dense backend is stateless between calls."""

    @abstractmethod
    def bcast_a(self, comms, a_tile: SparseMatrix, stage: int) -> SparseMatrix:
        """Deliver the stage's A operand along the row communicator."""

    @abstractmethod
    def bcast_b(self, comms, b_batch: SparseMatrix, stage: int) -> SparseMatrix:
        """Deliver the stage's B operand along the column communicator."""

    @abstractmethod
    def fiber_exchange(self, comms, sendlist: list) -> list:
        """Personalised exchange of fiber pieces along the fiber
        communicator; returns the received pieces indexed by source."""

    def prefetch_stage(
        self, comms, a_tile: SparseMatrix, b_batch: SparseMatrix, stage: int
    ) -> StagePrefetch:
        """Start delivering stage ``stage``'s operands without waiting.

        Called by the rank program (:func:`repro.summa.exec.run_batches`
        under ``overlap="depth1"``) while the *previous* stage's local
        multiply has yet to run; it waits on the returned
        :class:`StagePrefetch` inside the stage's own broadcast spans.  All ranks issue prefetches at the
        same program point, so any collective used here still lines up.

        The base implementation is a correct-but-unoverlapped fallback
        for backends that only define the blocking paths: it completes
        both movements immediately (metered under the usual broadcast
        step labels) and returns a finished prefetch.
        """
        # lazy import: repro.summa.core imports repro.comm, so the step
        # vocabulary must not be pulled in at module import time.
        from ..summa.trace import STEP_A_BCAST, STEP_B_BCAST

        with comms.row.step(STEP_A_BCAST):
            a = self.bcast_a(comms, a_tile, stage)
        with comms.col.step(STEP_B_BCAST):
            b = self.bcast_b(comms, b_batch, stage)
        return StagePrefetch.ready(a, b)


class DenseCollective(CommBackend):
    """Today's behaviour behind the interface: dense collectives.

    Every stage broadcasts the whole tile to every row/column member and
    the fiber exchange ships whole pieces — the cost model of the paper's
    Table II, now tagged ``backend="dense"`` in the tracker.
    """

    name = "dense"

    def bcast_a(self, comms, a_tile: SparseMatrix, stage: int) -> SparseMatrix:
        with comms.row.backend_scope(self.name):
            recv = self._call(
                comms.row, "bcast", lambda: comms.row.bcast(a_tile, root=stage)
            )
        if comms.row.rank != stage:
            self._charge_recv(recv)
        return recv

    def bcast_b(self, comms, b_batch: SparseMatrix, stage: int) -> SparseMatrix:
        with comms.col.backend_scope(self.name):
            recv = self._call(
                comms.col, "bcast", lambda: comms.col.bcast(b_batch, root=stage)
            )
        if comms.col.rank != stage:
            self._charge_recv(recv)
        return recv

    def fiber_exchange(self, comms, sendlist: list) -> list:
        with comms.fiber.backend_scope(self.name):
            received = self._call(
                comms.fiber, "alltoallv",
                lambda: comms.fiber.alltoallv(sendlist),
            )
        self._charge_recv(received)
        return received

    def prefetch_stage(
        self, comms, a_tile: SparseMatrix, b_batch: SparseMatrix, stage: int
    ) -> StagePrefetch:
        """Issue both broadcasts as nonblocking ``ibcast``-shaped
        fan-outs, tagged by stage so in-flight stages never cross-match."""
        from ..summa.trace import STEP_A_BCAST, STEP_B_BCAST

        with comms.row.step(STEP_A_BCAST), comms.row.backend_scope(self.name):
            a_req = self._ibcast(comms.row, a_tile, stage)
        with comms.col.step(STEP_B_BCAST), comms.col.backend_scope(self.name):
            b_req = self._ibcast(comms.col, b_batch, stage)
        return StagePrefetch(a_req, b_req)


def get_backend(backend) -> CommBackend:
    """Resolve a backend name, class or instance to a fresh-enough instance.

    Accepts ``"dense"`` / ``"sparse"``, a :class:`CommBackend` subclass
    (instantiated), or an existing instance (returned as-is — caller is
    responsible for per-rank isolation).  ``"auto"`` must be resolved by
    the driver (:func:`repro.summa.batched_summa3d`) before reaching the
    SPMD core, because the choice needs global matrix statistics.
    """
    from .sparse_p2p import SparseP2P

    registry = {DenseCollective.name: DenseCollective, SparseP2P.name: SparseP2P}
    if isinstance(backend, CommBackend):
        return backend
    if isinstance(backend, type) and issubclass(backend, CommBackend):
        return backend()
    if isinstance(backend, str):
        if backend == "auto":
            raise CommError(
                "backend 'auto' must be resolved by the driver; "
                "the SPMD core accepts only concrete backends"
            )
        if backend in registry:
            return registry[backend]()
    raise CommError(
        f"unknown communication backend {backend!r}; "
        f"expected one of {sorted(registry)} or a CommBackend"
    )
