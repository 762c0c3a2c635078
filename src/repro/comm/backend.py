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


class CommBackend(ABC):
    """How SUMMA moves operand tiles and fiber pieces between ranks.

    ``prepare_batch`` runs once per batch before the stage loop (the hook
    the sparse backend uses for its symbolic prologue); the three movement
    methods run inside the corresponding metered step contexts.  Retries
    and receive-buffer charges are not a backend's business: the rank's
    endpoint retries every op at its entry and charges every payload it
    delivers (:class:`~repro.simmpi.comm.SimComm`).
    """

    #: registry key and the tag attached to every CommEvent this backend
    #: records.
    name: str = ""

    def prepare_batch(self, comms, a_tile: SparseMatrix, b_batch: SparseMatrix) -> None:
        """Per-batch prologue; default no-op."""

    @staticmethod
    def _fan_out(comm, tile, stage: int, cut=None, requests=None) -> Request:
        """Nonblocking root fan-out of stage ``stage``'s operand, tagged by
        stage so in-flight stages never cross-match.  The root sends
        (``isend``) peer ``t`` the whole ``tile``, or ``cut(tile, requests[t])`` — the
        part that peer asked for — and keeps ``tile``; every other member
        holds an ``irecv``.  A send buffers at once, so the root's request
        is born complete."""
        if comm.rank != stage:
            return comm.irecv(stage, tag=stage)
        for t in range(comm.size):
            if t != stage:
                comm.isend(tile if cut is None else cut(tile, requests[t]),
                           t, tag=stage)
        return Request(ready=True, value=tile)

    def _cuts(self, a_tile, b_batch) -> tuple:
        """``(cut, requests)`` of each operand's stage fan-out (see
        :meth:`_fan_out`); empty sends the whole operand."""
        return (), ()

    def revoke(self) -> None:
        """Discard all cached per-run plan state.

        Called on every (re-)entry of the SPMD body — a first launch, or
        an amended one (re-batch, heal): anything
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

    def fiber_exchange(self, comms, sendlist: list) -> list:
        """Personalised exchange of fiber pieces along the fiber
        communicator; returns the received pieces indexed by source.
        Fiber pieces are exact output partials — nothing to filter — so
        every backend ships them whole, by ``alltoallv`` (true
        per-destination volumes, under the backend's tag)."""
        with comms.fiber.backend_scope(self.name):
            return comms.fiber.alltoallv(sendlist)

    def prefetch_stage(
        self, comms, a_tile: SparseMatrix, b_batch: SparseMatrix, stage: int
    ) -> StagePrefetch:
        """Start delivering stage ``stage``'s operands without waiting.

        Called by the rank program (:func:`repro.summa.exec.run_batches`
        under ``overlap="depth1"``) while the *previous* stage's local
        multiply has yet to run; it waits on the returned
        :class:`StagePrefetch` inside the stage's own broadcast spans.
        Both operands leave by :meth:`_fan_out`, cut per :meth:`_cuts`,
        metered under the usual broadcast step labels.  All ranks issue
        prefetches at the same program point.
        """
        # lazy import: repro.summa.core imports repro.comm, so the step
        # vocabulary must not be pulled in at module import time.
        from ..summa.trace import STEP_A_BCAST, STEP_B_BCAST

        cut_a, cut_b = self._cuts(a_tile, b_batch)
        with comms.row.step(STEP_A_BCAST), comms.row.backend_scope(self.name):
            a_req = self._fan_out(comms.row, a_tile, stage, *cut_a)
        with comms.col.step(STEP_B_BCAST), comms.col.backend_scope(self.name):
            b_req = self._fan_out(comms.col, b_batch, stage, *cut_b)
        return StagePrefetch(a_req, b_req)


class DenseCollective(CommBackend):
    """Today's behaviour behind the interface: dense collectives.

    Every stage broadcasts the whole tile to every row/column member and
    the fiber exchange ships whole pieces — the cost model of the paper's
    Table II, now tagged ``backend="dense"`` in the tracker.  A prefetched
    stage fans the whole tile out point to point instead.
    """

    name = "dense"

    def bcast_a(self, comms, a_tile: SparseMatrix, stage: int) -> SparseMatrix:
        with comms.row.backend_scope(self.name):
            return comms.row.bcast(a_tile, root=stage)

    def bcast_b(self, comms, b_batch: SparseMatrix, stage: int) -> SparseMatrix:
        with comms.col.backend_scope(self.name):
            return comms.col.bcast(b_batch, root=stage)


#: the names ``comm_backend=`` takes: the two registered backends, and
#: ``"auto"`` for the driver to price both
COMM_BACKENDS = ("dense", "sparse", "auto")


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
