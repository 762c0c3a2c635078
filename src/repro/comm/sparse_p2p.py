"""Sparsity-aware point-to-point communication backend (SpComm3D-style).

Dense SUMMA broadcasts ship whole tiles to every row/column member even
though a receiver only touches the A columns matched by nonzeros of its
incoming B operand (and vice versa).  This backend runs the symbolic
prologue of :mod:`repro.comm.plan` to learn each peer's occupancy
structure, then replaces each broadcast with metered ``isend``/``recv``
pairs carrying only the needed tile segments.

Cost shape versus :class:`~repro.comm.backend.DenseCollective`:

* **bandwidth** shrinks by the needed fraction (large on hypersparse
  operands, where most tile columns/rows are empty);
* **latency** grows: a stage root sends ``sqrt(p/l) - 1`` individual
  messages instead of one ``log``-depth broadcast tree;
* a small **plan overhead** is paid per batch (bit-packed masks over the
  row and column communicators, metered under the ``Comm-Plan`` step).

The planner's extended α–β model (:mod:`repro.model.predictor`) encodes
exactly this trade-off, which is how ``backend="auto"`` chooses.
"""

from __future__ import annotations

import numpy as np

from ..simmpi.comm import Request
from ..sparse.matrix import SparseMatrix
from ..sparse.ops import mask_columns, mask_rows, nonempty_columns, nonempty_rows
from .backend import CommBackend, StagePrefetch
from .plan import CommPlan, pack_mask, unpack_mask


def _occupied_columns(tile) -> np.ndarray:
    """Column-occupancy mask; dense panels are fully occupied (no
    nonzero structure to thin — every column is needed)."""
    if isinstance(tile, SparseMatrix):
        return nonempty_columns(tile)
    return np.ones(tile.shape[1], dtype=bool)


def _occupied_rows(tile) -> np.ndarray:
    """Row-occupancy mask; dense panels are fully occupied."""
    if isinstance(tile, SparseMatrix):
        return nonempty_rows(tile)
    return np.ones(tile.shape[0], dtype=bool)


class SparseP2P(CommBackend):
    """Point-to-point exchange of only the tile segments receivers need.

    Per-rank state: the static half of the plan (A occupancy never
    changes within a run) is built once; the B half is rebuilt every
    batch, because each batch selects different B columns.
    """

    name = "sparse"

    def __init__(self) -> None:
        self.plan: CommPlan | None = None
        self._a_col_masks: list | None = None
        self._b_requests: list | None = None

    def revoke(self) -> None:
        """Drop the exchange plan and occupancy masks: they were built
        against a previous entry's communicators, and a re-entry re-runs
        the symbolic prologue from scratch."""
        self.plan = None
        self._a_col_masks = None
        self._b_requests = None

    # ------------------------------------------------------------------ #
    # symbolic prologue
    # ------------------------------------------------------------------ #

    def prepare_batch(self, comms, a_tile: SparseMatrix, b_batch: SparseMatrix) -> None:
        if not isinstance(a_tile, SparseMatrix) and not isinstance(
            b_batch, SparseMatrix
        ):
            # both operands dense (SDDMM): nothing to thin, no plan to
            # build — every bcast takes the collective fallback.  Skipped
            # identically on every rank, so the prologue collectives
            # simply never happen.
            self.plan = None
            return
        row, col = comms.row, comms.col
        with comms.world.backend_scope(self.name):
            if self._a_col_masks is None:
                # static half: A-tile occupancy along the row comm, then
                # tell col-peer t which of its B rows this rank needs
                # (the nonempty columns of row-peer t's A tile).  A dense
                # operand reports full occupancy, so the counterpart is
                # shipped whole — correct, and the plan collectives stay
                # in lockstep across ranks.
                packed = self._call(
                    row, "allgather",
                    lambda: row.allgather(pack_mask(_occupied_columns(a_tile))),
                )
                self._a_col_masks = [unpack_mask(p) for p in packed]
                received = self._call(
                    col, "alltoall",
                    lambda: col.alltoall([
                        pack_mask(self._a_col_masks[t]) for t in range(col.size)
                    ]),
                )
                self._b_requests = [unpack_mask(p) for p in received]

            # per-batch half: B-batch occupancy along the col comm, then
            # tell row-peer t which of its A columns this rank needs
            # (the nonempty rows of col-peer t's B batch).
            packed = self._call(
                col, "allgather",
                lambda: col.allgather(pack_mask(_occupied_rows(b_batch))),
            )
            b_row_masks = [unpack_mask(p) for p in packed]
            received = self._call(
                row, "alltoall",
                lambda: row.alltoall([
                    pack_mask(b_row_masks[t]) for t in range(row.size)
                ]),
            )
            a_requests = [unpack_mask(p) for p in received]

            self.plan = CommPlan.derive(
                a_col_masks=self._a_col_masks,
                b_row_masks=b_row_masks,
                row_rank=row.rank,
                col_rank=col.rank,
            )
            self.plan.fill_requests(a_requests, self._b_requests)

    # ------------------------------------------------------------------ #
    # data movement
    # ------------------------------------------------------------------ #

    def bcast_a(self, comms, a_tile: SparseMatrix, stage: int) -> SparseMatrix:
        row = comms.row
        if not isinstance(a_tile, SparseMatrix):
            # dense operands ride collectives even on the sparse backend
            with row.backend_scope(self.name):
                recv = self._call(
                    row, "bcast", lambda: row.bcast(a_tile, root=stage)
                )
            if row.rank != stage:
                self._charge_recv(recv)
            return recv
        with row.backend_scope(self.name):
            if row.rank == stage:
                for t in range(row.size):
                    if t != stage:
                        # retry per individual send: a failed attempt never
                        # enqueued anything, so re-sending is exact-once
                        self._call(row, "send", lambda t=t: row.isend(
                            mask_columns(a_tile, self.plan.a_requests[t]),
                            dest=t, tag=stage,
                        ))
                return a_tile
            recv = self._call(
                row, "recv", lambda: row.recv(stage, tag=stage)
            )
        self._charge_recv(recv)
        return recv

    def bcast_b(self, comms, b_batch: SparseMatrix, stage: int) -> SparseMatrix:
        col = comms.col
        if not isinstance(b_batch, SparseMatrix):
            with col.backend_scope(self.name):
                recv = self._call(
                    col, "bcast", lambda: col.bcast(b_batch, root=stage)
                )
            if col.rank != stage:
                self._charge_recv(recv)
            return recv
        with col.backend_scope(self.name):
            if col.rank == stage:
                for t in range(col.size):
                    if t != stage:
                        self._call(col, "send", lambda t=t: col.isend(
                            mask_rows(b_batch, self.plan.b_requests[t]),
                            dest=t, tag=stage,
                        ))
                return b_batch
            recv = self._call(
                col, "recv", lambda: col.recv(stage, tag=stage)
            )
        self._charge_recv(recv)
        return recv

    def fiber_exchange(self, comms, sendlist: list) -> list:
        # fiber pieces are exact output partials — nothing to filter —
        # but the variable-size exchange meters true per-destination
        # volumes under the sparse tag.
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
        """Issue the masked stage sends without waiting: the root's
        ``isend`` fan-out buffers immediately and non-roots hold an
        ``irecv`` request, so the previous stage's multiply overlaps the
        segment transfers.  The within-batch plan is already in place
        (stage 0 of every batch runs blocking, after ``prepare_batch``)."""
        from ..summa.trace import STEP_A_BCAST, STEP_B_BCAST

        row, col = comms.row, comms.col
        with row.step(STEP_A_BCAST), row.backend_scope(self.name):
            if not isinstance(a_tile, SparseMatrix):
                # dense operand: nonblocking collective-shaped fan-out
                a_req = self._ibcast(row, a_tile, stage)
            elif row.rank == stage:
                for t in range(row.size):
                    if t != stage:
                        self._call(row, "send", lambda t=t: row.isend(
                            mask_columns(a_tile, self.plan.a_requests[t]),
                            dest=t, tag=stage,
                        ))
                a_req = Request(ready=True, value=a_tile)
            else:
                a_req = self._guard(row, "recv", row.irecv(stage, tag=stage))
        with col.step(STEP_B_BCAST), col.backend_scope(self.name):
            if not isinstance(b_batch, SparseMatrix):
                b_req = self._ibcast(col, b_batch, stage)
            elif col.rank == stage:
                for t in range(col.size):
                    if t != stage:
                        self._call(col, "send", lambda t=t: col.isend(
                            mask_rows(b_batch, self.plan.b_requests[t]),
                            dest=t, tag=stage,
                        ))
                b_req = Request(ready=True, value=b_batch)
            else:
                b_req = self._guard(col, "recv", col.irecv(stage, tag=stage))
        return StagePrefetch(a_req, b_req)
