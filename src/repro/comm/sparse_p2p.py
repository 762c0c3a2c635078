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

from ..sparse.matrix import SparseMatrix
from ..sparse.ops import mask_columns, mask_rows, nonempty_columns, nonempty_rows
from .backend import CommBackend
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
        self._b_requests: list | None = None

    def revoke(self) -> None:
        """Drop the exchange plan and the B requests: they were built
        against a previous entry's communicators, and a re-entry re-runs
        the symbolic prologue from scratch."""
        self.plan = None
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
            if self._b_requests is None:
                # static half: A-tile occupancy along the row comm, then
                # tell col-peer t which of its B rows this rank needs
                # (the nonempty columns of row-peer t's A tile).  A dense
                # operand reports full occupancy, so the counterpart is
                # shipped whole — correct, and the plan collectives stay
                # in lockstep across ranks.
                packed = row.allgather(pack_mask(_occupied_columns(a_tile)))
                a_col_masks = [unpack_mask(p) for p in packed]
                received = col.alltoall(
                    [pack_mask(a_col_masks[t]) for t in range(col.size)]
                )
                self._b_requests = [unpack_mask(p) for p in received]

            # per-batch half: B-batch occupancy along the col comm, then
            # tell row-peer t which of its A columns this rank needs
            # (the nonempty rows of col-peer t's B batch).
            packed = col.allgather(pack_mask(_occupied_rows(b_batch)))
            b_row_masks = [unpack_mask(p) for p in packed]
            received = row.alltoall(
                [pack_mask(b_row_masks[t]) for t in range(row.size)]
            )
            a_requests = [unpack_mask(p) for p in received]
            self.plan = CommPlan(a_requests, self._b_requests)

    # ------------------------------------------------------------------ #
    # data movement
    # ------------------------------------------------------------------ #

    def _cuts(self, a_tile, b_batch) -> tuple:
        """A sparse operand's root sends each peer only the segment it
        asked for; a dense panel has no structure to thin, so it goes
        whole.  A prefetched stage finds the batch's plan in place: stage
        0 of every batch runs blocking, after ``prepare_batch``."""
        return (
            (mask_columns, self.plan.a_requests)
            if isinstance(a_tile, SparseMatrix) else (),
            (mask_rows, self.plan.b_requests)
            if isinstance(b_batch, SparseMatrix) else (),
        )

    def bcast_a(self, comms, a_tile: SparseMatrix, stage: int) -> SparseMatrix:
        with comms.row.backend_scope(self.name):
            if not isinstance(a_tile, SparseMatrix):
                # dense operands ride collectives even on the sparse backend
                return comms.row.bcast(a_tile, root=stage)
            return self._fan_out(comms.row, a_tile, stage, mask_columns,
                                 self.plan.a_requests).wait()

    def bcast_b(self, comms, b_batch: SparseMatrix, stage: int) -> SparseMatrix:
        with comms.col.backend_scope(self.name):
            if not isinstance(b_batch, SparseMatrix):
                return comms.col.bcast(b_batch, root=stage)
            return self._fan_out(comms.col, b_batch, stage, mask_rows,
                                 self.plan.b_requests).wait()
