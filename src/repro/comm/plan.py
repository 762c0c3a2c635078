"""Symbolic communication planning for the sparse point-to-point backend.

Before any numeric data moves, :class:`~repro.comm.SparseP2P` runs a cheap
structural prologue: ranks exchange *bit-packed occupancy masks* of their
tiles (which columns of the local A tile are nonempty, which rows of the
local B batch are nonempty) and derive a :class:`CommPlan` — for every
peer, exactly which segments of the local tile that peer will actually
touch during the SUMMA stages.

The derivation mirrors SpComm3D's sparsity-aware exchange:

* receiver (i, j, k) multiplies ``a_recv @ b_recv`` at stage ``s``, where
  ``a_recv`` is the A tile of row-peer ``s`` and ``b_recv`` the B batch of
  column-peer ``s``;
* column ``c`` of ``a_recv`` is touched iff row ``c`` of ``b_recv`` is
  nonempty, so the columns of A a receiver needs are the nonempty-row mask
  of its *column* peer's B batch;
* an entry of ``b_recv`` with row index ``r`` contributes iff column ``r``
  of ``a_recv`` is nonempty, so the rows of B a receiver needs are the
  nonempty-column mask of its *row* peer's A tile.

Dropping the complementary entries is correctness-neutral: every dropped
nonzero participates in **zero** partial products, so the local multiply
emits the exact same product stream and the result is bit-identical to the
dense exchange.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def pack_mask(mask: np.ndarray) -> tuple[int, np.ndarray]:
    """Bit-pack a boolean occupancy mask for the wire (8 entries/byte)."""
    mask = np.asarray(mask, dtype=bool)
    return int(mask.shape[0]), np.packbits(mask)


def unpack_mask(payload: tuple[int, np.ndarray]) -> np.ndarray:
    """Inverse of :func:`pack_mask`."""
    n, packed = payload
    if n == 0:
        return np.zeros(0, dtype=bool)
    return np.unpackbits(packed, count=n).astype(bool)


@dataclass
class CommPlan:
    """One rank's sparsity-aware exchange plan for one batch.

    Attributes
    ----------
    a_requests:
        Per row-comm peer ``t``: boolean mask over *this rank's* A-tile
        columns that peer ``t`` needs (valid when this rank is the stage
        root on its row communicator).  ``None`` for the self entry.
    b_requests:
        Per col-comm peer ``t``: boolean mask over *this rank's* B-batch
        rows that peer ``t`` needs.
    a_needed:
        Per stage ``s``: mask over the columns of the A tile arriving from
        row-peer ``s`` that this rank will touch (receiver view).
    b_needed:
        Per stage ``s``: mask over the rows of the B batch arriving from
        col-peer ``s``.
    """

    a_requests: list[np.ndarray | None] = field(default_factory=list)
    b_requests: list[np.ndarray | None] = field(default_factory=list)
    a_needed: list[np.ndarray] = field(default_factory=list)
    b_needed: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def derive(
        cls,
        *,
        a_col_masks: list[np.ndarray],
        b_row_masks: list[np.ndarray],
        row_rank: int,
        col_rank: int,
    ) -> "CommPlan":
        """Build the receiver-side halves of the plan from allgathered
        occupancy masks.

        ``a_col_masks[s]`` is the nonempty-column mask of the A tile held
        by row-comm member ``s``; ``b_row_masks[s]`` the nonempty-row mask
        of the B batch held by col-comm member ``s``.  The request halves
        (what *peers* need from this rank) are filled in by the request
        exchange — see :meth:`fill_requests`.
        """
        return cls(
            a_requests=[None] * len(a_col_masks),
            b_requests=[None] * len(b_row_masks),
            # stage s multiplies A from row-peer s by B from col-peer s:
            # the B mask selects A columns, the A mask selects B rows.
            a_needed=[np.asarray(m, dtype=bool) for m in b_row_masks],
            b_needed=[np.asarray(m, dtype=bool) for m in a_col_masks],
        )

    def fill_requests(
        self,
        a_requests: list[np.ndarray | None],
        b_requests: list[np.ndarray | None],
    ) -> None:
        """Attach the root-side request masks received from peers."""
        self.a_requests = list(a_requests)
        self.b_requests = list(b_requests)
