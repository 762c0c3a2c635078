"""Pluggable communication backends for the distributed SpGEMM layer.

The paper's communication model charges every SUMMA stage the full dense
collective cost.  SpComm3D (Abubaker & Hoefler) shows that 3D sparse
kernels can avoid most of that volume with sparsity-aware point-to-point
exchange.  This subsystem abstracts *how* SUMMA moves data so both worlds
coexist behind one knob:

* :class:`DenseCollective` (``"dense"``) — whole-tile broadcasts and
  ``alltoallv`` fiber exchange, the paper's Table II behaviour;
* :class:`SparseP2P` (``"sparse"``) — a symbolic prologue derives a
  :class:`CommPlan` from peer occupancy masks, then only the needed tile
  segments travel point-to-point;
* ``"auto"`` — the planner picks per multiplication via the extended
  α–β model (:func:`repro.summa.planner.choose_backend`).

Both backends produce bit-identical products; they differ only in bytes
on the wire and message counts, which the tracker separates by backend
tag (:meth:`repro.simmpi.CommTracker.by_backend`).
"""

from .backend import CommBackend, DenseCollective, get_backend
from .plan import CommPlan, pack_mask, unpack_mask
from .sparse_p2p import SparseP2P

__all__ = [
    "CommBackend",
    "CommPlan",
    "DenseCollective",
    "SparseP2P",
    "get_backend",
    "pack_mask",
    "unpack_mask",
]
