"""Heavy-connectivity matching for hypergraph coarsening (paper Sec. I).

Multi-level partitioners (Zoltan, PaToH) coarsen by matching vertex pairs
sharing many hyperedges.  With incidence matrix ``A`` (vertices × nets),
the pair weights are ``A @ Aᵀ`` — too dense to hold at scale, so Zoltan
computes it in batches and matches greedily within each batch before
discarding it.  This module reproduces that batched-greedy pipeline on
BatchedSUMMA3D.
"""

from __future__ import annotations

import numpy as np

from ..simmpi.tracker import CommTracker
from ..sparse.matrix import INDEX_DTYPE, SparseMatrix
from ..sparse.ops import transpose
from ..summa.batched import batched_summa3d


def heavy_connectivity_matching(
    incidence: SparseMatrix,
    *,
    nprocs: int = 4,
    layers: int = 1,
    memory_budget: int | None = None,
    min_weight: float = 1.0,
    tracker: CommTracker | None = None,
) -> np.ndarray:
    """Greedy heavy-connectivity matching over batched ``A @ Aᵀ``.

    Within each batch the candidate pairs (shared-net counts) are sorted
    by decreasing weight and matched greedily against the global matched
    set, then the batch is discarded — vertices matched in earlier batches
    are unavailable later, exactly the streaming behaviour of the batched
    partitioners the paper cites.

    Returns ``match`` with ``match[v]`` = partner of ``v`` or ``-1``.
    The result is symmetric: ``match[match[v]] == v`` for matched ``v``.
    """
    n = incidence.nrows
    match = np.full(n, -1, dtype=INDEX_DTYPE)

    def harvest(batch: int, spans, batch_matrix: SparseMatrix) -> None:
        rows, cols, vals = batch_matrix.to_coo()
        keep = (rows != cols) & (vals >= min_weight)
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        # heaviest first; ties broken by (row, col) for determinism
        order = np.lexsort((cols, rows, -vals))
        for t in order.tolist():
            u, v = int(rows[t]), int(cols[t])
            if match[u] == -1 and match[v] == -1:
                match[u] = v
                match[v] = u

    batched_summa3d(
        incidence,
        transpose(incidence),
        nprocs=nprocs,
        layers=layers,
        memory_budget=memory_budget,
        keep_output=False,
        on_batch=harvest,
        tracker=tracker,
    )
    return match
