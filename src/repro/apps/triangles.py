"""Triangle counting and clustering coefficients via SpGEMM (paper Sec. V-B).

High-performance triangle counting multiplies the strictly-lower and
strictly-upper triangular parts of the adjacency matrix and masks the
product with the adjacency pattern [Azad-Buluç-Gilbert]:

    B = L @ U;   triangles = (1/2) * sum of B masked by A

For a triangle ``a < b < c`` the masked product holds the wedge count at
entries ``(b, c)`` and ``(c, b)`` (apex ``a``), hence the halving.  The
multiply runs on the distributed BatchedSUMMA3D, making this the paper's
"social network analytics" workload.
"""

from __future__ import annotations

import numpy as np

from ..simmpi.tracker import CommTracker
from ..sparse.matrix import SparseMatrix, VALUE_DTYPE
from ..sparse.ops import hadamard, tril, triu
from ..summa.batched import batched_summa3d


def _pattern(a: SparseMatrix) -> SparseMatrix:
    """Unweighted simple-graph view: values set to 1, self-loops dropped
    (loops are not edges of the simple graph and would pollute the mask)."""
    rows = a.rowidx
    cols = a.col_indices()
    off_diag = rows != cols
    return SparseMatrix.from_coo(
        a.nrows,
        a.ncols,
        rows[off_diag],
        cols[off_diag],
        np.ones(int(off_diag.sum()), dtype=VALUE_DTYPE),
    )


def _masked_wedges(
    a: SparseMatrix,
    nprocs: int,
    layers: int,
    memory_budget: int | None,
    tracker: CommTracker | None,
    *,
    push_mask: bool = True,
) -> SparseMatrix:
    if a.nrows != a.ncols:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    adj = _pattern(a)
    lower = tril(adj, -1)
    upper = triu(adj, 1)
    if push_mask:
        # GraphBLAS-style: the mask filters each batch inside the
        # distributed pipeline, so non-edge wedge counts never accumulate
        result = batched_summa3d(
            lower,
            upper,
            nprocs=nprocs,
            layers=layers,
            memory_budget=memory_budget,
            mask=adj,
            tracker=tracker,
        )
        return result.matrix
    result = batched_summa3d(
        lower,
        upper,
        nprocs=nprocs,
        layers=layers,
        memory_budget=memory_budget,
        tracker=tracker,
    )
    return hadamard(result.matrix, adj)


def count_triangles(
    a: SparseMatrix,
    nprocs: int = 4,
    layers: int = 1,
    *,
    memory_budget: int | None = None,
    tracker: CommTracker | None = None,
) -> int:
    """Number of triangles in the undirected graph with adjacency ``a``.

    ``a`` may be weighted; only its pattern matters.  Self-loops are
    ignored (they cannot participate in the strict triangular parts).
    """
    masked = _masked_wedges(a, nprocs, layers, memory_budget, tracker)
    return int(round(masked.values.sum() / 2.0))


def clustering_coefficients(
    a: SparseMatrix,
    nprocs: int = 4,
    layers: int = 1,
    *,
    memory_budget: int | None = None,
    tracker: CommTracker | None = None,
) -> np.ndarray:
    """Local clustering coefficient of every vertex.

    ``cc(v) = 2 * t(v) / (deg(v) * (deg(v) - 1))`` with ``t(v)`` the
    triangles through ``v``; vertices of degree < 2 get 0.
    """
    # S = A .* (A @ A) holds per-edge common-neighbour counts; each
    # triangle {v, u, w} contributes 1 to S[v, u] and 1 to S[v, w], so the
    # row sums of S are twice the per-vertex triangle counts.
    if a.nrows != a.ncols:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    n = a.nrows
    adj = _pattern(a)
    product = batched_summa3d(
        adj,
        adj,
        nprocs=nprocs,
        layers=layers,
        memory_budget=memory_budget,
        tracker=tracker,
    ).matrix
    s = hadamard(product, adj)
    tri_per_vertex = np.zeros(n, dtype=VALUE_DTYPE)
    np.add.at(tri_per_vertex, s.rowidx, s.values)
    tri_per_vertex /= 2.0
    deg = np.zeros(n, dtype=VALUE_DTYPE)
    np.add.at(deg, adj.rowidx, 1.0)
    denom = deg * (deg - 1.0)
    return np.divide(
        2.0 * tri_per_vertex,
        denom,
        out=np.zeros(n, dtype=VALUE_DTYPE),
        where=denom > 0,
    )
