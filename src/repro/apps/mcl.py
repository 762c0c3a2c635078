"""HipMCL-style Markov clustering on batched SpGEMM (paper Sec. V-C).

MCL iterates *expansion* (matrix squaring), *inflation* (elementwise
power + column normalisation) and *pruning* until the column-stochastic
matrix converges; clusters are then read off the converged pattern.  At
scale the squaring output dwarfs memory, so HipMCL forms ``M²`` in
batches and prunes each batch before the next is computed — exactly the
``postprocess`` hook of :func:`~repro.summa.batched_summa3d`.  Here the
whole per-column part of the iteration (prune → inflate → renormalise)
is fused into that hook, mirroring HipMCL's per-batch pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..simmpi.tracker import CommTracker
from ..sparse.construct import eye
from ..sparse.matrix import INDEX_DTYPE, SparseMatrix
from ..sparse.merge import merge_grouped
from ..sparse.ops import (
    column_sums,
    diagonal,
    elementwise_power,
    prune_threshold,
    prune_topk_per_column,
    scale_columns,
)
from ..summa.batched import batched_summa3d
from ..utils.timing import StepTimes


@dataclass
class IterationStats:
    """Per-iteration record (feeds the Fig. 3 bench)."""

    iteration: int
    batches: int
    chaos: float
    nnz: int
    step_times: StepTimes


@dataclass
class MCLResult:
    """Markov clustering outcome.

    ``labels[v]`` is the cluster id of vertex ``v`` (contiguous from 0).
    """

    labels: np.ndarray
    n_clusters: int
    converged: bool
    iterations: list[IterationStats] = field(default_factory=list)

    def clusters(self) -> list[np.ndarray]:
        """Vertex sets per cluster, ordered by cluster id."""
        order = np.argsort(self.labels, kind="stable")
        bounds = np.flatnonzero(np.diff(self.labels[order])) + 1
        return np.split(order, bounds)


def _column_normalise(m: SparseMatrix) -> SparseMatrix:
    sums = column_sums(m)
    inv = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums != 0)
    return scale_columns(m, inv)


def _chaos(m: SparseMatrix) -> float:
    """MCL chaos: max over columns of (max - sum of squares); 0 at a
    doubly-idempotent (converged) matrix."""
    if m.nnz == 0:
        return 0.0
    worst = 0.0
    for j in range(m.ncols):
        lo, hi = int(m.indptr[j]), int(m.indptr[j + 1])
        if lo == hi:
            continue
        col = m.values[lo:hi]
        worst = max(worst, float(col.max() - np.square(col).sum()))
    return worst


def markov_cluster(
    a: SparseMatrix,
    nprocs: int = 4,
    layers: int = 1,
    *,
    inflation: float = 2.0,
    prune_cutoff: float = 1e-4,
    keep_per_column: int = 64,
    memory_budget: int | None = None,
    max_iterations: int = 60,
    chaos_tolerance: float = 1e-3,
    tracker: CommTracker | None = None,
    attractor_threshold: float = 0.5,
) -> MCLResult:
    """Cluster an undirected similarity graph with distributed MCL.

    Parameters mirror HipMCL: ``inflation`` sharpens flows (2.0 default),
    ``prune_cutoff`` and ``keep_per_column`` are the per-batch pruning the
    paper's batching enables, ``memory_budget`` (aggregate bytes) lets the
    symbolic step pick the batch count each iteration — pass ``None`` to
    run unbatched.

    Returns a :class:`MCLResult`; ``iterations`` records per-iteration
    batch counts and step breakdowns (the Fig. 3 measurement).
    """
    if a.nrows != a.ncols:
        raise ValueError(f"MCL needs a square matrix, got {a.shape}")
    n = a.nrows
    # ensure self-loops, as MCL requires, then make column-stochastic
    diag_vals = diagonal(a)
    m = a if np.all(diag_vals > 0) else merge_grouped([a, eye(n)])
    m = _column_normalise(m)

    def batch_body(batch: int, c0: int, c1: int, block: SparseMatrix) -> SparseMatrix:
        block = prune_threshold(block, prune_cutoff)
        block = prune_topk_per_column(block, keep_per_column)
        block = elementwise_power(block, inflation)
        return _column_normalise(block)

    stats: list[IterationStats] = []
    converged = False
    for it in range(max_iterations):
        result = batched_summa3d(
            m,
            m,
            nprocs=nprocs,
            layers=layers,
            memory_budget=memory_budget,
            postprocess=batch_body,
            tracker=tracker,
        )
        m_next = result.matrix
        chaos = _chaos(m_next)
        stats.append(
            IterationStats(
                iteration=it,
                batches=result.batches,
                chaos=chaos,
                nnz=m_next.nnz,
                step_times=result.step_times,
            )
        )
        m = m_next
        if chaos < chaos_tolerance:
            converged = True
            break

    labels = _interpret(m, attractor_threshold)
    return MCLResult(
        labels=labels,
        n_clusters=int(labels.max()) + 1 if labels.size else 0,
        converged=converged,
        iterations=stats,
    )


def markov_cluster_resident(
    a: SparseMatrix,
    nprocs: int = 4,
    layers: int = 1,
    *,
    inflation: float = 2.0,
    prune_cutoff: float = 1e-4,
    keep_per_column: int = 64,
    memory_budget: int | None = None,
    max_iterations: int = 60,
    chaos_tolerance: float = 1e-3,
    tracker=None,
    attractor_threshold: float = 0.5,
) -> MCLResult:
    """Markov clustering with *resident* distributed matrices.

    Functionally identical to :func:`markov_cluster`, but the iterate
    never leaves the grid: each squaring consumes the previous product's
    handles (at most one redistribution per operand per iteration,
    CombBLAS-style; none where the product's tiles already fit, as on every
    2D grid)
    and the chaos convergence measure is computed inside the distributed
    per-batch hook — no global matrix is assembled until the final
    interpretation step.
    """
    import threading

    from ..dist import DistContext

    if a.nrows != a.ncols:
        raise ValueError(f"MCL needs a square matrix, got {a.shape}")
    n = a.nrows
    diag_vals = diagonal(a)
    m = a if np.all(diag_vals > 0) else merge_grouped([a, eye(n)])
    m = _column_normalise(m)

    ctx = DistContext(nprocs=nprocs, layers=layers, tracker=tracker)
    h_a = ctx.distribute(m, "A")
    h_b = ctx.distribute(m, "B")

    stats: list[IterationStats] = []
    converged = False
    for it in range(max_iterations):
        chaos_box = {"value": 0.0}
        lock = threading.Lock()

        def batch_body(batch: int, c0: int, c1: int,
                       block: SparseMatrix) -> SparseMatrix:
            block = prune_threshold(block, prune_cutoff)
            block = prune_topk_per_column(block, keep_per_column)
            block = elementwise_power(block, inflation)
            block = _column_normalise(block)
            local_chaos = _chaos(block)
            with lock:
                chaos_box["value"] = max(chaos_box["value"], local_chaos)
            return block

        h_c, result = ctx.multiply(
            h_a, h_b,
            batches=None if memory_budget is not None else 1,
            memory_budget=memory_budget,
            postprocess=batch_body,
        )
        ctx.free(h_a)
        ctx.free(h_b)
        chaos = chaos_box["value"]
        stats.append(
            IterationStats(
                iteration=it,
                batches=result.batches,
                chaos=chaos,
                nnz=h_c.nnz,
                step_times=result.step_times,
            )
        )
        h_a = ctx.redistribute(h_c, "A")
        h_b = ctx.redistribute(h_c, "B")
        if h_a is not h_c and h_b is not h_c:
            ctx.free(h_c)
        if chaos < chaos_tolerance:
            converged = True
            break

    labels = _interpret(h_a.to_global(), attractor_threshold)
    return MCLResult(
        labels=labels,
        n_clusters=int(labels.max()) + 1 if labels.size else 0,
        converged=converged,
        iterations=stats,
    )


def _interpret(m: SparseMatrix, attractor_threshold: float) -> np.ndarray:
    """Clusters from the converged matrix: union vertices connected by any
    remaining significant flow (the standard MCL interpretation)."""
    n = m.ncols
    parent = np.arange(n, dtype=INDEX_DTYPE)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    cols = m.col_indices()
    # after convergence the matrix is (near-)idempotent: every surviving
    # entry is flow from a column to its attractor, so unioning endpoints
    # of all surviving entries yields the clusters.  ``attractor_threshold``
    # guards against interpreting a *non*-converged matrix too eagerly:
    # entries far below it in unconverged columns are ignored.
    col_max = np.zeros(n)
    np.maximum.at(col_max, cols, m.values)
    significant = m.values >= np.minimum(attractor_threshold, col_max[cols] * 0.5)
    for i, j in zip(m.rowidx[significant].tolist(), cols[significant].tolist()):
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[ri] = rj
    roots = np.array([find(v) for v in range(n)], dtype=INDEX_DTYPE)
    _uniq, labels = np.unique(roots, return_inverse=True)
    return labels.astype(INDEX_DTYPE)
