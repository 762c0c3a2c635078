"""Synthetic matrix generators standing in for the paper's datasets.

The paper's effects are driven by a handful of statistics — nonzeros per
row, the output expansion ``nnz(C) / nnz(A)``, the compression factor
``cf = flops / nnz(C)``, and degree skew — not by the biological identity
of the inputs.  Each generator here targets one input family:

* :func:`rmat` — Graph500-style recursive-matrix graphs with power-law
  degrees (stand-in for **Friendster**);
* :func:`protein_similarity` — block-community similarity graphs with
  power-law cluster sizes (stand-in for **Eukarya / Isolates /
  Metaclust50**: squaring them is flop-heavy because clusters multiply
  densely);
* :func:`kmer_matrix` — hypersparse bipartite sequence × k-mer matrices
  with Zipf k-mer popularity (stand-in for **Rice-kmers / Metaclust20m**,
  the A·Aᵀ overlap workloads);
* :func:`planted_partition` — ground-truth community graphs for validating
  the Markov-clustering application;
* :func:`erdos_renyi` — uniform baseline.
"""

from __future__ import annotations

import numpy as np

from ..sparse.construct import from_edges, random_sparse
from ..sparse.matrix import INDEX_DTYPE, VALUE_DTYPE, SparseMatrix
from ..utils.rng import as_rng


def erdos_renyi(
    n: int, *, avg_degree: float = 8.0, seed=None, symmetric: bool = True
) -> SparseMatrix:
    """Uniform random graph with ``avg_degree`` nonzeros per row."""
    nnz = int(n * avg_degree)
    m = random_sparse(n, n, nnz=nnz, seed=seed)
    if not symmetric:
        return m
    rows, cols, vals = m.to_coo()
    keep = rows <= cols
    edges = np.stack([rows[keep], cols[keep]], axis=1)
    return from_edges(n, n, edges, values=vals[keep], symmetric=True)


def rmat(
    scale: int,
    *,
    edge_factor: int = 8,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed=None,
    symmetric: bool = True,
    values: str = "ones",
) -> SparseMatrix:
    """R-MAT / Graph500 graph on ``2**scale`` vertices.

    Each of ``edge_factor * 2**scale`` edges picks its quadrant bit-by-bit
    with probabilities ``(a, b, c, d = 1-a-b-c)``; the default parameters
    are the Graph500 skew, which yields the heavy power-law degree tail
    social networks like Friendster exhibit.  Duplicate edges collapse
    (values sum for ``values="uniform"``, or are reset to 1 for ``"ones"``).
    """
    if not 0 < a + b + c < 1:
        raise ValueError("require 0 < a + b + c < 1")
    n = 1 << scale
    nedges = edge_factor * n
    rng = as_rng(seed)
    rows = np.zeros(nedges, dtype=INDEX_DTYPE)
    cols = np.zeros(nedges, dtype=INDEX_DTYPE)
    d = 1.0 - a - b - c
    # quadrant probabilities as cumulative thresholds: TL, TR, BL, BR
    thresholds = np.cumsum([a, b, c, d])
    for bit in range(scale):
        draw = rng.random(nedges)
        quad = np.searchsorted(thresholds, draw, side="right")
        rows = (rows << 1) | (quad >= 2)   # bottom half sets the row bit
        cols = (cols << 1) | (quad % 2)    # right half sets the column bit
    if values == "ones":
        vals = np.ones(nedges, dtype=VALUE_DTYPE)
    else:
        vals = (1.0 - rng.random(nedges)).astype(VALUE_DTYPE)
    if symmetric:
        keep = rows <= cols
        edges = np.stack([rows[keep], cols[keep]], axis=1)
        m = from_edges(n, n, edges, values=vals[keep], symmetric=True)
    else:
        m = SparseMatrix.from_coo(n, n, rows, cols, vals)
    if values == "ones":
        # duplicate edges summed above; reset pattern weights to 1
        m = SparseMatrix(
            m.nrows, m.ncols, m.indptr, m.rowidx,
            np.ones(m.nnz, dtype=VALUE_DTYPE), validate=False,
        )
    return m


def _power_law_sizes(total: int, rng, *, exponent: float = 2.0,
                     min_size: int = 2, max_frac: float = 0.1) -> np.ndarray:
    """Cluster sizes from a bounded discrete power law summing to ``total``."""
    max_size = max(min_size + 1, int(total * max_frac))
    sizes: list[int] = []
    remaining = total
    while remaining > 0:
        u = rng.random()
        # inverse-CDF sample of P(s) ~ s^-exponent on [min_size, max_size]
        lo, hi = float(min_size), float(max_size)
        s = (lo ** (1 - exponent) + u * (hi ** (1 - exponent) - lo ** (1 - exponent))) ** (
            1.0 / (1 - exponent)
        )
        size = int(min(remaining, max(min_size, round(s))))
        sizes.append(size)
        remaining -= size
    return np.array(sizes, dtype=INDEX_DTYPE)


def protein_similarity(
    n: int,
    *,
    intra_density: float = 0.4,
    noise_degree: float = 0.5,
    cluster_exponent: float = 2.0,
    seed=None,
) -> SparseMatrix:
    """Protein-similarity-like graph: power-law-sized dense communities.

    Vertices partition into clusters with power-law sizes; within a
    cluster a fraction ``intra_density`` of pairs are connected with
    similarity weights in (0.3, 1]; ``noise_degree`` random cross-cluster
    edges per vertex carry weak weights.  Squaring such a matrix is
    flop-heavy (high cf) because communities multiply densely — the regime
    that makes Eukarya / Isolates / Metaclust squaring memory-bound.
    The diagonal holds self-similarity 1.0, as real similarity matrices do.
    """
    rng = as_rng(seed)
    sizes = _power_law_sizes(n, rng, exponent=cluster_exponent)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    rows_parts = [np.arange(n, dtype=INDEX_DTYPE)]
    cols_parts = [np.arange(n, dtype=INDEX_DTYPE)]
    vals_parts = [np.ones(n, dtype=VALUE_DTYPE)]
    for ci in range(len(sizes)):
        lo, size = int(offsets[ci]), int(sizes[ci])
        npairs = size * (size - 1) // 2
        if npairs == 0:
            continue
        want = min(npairs, max(1, int(round(intra_density * npairs))))
        iu, ju = np.triu_indices(size, k=1)
        sel = rng.choice(npairs, size=want, replace=False)
        i = iu[sel].astype(INDEX_DTYPE)
        j = ju[sel].astype(INDEX_DTYPE)
        w = (0.3 + 0.7 * (1.0 - rng.random(want))).astype(VALUE_DTYPE)
        rows_parts += [lo + i, lo + j]
        cols_parts += [lo + j, lo + i]
        vals_parts += [w, w]
    nnoise = int(n * noise_degree)
    if nnoise:
        u = rng.integers(0, n, size=nnoise)
        v = rng.integers(0, n, size=nnoise)
        off = u != v
        u, v = u[off], v[off]
        w = (0.05 + 0.25 * (1.0 - rng.random(u.shape[0]))).astype(VALUE_DTYPE)
        rows_parts += [u, v]
        cols_parts += [v, u]
        vals_parts += [w, w]
    rows = np.concatenate(rows_parts)
    cols = np.concatenate(cols_parts)
    vals = np.concatenate(vals_parts)
    # duplicates (noise landing on community edges) resolve by max-like sum
    # capping: from_coo sums; clamp to 1.0 to stay similarity-valued.
    m = SparseMatrix.from_coo(n, n, rows, cols, vals)
    np.clip(m.values, 0.0, 1.0, out=m.values)
    return m


def planted_partition(
    n: int,
    nclusters: int,
    *,
    p_in: float = 0.5,
    p_out: float = 0.01,
    seed=None,
) -> tuple[SparseMatrix, np.ndarray]:
    """Equal-size planted-partition graph with ground-truth labels.

    Returns ``(adjacency, labels)``; the Markov-clustering tests recover
    ``labels`` from the adjacency alone.
    """
    rng = as_rng(seed)
    labels = np.repeat(np.arange(nclusters, dtype=INDEX_DTYPE),
                       -(-n // nclusters))[:n]
    rows_parts = [np.arange(n, dtype=INDEX_DTYPE)]
    cols_parts = [np.arange(n, dtype=INDEX_DTYPE)]
    vals_parts = [np.ones(n, dtype=VALUE_DTYPE)]
    iu, ju = np.triu_indices(n, k=1)
    same = labels[iu] == labels[ju]
    prob = np.where(same, p_in, p_out)
    keep = rng.random(iu.shape[0]) < prob
    iu, ju = iu[keep].astype(INDEX_DTYPE), ju[keep].astype(INDEX_DTYPE)
    w = np.ones(iu.shape[0], dtype=VALUE_DTYPE)
    rows = np.concatenate(rows_parts + [iu, ju])
    cols = np.concatenate(cols_parts + [ju, iu])
    vals = np.concatenate(vals_parts + [w, w])
    return SparseMatrix.from_coo(n, n, rows, cols, vals), labels


def kmer_matrix(
    nseqs: int,
    nkmers: int,
    *,
    kmers_per_seq: float = 15.0,
    zipf_exponent: float = 1.2,
    seed=None,
) -> SparseMatrix:
    """Bipartite sequence × k-mer occurrence matrix.

    Row ``i`` marks the k-mers sequence ``i`` contains; k-mer popularity
    follows a (truncated) Zipf law, mirroring genomic k-mer spectra where
    a few repeats occur in many reads and most k-mers in very few.  The
    product ``A Aᵀ`` counts shared k-mers between sequence pairs — the
    BELLA / PASTIS candidate-generation workload (paper Sec. V-G).
    """
    rng = as_rng(seed)
    total = int(nseqs * kmers_per_seq)
    seqs = rng.integers(0, nseqs, size=total).astype(INDEX_DTYPE)
    # Zipf-ranked k-mer choice by inverse-CDF over ranks 1..nkmers
    ranks = np.arange(1, nkmers + 1, dtype=np.float64)
    weights = ranks ** (-zipf_exponent)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    kmers = np.searchsorted(cdf, rng.random(total)).astype(INDEX_DTYPE)
    kmers = np.minimum(kmers, nkmers - 1)
    vals = np.ones(total, dtype=VALUE_DTYPE)
    m = SparseMatrix.from_coo(nseqs, nkmers, seqs, kmers, vals)
    # occurrence matrix is 0/1: collapse multiplicities
    m.values.fill(1.0)
    return m
