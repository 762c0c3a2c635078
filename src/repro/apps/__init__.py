"""Applications built on memory-constrained SpGEMM (paper Secs. I, V-C, V-G).

Each application consumes the product *in batches* — the access pattern
that makes BatchedSUMMA3D sufficient even when the full product cannot
exist in memory:

* :mod:`mcl` — HipMCL-style distributed Markov clustering (iterated pruned
  squaring);
* :mod:`triangles` — triangle counting via the masked ``L @ U`` product;
* :mod:`overlap` — BELLA/PASTIS-style shared-k-mer overlap detection via
  ``A @ Aᵀ``;
* :mod:`matching` — Zoltan-style heavy-connectivity matching for
  hypergraph coarsening via batched ``A @ Aᵀ``;
* :mod:`components` — connected components via the boolean (OR, AND)
  closure, iterated squaring under an optional memory budget.
"""

from .components import connected_components
from .mcl import MCLResult, markov_cluster, markov_cluster_resident
from .triangles import count_triangles, clustering_coefficients
from .overlap import OverlapResult, find_overlaps
from .matching import heavy_connectivity_matching

__all__ = [
    "markov_cluster",
    "markov_cluster_resident",
    "MCLResult",
    "count_triangles",
    "clustering_coefficients",
    "find_overlaps",
    "OverlapResult",
    "heavy_connectivity_matching",
    "connected_components",
]
