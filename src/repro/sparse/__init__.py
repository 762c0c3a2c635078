"""From-scratch sparse-matrix substrate.

This package implements the local (per-process) sparse machinery the paper's
distributed algorithms sit on: a CSC container (:class:`SparseMatrix`),
constructors, structural ops (transpose, column split/concat, pruning),
Gustavson-style local SpGEMM kernels with pluggable accumulators
(hash / heap / hybrid / SPA / vectorized ESC), symbolic multiplication, and
k-way merge kernels (sort-free hash merge vs. sorted heap merge).

``scipy.sparse`` is deliberately *not* used anywhere in this package; it
serves only as an independent oracle inside the test suite.
"""

from .matrix import SparseMatrix
from .coo import coo_to_csc_arrays, dedup_coo, sort_coo
from .construct import (
    diag,
    eye,
    from_dense,
    from_edges,
    random_sparse,
    zeros,
)
from .ops import (
    col_concat,
    col_slice,
    col_split,
    prune_threshold,
    prune_topk_per_column,
    scale_columns,
    transpose,
    tril,
    triu,
)
from .merge import merge_hash, merge_heap, merge_grouped, merge_partials
from .spgemm import (
    KernelSuite,
    get_suite,
    multiply,
    spgemm_esc,
    spgemm_hash,
    spgemm_heap,
    spgemm_hybrid,
    spgemm_reference,
    spgemm_spa,
)
from .spgemm.symbolic import symbolic_flops, symbolic_nnz
from .io import load_matrix, load_matrix_market, save_matrix, save_matrix_market

__all__ = [
    "SparseMatrix",
    "coo_to_csc_arrays",
    "dedup_coo",
    "sort_coo",
    "diag",
    "eye",
    "from_dense",
    "from_edges",
    "random_sparse",
    "zeros",
    "col_concat",
    "col_slice",
    "col_split",
    "prune_threshold",
    "prune_topk_per_column",
    "scale_columns",
    "transpose",
    "tril",
    "triu",
    "merge_hash",
    "merge_heap",
    "merge_grouped",
    "merge_partials",
    "KernelSuite",
    "get_suite",
    "multiply",
    "spgemm_esc",
    "spgemm_hash",
    "spgemm_heap",
    "spgemm_hybrid",
    "spgemm_reference",
    "spgemm_spa",
    "symbolic_flops",
    "symbolic_nnz",
    "load_matrix",
    "load_matrix_market",
    "save_matrix",
    "save_matrix_market",
]
