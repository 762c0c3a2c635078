"""repro — Communication-avoiding, memory-constrained SpGEMM at scale.

A from-scratch Python reproduction of *Hussain, Selvitopi, Buluç, Azad,
"Communication-Avoiding and Memory-Constrained Sparse Matrix-Matrix
Multiplication at Extreme Scale" (IPDPS 2021)*: 2D/3D sparse SUMMA, the
distributed symbolic step, BatchedSUMMA3D, sort-free local kernels, a
simulated-MPI runtime with exact communication metering, and an α–β
performance model that regenerates the paper's figures.

Quickstart::

    import repro

    A = repro.random_sparse(512, 512, nnz=8000, seed=1)
    result = repro.batched_summa3d(A, A, nprocs=16, layers=4)
    C = result.matrix

See ``examples/quickstart.py`` for a complete tour.
"""

from .errors import (
    CommError,
    DistributionError,
    FormatError,
    GridError,
    MemoryBudgetError,
    MemoryBudgetExceededError,
    PlannerError,
    ReproError,
    ShapeError,
    SpmdError,
)
from .mem import MemoryLedger, nbytes_of
from .sparse import (
    SparseMatrix,
    col_concat,
    col_split,
    diag,
    eye,
    from_dense,
    from_edges,
    load_matrix,
    load_matrix_market,
    merge_hash,
    merge_heap,
    merge_partials,
    multiply,
    prune_threshold,
    prune_topk_per_column,
    random_sparse,
    save_matrix,
    save_matrix_market,
    spgemm_esc,
    spgemm_hash,
    spgemm_heap,
    spgemm_hybrid,
    spgemm_reference,
    symbolic_flops,
    symbolic_nnz,
    transpose,
    tril,
    triu,
    zeros,
)
from .kernels import LocalKernel, available_kernels, get_kernel
from .sparse.semiring import MAX_MIN, MIN_PLUS, OR_AND, PLUS_TIMES, Semiring, get_semiring

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "ShapeError",
    "FormatError",
    "GridError",
    "DistributionError",
    "MemoryBudgetError",
    "MemoryBudgetExceededError",
    "CommError",
    "SpmdError",
    "PlannerError",
    # memory accounting
    "MemoryLedger",
    "nbytes_of",
    # sparse core
    "SparseMatrix",
    "eye",
    "diag",
    "zeros",
    "from_dense",
    "from_edges",
    "random_sparse",
    "transpose",
    "tril",
    "triu",
    "col_split",
    "col_concat",
    "prune_threshold",
    "prune_topk_per_column",
    "multiply",
    "spgemm_esc",
    "spgemm_hash",
    "spgemm_heap",
    "spgemm_hybrid",
    "spgemm_reference",
    "symbolic_flops",
    "symbolic_nnz",
    "merge_hash",
    "merge_heap",
    "merge_partials",
    "save_matrix",
    "load_matrix",
    "save_matrix_market",
    "load_matrix_market",
    # local kernels
    "LocalKernel",
    "get_kernel",
    "available_kernels",
    # semirings
    "Semiring",
    "get_semiring",
    "PLUS_TIMES",
    "MIN_PLUS",
    "MAX_MIN",
    "OR_AND",
    # distributed API (populated below)
    "ProcGrid3D",
    "summa2d",
    "summa3d",
    "symbolic3d",
    "batched_summa3d",
    "batched_summa3d_rows",
    "run_plan",
    "ExecSpec",
    "ExecPlan",
    "__version__",
]

# distributed layer re-exports — imported last so the sparse substrate has
# no import-time dependency on the distributed modules
from .grid import ProcGrid3D  # noqa: E402
from .plan import ExecPlan, ExecSpec  # noqa: E402
from .summa import (  # noqa: E402
    batched_summa3d,
    batched_summa3d_rows,
    run_plan,
    summa2d,
    summa3d,
    symbolic3d,
)

# subpackages exposed for attribute access (repro.apps.markov_cluster, ...)
from . import apps, comm, data, kernels, mem, model, simmpi, sparse, summa, grid, utils  # noqa: E402,F401
