"""Distributed SpGEMM algorithms (the paper's core contribution).

* :func:`summa2d` — Alg. 1, 2D sparse SUMMA;
* :func:`summa3d` — Alg. 2, communication-avoiding 3D sparse SUMMA;
* :func:`symbolic3d` — Alg. 3, distributed symbolic step computing the
  number of batches a memory budget allows;
* :func:`batched_summa3d` — Alg. 4, the integrated communication-avoiding,
  memory-constrained BatchedSUMMA3D.

All run on the simulated-MPI runtime; pass a
:class:`~repro.simmpi.CommTracker` to meter every collective.

The drivers no longer hard-code their stage order: they compile to the
execution-plan IR of :mod:`repro.summa.exec` and run under either the
:class:`~repro.summa.exec.SequentialExecutor` (``overlap="off"``) or the
:class:`~repro.summa.exec.PipelinedExecutor` (``overlap="depth1"``),
with structured per-op tracing from :mod:`repro.summa.trace`.
"""

from .batched import (
    batched_summa3d,
    batched_summa3d_rows,
    run_plan,
    summa2d,
    summa3d,
)
from .exec import (
    OVERLAP_MODES,
    ExecutionPlan,
    PipelinedExecutor,
    SequentialExecutor,
    StageOp,
    compile_batched_summa3d,
    get_executor,
)
from .planner import (
    auto_config,
    batches_lower_bound,
    batches_upper_bound,
    choose_backend,
    recommend_layers,
)
from .result import SummaResult, SymbolicResult
from .symbolic3d import symbolic3d
from .trace import (
    TraceSpan,
    Tracer,
    export_chrome_trace,
    merge_traces,
    to_chrome_trace,
    validate_chrome_trace,
    validate_chrome_trace_file,
)

__all__ = [
    "summa2d",
    "batched_summa3d_rows",
    "summa3d",
    "symbolic3d",
    "batched_summa3d",
    "run_plan",
    "SummaResult",
    "SymbolicResult",
    "auto_config",
    "batches_lower_bound",
    "batches_upper_bound",
    "choose_backend",
    "recommend_layers",
    # execution-plan IR and executors
    "StageOp",
    "ExecutionPlan",
    "SequentialExecutor",
    "PipelinedExecutor",
    "compile_batched_summa3d",
    "get_executor",
    "OVERLAP_MODES",
    # structured tracing
    "Tracer",
    "TraceSpan",
    "merge_traces",
    "to_chrome_trace",
    "export_chrome_trace",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
]
