"""Distributed SpGEMM algorithms (the paper's core contribution).

* :func:`summa2d` — Alg. 1, 2D sparse SUMMA;
* :func:`summa3d` — Alg. 2, communication-avoiding 3D sparse SUMMA;
* :func:`symbolic3d` — Alg. 3, distributed symbolic step computing the
  number of batches a memory budget allows;
* :func:`batched_summa3d` — Alg. 4, the integrated communication-avoiding,
  memory-constrained BatchedSUMMA3D.

All run on the simulated-MPI runtime; pass a
:class:`~repro.simmpi.CommTracker` to meter every collective.

Every driver runs one rank program, :func:`repro.summa.exec.run_batches`
— Alg. 4 written as a loop, with ``overlap="depth1"`` one branch in it —
with structured per-step tracing from :mod:`repro.summa.trace`.
"""

from .batched import (
    batched_summa3d,
    batched_summa3d_rows,
    run_plan,
    summa2d,
    summa3d,
)
from .exec import MERGE_POLICIES, OVERLAP_MODES, STEP_KINDS
from .planner import (
    auto_config,
    batches_lower_bound,
    batches_upper_bound,
    choose_backend,
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
    # the rank program's vocabulary
    "OVERLAP_MODES",
    "MERGE_POLICIES",
    "STEP_KINDS",
    # structured tracing
    "Tracer",
    "TraceSpan",
    "merge_traces",
    "to_chrome_trace",
    "export_chrome_trace",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
]
