"""α–β performance model (paper Tables II & III).

The paper's scaling analysis is itself an α–β model; this package encodes
it so the evaluation figures can be regenerated at paper scale (16K-262K
cores) from either closed-form matrix statistics or volumes measured
exactly on the simulated-MPI runtime.

* :mod:`machine` — machine presets (Cori-KNL, Cori-Haswell, hyperthreaded
  variants) with latency, bandwidth and sparse-kernel rates;
* :mod:`complexity` — the closed forms of Tables II and III;
* :mod:`predictor` — per-step and total time projection, strong-scaling
  series, and batch-count estimation at paper scale;
* :mod:`memory` — the Table III / Sec. III-B per-process memory estimate
  (the counterpart the α–β time model lacked) and its calibration fit
  against measured :class:`~repro.mem.MemoryLedger` marks.
"""

from .machine import (
    CORI_HASWELL,
    CORI_KNL,
    CORI_KNL_HT,
    MachineSpec,
)
from .complexity import (
    comm_complexity,
    comp_complexity,
    total_comm_time,
)
from .predictor import (
    ScalePoint,
    estimate_dk_nnz,
    overlapped_makespan,
    parallel_efficiency,
    predict_makespan,
    predict_steps,
    strong_scaling_series,
)
from .memory import (
    MemoryFit,
    batches_for_budget,
    estimate_batches,
    estimate_max_tile_stats,
    fit_memory_model,
    predict_memory,
)

__all__ = [
    "MachineSpec",
    "CORI_KNL",
    "CORI_HASWELL",
    "CORI_KNL_HT",
    "comm_complexity",
    "comp_complexity",
    "total_comm_time",
    "predict_steps",
    "predict_makespan",
    "overlapped_makespan",
    "estimate_batches",
    "estimate_dk_nnz",
    "parallel_efficiency",
    "strong_scaling_series",
    "ScalePoint",
    "predict_memory",
    "batches_for_budget",
    "estimate_max_tile_stats",
    "fit_memory_model",
    "MemoryFit",
]
