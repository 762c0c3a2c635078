"""`repro.serve` — a crash-transparent, overload-safe multi-tenant
SpGEMM service over a pool of resident grids.

The paper's α–β makespan model and Table III memory model decide whether
a run fits *before it starts*; this package turns them into admission
predicates for a stream of jobs.  Admission plans each submission once,
through a :class:`PlanCache` keyed by the operands' exact structure
(:attr:`~repro.sparse.SparseMatrix.structure_key`), so a graph submitted
again is neither re-planned nor re-hashed.  See DESIGN.md "Serving and
overload robustness" and docs/API.md for the full lifecycle and error
taxonomy.

>>> from repro.serve import SpgemmService
>>> with SpgemmService(grids=2, nprocs=4, world="threads") as svc:
...     handle = svc.submit(tenant="alice", a=matrix, deadline_s=30.0)
...     product = handle.result(timeout=60).matrix
"""

from ..errors import (
    AdmissionRejected,
    DeadlineExceededError,
    JobCancelledError,
    ServeError,
)
from .admission import KIND_KERNELS, REJECT_REASONS, AdmissionController
from .breaker import DEGRADED, HEALTHY, QUARANTINED, CircuitBreaker
from .job import JOB_KINDS, JobHandle, JobResult, JobSpec
from .plan_cache import PlanCache
from .pool import GridPool, GridSlot
from .queue import FairQueue
from .service import SpgemmService

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "CircuitBreaker",
    "DEGRADED",
    "DeadlineExceededError",
    "FairQueue",
    "GridPool",
    "GridSlot",
    "HEALTHY",
    "JOB_KINDS",
    "JobCancelledError",
    "JobHandle",
    "JobResult",
    "JobSpec",
    "KIND_KERNELS",
    "PlanCache",
    "QUARANTINED",
    "REJECT_REASONS",
    "ServeError",
    "SpgemmService",
]
