"""Job objects: what a tenant submits, what the service tracks, what the
client holds while waiting.

Lifecycle (see DESIGN.md "Serving and overload robustness")::

    submit() ──rejected──► AdmissionRejected (raised synchronously)
       │
       ▼
    QUEUED ──cancel()──► CANCELLED
       │ deadline passes while queued ──► EXPIRED
       ▼
    RUNNING ──► DONE | FAILED | EXPIRED (deadline during execution)

Running jobs are never preempted — an SPMD region completes or fails as
a unit — so ``cancel()`` only wins while the job is still queued.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..errors import ServeError
from ..sparse.matrix import SparseMatrix

#: job kinds the service executes
JOB_KINDS = ("multiply", "masked_spgemm", "spmm", "square_chain")

# terminal + live job states
PENDING = "pending"
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
EXPIRED = "expired"

TERMINAL_STATES = (DONE, FAILED, CANCELLED, EXPIRED)


@dataclass
class JobSpec:
    """One unit of tenant work.

    ``b`` defaults to ``a`` (squaring).  ``mask`` is required for
    ``masked_spgemm``; for ``spmm`` ``b`` is the dense feature panel.
    ``rounds`` applies to ``square_chain`` only — the HipMCL-style
    iterated squaring pipeline executed on the resident grid.
    ``deadline_s`` is a wall-clock budget from admission: it gates
    admission, bounds queue wait, and is installed as the execution
    world's watchdog timeout.  ``memory_budget`` (aggregate bytes)
    overrides the service's grid budget for this job's plan.
    """

    tenant: str
    kind: str = "multiply"
    a: SparseMatrix | None = None
    b: object | None = None
    mask: SparseMatrix | None = None
    rounds: int = 2
    semiring: str = "plus_times"
    deadline_s: float | None = None
    memory_budget: int | None = None
    label: str | None = None
    #: deterministic fault plan injected into this job's execution —
    #: the same first-class testing hook the rest of the library exposes
    #: (chaos tests crash a service job's ranks for real this way)
    faults: object | None = None

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ServeError(
                f"unknown job kind {self.kind!r}; expected one of {JOB_KINDS}"
            ).with_context(reason="unsupported", kind=self.kind)
        if self.a is None:
            raise ServeError("a JobSpec needs an 'a' operand")
        if self.b is None and self.kind != "spmm":
            self.b = self.a
        if self.kind == "spmm" and self.b is None:
            raise ServeError('kind="spmm" needs b= (the dense feature panel)')
        if self.kind == "masked_spgemm" and self.mask is None:
            raise ServeError('kind="masked_spgemm" needs mask=')
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ServeError(
                f"deadline_s must be > 0 seconds, got {self.deadline_s}"
            )
        if self.kind == "square_chain" and self.rounds < 1:
            raise ServeError(f"rounds must be >= 1, got {self.rounds}")


@dataclass
class JobResult:
    """What a completed job hands back to its tenant."""

    matrix: object  # SparseMatrix, dense ndarray (spmm), per-kind payload
    info: dict
    plan: dict
    latency_s: float
    queued_s: float
    heals: int = 0
    cache_hit: bool = False
    slot: int | None = None


class Job:
    """Internal record — one submitted job moving through the service."""

    _ids = iter(range(1, 1 << 62))
    _ids_lock = threading.Lock()

    def __init__(self, spec: JobSpec, *, plan=None, cache_hit: bool = False,
                 cost_s: float = 0.0, charge=None) -> None:
        with Job._ids_lock:
            self.id = next(Job._ids)
        self.spec = spec
        self.plan = plan            # ExecPlan from admission
        self.cache_hit = bool(cache_hit)
        #: DRR cost unit — the plan's predicted (modelled) seconds
        self.cost_s = float(cost_s)
        #: tenant-ledger allocations to release at completion
        self.charge = charge
        self.state = PENDING
        self.submitted_at = time.monotonic()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: absolute monotonic deadline (None = no deadline)
        self.deadline_at = (
            None if spec.deadline_s is None
            else self.submitted_at + float(spec.deadline_s)
        )
        self.slot: int | None = None
        self._done = threading.Event()
        self._lock = threading.Lock()
        self.result: JobResult | None = None
        self.error: BaseException | None = None

    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        return self.spec.label or f"job-{self.id}"

    def remaining_deadline(self, now: float | None = None) -> float | None:
        if self.deadline_at is None:
            return None
        return self.deadline_at - (time.monotonic() if now is None else now)

    def transition(self, state: str) -> bool:
        """Move to ``state`` unless already terminal; returns success."""
        with self._lock:
            if self.state in TERMINAL_STATES:
                return False
            self.state = state
            if state == RUNNING:
                self.started_at = time.monotonic()
            return True

    def finish(self, result: JobResult) -> bool:
        with self._lock:
            if self.state in TERMINAL_STATES:
                return False
            self.state = DONE
            self.result = result
            self.finished_at = time.monotonic()
        self._done.set()
        return True

    def fail(self, error: BaseException, state: str = FAILED) -> bool:
        with self._lock:
            if self.state in TERMINAL_STATES:
                return False
            self.state = state
            self.error = error
            self.finished_at = time.monotonic()
        self._done.set()
        return True

    def __repr__(self) -> str:
        return (
            f"Job({self.name!r}, tenant={self.spec.tenant!r}, "
            f"kind={self.spec.kind!r}, state={self.state!r})"
        )


class JobHandle:
    """The client's view of a submitted job."""

    def __init__(self, job: Job, service) -> None:
        self._job = job
        self._service = service

    @property
    def id(self) -> int:
        return self._job.id

    @property
    def tenant(self) -> str:
        return self._job.spec.tenant

    @property
    def state(self) -> str:
        return self._job.state

    def done(self) -> bool:
        return self._job._done.is_set()

    def cancel(self) -> bool:
        """Cancel if still queued; running/terminal jobs are unaffected.
        Returns whether this call cancelled the job."""
        return self._service._cancel(self._job)

    def result(self, timeout: float | None = None) -> JobResult:
        """Block until the job finishes and return its
        :class:`JobResult`, re-raising the job's classified error on
        failure and :class:`TimeoutError` if ``timeout`` elapses first."""
        if not self._job._done.wait(timeout):
            raise TimeoutError(
                f"{self._job.name} still {self._job.state} after {timeout}s"
            )
        if self._job.error is not None:
            raise self._job.error
        assert self._job.result is not None
        return self._job.result

    def exception(self, timeout: float | None = None) -> BaseException | None:
        if not self._job._done.wait(timeout):
            raise TimeoutError(
                f"{self._job.name} still {self._job.state} after {timeout}s"
            )
        return self._job.error

    def __repr__(self) -> str:
        return f"JobHandle({self._job!r})"
