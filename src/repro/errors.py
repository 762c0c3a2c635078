"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the failure domain (shape mismatches,
grid construction, memory budget exhaustion, simulated-MPI faults, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library.

    Every instance carries a ``context`` dict — uniform, machine-readable
    failure coordinates (``rank``, ``op``, ``peer``, ``tag``, ...) that
    raise sites attach via :meth:`with_context`.  The CLI's friendly
    error path prints it; tests assert on it instead of parsing messages.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.context: dict = {}

    def with_context(self, **fields) -> "ReproError":
        """Attach failure coordinates; returns ``self`` for raise chaining."""
        self.context.update(fields)
        return self


class ShapeError(ReproError, ValueError):
    """Operand dimensions are incompatible (e.g. ``A @ B`` with
    ``A.ncols != B.nrows``, or concatenating matrices of differing heights)."""


class FormatError(ReproError, ValueError):
    """A sparse container violates its structural invariants (non-monotone
    ``indptr``, out-of-range row indices, mismatched array lengths, ...)."""


class GridError(ReproError, ValueError):
    """A process grid cannot be formed (``p`` not divisible into an
    ``sqrt(p/l) x sqrt(p/l) x l`` grid, rank out of range, ...)."""


class DistributionError(ReproError, ValueError):
    """A matrix cannot be distributed or collected on the given grid
    (tile shape mismatch, wrong communicator, inconsistent batch count)."""


class MemoryBudgetError(ReproError, RuntimeError):
    """The symbolic step determined that the multiplication cannot fit:
    the inputs alone exceed the aggregate memory budget, so no number of
    batches can make the computation feasible (paper Sec. II-B requires
    ``M > nnz(A) + nnz(B)``)."""


class CommError(ReproError, RuntimeError):
    """A simulated-MPI collective was used incorrectly (mismatched
    participation, invalid root, communicator misuse)."""


class TransientCommError(ReproError, RuntimeError):
    """An injected transient communication fault: the attempt failed but
    retrying the same operation is expected to succeed.  Deliberately *not*
    a :class:`CommError` subclass — the engine filters ``CommError`` as
    abort cascade, while an unretried transient fault is a genuine failure
    that must keep its rank attribution."""


class HangError(ReproError, RuntimeError):
    """The simulated-MPI watchdog fired.

    ``kind`` classifies the hang:

    * ``"deadlock"`` — the wait-for graph of blocked ranks contains a
      cycle that persisted across two watchdog sweeps with no progress —
      a genuine cyclic deadlock, reported long before the flat timeout;
    * ``"peer-exited"`` — a blocked rank waits on a peer whose thread
      already returned and can never arrive;
    * ``"timeout"`` — the hard wall-clock backstop expired without a
      diagnosable cycle (e.g. a peer stuck outside any communicator).

    ``cycle`` names the global ranks forming the cycle (empty for
    non-cyclic kinds) and ``dump`` maps each involved rank to its wait
    record: op, communicator, peer set, tag, attempt counters, seconds
    blocked.  Deliberately *not* a :class:`CommError` — a hang is a
    genuine failure that must keep rank attribution, not be filtered as
    an abort cascade."""

    def __init__(self, message: str, *, kind: str = "timeout",
                 cycle=(), dump: dict | None = None):
        super().__init__(message)
        self.kind = kind
        self.cycle = tuple(cycle)
        self.dump = dict(dump or {})
        self.with_context(kind=kind, cycle=list(self.cycle))


class HealError(ReproError, RuntimeError):
    """Rank deaths under ``heal=True`` outlasted the re-entry round
    budget.  The run aborts with a checkpoint pointer."""


class CorruptPayloadError(ReproError, RuntimeError):
    """A received payload failed its per-message checksum even after the
    transport's bounded redelivery attempts — either persistent injected
    corruption or a checksum/plan bug."""


class MemoryPressureError(ReproError, RuntimeError):
    """A rank hit memory pressure mid-batch (the symbolic estimate of
    Alg. 3 is an estimate, not a guarantee).  Retryable at the driver
    level: :func:`repro.summa.batched_summa3d` reacts by doubling the
    batch count — the paper's own memory lever — and re-running."""

    def __init__(self, message: str, *, batches: int | None = None):
        super().__init__(message)
        self.batches = batches


class MemoryBudgetExceededError(MemoryPressureError):
    """Real (measured) budget overrun: the :class:`~repro.mem.MemoryLedger`
    found the per-rank high-water mark above the enforced budget at a
    stage boundary under ``enforce="strict"``.  Deterministic — the
    high-water mark is a pure function of the program, so the same run
    raises at the same (batch, stage) every time.  A
    :class:`MemoryPressureError` subclass so the batched driver's
    graceful-degradation path (double the batch count and re-run) treats
    it exactly like injected memory pressure."""


class RankCrashError(ReproError, RuntimeError):
    """The hard death of one rank (an injected crash, the stand-in for a
    node failure; under the process world a worker process that really
    died).  Not retryable inside the region; surfaces through
    :class:`SpmdError` with rank attribution, pointing at the checkpoint
    when one exists — unless the run has ``heal=True``, where the driver
    re-enters from the last checkpointed batch
    (:func:`repro.summa.batched._amend`)."""


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint directory is unusable (corrupt manifest, missing batch
    file, or a manifest that belongs to a different multiplication)."""


class SpmdError(ReproError, RuntimeError):
    """One or more ranks of an SPMD region raised; carries the per-rank
    exceptions so the caller can inspect every failure, not just the first.

    ``checkpoint_dir`` is set when the failed run was checkpointing: the
    completed batches survive there and ``resume=True`` continues from
    them instead of batch 0.
    """

    def __init__(
        self,
        failures: dict[int, BaseException],
        checkpoint_dir: str | None = None,
    ):
        self.failures = dict(failures)
        self.checkpoint_dir = checkpoint_dir
        detail = "; ".join(
            f"rank {r}: {type(e).__name__}: {e}" for r, e in sorted(self.failures.items())
        )
        message = f"{len(self.failures)} rank(s) failed: {detail}"
        if checkpoint_dir is not None:
            message += (
                f" [checkpoint with completed batches at {checkpoint_dir!r}; "
                "rerun with resume=True to continue]"
            )
        super().__init__(message)


class PlannerError(ReproError, ValueError):
    """The layer/batch planner was given an infeasible configuration."""


class ServeError(ReproError, RuntimeError):
    """Base class for the :mod:`repro.serve` job-service failure domain.

    Everything the service raises at a client is a ``ServeError`` (or a
    pre-existing :class:`ReproError` passed through from execution), so a
    tenant can catch the whole serving taxonomy in one clause while the
    per-class ``context`` dict keeps rejections machine-classifiable.
    """


class AdmissionRejected(ServeError):
    """The admission controller refused a job *before* it entered the
    system — the classified alternative to queue collapse.

    ``reason`` is one of :data:`~repro.serve.admission.REJECT_REASONS`:

    * ``"queue-full"`` — the tenant's bounded queue is at capacity
      (per-tenant backpressure);
    * ``"overload"`` — the whole service's predicted backlog exceeds its
      shed limit (load shedding, so accepted-job latency stays bounded);
    * ``"deadline"`` — predicted queue wait + predicted makespan already
      exceed the job's deadline: it would be admitted only to expire;
    * ``"tenant-budget"`` — the job's predicted memory would push the
      tenant's in-flight ledger over its ``repro.mem`` budget;
    * ``"memory"`` — no (layers, batches) configuration fits the job in
      the grid's memory budget (the Alg. 3 feasibility test fails);
    * ``"unsupported"`` — the job kind/kernel combination is not served;
    * ``"shutdown"`` — the service is draining and accepts nothing new.

    The same coordinates ride ``err.context`` (``reason``, ``tenant``,
    ``job``, plus reason-specific fields), the uniform surface the CLI
    prints and tests assert on.
    """

    def __init__(self, message: str, *, reason: str, tenant=None, job=None):
        super().__init__(message)
        self.reason = str(reason)
        self.with_context(reason=self.reason, tenant=tenant, job=job)


class DeadlineExceededError(ServeError):
    """A job's deadline expired.  ``phase`` records where: ``"queued"``
    (the deadline passed before a grid picked the job up) or
    ``"running"`` (the watchdog's wait-record plumbing — the job's
    remaining deadline is installed as the execution world's blocking-op
    timeout, so an overrunning run surfaces as a classified
    :class:`HangError` that the service converts to this)."""

    def __init__(self, message: str, *, phase: str = "queued",
                 tenant=None, job=None, deadline_s=None):
        super().__init__(message)
        self.phase = str(phase)
        self.with_context(phase=self.phase, tenant=tenant, job=job,
                          deadline_s=deadline_s)


class JobCancelledError(ServeError):
    """The job was cancelled by its submitter while still queued (running
    jobs complete — SPMD regions are not preemptible)."""
