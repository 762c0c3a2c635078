"""Result containers for the distributed algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..grid.grid3d import ProcGrid3D
from ..simmpi.tracker import CommTracker
from ..sparse.matrix import SparseMatrix
from ..utils.timing import StepTimes


@dataclass
class SummaResult:
    """Outcome of a distributed SpGEMM run.

    Attributes
    ----------
    matrix:
        The gathered global product, or ``None`` when the caller opted not
        to keep it (memory-constrained usage where batches were consumed by
        a callback).
    grid:
        The process grid the run used.
    batches:
        Number of batches executed (1 unless memory-constrained).
    step_times:
        Critical-path (max over ranks) seconds per algorithm step.
    per_rank_times:
        Per-rank step breakdowns, indexed by global rank.
    tracker:
        Communication meter with one event per collective.
    max_local_bytes:
        Highest simultaneous per-process memory (bytes, at r = 24 B/nonzero
        accounting) any rank reached — the quantity the paper's batching
        keeps under ``M / p``.  Kept as an alias of
        ``info["memory"]["high_water_total"]``, the merged
        :class:`~repro.mem.MemoryLedger` mark (see :attr:`memory`).
    info:
        Run metadata (kernel, semiring, symbolic statistics, ...).
    trace:
        Per-rank :class:`~repro.summa.trace.Tracer` span streams (empty
        for runs predating structured tracing); :meth:`export_trace`
        merges them into a chrome://tracing timeline.
    """

    matrix: SparseMatrix | None
    grid: ProcGrid3D
    batches: int
    step_times: StepTimes
    per_rank_times: list[StepTimes]
    tracker: CommTracker
    max_local_bytes: int
    info: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)

    def __post_init__(self) -> None:
        # max_local_bytes is derived state: when the uniform memory block
        # is present it wins, so the two can never drift apart.
        mem = self.info.get("memory")
        if mem and mem.get("high_water_total"):
            self.max_local_bytes = int(mem["high_water_total"])

    @property
    def memory(self) -> dict:
        """The uniform memory report: per-category high-water marks
        (``categories``), per-batch peaks (``batch_peaks``), the enforced
        budget and mode, and — when symbolic statistics were available —
        the Table III prediction (``model``) and measured-vs-predicted
        ratio (``model_error``).  Empty dict for runs predating the
        :class:`~repro.mem.MemoryLedger`."""
        return self.info.get("memory", {})

    @property
    def fault_stats(self) -> dict | None:
        """Fault-injection summary for runs that injected faults: planned
        and fired :class:`~repro.simmpi.faults.FaultSpec` counts, retries
        observed, total simulated backoff, and the ordered event list.
        ``None`` on fault-free runs."""
        return self.info.get("fault_stats")

    def export_trace(self, path: str) -> None:
        """Write the run's merged span timeline as chrome://tracing JSON
        (open via chrome://tracing "Load" or https://ui.perfetto.dev)."""
        from .trace import export_chrome_trace, merge_traces

        export_chrome_trace(merge_traces(self.trace), path)

    def __repr__(self) -> str:
        nnz = self.matrix.nnz if self.matrix is not None else "discarded"
        return (
            f"SummaResult(grid={self.grid!r}, batches={self.batches}, "
            f"nnz(C)={nnz}, total_time={self.step_times.total():.4f}s)"
        )


@dataclass
class SymbolicResult:
    """Outcome of the distributed symbolic step (Alg. 3).

    ``batches`` is the exact b of Alg. 3 line 12; the ``max_*`` fields are
    the AllReduce-max quantities it is computed from.
    """

    batches: int
    max_nnz_c: int
    max_nnz_a: int
    max_nnz_b: int
    memory_budget: int
    grid: ProcGrid3D
    step_times: StepTimes
    tracker: CommTracker
    info: dict = field(default_factory=dict)

    def __repr__(self) -> str:
        return (
            f"SymbolicResult(b={self.batches}, maxnnzC={self.max_nnz_c}, "
            f"grid={self.grid!r})"
        )
