"""Shared utilities for the per-figure/per-table benchmark harness.

Every bench prints the same rows/series its paper counterpart reports
(visible with ``pytest benchmarks/... -s``) and *asserts* the shape —
who wins, in which direction each step moves, where crossovers fall — so
``pytest benchmarks/ --benchmark-only`` green means the paper's
qualitative claims reproduce.
"""

from __future__ import annotations

from repro.simmpi import CommTracker
from repro.summa import batched_summa3d
from repro.utils.timing import StepTimes

#: the paper's step breakdown, in presentation order
STEPS = (
    "Symbolic",
    "A-Broadcast",
    "B-Broadcast",
    "Local-Multiply",
    "Merge-Layer",
    "AllToAll-Fiber",
    "Merge-Fiber",
)

COMM_STEPS = ("Symbolic", "A-Broadcast", "B-Broadcast", "AllToAll-Fiber")
COMP_STEPS = ("Local-Multiply", "Merge-Layer", "Merge-Fiber")


def run_breakdown(a, b, *, nprocs, layers, batches=None, memory_budget=None):
    """One metered BatchedSUMMA3D run -> (StepTimes, CommTracker, result)."""
    tracker = CommTracker()
    result = batched_summa3d(
        a, b, nprocs=nprocs, layers=layers, batches=batches,
        memory_budget=memory_budget, tracker=tracker,
    )
    return result.step_times, tracker, result


def comm_comp_split(times: StepTimes) -> tuple[float, float]:
    """(communication seconds, computation seconds) of a breakdown."""
    comm = sum(times.get(s) for s in COMM_STEPS)
    comp = sum(times.get(s) for s in COMP_STEPS)
    return comm, comp


def print_series(title: str, header: list[str], rows: list[list]) -> None:
    """Print one figure's data series as an aligned table."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(h)), max((len(_fmt(r[i])) for r in rows), default=0))
        for i, h in enumerate(header)
    ]
    print("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(_fmt(v).rjust(w) for v, w in zip(row, widths)))


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)
