"""Per-step wall-clock breakdowns.

The distributed algorithms report per-step times (A-Broadcast, B-Broadcast,
Local-Multiply, Merge-Layer, AllToAll-Fiber, Merge-Fiber, Symbolic) exactly
as the paper's figures break them down.  :class:`StepTimes` is the common
accumulator used both by real (measured) runs and by the analytic predictor,
so benches can print measured and modelled breakdowns side by side.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field


@dataclass
class StepTimes:
    """Accumulated seconds per named algorithm step.

    Addition merges two breakdowns; scalar division supports averaging over
    ranks or iterations.  Unknown steps are created on first use so the same
    class serves SUMMA2D (4 steps) and BATCHEDSUMMA3D (7 steps).
    """

    seconds: dict[str, float] = field(default_factory=dict)

    def add(self, step: str, secs: float) -> None:
        self.seconds[step] = self.seconds.get(step, 0.0) + float(secs)

    def get(self, step: str) -> float:
        return self.seconds.get(step, 0.0)

    def total(self) -> float:
        return float(sum(self.seconds.values()))

    def max_with(self, other: "StepTimes") -> "StepTimes":
        """Element-wise max — the critical-path combination across ranks."""
        keys = set(self.seconds) | set(other.seconds)
        return StepTimes({k: max(self.get(k), other.get(k)) for k in keys})

    @staticmethod
    def critical_path(per_rank: Iterable["StepTimes"]) -> "StepTimes":
        """Max over ranks per step: the time the slowest rank spends in each
        step, which is what a bulk-synchronous distributed run observes."""
        out = StepTimes()
        for st in per_rank:
            out = out.max_with(st)
        return out

    def as_dict(self) -> Mapping[str, float]:
        return dict(self.seconds)

    def format_table(self, title: str = "") -> str:
        lines = []
        if title:
            lines.append(title)
        width = max((len(k) for k in self.seconds), default=4)
        for step in sorted(self.seconds):
            lines.append(f"  {step:<{width}}  {self.seconds[step]:12.6f} s")
        lines.append(f"  {'TOTAL':<{width}}  {self.total():12.6f} s")
        return "\n".join(lines)
