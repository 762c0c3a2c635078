"""Structured per-step tracing for the rank program.

There are no inline ``time.perf_counter()`` pairs in the algorithm:
:func:`repro.summa.exec.step` runs every step of the loop inside a
:class:`TraceSpan` — (rank, op, stage, batch, bytes, t0/t1) — collected
per rank by a :class:`Tracer`.  Spans reduce to the
:class:`~repro.utils.timing.StepTimes` breakdowns the paper's figures
use (and :meth:`StepTimes.critical_path` across ranks), and the full
span stream additionally exports a `chrome://tracing
<https://www.chromium.org/developers/how-tos/trace-event-profiling-tool/>`_
timeline: one track per rank, one slice per op, with stage/batch/bytes
in the slice arguments.

This module also owns the canonical step labels.  They live here — not
in :mod:`repro.summa.core` — so the communication backends
(:mod:`repro.comm`) can tag their prefetch traffic with the same labels
without importing the SPMD core (which imports them back).
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..utils.timing import StepTimes

# --------------------------------------------------------------------- #
# canonical step labels (the paper's breakdown vocabulary)
# --------------------------------------------------------------------- #

STEP_SYMBOLIC = "Symbolic"
STEP_COMM_PLAN = "Comm-Plan"
STEP_A_BCAST = "A-Broadcast"
STEP_B_BCAST = "B-Broadcast"
STEP_LOCAL_MULTIPLY = "Local-Multiply"
STEP_MERGE_LAYER = "Merge-Layer"
STEP_ALLTOALL_FIBER = "AllToAll-Fiber"
STEP_MERGE_FIBER = "Merge-Fiber"
STEP_POSTPROCESS = "Batch-Postprocess"

#: the seven steps every figure in the paper's evaluation stacks.
ALL_STEPS = (
    STEP_SYMBOLIC,
    STEP_A_BCAST,
    STEP_B_BCAST,
    STEP_LOCAL_MULTIPLY,
    STEP_MERGE_LAYER,
    STEP_ALLTOALL_FIBER,
    STEP_MERGE_FIBER,
)


@dataclass
class TraceSpan:
    """One executed operation on one rank.

    ``timed=False`` marks bookkeeping ops (column splits, piece
    accounting) that appear on the timeline but are excluded from the
    :class:`StepTimes` breakdown, which only ever contained the paper's
    metered steps.

    A span from :meth:`Tracer.span` is its own context manager: entering
    stamps ``t0``, leaving stamps ``t1`` and files the span with its
    tracer (``sink``, dropped once filed).
    """

    rank: int
    op: str
    stage: int | None
    batch: int | None
    nbytes: int
    t0: float
    t1: float
    timed: bool = True
    sink: list | None = field(default=None, repr=False, compare=False)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def __enter__(self) -> TraceSpan:
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.t1 = time.perf_counter()
        sink, self.sink = self.sink, None
        sink.append(self)


class Tracer:
    """Per-rank span collector.

    Each SPMD rank owns one tracer (ranks are threads, so sharing one
    would serialise the hot path on a lock); the driver merges the
    per-rank streams with :func:`merge_traces`.
    """

    __slots__ = ("rank", "spans")

    def __init__(self, rank: int = 0) -> None:
        self.rank = int(rank)
        self.spans: list[TraceSpan] = []

    def span(
        self,
        op: str,
        *,
        stage: int | None = None,
        batch: int | None = None,
        nbytes: int = 0,
        timed: bool = True,
    ) -> TraceSpan:
        """The span to run a block under (``with tracer.span(...) as
        sp``); mutable, so the body can fill in ``nbytes`` once the
        payload is known."""
        return TraceSpan(
            self.rank, op, stage, batch, nbytes, 0.0, 0.0, timed, self.spans
        )

    def step_times(self) -> StepTimes:
        """Reduce timed spans to the classic per-step breakdown."""
        times = StepTimes()
        for sp in self.spans:
            if sp.timed:
                times.add(sp.op, sp.duration)
        return times

    def total_bytes(self, op: str | None = None) -> int:
        return sum(
            sp.nbytes for sp in self.spans if op is None or sp.op == op
        )


def merge_traces(tracers: Iterable[Tracer | None]) -> list[TraceSpan]:
    """Concatenate per-rank span streams in global time order."""
    spans: list[TraceSpan] = []
    for tr in tracers:
        if tr is not None:
            spans.extend(tr.spans)
    spans.sort(key=lambda sp: (sp.t0, sp.rank))
    return spans


# --------------------------------------------------------------------- #
# chrome://tracing export
# --------------------------------------------------------------------- #

def to_chrome_trace(spans: Iterable[TraceSpan]) -> dict:
    """Convert spans to the Chrome trace-event JSON object format.

    One complete event (``"ph": "X"``) per span; ranks map to ``tid`` so
    chrome://tracing / Perfetto draw one lane per rank.  Timestamps are
    microseconds relative to the earliest span.
    """
    spans = list(spans)
    origin = min((sp.t0 for sp in spans), default=0.0)
    events = []
    for sp in spans:
        events.append({
            "name": sp.op,
            "cat": "bookkeeping" if not sp.timed else "step",
            "ph": "X",
            "ts": (sp.t0 - origin) * 1e6,
            "dur": max(sp.t1 - sp.t0, 0.0) * 1e6,
            "pid": 0,
            "tid": sp.rank,
            "args": {
                "stage": sp.stage,
                "batch": sp.batch,
                "bytes": sp.nbytes,
            },
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_chrome_trace(spans: Iterable[TraceSpan], path: str) -> None:
    """Write a chrome://tracing timeline to ``path`` (open the file via
    chrome://tracing "Load" or https://ui.perfetto.dev)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(spans), fh)


#: phases of the trace-event format this exporter may legally emit.
_CHROME_PHASES = {"X", "B", "E", "i", "C", "M"}


def validate_chrome_trace(data) -> None:
    """Check ``data`` against the chrome trace-event schema (the subset
    the JSON object format requires); raises ``ValueError`` on the first
    violation.  Used by the CI smoke step on exported timelines."""
    if not isinstance(data, dict):
        raise ValueError(f"trace must be a JSON object, got {type(data).__name__}")
    events = data.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace object must carry a 'traceEvents' list")
    for idx, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {idx} is not an object")
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in ev:
                raise ValueError(f"event {idx} missing required field {key!r}")
        if not isinstance(ev["name"], str):
            raise ValueError(f"event {idx}: 'name' must be a string")
        if ev["ph"] not in _CHROME_PHASES:
            raise ValueError(f"event {idx}: unknown phase {ev['ph']!r}")
        if not isinstance(ev["ts"], (int, float)) or ev["ts"] < 0:
            raise ValueError(f"event {idx}: 'ts' must be a non-negative number")
        if ev["ph"] == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(
                    f"event {idx}: complete events need a non-negative 'dur'"
                )


def validate_chrome_trace_file(path: str) -> int:
    """Validate an exported timeline file; returns the event count."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    validate_chrome_trace(data)
    return len(data["traceEvents"])
