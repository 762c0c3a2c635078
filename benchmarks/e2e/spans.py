"""The benchmark's own spans: recorded around calls into the program from
outside, kept in memory, written as one chrome-trace file when the worker
ends.  Spans inside ``src/`` are a later change."""

from __future__ import annotations

import contextlib
import json
import threading
import time


class SpanLog:
    """Spans of one traced pass.  Each carries name, start, end and the
    span that caused it; spans of one op share its root."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()  # the service's two callers both add

    def add(self, name, t0, t1, parent=None, track=None, **args) -> int:
        """Record a finished span; ``track`` defaults to the parent's."""
        with self._lock:
            if track is None:
                track = self.spans[parent]["track"] if parent is not None else "driver"
            sid = len(self.spans)
            self.spans.append({
                "id": sid, "name": name, "t0": float(t0), "t1": float(t1),
                "parent": parent, "track": track, "args": args,
            })
        return sid

    @contextlib.contextmanager
    def span(self, name, parent=None, track=None, **args):
        sid = self.add(name, time.perf_counter(), 0.0, parent, track, **args)
        try:
            yield sid
        finally:
            self.spans[sid]["t1"] = time.perf_counter()

    def self_time(self, sid: int) -> float:
        """Duration of span ``sid`` minus the part of it its children on
        the same track cover."""
        me = self.spans[sid]
        kids = sorted(
            (s["t0"], s["t1"]) for s in self.spans
            if s["parent"] == sid and s["track"] == me["track"]
        )
        covered, edge = 0.0, me["t0"]
        for k0, k1 in kids:
            k0, k1 = max(k0, edge), min(k1, me["t1"])
            if k1 > k0:
                covered += k1 - k0
                edge = k1
        return (me["t1"] - me["t0"]) - covered

    def total(self, name: str) -> float:
        return sum(s["t1"] - s["t0"] for s in self.spans if s["name"] == name)

    def write_chrome(self, path: str) -> None:
        """chrome://tracing / ui.perfetto.dev JSON: one track per
        ``track`` value, ``args`` carrying the span's id and parent."""
        if not self.spans:
            return
        origin = min(s["t0"] for s in self.spans)
        tracks = {}
        events = []
        for s in self.spans:
            tid = tracks.setdefault(s["track"], len(tracks))
            events.append({
                "name": s["name"], "ph": "X", "pid": 0, "tid": tid,
                "ts": (s["t0"] - origin) * 1e6,
                "dur": max(0.0, s["t1"] - s["t0"]) * 1e6,
                "args": {"id": s["id"], "parent": s["parent"], **s["args"]},
            })
        for track, tid in tracks.items():
            events.append({
                "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                "args": {"name": str(track)},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class OpTrace:
    """What a traced op is handed: its spans land under the op's root."""

    def __init__(self, log: SpanLog, root: int) -> None:
        self.log, self.root = log, root

    def span(self, name, **args):
        return self.log.span(name, parent=self.root, **args)

    def add(self, name, t0, t1, **args):
        return self.log.add(name, t0, t1, parent=self.root, **args)


class _NoTrace:
    """The uninstrumented runs' stand-in: records nothing."""

    def span(self, name, **args):
        return contextlib.nullcontext()

    def add(self, name, t0, t1, **args):
        return None


NO_TRACE = _NoTrace()
