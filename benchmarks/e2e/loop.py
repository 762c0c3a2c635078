"""The closed loop: each caller sends its next op only after the previous
one returned.  One caller for workloads 1-5, two for the service — never
more load-generator threads than this box has cores.

The timed loop runs in segments with a fixed calibration kernel between
them, so that every op carries a reading of how fast the machine was
while it ran (see ``calibrate``)."""

from __future__ import annotations

import itertools
import threading
import time

import numpy as np

from oracle import attempt, check_digest, check_full, digest
from spans import NO_TRACE, OpTrace

#: a segment of the timed loop: ops until this much time has passed, then
#: one calibration (an op longer than this is a segment of its own)
SEGMENT_S = 0.8
_cal_inputs = None


def _cal_kernel(x, idx, starts, keys) -> None:
    acc = 0
    for i in range(60000):
        acc += i * i
    z = np.sort(x)[idx]
    np.add.reduceat(np.cumsum(z), starts)
    np.repeat(x, 3)
    np.argsort(keys, kind="stable")


def calibrate() -> float:
    """Seconds a fixed piece of work takes right now, on the core the
    worker is pinned to.  The work is the workloads' own instruction mix —
    an interpreter loop, then sort, gather, scan, segmented sum, repeat and
    a stable key argsort over arrays of 4-12 MB, which like the ops'
    flops-sized temporaries miss L2 — so that whatever slows the ops (a
    neighbour on the sibling hyperthread or in the shared L3, stolen time,
    a lower clock) slows it too."""
    global _cal_inputs
    if _cal_inputs is None:
        rng = np.random.default_rng(0)
        n = 1 << 19
        _cal_inputs = (
            rng.random(n), rng.integers(0, n, 3 * n), np.arange(0, 3 * n, 8),
            rng.integers(0, 1 << 40, n // 4),
        )
        _cal_kernel(*_cal_inputs)  # the first pass allocates
    t0 = time.perf_counter()
    _cal_kernel(*_cal_inputs)
    return time.perf_counter() - t0


def run_op(w, i: int, caller: int = 0, log=None, keep: bool = False) -> dict:
    """Run op ``i`` of workload ``w``, under a root span when ``log`` is
    given.  The record carries the op's window as its caller saw it, the
    failure reason if any, the root span's id, and a digest of each product
    taken after the window closed (``keep`` also keeps the products, for
    the cold op's full comparison)."""
    root = None
    if log is None:
        outputs, error, t0, t1 = attempt(
            lambda: w.op(i, caller, NO_TRACE), watch_shm=w.process_world
        )
    else:
        with log.span(f"{w.name}#{i}", track=f"caller {caller}") as root:
            outputs, error, t0, t1 = attempt(
                lambda: w.op(i, caller, OpTrace(log, root)),
                watch_shm=w.process_world,
            )
        log.spans[root].update(t0=t0, t1=t1)
    record = {"i": i, "t0": t0, "t1": t1, "error": error, "digests": [],
              "root": root}
    if error is None:
        record["digests"] = [(key, digest(p)) for key, p in outputs]
        if keep:
            record["outputs"] = outputs
    return record


def closed_loop(w, first: int, budget_s: float, max_ops: int, log=None) -> list:
    """Ops ``first, first+1, ...`` until ``budget_s`` has passed or
    ``max_ops`` were started (at least one op runs).  A timed-out op ends
    its caller: what it left behind cannot be trusted to run another."""
    counter = itertools.count(first)
    lock = threading.Lock()
    records: list = []
    stop_at = time.perf_counter() + budget_s

    def caller(c: int) -> None:
        while True:
            with lock:
                i = next(counter)
            late = i > first and time.perf_counter() >= stop_at
            if late or i - first >= max_ops:
                return
            record = run_op(w, i, c, log)
            records.append(record)
            if (record["error"] or "").startswith("timeout"):
                return

    if w.callers == 1:
        caller(0)
    else:
        threads = [
            threading.Thread(target=caller, args=(c,)) for c in range(w.callers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return sorted(records, key=lambda r: r["i"])


def measured_loop(w, first: int, budget_s: float, max_ops: int) -> tuple:
    """The timed phase of one launch: closed-loop segments of about
    ``SEGMENT_S``, a calibration before the first and after each.  Returns
    ``(records, segments)``; every record and segment carries ``cal_s``,
    the mean of the calibrations on either side of its segment."""
    records: list = []
    segments: list = []
    stop_at = time.perf_counter() + budget_s
    before = calibrate()
    while True:
        left = max_ops - len(records)
        ops = closed_loop(w, first + len(records), SEGMENT_S, left)
        after = calibrate()
        cal_s = (before + after) / 2.0
        done = [r for r in ops if r["error"] is None]
        for r in ops:
            r["cal_s"] = cal_s
        if done:
            segments.append({
                "done": len(done), "cal_s": cal_s,
                "wall_s": max(r["t1"] for r in done) - min(r["t0"] for r in done),
            })
        records += ops
        before = after
        wedged = any((r["error"] or "").startswith("timeout") for r in ops)
        if wedged or len(records) >= max_ops or time.perf_counter() >= stop_at:
            return records, segments


def verify(w, records: list) -> None:
    """Compare every recorded product with the SciPy oracle, outside any
    timed window; a mismatch becomes the record's error."""
    digests: dict = {}

    def want(key):
        if key not in digests:
            digests[key] = digest(w.expected(key))
        return digests[key]

    for record in records:
        if record["error"] is not None:
            continue
        outputs = record.pop("outputs", None)
        if outputs is not None:
            errors = [check_full(p, w.expected(key)) for key, p in outputs]
        else:
            errors = [check_digest(got, want(key)) for key, got in record["digests"]]
        record["error"] = next((e for e in errors if e), None)
