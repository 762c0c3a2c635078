"""One worker launch: set-up and the cold phase (both inside ``setup_s``),
then either the timed closed loop or the traced pass, then exit.

``run.py`` launches this file once per workload per block, with the
allocator and BLAS threads pinned in its environment; the worker pins
itself to one CPU.  The last line of standard output is the launch's JSON
record: raw seconds, and beside each the calibration ``run.py`` scales
it by.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")


def peak_rss_mb() -> float:
    """Max of ``ru_maxrss`` over this process and its reaped children."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def public(record: dict) -> dict:
    """A record as it goes into the result file."""
    return {
        "i": record["i"], "wall_s": record["t1"] - record["t0"],
        "cal_s": record.get("cal_s"), "error": record["error"],
    }


def pin_to_one_cpu() -> int:
    """Pin this process, and so every thread and rank process it starts,
    to the last CPU it may run on.  With ranks spread over two cores the
    thread world's speed depends on where the scheduler happens to put
    them (kmer_aat_sparse_t16: 0.08 s/op with every rank thread on one
    core, 0.19 s/op once they spread and two cores fight over one GIL),
    and the calibration kernel can only read the speed of one core."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("timed", "traced"), default="timed")
    ap.add_argument("--budget-s", type=float, default=3.0)
    ap.add_argument("--max-ops", type=int, default=1 << 30)
    ap.add_argument("--t0", type=float, default=None,
                    help="perf_counter() of the parent just before launch")
    args = ap.parse_args(argv)
    t_start = args.t0 if args.t0 is not None else time.perf_counter()
    cpu = pin_to_one_cpu()

    # set-up: import the program, generate inputs, start what the workload
    # needs, run the cold phase
    from loop import calibrate, measured_loop, run_op, verify
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload](args.seed)
    w.generate()
    w.open()
    cold = [run_op(w, i, keep=True) for i in w.cold_ops]
    setup_s = time.perf_counter() - t_start
    setup_cal_s = calibrate()

    out = {
        "workload": w.name, "seed": args.seed, "mode": args.mode,
        "setup_s": setup_s, "setup_cal_s": setup_cal_s, "callers": w.callers,
        "cpu": cpu,
    }
    verify(w, cold)
    if args.mode == "timed":
        first = max(w.cold_ops) + 1
        records, out["segments"] = measured_loop(
            w, first, args.budget_s, args.max_ops
        )
        verify(w, records)
    else:
        from layers import traced_pass
        from spans import SpanLog

        log = SpanLog()
        out["layers"], records = traced_pass(w, log)
        verify(w, records)
        os.makedirs(OUT_DIR, exist_ok=True)
        log.write_chrome(os.path.join(OUT_DIR, f"{w.name}.trace.json"))
    out["cold"] = [public(r) for r in cold]
    out["ops"] = [public(r) for r in records]
    out["peak_rss_mb"] = peak_rss_mb()
    wedged = any((r["error"] or "").startswith("timeout") for r in cold + records)
    if not wedged:
        w.close()
    print(json.dumps(out), flush=True)
    if wedged:
        # rank threads of a timed-out op may never return
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
