"""The repo's benchmark: six workloads, end-to-end metrics from
uninstrumented runs, per-layer metrics from a separate traced pass.

    python3 benchmarks/e2e/run.py                      # full run, report
    python3 benchmarks/e2e/run.py --smoke              # one block, two ops
    python3 benchmarks/e2e/run.py --out FILE           # also write the record
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The last form is the one ``BENCHMARK.json`` names: it prints, as the last
line, one JSON object with the end-to-end (``--trace 0``) or per-layer
(``--trace 1``) metrics of that workload.

A run is laid out as three blocks, round-robin over the workloads, one
worker process per workload per block (see README.md for the probes
behind that), with the allocator pinned in every worker's environment and
the worker pinned to one core.  Timings are reported scaled to a fixed
machine speed, read by a calibration kernel between the ops.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
WORKER = os.path.join(HERE, "worker.py")

#: glibc malloc as the paper's platform (Cray XC / Cori) recommends: no
#: mmap'd chunks, no trimming, a padded top — flops-sized temporaries are
#: then recycled instead of page-faulted in on every op.  BLAS threads
#: are pinned to one so the only parallelism is the program's own.
PINNED_ENV = {
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": "4294967296",
    "MALLOC_TOP_PAD_": "268435456",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
WORKLOAD_ORDER = (
    "rmat_budget_t16", "protein_local_p1", "kmer_aat_sparse_t16",
    "rmat_shm_proc8", "mcl_chain_proc4", "serve_mixed_t4",
)
E2E_UNITS = {"wall_s": "s", "jobs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
BLOCKS = 3
DEFAULT_SECONDS = 18.0
#: what one ``loop.calibrate()`` takes on this box when nothing else runs
#: on the host; timings are reported scaled to that speed
REFERENCE_CAL_S = 0.038
#: a launch that outlives its budget by this much is killed
LAUNCH_GRACE_S = 90.0
#: contract runs must exit within 180 s whatever happens
RUN_DEADLINE_S = 165.0


def benchmark_spec() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


def launch(workload: str, seed: int, mode: str, budget_s: float,
           max_ops: int | None, deadline: float) -> dict:
    """One worker process.  Always returns a launch record; a worker that
    crashed or hung is a record with ``crash`` set, counted as one failed
    op."""
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    timeout = min(budget_s + LAUNCH_GRACE_S, deadline - time.monotonic())
    record = {"workload": workload, "seed": seed, "mode": mode, "crash": None,
              "cold": [], "ops": []}
    if timeout <= 0:
        record["crash"] = "skipped: the run's deadline had passed"
        return record
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--budget-s", repr(budget_s)]
    if max_ops is not None:
        cmd += ["--max-ops", str(max_ops)]
    t_launch = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--t0", repr(time.perf_counter())], env=env, cwd=REPO,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # the worker leads its own session: its rank processes go with it
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        record["crash"] = f"killed after {timeout:.0f} s"
    record["launch_s"] = time.monotonic() - t_launch
    if record["crash"] is None:
        try:
            record.update(json.loads(stdout.strip().splitlines()[-1]))
        except (IndexError, ValueError):
            tail = (stderr.strip().splitlines() or ["no output"])[-1]
            record["crash"] = f"exit {proc.returncode}: {tail[:300]}"
    return record


def counts(launches: list) -> tuple[int, int]:
    """``(attempted, failed)`` ops over ``launches``."""
    attempted = failed = 0
    for rec in launches:
        ops = rec["cold"] + rec["ops"]
        attempted += len(ops) + (rec["crash"] is not None)
        failed += sum(o["error"] is not None for o in ops) + (rec["crash"] is not None)
    return attempted, failed


def end_to_end(blocks: list) -> dict:
    """End-to-end metrics of one workload from its timed launches.

    Every timing is scaled to the reference machine speed by the
    calibration taken beside it: an op that took ``wall_s`` while the
    calibration kernel took ``cal_s`` counts as ``wall_s * REFERENCE_CAL_S
    / cal_s``.  ``wall_s`` is the median of that over all timed ops of all
    blocks, ``jobs_per_s`` the median over all segments of completed ops
    per scaled second, ``setup_s`` and ``peak_rss_mb`` the median of the
    launches.  ``raw`` holds the same medians unscaled."""
    good = [b for b in blocks if b["crash"] is None]
    ops = [[o for o in b["ops"] if o["error"] is None] for b in good]

    def scaled(seconds, cal_s):
        return seconds * REFERENCE_CAL_S / cal_s

    def rate(seg):
        return seg["done"] / scaled(seg["wall_s"], seg["cal_s"])

    def med(values):
        values = list(values)
        return float(statistics.median(values)) if values else 0.0

    per_block = {
        "wall_s": [med(scaled(o["wall_s"], o["cal_s"]) for o in block)
                   for block in ops if block],
        "jobs_per_s": [med(rate(s) for s in b["segments"])
                       for b in good if b["segments"]],
        "setup_s": [scaled(b["setup_s"], b["setup_cal_s"]) for b in good],
        "peak_rss_mb": [b["peak_rss_mb"] for b in good],
    }
    segments = [s for b in good for s in b["segments"]]
    attempted, failed = counts(blocks)
    return {
        "metrics": {
            "wall_s": med(scaled(o["wall_s"], o["cal_s"])
                          for block in ops for o in block),
            "jobs_per_s": med(rate(s) for s in segments),
            "setup_s": med(per_block["setup_s"]),
            "peak_rss_mb": med(per_block["peak_rss_mb"]),
        },
        "raw": {
            "wall_s": med(o["wall_s"] for block in ops for o in block),
            "jobs_per_s": med(s["done"] / s["wall_s"] for s in segments),
            "setup_s": med(b["setup_s"] for b in good),
            "cal_s": med(s["cal_s"] for s in segments),
        },
        "samples": {"wall_s": sum(map(len, ops)), "jobs_per_s": len(segments),
                    "setup_s": len(good), "peak_rss_mb": len(good)},
        # per-block values: what --compare takes a side's spread from
        "per_block": per_block,
        "attempted": attempted, "failed": failed,
        "fail_share": failed / attempted if attempted else 1.0,
        "errors": [o["error"] for b in blocks for o in b["cold"] + b["ops"]
                   if o["error"]] + [b["crash"] for b in blocks if b["crash"]],
    }


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version()}
    try:
        import numpy
        import scipy
        info["numpy"], info["scipy"] = numpy.__version__, scipy.__version__
    except ImportError:
        pass
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(
                line.split(":", 1)[1].strip() for line in fh
                if line.startswith("model name")
            )
    except (OSError, StopIteration):
        info["cpu_model"] = None
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, index, "size")) as fh:
                caches[f"L{level} {kind}"] = fh.read().strip()
    except OSError:
        pass
    info["caches"] = caches
    try:
        info["git_sha"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        info["git_sha"] = None
    return info


def run(names, seed: int, seconds: float, *, timed: bool, traced: bool,
        blocks: int = BLOCKS, max_ops: int | None = None,
        deadline_s: float = 3600.0) -> dict:
    """Timed blocks round-robin over ``names``, then one traced worker
    per workload.  Returns the result record."""
    deadline = time.monotonic() + deadline_s
    compileall.compile_dir(SRC, quiet=2, workers=1)
    result = {"seed": seed, "seconds": seconds, "blocks": blocks,
              "machine": machine(), "env": PINNED_ENV,
              "reference_cal_s": REFERENCE_CAL_S,
              "workloads": {name: {"timed": [], "traced": None} for name in names}}
    if timed:
        for _block in range(blocks):
            for name in names:
                result["workloads"][name]["timed"].append(
                    launch(name, seed, "timed", seconds / blocks, max_ops, deadline)
                )
        for name in names:
            entry = result["workloads"][name]
            entry["end_to_end"] = end_to_end(entry["timed"])
    if traced:
        for name in names:
            result["workloads"][name]["traced"] = launch(
                name, seed, "traced", 0.0, None, deadline
            )
    return result


def report(result: dict, out=sys.stdout) -> None:
    """Every metric by name, with its unit and sample count."""
    units = per_layer_units()
    for name, entry in result["workloads"].items():
        e2e = entry.get("end_to_end")
        if e2e:
            print(f"== {name}: end to end (seed {result['seed']})", file=out)
            for metric, value in e2e["metrics"].items():
                unscaled = e2e["raw"].get(metric)
                print(f"  {metric:<34} {value:>14.6g} {E2E_UNITS[metric]:<8}"
                      f" n={e2e['samples'][metric]}"
                      + (f"  (unscaled {unscaled:.6g})" if unscaled else ""),
                      file=out)
            print(f"  {'calibration':<34} {e2e['raw']['cal_s']:>14.6g} {'s':<8}"
                  f" reference {REFERENCE_CAL_S:g}", file=out)
            print(f"  {'fail_share':<34} {e2e['fail_share']:>14.6g} {'ratio':<8}"
                  f" failed={e2e['failed']} attempted={e2e['attempted']}", file=out)
            for error in e2e["errors"][:5]:
                print(f"  ! {error}", file=out)
        traced = entry.get("traced")
        if traced:
            print(f"== {name}: per layer (traced pass)", file=out)
            if traced["crash"]:
                print(f"  ! {traced['crash']}", file=out)
            for metric, value in (traced.get("layers") or {}).items():
                print(f"  {metric:<34} {value:>14.6g} {units.get(metric, ''):<8}",
                      file=out)
            for op in traced["cold"] + traced["ops"]:
                if op["error"]:
                    print(f"  ! op {op['i']}: {op['error']}", file=out)


def per_layer_units() -> dict:
    return {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}


def contract_line(name: str, result: dict, trace: bool) -> dict:
    """The one JSON object the driver reads."""
    entry = result["workloads"][name]
    if trace:
        traced = entry["traced"]
        attempted, failed = counts([traced])
        units = per_layer_units()
        layers = traced.get("layers") or dict.fromkeys(units, 0.0)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        e2e = entry["end_to_end"]
        attempted, failed = e2e["attempted"], e2e["failed"]
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in e2e["metrics"].items()}
    return {"correct": failed == 0, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", choices=WORKLOAD_ORDER, default=None)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="measured seconds per workload, over all blocks")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end only, 1: traced pass only; prints the "
                         "driver's JSON line (needs --workload)")
    ap.add_argument("--smoke", action="store_true",
                    help="does it run: one block, two ops per workload, no "
                         "traced pass")
    ap.add_argument("--out", metavar="FILE", help="write the result record")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)

    if args.compare:
        from compare import compare_files

        return compare_files(*args.compare, benchmark_spec())
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: the program is not here ({SRC}/repro missing)",
              file=sys.stderr)
        return 2
    if args.trace is not None and args.workload is None:
        ap.error("--trace needs --workload")

    names = (args.workload,) if args.workload else WORKLOAD_ORDER
    contract = args.trace is not None
    result = run(
        names, args.seed, args.seconds,
        timed=args.trace != 1, traced=args.trace != 0 and not args.smoke,
        blocks=1 if args.smoke else BLOCKS,
        max_ops=2 if args.smoke else None,
        deadline_s=RUN_DEADLINE_S if contract else 3600.0,
    )
    report(result)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
    if contract:
        print(json.dumps(contract_line(args.workload, result, bool(args.trace))))
        return 0
    failed = sum(counts(e["timed"] + ([e["traced"]] if e["traced"] else []))[1]
                 for e in result["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
