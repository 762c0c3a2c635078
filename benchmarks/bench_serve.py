"""Traffic replay against the serving layer — overload behaviour in
numbers.

A synthetic multi-tenant trace (mixed matrix sizes, open-loop arrivals at
a chosen multiple of the pool's measured capacity, optionally one tenant
injecting rank crashes) is replayed against a live
:class:`repro.serve.SpgemmService`.  The report is the serving quartet:

* throughput (completed jobs/s) — overall and per tenant;
* latency — accepted-job p50/p99, split into queue wait and execution;
* rejection rate — by classified reason (``queue-full``, ``overload``,
  ``deadline``, ...), never an unclassified error;
* heal counts — crashes survived online, invisible to the tenant.

``python benchmarks/bench_serve.py --smoke`` runs the CI-sized overload
acceptance: three tenants at ~2x capacity on a small pool must shed load
only through classified rejections, every tenant's throughput must stay
above zero (DRR fair share), and the accepted-job execution p99 must stay
within a fixed bound of the idle single-job baseline.  Add
``--world processes --crash`` to make one tenant's jobs crash a real
forked rank mid-run and count the heals.
"""

import argparse
import shutil
import sys
import tempfile
import threading
import time

from _helpers import print_series
from repro.data.generators import erdos_renyi
from repro.errors import AdmissionRejected, DeadlineExceededError
from repro.serve import REJECT_REASONS, SpgemmService
from repro.simmpi import FaultPlan

#: accepted-job execution p99 must stay within this factor of the idle
#: single-job baseline (plus a scheduling-noise floor) — the smoke bound
P99_FACTOR = 10.0
P99_FLOOR_S = 0.5

SIZES = (32, 48, 64)


def build_workload(tenants, jobs_per_tenant, *, seed=7, crash_tenant=None):
    """Mixed-size round-robin trace: ``[(tenant, matrix, faults), ...]``
    in per-tenant submission order."""
    mats = {
        n: erdos_renyi(n, avg_degree=4.0, seed=seed + n) for n in SIZES
    }
    trace = {}
    for t_i, tenant in enumerate(tenants):
        jobs = []
        for j in range(jobs_per_tenant):
            m = mats[SIZES[(t_i + j) % len(SIZES)]]
            faults = (
                FaultPlan(["crash:rank=1,op=bcast,nth=2"])
                if tenant == crash_tenant and j % 2 == 0 else None
            )
            jobs.append((m, faults))
        trace[tenant] = jobs
    return trace


def measure_baseline(svc, matrix):
    """Idle single-job execution latency (s) — the overload yardstick."""
    r = svc.submit(tenant="baseline", a=matrix).result(timeout=120)
    return max(r.latency_s - r.queued_s, 1e-4)


def replay(svc, trace, *, arrival_interval_s, timeout_s=300.0):
    """Open-loop replay: each tenant submits its jobs at the given
    interval without waiting for completions, then everything drains."""
    results = {t: [] for t in trace}
    rejections = {t: [] for t in trace}
    unclassified = []
    lock = threading.Lock()

    def tenant_loop(tenant, jobs):
        handles = []
        for matrix, faults in jobs:
            try:
                handles.append(
                    svc.submit(tenant=tenant, a=matrix, faults=faults)
                )
            except AdmissionRejected as exc:
                with lock:
                    rejections[tenant].append(exc.reason)
            time.sleep(arrival_interval_s)
        for h in handles:
            try:
                r = h.result(timeout=timeout_s)
                with lock:
                    results[tenant].append(r)
            except (AdmissionRejected, DeadlineExceededError) as exc:
                with lock:
                    rejections[tenant].append(
                        getattr(exc, "reason", "deadline")
                    )
            except Exception as exc:  # noqa: BLE001 - report, don't hide
                with lock:
                    unclassified.append((tenant, exc))

    t0 = time.monotonic()
    threads = [
        threading.Thread(target=tenant_loop, args=(t, jobs))
        for t, jobs in trace.items()
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return {
        "wall_s": time.monotonic() - t0,
        "results": results,
        "rejections": rejections,
        "unclassified": unclassified,
    }


def _pctl(values, q):
    if not values:
        return None
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


def report(replayed, baseline_s):
    results, rejections = replayed["results"], replayed["rejections"]
    rows = []
    for tenant in results:
        done = results[tenant]
        execs = [r.latency_s - r.queued_s for r in done]
        rows.append([
            tenant,
            len(done),
            len(rejections[tenant]),
            f"{sum(r.heals for r in done)}",
            f"{(_pctl(execs, 0.50) or 0) * 1e3:.1f} ms",
            f"{(_pctl(execs, 0.99) or 0) * 1e3:.1f} ms",
        ])
    print_series(
        "Traffic replay (per tenant)",
        ["tenant", "completed", "rejected", "heals", "exec p50", "exec p99"],
        rows,
    )
    all_done = [r for rs in results.values() for r in rs]
    all_rej = [r for rs in rejections.values() for r in rs]
    execs = [r.latency_s - r.queued_s for r in all_done]
    total = len(all_done) + len(all_rej)
    summary = {
        "throughput_jobs_per_s": len(all_done) / replayed["wall_s"],
        "rejection_rate": (len(all_rej) / total) if total else 0.0,
        "exec_p50_s": _pctl(execs, 0.50),
        "exec_p99_s": _pctl(execs, 0.99),
        "heals": sum(r.heals for r in all_done),
        "baseline_s": baseline_s,
    }
    print_series(
        "Serving summary",
        ["metric", "value"],
        [
            ["throughput", f"{summary['throughput_jobs_per_s']:.2f} jobs/s"],
            ["rejection rate", f"{summary['rejection_rate'] * 100:.1f} %"],
            ["exec p50", f"{(summary['exec_p50_s'] or 0) * 1e3:.1f} ms"],
            ["exec p99", f"{(summary['exec_p99_s'] or 0) * 1e3:.1f} ms"],
            ["baseline", f"{baseline_s * 1e3:.1f} ms"],
            ["heals", summary["heals"]],
        ],
    )
    return summary


def run_smoke(world="threads", crash=False):
    tenants = ("alice", "bob", "mallory")
    ckpt_root = tempfile.mkdtemp(prefix="bench_serve_ck_")
    heal_kwargs = dict(heal=True, checkpoint_root=ckpt_root) if crash else {}
    try:
        with SpgemmService(
            grids=2, nprocs=4, world=world, timeout=60.0,
            queue_capacity=2, max_backlog_s=1e9, **heal_kwargs,
        ) as svc:
            baseline_s = measure_baseline(svc, erdos_renyi(
                SIZES[-1], avg_degree=4.0, seed=7 + SIZES[-1],
            ))
            # open-loop at ~2x capacity: pool serves grids/baseline
            # jobs/s, so each of the T tenants submits every
            # T*baseline/(2*grids)
            interval = len(tenants) * baseline_s / (2.0 * 2)
            trace = build_workload(
                tenants, 8, crash_tenant="mallory" if crash else None,
            )
            replayed = replay(svc, trace, arrival_interval_s=interval)
            summary = report(replayed, baseline_s)
    finally:
        shutil.rmtree(ckpt_root, ignore_errors=True)

    # --- overload acceptance -----------------------------------------
    assert not replayed["unclassified"], (
        f"unclassified failures under overload: {replayed['unclassified']}"
    )
    for tenant, reasons in replayed["rejections"].items():
        bad = [r for r in reasons if r not in REJECT_REASONS]
        assert not bad, f"{tenant} saw unclassified rejections: {bad}"
    for tenant, done in replayed["results"].items():
        assert done, f"tenant {tenant} was starved (fair share violated)"
    bound = P99_FACTOR * baseline_s + P99_FLOOR_S
    assert summary["exec_p99_s"] <= bound, (
        f"accepted-job exec p99 {summary['exec_p99_s']:.3f}s exceeds "
        f"{P99_FACTOR}x baseline + {P99_FLOOR_S}s = {bound:.3f}s"
    )
    if crash:
        assert summary["heals"] >= 1, "crash leg recorded no heals"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized overload acceptance; exit nonzero on violation",
    )
    parser.add_argument(
        "--world", default="threads", choices=["threads", "processes"],
        help="execution world for the replay",
    )
    parser.add_argument(
        "--crash", action="store_true",
        help="one tenant injects real rank crashes (runs the service with "
        "heal=True; pair with --world processes for SIGKILL deaths)",
    )
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("this bench runs with --smoke")
    try:
        run_smoke(world=args.world, crash=args.crash)
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print(f"serve smoke OK (world={args.world}, crash={args.crash})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
