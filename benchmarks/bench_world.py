"""Execution worlds head-to-head — the threaded simulator vs one OS
process per rank (``repro.mp``).

The threaded world is the deterministic reference but serialises all
local multiplies behind the GIL; the process world runs them truly in
parallel and moves large operands through shared-memory segments under
``/dev/shm`` instead of pickle.  This bench sweeps ``p`` in {1, 2, 4, 8} over both
communication backends on a compute-bound SpGEMM, verifies the two
worlds produce bit-identical products, and prints wall-clock speedup
plus the shm traffic the transport registry reports.

The speedup assertion (>= 2x at p = 4) only fires on machines with at
least 4 cores — on fewer cores the process world has nothing to run in
parallel *on*, and only correctness is checked.

Runs two ways:

* ``pytest benchmarks/bench_world.py`` — the normal harness; or
* ``python benchmarks/bench_world.py --smoke`` — the CI world step:
  CI-sized operands, exit code 1 on any mismatch.
"""

import argparse
import os
import sys
import time

import numpy as np

from repro.sparse import random_sparse
from repro.summa import batched_summa3d

#: (nprocs, layers) points — every p/l is a perfect square
SWEEP = ((1, 1), (2, 2), (4, 1), (8, 2))
BACKENDS = ("dense", "sparse")

#: minimum process-world speedup over threads at p = 4 (ISSUE acceptance),
#: asserted only when the machine actually has >= 4 cores
SPEEDUP_FLOOR = 2.0


def _print_series(title, header, rows):
    try:
        from _helpers import print_series
    except ImportError:  # running as a script from anywhere
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from _helpers import print_series
    print_series(title, header, rows)


def _wall(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def run_sweep(*, n=400, nnz=40000, batches=2, seed=7):
    """Threads vs processes over SWEEP x BACKENDS.

    Returns printable rows
    ``[backend, p, l, threads_s, procs_s, speedup, shm_MB, shm_segs]``.
    The operand density makes Local-Multiply dominate, so the process
    world's parallelism is actually visible in the wall clock.
    """
    a = random_sparse(n, n, nnz=nnz, seed=seed)
    b = random_sparse(n, n, nnz=nnz, seed=seed + 1)
    rows = []
    for backend in BACKENDS:
        for p, layers in SWEEP:
            t_s, rt = _wall(lambda: batched_summa3d(
                a, b, nprocs=p, layers=layers, batches=batches,
                comm_backend=backend,
            ))
            p_s, rp = _wall(lambda: batched_summa3d(
                a, b, nprocs=p, layers=layers, batches=batches,
                comm_backend=backend, world="processes",
            ))
            assert np.array_equal(
                rt.matrix.to_dense(), rp.matrix.to_dense()
            ), f"worlds diverge at backend={backend} p={p}"
            winfo = rp.info["world"]
            rows.append([
                backend, p, layers, round(t_s, 4), round(p_s, 4),
                round(t_s / p_s, 2),
                round(winfo["shm_bytes"] / 1e6, 3),
                winfo["shm_segments"],
            ])
    return rows


def check_sweep(rows):
    """Print the sweep; assert the acceptance speedup where it can hold."""
    _print_series(
        "Execution worlds: threads vs processes (sweep p x backend)",
        ["backend", "p", "l", "threads s", "procs s", "speedup",
         "shm MB", "shm segs"],
        rows,
    )
    cores = os.cpu_count() or 1
    if cores >= 4:
        for backend in BACKENDS:
            at4 = [r for r in rows if r[0] == backend and r[1] == 4]
            assert at4 and at4[0][5] >= SPEEDUP_FLOOR, (
                f"process world under {SPEEDUP_FLOOR}x at p=4 "
                f"({backend}): {at4}"
            )
    else:
        print(f"  ({cores} core(s): speedup floor not asserted, "
              "correctness only)")


def test_worlds_agree_and_processes_scale(benchmark):
    rows = benchmark(run_sweep)
    check_sweep(rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized sweep; exit nonzero on any world mismatch",
    )
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("this bench runs under pytest or with --smoke")
    try:
        rows = run_sweep(n=120, nnz=3000)
        check_sweep(rows)
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print("world smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
