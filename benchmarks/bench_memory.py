"""Memory-model closed loop — measured ledger marks vs the Table III
estimate.

Every run's :class:`~repro.mem.MemoryLedger` reports a per-rank
high-water mark; :func:`repro.model.predict_memory` claims the same
number from three symbolic statistics.  This bench sweeps the batch
count (``b`` in 1..8) over both communication backends, prints measured
vs predicted side by side, and fails if the prediction ever leaves the
acceptance band (within 2x of measured, either direction).  A final
:func:`repro.model.fit_memory_model` pass shows how much of the residual
a single calibration factor removes.

Runs two ways:

* ``pytest benchmarks/bench_memory.py`` — the normal harness; or
* ``python benchmarks/bench_memory.py --smoke`` — the CI memory step,
  no pytest fixtures, exit code 1 on any out-of-band prediction.
"""

import argparse
import sys

from repro.mem import CATEGORIES
from repro.model import fit_memory_model, predict_memory
from repro.sparse import multiply, random_sparse
from repro.summa import batched_summa3d, symbolic3d

#: acceptance band for predicted / measured (the ISSUE's "within 2x")
MODEL_ERROR_BAND = (0.5, 2.0)

BATCH_SWEEP = (1, 2, 4, 8)
BACKENDS = ("dense", "sparse")


def _print_series(title, header, rows):
    try:
        from _helpers import print_series
    except ImportError:  # running as a script from anywhere
        import os

        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from _helpers import print_series
    print_series(title, header, rows)


def run_sweep(*, nprocs=4, n=96, nnz=900, seed=11):
    """Measured vs predicted high-water for b in BATCH_SWEEP x BACKENDS.

    Returns (rows, observations): printable table rows and the
    (predicted, measured) pairs :func:`fit_memory_model` consumes.
    """
    a = random_sparse(n, n, nnz=nnz, seed=seed)
    ref = multiply(a, a)
    # one symbolic pass supplies the three Table III statistics
    sym = symbolic3d(a, a, nprocs=nprocs, memory_budget=nprocs * 10**6)
    rows, observations = [], []
    for backend in BACKENDS:
        for b in BATCH_SWEEP:
            result = batched_summa3d(
                a, a, nprocs=nprocs, batches=b, comm_backend=backend
            )
            assert result.matrix.allclose(ref)
            measured = result.memory
            predicted = predict_memory(
                nprocs=nprocs, layers=1, batches=b,
                max_nnz_a=sym.max_nnz_a, max_nnz_b=sym.max_nnz_b,
                max_nnz_c=sym.max_nnz_c,
            )
            err = predicted["high_water_total"] / measured["high_water_total"]
            rows.append([
                backend, b, measured["high_water_total"],
                predicted["high_water_total"], round(err, 3),
            ])
            observations.append((predicted, measured))
    return rows, observations


def check_sweep(rows, observations):
    """Assert the acceptance band and the fit's sanity; print both."""
    _print_series(
        "Memory model vs ledger (p=4, sweep b x backend)",
        ["backend", "b", "measured B", "predicted B", "pred/meas"],
        rows,
    )
    lo, hi = MODEL_ERROR_BAND
    bad = [r for r in rows if not lo <= r[4] <= hi]
    assert not bad, f"model_error outside [{lo}, {hi}]: {bad}"
    # batching must actually shrink the measured footprint
    for backend in BACKENDS:
        series = [r[2] for r in rows if r[0] == backend]
        assert series[-1] < series[0]
    fit = fit_memory_model(observations)
    _print_series(
        "Calibration fit (predicted -> measured)",
        ["scale", "mean |err|", "categories fitted"],
        [[round(fit.scale, 4), round(fit.mean_abs_error, 4),
          sum(1 for c in CATEGORIES if c in fit.category_scale)]],
    )
    # a near-unity scale means the closed loop is already calibrated
    assert lo <= fit.scale <= hi
    assert fit.mean_abs_error < 1.0
    return fit


def test_model_tracks_ledger_across_batches(benchmark):
    rows, observations = benchmark(run_sweep)
    check_sweep(rows, observations)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the CI-sized sweep and exit nonzero on any "
             "out-of-band model error",
    )
    parser.add_argument("--nprocs", type=int, default=4)
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("this bench runs under pytest or with --smoke")
    try:
        rows, observations = run_sweep(nprocs=args.nprocs)
        check_sweep(rows, observations)
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print("memory smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
