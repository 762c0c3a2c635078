"""Self-check utility: exercise every code path on a tiny known instance.

``verify_installation()`` runs a deterministic multiply through each
algorithm (local kernels, SUMMA2D/3D, batched, baselines, resident
context), cross-checks every result against the reference kernel, and
returns a report — the ``python -m repro doctor`` command.  Useful after
installation and as a quick regression sweep on unusual platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sparse.construct import random_sparse
from ..sparse.spgemm.reference import spgemm_reference
from ..sparse.spgemm.suite import available_suites, get_suite


@dataclass
class CheckReport:
    """Outcome of one verification sweep."""

    passed: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failed

    def record(self, name: str, fn) -> None:
        try:
            fn()
            self.passed.append(name)
        except Exception as exc:  # noqa: BLE001 — report, not crash
            self.failed[name] = f"{type(exc).__name__}: {exc}"

    def summary(self) -> str:
        lines = [f"{len(self.passed)} checks passed, {len(self.failed)} failed"]
        for name in self.passed:
            lines.append(f"  ok   {name}")
        for name, err in self.failed.items():
            lines.append(f"  FAIL {name}: {err}")
        return "\n".join(lines)


def verify_installation(*, nprocs: int = 4, seed: int = 7) -> CheckReport:
    """Run the full verification sweep; returns a :class:`CheckReport`."""
    report = CheckReport()
    a = random_sparse(24, 24, nnz=140, seed=seed)
    b = random_sparse(24, 24, nnz=130, seed=seed + 1)
    expected = spgemm_reference(a, b)

    def check_equal(matrix):
        assert matrix.allclose(expected), "result mismatch"

    # local kernels
    for name in available_suites():
        suite = get_suite(name)

        def run_kernel(suite=suite):
            from ..sparse.semiring import PLUS_TIMES

            operand = a.sort_indices() if suite.requires_sorted_inputs else a
            check_equal(suite.local_multiply(operand, b, PLUS_TIMES))

        report.record(f"kernel:{name}", run_kernel)

    # distributed algorithms
    from .batched import batched_summa3d, summa2d, summa3d

    report.record(
        "summa2d", lambda: check_equal(summa2d(a, b, nprocs=nprocs).matrix)
    )
    report.record(
        "summa3d",
        lambda: check_equal(
            summa3d(a, b, nprocs=nprocs, layers=nprocs).matrix
        ),
    )
    report.record(
        "batched",
        lambda: check_equal(
            batched_summa3d(a, b, nprocs=nprocs, batches=3).matrix
        ),
    )

    # baselines
    from .baselines import cannon2d, spgemm_1d

    report.record(
        "1d-row", lambda: check_equal(spgemm_1d(a, b, nprocs=nprocs).matrix)
    )
    report.record(
        "cannon", lambda: check_equal(cannon2d(a, b, nprocs=nprocs).matrix)
    )

    # resident context
    def run_resident():
        from ..dist import DistContext

        ctx = DistContext(nprocs=nprocs)
        ha = ctx.distribute(a, "A")
        hb = ctx.distribute(b, "B")
        hc, _ = ctx.multiply(ha, hb, batches=2)
        check_equal(hc.to_global())

    report.record("resident-context", run_resident)

    # symbolic + model plumbing
    def run_symbolic():
        from ..sparse.matrix import BYTES_PER_NONZERO
        from .symbolic3d import symbolic3d

        r = symbolic3d(a, b, nprocs=nprocs,
                       memory_budget=100 * a.nnz * BYTES_PER_NONZERO)
        assert r.batches >= 1

    report.record("symbolic3d", run_symbolic)

    def run_model():
        from ..model import CORI_KNL, predict_steps

        t = predict_steps(CORI_KNL, nprocs=1024, layers=16, batches=4,
                          nnz_a=10**9, nnz_b=10**9, nnz_c=10**10,
                          flops=10**12)
        assert t.total() > 0

    report.record("alpha-beta-model", run_model)
    return report
