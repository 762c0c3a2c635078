"""Projection of BatchedSUMMA3D times at paper scale.

Combines the closed forms of :mod:`repro.model.complexity` with a
layer-compression model for the intermediate ``sum_k nnz(D^(k))`` and the
symbolic batch rule (Alg. 3 line 12) to produce the per-step breakdowns
the paper's strong-scaling figures plot.

The intermediate model: ``C`` has ``nnz(C)`` coordinates, each hit by
``cf = flops / nnz(C)`` partial products on average.  With ``l`` layers
the products of one coordinate scatter uniformly over layers, so the
coordinate materialises in a layer with probability ``1 - (1 - 1/l)^cf``:

    dk_total(l) = nnz(C) * l * (1 - (1 - 1/l)^cf)

which is ``nnz(C)`` at ``l = 1`` and approaches ``flops`` as ``l`` grows —
exactly the "grows slowly with l" behaviour the paper notes under
Table II.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..utils.timing import StepTimes
from .complexity import step_times_closed_form
from .machine import MachineSpec


def estimate_dk_nnz(nnz_c: int, flops: int, layers: int) -> int:
    """Expected ``sum_k nnz(D^(k))`` under the uniform-scatter model."""
    if nnz_c <= 0:
        return 0
    cf = max(1.0, flops / nnz_c)
    if layers <= 1:
        return int(nnz_c)
    hit = 1.0 - (1.0 - 1.0 / layers) ** cf
    return int(min(flops, round(nnz_c * layers * hit)))


def predict_steps(
    machine: MachineSpec,
    *,
    nprocs: int,
    layers: int,
    batches: int,
    nnz_a: int,
    nnz_b: int,
    nnz_c: int,
    flops: int,
    include_symbolic: bool = True,
    merge_kernel: str = "hash",
    comm_backend: str = "dense",
    inner_dim: int | None = None,
) -> StepTimes:
    """Per-step modelled seconds for one BatchedSUMMA3D execution.

    ``merge_kernel="hash"`` models this paper's sort-free merge (linear in
    merged entries); ``"heap"`` models the prior-work kernels with
    Table III's logarithmic k-way factors — swapping it is the modelled
    form of the Fig. 15 comparison.  ``comm_backend="sparse"`` prices the
    sparsity-aware point-to-point backend of :mod:`repro.comm` (requires
    ``inner_dim``); the breakdown then includes a ``Comm-Plan`` step.
    """
    dk = estimate_dk_nnz(nnz_c, flops, layers)
    times = step_times_closed_form(
        machine,
        nprocs=nprocs,
        layers=layers,
        batches=batches,
        nnz_a=nnz_a,
        nnz_b=nnz_b,
        flops=flops,
        dk_nnz_total=dk,
        merge_kernel=merge_kernel,
        comm_backend=comm_backend,
        inner_dim=inner_dim,
    )
    if not include_symbolic:
        times.pop("Symbolic", None)
    # Merge costs follow the *intermediate* sizes, not raw flops.
    # Merge-Layer consumes the stage outputs, which are unmerged across
    # sqrt(p/l) stages (each stage only merged internally) — the relevant
    # granularity is l * stages pieces of the expansion.  Merge-Fiber
    # consumes the layer outputs: l pieces.
    if flops:
        stages = max(1, round(math.sqrt(nprocs / layers)))
        dk_stage = estimate_dk_nnz(nnz_c, flops, layers * stages)
        times["Merge-Layer"] *= dk_stage / flops
        times["Merge-Fiber"] *= dk / flops
    return StepTimes(dict(times))


def overlapped_makespan(
    times: StepTimes,
    *,
    stages: int,
    overlap: str = "depth1",
) -> float:
    """Modelled makespan when per-stage broadcasts overlap the multiply.

    The sequential cost model sums every step; ``overlap="depth1"``
    instead hides each stage's A/B broadcast behind the previous
    stage's Local-Multiply.  With per-stage communication ``c`` and
    computation ``m`` (the step totals split evenly over ``stages``), the
    classic software-pipelining makespan is

        ``c + (stages - 1) * max(c, m) + m``

    — a fill stage, ``stages - 1`` overlapped steady-state stages, and a
    drain multiply.  All non-overlappable steps (Symbolic, Comm-Plan,
    merges, fiber exchange, postprocess) are charged at full cost.  With
    ``overlap="off"`` (or a single stage) this reduces exactly to
    ``times.total()``, so planners can score both modes uniformly.
    """
    if overlap not in ("off", "depth1"):
        raise ValueError(
            f"unknown overlap mode {overlap!r}; expected 'off' or 'depth1'"
        )
    total = times.total()
    if overlap == "off" or stages <= 1:
        return total
    comm = times.get("A-Broadcast") + times.get("B-Broadcast")
    comp = times.get("Local-Multiply")
    c = comm / stages
    m = comp / stages
    pipelined = c + (stages - 1) * max(c, m) + m
    return total - comm - comp + pipelined


def predict_makespan(
    machine: MachineSpec,
    *,
    nprocs: int,
    layers: int,
    overlap: str = "off",
    **kwargs,
) -> float:
    """Total modelled seconds for one execution under an ``overlap`` mode.

    Convenience over :func:`predict_steps` + :func:`overlapped_makespan`
    with the grid's stage count ``sqrt(p / l)`` filled in; the quantity
    ``auto_config`` / ``choose_backend`` minimise.
    """
    times = predict_steps(machine, nprocs=nprocs, layers=layers, **kwargs)
    stages = max(1, round(math.sqrt(nprocs / max(layers, 1))))
    return overlapped_makespan(times, stages=stages, overlap=overlap)


@dataclass
class ScalePoint:
    """One concurrency point of a strong-scaling series."""

    cores: int
    nprocs: int
    batches: int
    times: StepTimes

    @property
    def total(self) -> float:
        return self.times.total()


def strong_scaling_series(
    machine: MachineSpec,
    *,
    core_counts,
    layers: int,
    nnz_a: int,
    nnz_b: int,
    nnz_c: int,
    flops: int,
    memory_fraction: float = 1.0,
    imbalance: float = 1.3,
    hyperthreads: bool = False,
) -> list[ScalePoint]:
    """Model a strong-scaling experiment (Figs. 6, 7, 9).

    For each core count: derive the process count under the paper's
    thread mapping, size the aggregate memory, run the analytic symbolic
    rule to get ``b``, and produce the per-step breakdown.
    ``memory_fraction`` lets benches tighten memory to force batching.
    """
    from .memory import estimate_batches  # memory imports this module

    points: list[ScalePoint] = []
    for cores in core_counts:
        nprocs = machine.procs_for_cores(cores, hyperthreads=hyperthreads)
        budget = int(machine.aggregate_memory(cores) * memory_fraction)
        b = estimate_batches(
            memory_budget=budget,
            nprocs=nprocs,
            layers=layers,
            nnz_a=nnz_a,
            nnz_b=nnz_b,
            nnz_c=nnz_c,
            flops=flops,
            imbalance=imbalance,
        )
        times = predict_steps(
            machine,
            nprocs=nprocs,
            layers=layers,
            batches=b,
            nnz_a=nnz_a,
            nnz_b=nnz_b,
            nnz_c=nnz_c,
            flops=flops,
        )
        points.append(ScalePoint(cores=cores, nprocs=nprocs, batches=b, times=times))
    return points


def parallel_efficiency(points: list[ScalePoint]) -> list[float]:
    """Efficiency relative to the first point: (P1/P2) * (T(P1)/T(P2))."""
    if not points:
        return []
    base = points[0]
    return [
        (base.nprocs / pt.nprocs) * (base.total / pt.total) if pt.total else 0.0
        for pt in points
    ]
