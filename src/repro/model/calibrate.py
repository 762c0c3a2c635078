"""Fitting α–β machine constants from measured step breakdowns.

The Cori presets in :mod:`repro.model.machine` were back-solved by hand
from a few of the paper's numbers; this module does it systematically:
given per-step times measured at several ``(p, l, b)`` configurations
(from a real machine, or from the simulator's wall clocks), recover the
``alpha`` / ``beta`` / ``sparse_rate`` that best explain them in the
least-squares sense.  The fitted spec then drives
:func:`repro.model.predict_steps` for extrapolation — the workflow a user
with their own cluster would follow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexity import comm_complexity, comp_complexity
from .machine import MachineSpec


@dataclass(frozen=True)
class Observation:
    """One measured BatchedSUMMA3D execution.

    ``step_seconds`` maps step names (the paper's labels) to measured
    seconds; missing steps are simply not used in the fit.
    """

    nprocs: int
    layers: int
    batches: int
    nnz_a: int
    nnz_b: int
    flops: int
    step_seconds: dict[str, float]


COMM_FIT_STEPS = ("A-Broadcast", "B-Broadcast", "AllToAll-Fiber")
COMP_FIT_STEPS = ("Local-Multiply", "Merge-Layer", "Merge-Fiber")


def fit_machine(
    observations,
    *,
    base: MachineSpec | None = None,
    name: str = "calibrated",
    merge_kernel: str = "hash",
) -> MachineSpec:
    """Least-squares fit of (alpha, beta, sparse_rate) to observations.

    Communication rows solve ``t = alpha * hops + beta * bytes`` (the
    alltoall uses ``beta / 4``, matching the preset convention);
    computation rows solve ``t = ops / rate``.  Non-fitted fields
    (symbolic rate, node geometry) are copied from ``base`` (default:
    Cori-KNL).  Raises ``ValueError`` when the observations do not
    constrain the fit (fewer than two independent communication rows or no
    computation rows).
    """
    from .machine import CORI_KNL

    base = base if base is not None else CORI_KNL
    observations = list(observations)

    rows = []
    targets = []
    comp_ops = []
    comp_times = []
    for obs in observations:
        comm = comm_complexity(
            nprocs=obs.nprocs,
            layers=obs.layers,
            batches=obs.batches,
            nnz_a=obs.nnz_a,
            nnz_b=obs.nnz_b,
            flops=obs.flops,
        )
        for step in COMM_FIT_STEPS:
            if step not in obs.step_seconds:
                continue
            hops = comm[step]["latency_hops"]
            nbytes = comm[step]["bytes"]
            if step == "AllToAll-Fiber":
                nbytes /= 4.0  # preset convention: beta_alltoall = beta / 4
            rows.append([hops, nbytes])
            targets.append(obs.step_seconds[step])
        comp = comp_complexity(
            nprocs=obs.nprocs,
            layers=obs.layers,
            batches=obs.batches,
            flops=obs.flops,
            merge_kernel=merge_kernel,
        )
        for step in COMP_FIT_STEPS:
            if step not in obs.step_seconds:
                continue
            if comp[step] > 0 and obs.step_seconds[step] > 0:
                comp_ops.append(comp[step])
                comp_times.append(obs.step_seconds[step])

    matrix = np.array(rows, dtype=float)
    target = np.array(targets, dtype=float)
    if matrix.shape[0] < 2 or np.linalg.matrix_rank(matrix) < 2:
        raise ValueError(
            "observations do not constrain (alpha, beta): need at least two "
            "independent communication measurements"
        )
    if not comp_ops:
        raise ValueError("observations contain no computation measurements")

    # non-negative least squares via clipped lstsq (alpha, beta >= 0)
    solution, *_ = np.linalg.lstsq(matrix, target, rcond=None)
    alpha, beta = (float(max(v, 0.0)) for v in solution)
    # rate: ops-weighted harmonic fit of t = ops / rate
    rate = float(np.sum(comp_ops) / np.sum(comp_times))

    return MachineSpec(
        name=name,
        alpha=alpha,
        beta=beta,
        sparse_rate=rate,
        symbolic_rate=base.symbolic_rate * (rate / base.sparse_rate),
        cores_per_node=base.cores_per_node,
        threads_per_core=base.threads_per_core,
        mem_per_node=base.mem_per_node,
        threads_per_process=base.threads_per_process,
        beta_alltoall=beta / 4.0,
    )


def relative_error(machine: MachineSpec, observations) -> float:
    """Mean relative error of the machine's predictions on observations —
    the goodness-of-fit metric for :func:`fit_machine`."""
    from .predictor import predict_steps

    errors = []
    for obs in observations:
        predicted = predict_steps(
            machine,
            nprocs=obs.nprocs,
            layers=obs.layers,
            batches=obs.batches,
            nnz_a=obs.nnz_a,
            nnz_b=obs.nnz_b,
            nnz_c=max(obs.flops, 1),  # unused by comm rows; bounds merges
            flops=obs.flops,
            include_symbolic=False,
        )
        for step, measured in obs.step_seconds.items():
            if measured <= 0:
                continue
            errors.append(abs(predicted.get(step) - measured) / measured)
    return float(np.mean(errors)) if errors else 0.0
