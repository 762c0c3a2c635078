"""Closed-form communication and computation complexity (Tables II & III).

Each function returns the paper's expressions verbatim, parameterised by
``(p, l, b)`` and the matrix statistics.  ``bench_table2_comm_model`` and
``bench_table3_comp_model`` compare these against volumes metered on the
simulated runtime and operation counts measured in the kernels.
"""

from __future__ import annotations

import math

from ..sparse.matrix import BYTES_PER_NONZERO
from .machine import MachineSpec


def _lg(x: float) -> float:
    """log2 clamped at zero (communicators of size 1 cost nothing)."""
    return math.log2(x) if x > 1 else 0.0


def needed_fraction(nnz_piece: float, segment_count: float) -> float:
    """Expected fraction of tile segments a sparsity-aware receiver needs.

    A peer tile piece with ``nnz_piece`` nonzeros scattered over
    ``segment_count`` rows (or columns) leaves a given segment nonempty —
    hence wanted by the receiver — with probability
    ``1 - (1 - 1/m)^nnz``.  This is the occupancy model behind the
    SpComm3D-style sparse backend's bandwidth savings: near 1 for dense
    tiles, tiny for hypersparse ones.
    """
    m = max(1.0, segment_count)
    if nnz_piece <= 0:
        return 0.0
    return min(1.0, 1.0 - (1.0 - 1.0 / m) ** nnz_piece)


def comm_complexity(
    *,
    nprocs: int,
    layers: int,
    batches: int,
    nnz_a: int,
    nnz_b: int,
    flops: int,
    dk_nnz_total: int | None = None,
    backend: str = "dense",
    inner_dim: int | None = None,
    kernel: str = "spgemm",
    dense_a_bytes: int | None = None,
    dense_b_bytes: int | None = None,
    dense_c_bytes: int | None = None,
) -> dict[str, dict[str, float]]:
    """Table II: per-step total latency hops and bandwidth bytes.

    Returns ``{step: {"latency_hops": ..., "bytes": ..., "messages": ...,
    "comm_size": ...}}`` where ``latency_hops`` is the factor multiplying
    α and ``bytes`` the factor multiplying β (per process, totalled over
    all occurrences, exactly the "Total latency / Total bandwidth" rows).

    ``dk_nnz_total`` tightens the AllToAll-Fiber bound with the true
    ``sum_k nnz(D^(k))`` when known (the paper notes ``flops`` is loose).

    ``backend="sparse"`` models the SpComm3D-style point-to-point
    exchange instead (requires ``inner_dim``, the shared dimension of the
    multiplication): broadcast bandwidth shrinks by the expected needed
    fraction of each tile, latency grows from tree depth to
    ``sqrt(p/l) - 1`` individual messages per stage, and a ``Comm-Plan``
    step pays for the bit-packed occupancy masks.

    Dense-operand kernels reshape the table: pass the *global* dense
    operand sizes and the kernel name.  ``dense_a_bytes`` /
    ``dense_b_bytes`` replace the corresponding broadcast bandwidth with
    dense-panel volume (``b * bytes_A / sqrt(p*l)`` and
    ``bytes_B / sqrt(p*l)``); ``dense_c_bytes`` replaces the fiber
    exchange with dense-partial volume (``l * bytes_C / p``, each layer
    holding a full accumulator of its block).  A dense operand rides
    collectives even under ``backend="sparse"``, so its step keeps the
    tree-shaped latency, the *counterpart's* needed fraction becomes 1
    (dense panels occupy every segment), and kernels without a symbolic
    pass (``"spmm"``, ``"sddmm"``) zero the Symbolic row.
    """
    p, l, b = nprocs, layers, batches
    r = BYTES_PER_NONZERO
    sqrt_pl = math.sqrt(p / l)
    stages = round(sqrt_pl)
    intermediate = flops if dk_nnz_total is None else dk_nnz_total
    a_dense = dense_a_bytes is not None
    b_dense = dense_b_bytes is not None

    out = {
        "A-Broadcast": {
            "latency_hops": b * sqrt_pl * _lg(p / l),
            "bytes": r * b * nnz_a / math.sqrt(p * l),
            "messages": b * stages,
            "comm_size": sqrt_pl,
        },
        "B-Broadcast": {
            "latency_hops": b * sqrt_pl * _lg(p / l),
            "bytes": r * nnz_b / math.sqrt(p * l),
            "messages": b * stages,
            "comm_size": sqrt_pl,
        },
        "AllToAll-Fiber": {
            "latency_hops": b * l if l > 1 else 0.0,
            "bytes": r * intermediate / p if l > 1 else 0.0,
            "messages": b if l > 1 else 0,
            "comm_size": l,
        },
        "Symbolic": {
            # same broadcasts as one unbatched SUMMA pass (b-independent)
            "latency_hops": 2 * sqrt_pl * _lg(p / l),
            "bytes": r * (nnz_a + nnz_b) / math.sqrt(p * l),
            "messages": 2 * stages,
            "comm_size": sqrt_pl,
        },
    }
    if a_dense:
        out["A-Broadcast"]["bytes"] = b * dense_a_bytes / math.sqrt(p * l)
    if b_dense:
        out["B-Broadcast"]["bytes"] = dense_b_bytes / math.sqrt(p * l)
    if dense_c_bytes is not None:
        # each layer holds a full dense accumulator of its output block,
        # so the fiber exchange ships dense partials, not sparse entries
        out["AllToAll-Fiber"]["bytes"] = (
            l * dense_c_bytes / p if l > 1 else 0.0
        )
    if kernel in ("spmm", "sddmm"):
        # no symbolic pass: batch counts come from the kernel's
        # geometry-exact footprint model, not Alg. 3
        out["Symbolic"] = {
            "latency_hops": 0.0, "bytes": 0.0, "messages": 0,
            "comm_size": sqrt_pl,
        }
    if backend == "dense":
        return out
    if backend != "sparse":
        raise ValueError(f"unknown communication backend {backend!r}")
    if a_dense and b_dense:
        # both operands dense (SDDMM): every movement is a collective and
        # the symbolic prologue is skipped — the sparse backend degenerates
        # to the dense table with no Comm-Plan row.
        return out
    if inner_dim is None:
        raise ValueError("backend='sparse' needs inner_dim (= a.ncols)")

    # occupancy: tiles of the shared dimension hold inner_dim/(sqrt(p/l)*l)
    # segments; a B batch piece carries nnz_b/(p*b) nonzeros, an A tile
    # nnz_a/p.  The needed fractions scale the dense bandwidth terms; a
    # dense counterpart occupies every segment, so the fraction is 1.
    m = inner_dim / max(stages * l, 1)
    f_a = 1.0 if b_dense else needed_fraction(nnz_b / (p * b), m)
    f_b = 1.0 if a_dense else needed_fraction(nnz_a / p, m)
    p2p_hops = b * stages * max(stages - 1, 0)
    if not a_dense:
        # dense A panels would ride collectives; only sparse A is thinned
        out["A-Broadcast"].update(
            latency_hops=p2p_hops,
            bytes=out["A-Broadcast"]["bytes"] * f_a,
            messages=b * stages * max(stages - 1, 0),
            comm_size=2,
        )
    if not b_dense:
        out["B-Broadcast"].update(
            latency_hops=p2p_hops,
            bytes=out["B-Broadcast"]["bytes"] * f_b,
            messages=b * stages * max(stages - 1, 0),
            comm_size=2,
        )
    # per batch: one mask allgather + one request alltoall on each of the
    # row and column communicators, bit-packed (1 bit per segment); the
    # A-side half is static and paid once (the "+1").
    mask_bytes = math.ceil(m / 8)
    out["Comm-Plan"] = {
        "latency_hops": 2 * (b + 1) * (_lg(stages) + max(stages - 1, 0)),
        "bytes": 2.0 * (b + 1) * stages * mask_bytes,
        "messages": 4 * (b + 1),
        "comm_size": stages,
    }
    return out


def comp_complexity(
    *,
    nprocs: int,
    layers: int,
    batches: int,
    flops: int,
    merge_kernel: str = "heap",
) -> dict[str, float]:
    """Table III: total per-process operation counts of the local kernels.

    ``Local-Multiply`` totals ``flops / p`` regardless of ``b`` and ``l``.
    The merge rows depend on the merge kernel:

    * ``"heap"`` — the paper's Table III as printed, which models the
      *prior-work* heap merge: k-way merging pays the logarithmic factors
      ``lg(p/l)`` (layer) and ``lg(l)`` (fiber) per entry;
    * ``"hash"`` — this paper's sort-free hash merge: O(1) per entry, so
      each merge step costs one pass over its input entries (no log
      factor).  This is what the paper's measured Table VII numbers
      correspond to after the kernel replacement.
    """
    p, l = nprocs, layers
    if merge_kernel == "heap":
        layer_factor, fiber_factor = _lg(p / l), _lg(l)
    elif merge_kernel == "hash":
        layer_factor = 1.0 if p / l > 1 else 0.0
        fiber_factor = 1.0 if l > 1 else 0.0
    else:
        raise ValueError(f"unknown merge kernel {merge_kernel!r}")
    return {
        "Local-Multiply": flops / p,
        "Merge-Layer": flops / p * layer_factor,
        "Merge-Fiber": flops / p * fiber_factor,
    }


def step_times_closed_form(
    machine: MachineSpec,
    *,
    nprocs: int,
    layers: int,
    batches: int,
    nnz_a: int,
    nnz_b: int,
    flops: int,
    dk_nnz_total: int | None = None,
    merge_kernel: str = "hash",
    comm_backend: str = "dense",
    inner_dim: int | None = None,
) -> dict[str, float]:
    """Seconds per step under the α–β model (Tables II + III combined).

    ``merge_kernel`` defaults to ``"hash"`` — the paper's implementation —
    while ``"heap"`` models the prior-work kernels (the Fig. 15 ablation).
    ``comm_backend="sparse"`` prices the SpComm3D-style point-to-point
    exchange instead (adds a ``Comm-Plan`` entry; needs ``inner_dim``).
    """
    comm = comm_complexity(
        nprocs=nprocs,
        layers=layers,
        batches=batches,
        nnz_a=nnz_a,
        nnz_b=nnz_b,
        flops=flops,
        dk_nnz_total=dk_nnz_total,
        backend=comm_backend,
        inner_dim=inner_dim,
    )
    comp = comp_complexity(
        nprocs=nprocs, layers=layers, batches=batches, flops=flops,
        merge_kernel=merge_kernel,
    )
    times: dict[str, float] = {}
    for step in ("A-Broadcast", "B-Broadcast"):
        c = comm[step]
        times[step] = machine.alpha * c["latency_hops"] + machine.beta * c["bytes"]
    c = comm["AllToAll-Fiber"]
    times["AllToAll-Fiber"] = (
        machine.alpha * c["latency_hops"] + machine.beta_alltoall * c["bytes"]
    )
    times["Symbolic"] = (
        machine.alpha * comm["Symbolic"]["latency_hops"]
        + machine.beta * comm["Symbolic"]["bytes"]
        + flops / nprocs / machine.symbolic_rate
    )
    if "Comm-Plan" in comm:
        c = comm["Comm-Plan"]
        times["Comm-Plan"] = (
            machine.alpha * c["latency_hops"] + machine.beta * c["bytes"]
        )
    for step, ops in comp.items():
        times[step] = ops / machine.sparse_rate
    return times


def total_comm_time(
    machine: MachineSpec,
    *,
    nprocs: int,
    layers: int,
    batches: int,
    nnz_a: int,
    nnz_b: int,
    flops: int,
    backend: str = "dense",
    inner_dim: int | None = None,
) -> float:
    """Summed α–β time of the communication steps (planner objective).

    With ``backend="sparse"`` the ``Comm-Plan`` handshake is included, so
    comparing backends at equal ``(p, l, b)`` is an apples-to-apples
    total.
    """
    comm = comm_complexity(
        nprocs=nprocs,
        layers=layers,
        batches=batches,
        nnz_a=nnz_a,
        nnz_b=nnz_b,
        flops=flops,
        backend=backend,
        inner_dim=inner_dim,
    )
    steps = ["A-Broadcast", "B-Broadcast", "AllToAll-Fiber"]
    if "Comm-Plan" in comm:
        steps.append("Comm-Plan")
    return sum(
        machine.alpha * comm[s]["latency_hops"] + machine.beta * comm[s]["bytes"]
        for s in steps
    )
