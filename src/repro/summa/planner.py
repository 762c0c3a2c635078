"""Batch-count bounds and layer selection (paper Sec. IV-A, contribution 3).

The exact batch count requires the distributed symbolic step
(:func:`~repro.summa.symbolic3d`), but cheap analytic bounds bracket it:

* **lower bound** — assume perfect merging inside Local-Multiply, so the
  unmerged intermediate is exactly ``nnz(C)`` (Eq. 2 with
  ``mem(C) = r * nnz(C)``);
* **upper bound** — assume no merging at all, so the intermediate is
  ``flops`` nonzeros (the worst case of Eq. 1).

The true per-process requirement sits between them (Eq. 1:
``flops >= sum_k nnz(D^(k)) >= nnz(C)``); a test asserts
``lower <= symbolic_b <= upper * slack`` where slack covers the
max-vs-mean load imbalance Alg. 3 deliberately budgets for.
"""

from __future__ import annotations

import math

from ..errors import MemoryBudgetError, PlannerError, SpmdError
from ..sparse.matrix import BYTES_PER_NONZERO


def _batches_bound(
    intermediate_nnz: int,
    nnz_a: int,
    nnz_b: int,
    memory_budget: int,
) -> int:
    r = BYTES_PER_NONZERO
    denom = memory_budget - r * (nnz_a + nnz_b)
    if denom <= 0:
        raise PlannerError(
            f"memory budget {memory_budget} B cannot even hold the inputs "
            f"({r * (nnz_a + nnz_b)} B)"
        )
    return max(1, math.ceil(r * intermediate_nnz / denom))


def batches_lower_bound(
    nnz_c: int,
    nnz_a: int,
    nnz_b: int,
    memory_budget: int,
) -> int:
    """Eq. (2) with perfect intermediate compression (``mem(C) = r nnz(C)``)."""
    return _batches_bound(nnz_c, nnz_a, nnz_b, memory_budget)


def batches_upper_bound(
    flops: int,
    nnz_a: int,
    nnz_b: int,
    memory_budget: int,
) -> int:
    """Eq. (2) with zero intermediate compression (``mem(C) = r flops``)."""
    return _batches_bound(flops, nnz_a, nnz_b, memory_budget)


from ..plan.spec import ExecPlan, ExecSpec


def _reify(
    plan: ExecPlan,
    *,
    nprocs: int,
    kernel,
    memory_budget,
    overlap: str,
    use_symbolic: bool,
    machine,
) -> ExecPlan:
    """Attach the executable spec and selection provenance to a winning
    candidate, turning the score table into a runnable :class:`ExecPlan`."""
    from dataclasses import replace

    spec = ExecSpec.from_kwargs(
        nprocs=nprocs,
        layers=plan.layers,
        batches=plan.batches,
        comm_backend=plan.backend,
        overlap=overlap,
        kernel=kernel,
        memory_budget=memory_budget,
    )
    provenance = {
        "mode": "auto",
        "use_symbolic": bool(use_symbolic),
        "machine": getattr(machine, "name", None) or type(machine).__name__,
        "candidates_scored": len(plan.candidates),
    }
    return replace(plan, spec=spec, provenance=provenance)


def choose_backend(
    a,
    b,
    *,
    nprocs: int,
    layers: int = 1,
    batches: int = 1,
    machine=None,
    overlap: str = "off",
) -> str:
    """Pick ``"dense"`` or ``"sparse"`` for one multiplication via the
    extended α–β model.

    Prices both backends' communication steps at the given ``(p, l, b)``
    — the sparse side including its ``Comm-Plan`` handshake — and returns
    the cheaper one.  Dense wins ties: on near-dense tiles the sparse
    backend moves the same bytes with strictly more messages.

    With ``overlap="depth1"`` the comparison switches from raw
    communication to the full pipelined makespan
    (:func:`~repro.model.predictor.predict_makespan`): once broadcasts
    hide behind the multiply, shaving bytes only matters while
    communication is still the per-stage maximum, which can flip the
    choice back to dense.
    """
    from ..model.complexity import total_comm_time
    from ..model.machine import CORI_KNL
    from ..sparse.spgemm.symbolic import symbolic_flops, symbolic_nnz

    if nprocs // max(layers, 1) <= 1:
        # single-stage grids broadcast nothing: no bytes to save
        return "dense"
    machine = machine if machine is not None else CORI_KNL
    common = dict(
        nprocs=nprocs,
        layers=layers,
        batches=batches,
        nnz_a=a.nnz,
        nnz_b=b.nnz,
        flops=symbolic_flops(a, b),
    )
    if overlap != "off":
        from ..model.predictor import predict_makespan

        common["nnz_c"] = symbolic_nnz(a, b)
        dense = predict_makespan(
            machine, comm_backend="dense", overlap=overlap, **common
        )
        sparse = predict_makespan(
            machine, comm_backend="sparse", inner_dim=a.ncols,
            overlap=overlap, **common,
        )
        return "sparse" if sparse < dense else "dense"
    dense = total_comm_time(machine, backend="dense", **common)
    sparse = total_comm_time(
        machine, backend="sparse", inner_dim=a.ncols, **common
    )
    return "sparse" if sparse < dense else "dense"


def _layer_counts(nprocs: int) -> list[int]:
    """The ``l`` for which ``p / l`` is a perfect square (valid 3D grids)."""
    return [
        layers for layers in range(1, nprocs + 1)
        if nprocs % layers == 0
        and math.isqrt(nprocs // layers) ** 2 == nprocs // layers
    ]


def _choose(candidates, backends, memory, *, nprocs, memory_budget) -> ExecPlan:
    """The argmin of the scored ``(layers, batches, seconds)`` table."""
    if not candidates:
        raise PlannerError(
            f"no feasible (layers, batches) configuration for nprocs={nprocs} "
            f"under budget {memory_budget}"
        )
    best_idx = min(range(len(candidates)), key=lambda i: candidates[i][2])
    best = candidates[best_idx]
    return ExecPlan(
        layers=best[0],
        batches=best[1],
        predicted_seconds=best[2],
        candidates=tuple(candidates),
        backend=backends[best_idx],
        predicted_memory=memory[best_idx],
    )


def _auto_config_kernel(
    kern,
    a,
    b,
    aux,
    nprocs: int,
    *,
    memory_budget: int | None,
    machine,
    overlap: str,
) -> ExecPlan:
    """Candidate loop for kernels without a symbolic pass (SpMM, SDDMM).

    Batch requirements come from the kernel's geometry-exact footprint
    model (:meth:`~repro.kernels.LocalKernel.batches_for_budget`) and the
    score from :func:`~repro.model.complexity.comm_complexity` with the
    dense-operand byte terms — there is no flop-based symbolic statistic
    to price the broadcasts with when an operand is a dense panel.
    """
    from ..kernels.base import operand_shape
    from ..model.complexity import comm_complexity

    am, ak = operand_shape(a)
    _, bn = operand_shape(b)
    a_sparse = kern.a_kind == "sparse"
    b_sparse = kern.b_kind == "sparse"
    nnz_a = int(a.nnz) if a_sparse and hasattr(a, "nnz") else 0
    nnz_b = int(b.nnz) if b_sparse and hasattr(b, "nnz") else 0
    dense_a = None if a_sparse else int(am) * int(ak) * 8
    dense_b = None if b_sparse else int(ak) * int(bn) * 8
    dense_c = int(am) * int(bn) * 8 if kern.output_kind == "dense" else None
    # fiber volume: dense kernels ship dense partials (dense_c term);
    # sparse-output ones (SDDMM) ship one aux-patterned partial per layer
    aux_nnz = int(aux.nnz) if aux is not None and hasattr(aux, "nnz") else 0
    candidates = []
    candidate_memory = []
    for layers in _layer_counts(nprocs):
        if memory_budget is None:
            batches = 1
        else:
            batches = kern.batches_for_budget(
                a, b, aux,
                nprocs=nprocs, layers=layers, memory_budget=memory_budget,
            )
        cand_memory = kern.predict_memory(
            a, b, aux,
            nprocs=nprocs, layers=layers, batches=batches,
            keep_output=True, overlap=overlap,
        )
        comm = comm_complexity(
            nprocs=nprocs,
            layers=layers,
            batches=batches,
            nnz_a=nnz_a,
            nnz_b=nnz_b,
            flops=layers * aux_nnz,
            kernel=kern.name,
            dense_a_bytes=dense_a,
            dense_b_bytes=dense_b,
            dense_c_bytes=dense_c,
        )
        predicted = sum(
            machine.alpha * c["latency_hops"] + machine.beta * c["bytes"]
            for step, c in comm.items()
            if step in ("A-Broadcast", "B-Broadcast", "AllToAll-Fiber")
        )
        candidates.append((layers, batches, predicted))
        candidate_memory.append(cand_memory)
    return _choose(
        candidates, ["dense"] * len(candidates), candidate_memory,
        nprocs=nprocs, memory_budget=memory_budget,
    )


def _candidate_batches(
    a, b, nprocs: int, layers: int, memory_budget, use_symbolic: bool, stats,
):
    """``(batches, predicted_memory)`` of one SpGEMM candidate grid, or
    ``None`` when the budget cannot hold it at this layer count."""
    if memory_budget is None:
        return 1, None
    if use_symbolic:
        from .symbolic3d import symbolic3d

        try:
            sym = symbolic3d(
                a, b, nprocs=nprocs, layers=layers, memory_budget=memory_budget,
            )
        except (MemoryBudgetError, SpmdError) as exc:
            if isinstance(exc, SpmdError) and not all(
                isinstance(e, MemoryBudgetError)
                for e in exc.failures.values()
            ):
                raise
            # genuinely infeasible at this layer count: the per-process
            # input maxima exceed the share (layering splits tiles
            # thinner, so higher l can be feasible where l=1 is not)
            return None
        return sym.batches, sym.info.get("predicted_memory")
    from ..model.memory import (
        estimate_batches,
        estimate_max_tile_stats,
        predict_memory,
    )

    try:
        batches = estimate_batches(
            memory_budget=memory_budget, nprocs=nprocs, layers=layers, **stats,
        )
    except MemoryBudgetError:
        return None
    return batches, predict_memory(
        nprocs=nprocs, layers=layers, batches=batches, basis="estimate",
        **estimate_max_tile_stats(nprocs=nprocs, layers=layers, **stats),
    )


def _price(machine, a, nprocs, layers, batches, backends, overlap, stats):
    """``(seconds, backend)`` of one candidate: the α–β step times folded
    into a makespan, under the cheapest of ``backends``."""
    from ..model.predictor import overlapped_makespan, predict_steps

    return min(
        (
            overlapped_makespan(
                predict_steps(
                    machine, nprocs=nprocs, layers=layers,
                    batches=batches, comm_backend=be,
                    inner_dim=a.ncols, **stats,
                ),
                stages=math.isqrt(nprocs // layers),
                overlap=overlap,
            ),
            be,
        )
        for be in backends
    )


def auto_config(
    a,
    b,
    nprocs: int,
    *,
    memory_budget: int | None = None,
    machine=None,
    use_symbolic: bool = True,
    backend: str = "dense",
    overlap: str = "off",
    kernel="spgemm",
    sample=None,
) -> ExecPlan:
    """Choose layers and batches jointly for one multiplication.

    For every valid layer count the batch requirement is computed — by the
    *exact* distributed symbolic step when ``use_symbolic`` (the paper's
    procedure), else by the analytic estimate — and the α–β model scores
    the full per-step time.  The argmin is returned with the whole
    candidate table for inspection.

    This automates the paper's manual procedure ("we set l = 16 as it
    usually gives the best result", Sec. V-D) and resolves its observed
    tension: more layers cut broadcasts but can *increase* the batch count
    (Fig. 10), so the two must be chosen together.

    ``backend`` prices the candidates under one communication backend
    (``"dense"`` or ``"sparse"``); ``"auto"`` scores each candidate under
    both and keeps the cheaper, recording the winner in
    ``ExecPlan.backend``.  Candidate tuples stay ``(layers, batches,
    predicted_seconds)`` with the per-candidate best time.

    Returns a :class:`~repro.plan.ExecPlan`: the winning candidate with
    its executable :class:`~repro.plan.ExecSpec` attached and
    ``provenance`` recording how it was chosen — pass it straight to
    :func:`~repro.summa.run_plan`.

    ``overlap="depth1"`` scores candidates with the pipelined makespan
    (broadcasts hidden behind the multiply, per stage the maximum of the
    two) instead of the plain step sum — overlap rewards stage-heavy
    (low-layer) grids, so the chosen ``l`` can shift.  With ``"off"``
    the score is exactly ``predict_steps(...).total()`` as before.

    ``kernel=`` plans for a non-SpGEMM local kernel: kernels without a
    symbolic pass (``"spmm"``, ``"sddmm"``) take a dense-aware candidate
    loop — batch counts from the kernel's own footprint model, scores
    from the dense-operand communication terms (``sample=`` supplies
    SDDMM's pattern).  ``"masked_spgemm"`` plans like SpGEMM: the
    symbolic statistics upper-bound the masked intermediate.
    """
    from ..kernels import get_kernel
    from ..model.machine import CORI_KNL
    from ..sparse.spgemm.symbolic import symbolic_flops, symbolic_nnz

    kern = get_kernel(kernel)
    machine = machine if machine is not None else CORI_KNL
    chosen_under = dict(
        nprocs=nprocs, kernel=kernel, memory_budget=memory_budget,
        overlap=overlap, machine=machine,
    )
    if not kern.supports_symbolic:
        return _reify(
            _auto_config_kernel(
                kern, a, b, sample, nprocs,
                memory_budget=memory_budget, machine=machine, overlap=overlap,
            ),
            use_symbolic=False, **chosen_under,
        )
    if backend not in ("dense", "sparse", "auto"):
        raise PlannerError(f"unknown communication backend {backend!r}")
    backends = ("dense", "sparse") if backend == "auto" else (backend,)
    stats = dict(
        nnz_a=a.nnz,
        nnz_b=b.nnz,
        nnz_c=symbolic_nnz(a, b),
        flops=symbolic_flops(a, b),
    )
    candidates = []
    candidate_backends = []
    candidate_memory = []
    for layers in _layer_counts(nprocs):
        sized = _candidate_batches(
            a, b, nprocs, layers, memory_budget, use_symbolic, stats
        )
        if sized is None:
            continue
        batches, cand_memory = sized
        predicted, cand_backend = _price(
            machine, a, nprocs, layers, batches, backends, overlap, stats
        )
        candidates.append((layers, batches, predicted))
        candidate_backends.append(cand_backend)
        candidate_memory.append(cand_memory)
    return _reify(
        _choose(
            candidates, candidate_backends, candidate_memory,
            nprocs=nprocs, memory_budget=memory_budget,
        ),
        use_symbolic=use_symbolic, **chosen_under,
    )
