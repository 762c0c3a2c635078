"""Per-process memory model (paper Table III / Sec. III-B).

The paper sizes BatchedSUMMA3D's footprint from three symbolic statistics
— ``maxnnz(A_ik)``, ``maxnnz(B_kj)`` and ``maxnnz(Ĉ_ij)`` (the largest
per-process *unmerged* intermediate) — at ``r`` bytes per nonzero:
resident input tiles, broadcast pieces in flight, and a ``1/b`` share of
the partial-result fibers per batch.  Alg. 3 line 12 inverts the same
terms to choose ``b``; :func:`batches_for_budget` is that rule, and
:func:`predict_memory` is the forward direction — the predicted
high-water mark a run's :class:`~repro.mem.MemoryLedger` should measure.

The closed loop: drivers attach :func:`predict_memory`'s output to
``info["memory"]["model"]`` alongside the measured marks, with the
predicted/measured ratio in ``info["memory"]["model_error"]``; the
:func:`fit_memory_model` least-squares fit (style of
:func:`repro.model.calibrate.fit_machine`) turns a set of such runs into
per-category correction factors, which feed back in via ``scale=``.

The category names match :data:`repro.mem.CATEGORIES`, so predicted and
measured blocks line up key for key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import MemoryBudgetError
from ..sparse.matrix import BYTES_PER_NONZERO
from .predictor import estimate_dk_nnz

__all__ = [
    "MemoryFit",
    "batches_for_budget",
    "estimate_batches",
    "estimate_max_tile_stats",
    "fit_memory_model",
    "predict_memory",
]


def batches_for_budget(
    *,
    memory_budget: int,
    nprocs: int,
    max_nnz_a: int,
    max_nnz_b: int,
    max_nnz_c: int,
    max_batches: int | None = None,
) -> int:
    """Alg. 3 line 12: the batch count that fits the aggregate budget.

    ``memory_budget`` is the aggregate ``M`` over all processes (the
    symbolic step's convention); the rule works with the per-process
    share ``M / p``.  Raises :class:`~repro.errors.MemoryBudgetError`
    when the inputs alone exceed it — no batch count helps then.
    ``max_batches`` caps the answer (a batch needs at least one output
    column, so drivers pass ``b.ncols``).
    """
    r = BYTES_PER_NONZERO
    per_proc = memory_budget / nprocs
    denom = per_proc - r * (max_nnz_a + max_nnz_b)
    if denom <= 0:
        raise MemoryBudgetError(
            f"inputs alone exceed the per-process budget: M/p = {per_proc:.0f} B "
            f"<= r*(maxnnzA + maxnnzB) = {r * (max_nnz_a + max_nnz_b)} B"
        )
    batches = max(1, math.ceil(r * max_nnz_c / denom))
    if max_batches is not None:
        batches = min(batches, max(1, int(max_batches)))
    return batches


def estimate_max_tile_stats(
    *,
    nnz_a: int,
    nnz_b: int,
    nnz_c: int,
    flops: int,
    nprocs: int,
    layers: int,
    imbalance: float = 1.3,
) -> dict:
    """Analytic stand-in for the symbolic maxima at paper scale.

    When no symbolic step has run (the planner's ``use_symbolic=False``
    path), derive the three Table III statistics from global counts: each
    per-process maximum is the balanced share times the ``imbalance``
    factor, and the intermediate uses the layer-compression model
    :func:`~repro.model.predictor.estimate_dk_nnz`.
    """
    dk = estimate_dk_nnz(nnz_c, flops, layers)
    return {
        "max_nnz_a": math.ceil(imbalance * nnz_a / nprocs),
        "max_nnz_b": math.ceil(imbalance * nnz_b / nprocs),
        "max_nnz_c": math.ceil(imbalance * dk / nprocs),
    }


def estimate_batches(
    *,
    memory_budget: int,
    nprocs: int,
    layers: int,
    nnz_a: int,
    nnz_b: int,
    nnz_c: int,
    flops: int,
    imbalance: float = 1.0,
) -> int:
    """Analytic stand-in for the symbolic step at paper scale: Alg. 3
    line 12 (:func:`batches_for_budget`) on the estimated maxima of
    :func:`estimate_max_tile_stats`.

    ``imbalance`` is the max/mean load factor Alg. 3 budgets for (1.0 =
    perfectly balanced).  Raises :class:`~repro.errors.MemoryBudgetError`
    when the inputs alone overflow the per-process budget.
    """
    return batches_for_budget(
        memory_budget=memory_budget, nprocs=nprocs,
        **estimate_max_tile_stats(
            nnz_a=nnz_a, nnz_b=nnz_b, nnz_c=nnz_c, flops=flops,
            nprocs=nprocs, layers=layers, imbalance=imbalance,
        ),
    )


def predict_memory(
    *,
    nprocs: int,
    layers: int,
    batches: int,
    max_nnz_a: int,
    max_nnz_b: int,
    max_nnz_c: int,
    overlap: str = "off",
    scale: float = 1.0,
    basis: str = "symbolic",
) -> dict:
    """Table III per-process memory estimate, per ledger category.

    Terms (``r`` = :data:`~repro.sparse.matrix.BYTES_PER_NONZERO`, ``b`` = ``batches``):

    * ``a_piece`` / ``b_piece`` — resident input tiles, ``r * maxnnz(A_ik)``
      and ``r * maxnnz(B_kj)``;
    * ``recv_buffer`` — broadcast pieces in flight, ``r * maxnnz(A_ik) +
      r * maxnnz(B_kj) / b`` (a stage receives a whole peer A tile but
      only a ``1/b`` column slice of B).  Depth-1 overlap double-buffers
      the operands, doubling this term.  With ``layers > 1`` the
      AllToAll-Fiber pieces (one ``1/b`` share of the intermediate) are
      in flight too;
    * ``merge_scratch`` — the per-batch share of the unmerged
      partial-result fibers, ``r * maxnnz(Ĉ_ij) / b`` — the term Alg. 3
      divides by ``b`` to fit the budget;
    * ``output_batch`` — one batch's transient output tile (a rank hands
      each finished batch on and holds no accumulated C);
    * ``checkpoint`` — 0 (driver-side, not a rank cost).

    ``high_water_total`` is *not* the category sum: the output tile
    replaces the scratch it is merged from, so the worst instant of a
    batch is inputs + recv + scratch.  Returns a dict shaped like the measured
    ``info["memory"]["categories"]`` block so predicted and measured
    compare key for key; ``scale`` applies a calibration factor from
    :func:`fit_memory_model`.
    """
    if batches < 1:
        raise ValueError(f"batches must be >= 1, got {batches}")
    r = BYTES_PER_NONZERO
    b = batches
    a_piece = r * max_nnz_a
    b_piece = r * max_nnz_b
    bcast = r * max_nnz_a + math.ceil(r * max_nnz_b / b)
    if overlap == "depth1":
        bcast *= 2
    scratch = math.ceil(r * max_nnz_c / b)
    fiber = scratch if layers > 1 else 0
    recv_buffer = bcast + fiber
    total = a_piece + b_piece + recv_buffer + scratch
    categories = {
        "a_piece": a_piece,
        "b_piece": b_piece,
        "recv_buffer": recv_buffer,
        "merge_scratch": scratch,
        "output_batch": scratch,
        "checkpoint": 0,
    }
    return {
        "categories": {
            cat: int(round(v * scale)) for cat, v in categories.items()
        },
        "high_water_total": int(round(total * scale)),
        "basis": basis,
        "params": {
            "nprocs": nprocs,
            "layers": layers,
            "batches": b,
            "overlap": overlap,
            "scale": scale,
        },
    }


@dataclass(frozen=True)
class MemoryFit:
    """Calibration of the memory model against measured ledgers.

    ``scale`` multiplies the predicted total into the measured one in the
    least-squares sense; ``category_scale`` does the same per category
    (categories never observed stay at 1.0).  ``mean_abs_error`` is the
    mean of ``|predicted * scale - measured| / measured`` over the
    observations — the residual the calibration could not remove.
    """

    scale: float
    category_scale: dict = field(default_factory=dict)
    mean_abs_error: float = 0.0

    def apply(self, predicted: dict) -> dict:
        """Rescale a :func:`predict_memory` block by this fit."""
        out = dict(predicted)
        out["high_water_total"] = int(round(predicted["high_water_total"] * self.scale))
        out["categories"] = {
            cat: int(round(v * self.category_scale.get(cat, self.scale)))
            for cat, v in predicted.get("categories", {}).items()
        }
        return out


def _totals(block: dict) -> tuple[float, dict]:
    """Accept either a full predicted/measured block or a bare category
    map and return (total, per-category highs)."""
    cats = block.get("categories", block)
    highs = {
        cat: float(v["high_water"] if isinstance(v, dict) else v)
        for cat, v in cats.items()
    }
    total = float(block.get("high_water_total", sum(highs.values())))
    return total, highs


def fit_memory_model(observations) -> MemoryFit:
    """Least-squares fit of predicted → measured memory (through the
    origin), in the style of :func:`repro.model.calibrate.fit_machine`.

    ``observations`` is an iterable of ``(predicted, measured)`` pairs,
    each a :func:`predict_memory`-shaped block or the measured
    ``info["memory"]`` block (bare ``{category: bytes}`` maps also work).
    """
    obs = list(observations)
    if not obs:
        raise ValueError("fit_memory_model needs at least one observation")
    num = den = 0.0
    cat_num: dict[str, float] = {}
    cat_den: dict[str, float] = {}
    totals = []
    for predicted, measured in obs:
        p_total, p_cats = _totals(predicted)
        m_total, m_cats = _totals(measured)
        num += p_total * m_total
        den += p_total * p_total
        totals.append((p_total, m_total))
        for cat, p in p_cats.items():
            m = m_cats.get(cat, 0.0)
            cat_num[cat] = cat_num.get(cat, 0.0) + p * m
            cat_den[cat] = cat_den.get(cat, 0.0) + p * p
    scale = num / den if den else 1.0
    category_scale = {
        cat: (cat_num[cat] / cat_den[cat]) if cat_den[cat] else 1.0
        for cat in cat_den
    }
    errors = [
        abs(p * scale - m) / m for p, m in totals if m
    ]
    mean_abs_error = sum(errors) / len(errors) if errors else 0.0
    return MemoryFit(
        scale=scale, category_scale=category_scale, mean_abs_error=mean_abs_error
    )
