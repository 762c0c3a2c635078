"""Mid-run replanning at batch boundaries (ROADMAP item 4, first cut).

BatchedSUMMA3D's batch loop gives the run natural decision points: after
each batch every rank holds fresh *measured* evidence — per-step
:class:`~repro.summa.trace.Tracer` spans and the
:class:`~repro.mem.MemoryLedger`'s per-batch peak — against which the
plan that chose ``b`` and the comm backend can be re-examined.  The
:class:`Replanner` runs as the rank program's ``replan-check`` step at
the end of every non-final batch:

1. each rank folds its own batch's spans into three scalars — the
   per-batch *fixed* cost (A-Broadcast + Comm-Plan, paid once per batch
   regardless of ``b``), the per-batch *scaled* cost (everything
   proportional to the batch's share of columns: B-Broadcast, multiply,
   merges, fiber exchange, postprocess) and the communication subtotal —
   plus the ledger's batch peak;
2. the scalars are max-allreduced, so **every rank sees identical
   numbers** and the pure decision function below returns the identical
   verdict everywhere — the SPMD contract that lets all ranks raise the
   :class:`~repro.errors.ReplanSignal` together (or none at all);
3. the driver catches the collective signal and re-enters the existing
   re-batch path (PR 3) with the amended plan.

The amendments mirror the paper's own levers: *shrink* ``b`` when the
measured fixed cost dominates (column batching re-broadcasts A once per
batch — fewer batches pay it fewer times), *grow* ``b`` when the
measured per-batch peak exceeds the budget before strict enforcement
would trip, and *flip* the dense↔sparse backend when the fitted α–β
model — calibrated by the measured/modelled ratio of the current
backend — prices the other one under the hysteresis threshold.

Replanning **never changes the product**: an amendment that changes the
batch count restarts from batch 0 (the block-cyclic column geometry is a
function of ``b``), and a backend flip moves identical values — either
way the run is bit-identical to a fixed-plan run of the final
configuration, which the plan tests pin.

Hysteresis keeps a noisy-but-stable run from thrashing: a minimum number
of observed batches, a relative predicted-gain threshold, an absolute
gain floor, and a hard bound of :data:`MAX_REPLANS` amendments per run
(which also guarantees termination).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReplanSignal
from ..summa.trace import (
    STEP_A_BCAST,
    STEP_ALLTOALL_FIBER,
    STEP_B_BCAST,
    STEP_COMM_PLAN,
    STEP_LOCAL_MULTIPLY,
    STEP_MERGE_FIBER,
    STEP_MERGE_LAYER,
    STEP_POSTPROCESS,
)

#: mid-run amendments one run may adopt (forced ones included)
MAX_REPLANS = 2

#: steps whose per-batch cost is invariant in ``b`` (paid once per batch:
#: the full A tile is re-broadcast and the sparse backend re-plans).
_FIXED_STEPS = (STEP_A_BCAST, STEP_COMM_PLAN)
#: steps whose per-batch cost is proportional to the batch's column share.
_SCALED_STEPS = (
    STEP_B_BCAST, STEP_LOCAL_MULTIPLY, STEP_MERGE_LAYER,
    STEP_ALLTOALL_FIBER, STEP_MERGE_FIBER, STEP_POSTPROCESS,
)
#: the communication subset (both fixed and scaled) — the backend flip's
#: calibration basis.
_COMM_STEPS = (
    STEP_A_BCAST, STEP_B_BCAST, STEP_COMM_PLAN, STEP_ALLTOALL_FIBER,
)


@dataclass(frozen=True)
class ReplanPolicy:
    """The picklable decision configuration shipped to every rank.

    Frozen and value-only so the process world can send it to workers;
    the driver re-issues it with ``revision`` bumped after each adopted
    amendment.  ``modelled_comm`` carries the driver's α–β per-batch
    communication estimate for both backends (``(("dense", s),
    ("sparse", s))``) — the backend flip compares their *ratio*, scaled
    by the measured time of the current backend, so the model only has
    to rank the backends, not predict wall seconds.  ``force`` holds
    ``((batch, {field: value}), ...)`` amendments raised unconditionally
    at those batch boundaries (the driver's test seam,
    ``repro.summa.batched._REPLAN_FORCE``).
    """

    threshold: float = 0.15
    min_batches: int = 1
    max_replans: int = MAX_REPLANS
    min_gain_s: float = 1e-4
    safety: float = 0.8
    allow_shrink: bool = True
    allow_grow: bool = True
    allow_backend_flip: bool = True
    revision: int = 0
    resumable: bool = False
    modelled_comm: tuple = ()
    force: tuple = ()


def decide_replan(
    policy: ReplanPolicy,
    *,
    batches: int,
    batch: int,
    backend: str,
    t_fixed: float,
    t_scaled: float,
    t_comm: float,
    peak: float,
    fixed_mem: float,
    budget: float | None,
    max_batches: int,
) -> tuple[dict, str] | None:
    """The pure amendment decision — identical inputs on every rank give
    the identical verdict, which is what makes the collective raise safe.

    Returns ``({field: value}, reason)`` or ``None`` (stay the course).
    All ``t_*`` are this batch's max-over-ranks seconds; ``peak`` /
    ``fixed_mem`` the max-over-ranks per-batch ledger peak and the
    operand-resident share of it; ``budget`` the per-rank byte budget.

    Cost algebra (per batch, under the current count ``b``): a batch
    costs ``t_fixed + t_scaled`` where ``t_fixed`` is invariant in ``b``
    and ``t_scaled`` scales as ``1/b`` — so a full run at ``b'`` batches
    is predicted at ``b' * t_fixed + b * t_scaled`` (work conserved),
    while finishing the remaining ``rem`` batches as planned costs
    ``rem * (t_fixed + t_scaled)``.
    """
    rem = batches - (batch + 1)
    if rem <= 0 or policy.revision >= policy.max_replans:
        return None
    t_batch = t_fixed + t_scaled
    if t_batch <= 0.0:
        return None

    def better(t_switch: float, t_keep: float) -> bool:
        return (
            t_switch < (1.0 - policy.threshold) * t_keep
            and (t_keep - t_switch) > policy.min_gain_s
        )

    t_keep = rem * t_batch

    # grow: the measured per-batch peak is over budget but enforcement
    # (off/warn) will not re-batch for us — act before the overrun grows.
    if (
        policy.allow_grow and budget is not None and peak > budget
        and batches < max_batches
    ):
        new_b = min(batches * 2, max_batches)
        if new_b > batches:
            return {"batches": new_b}, "over-budget"

    # shrink: the fixed per-batch cost (A re-broadcast) dominates, so
    # paying it fewer times beats the restart.
    if policy.allow_shrink and batches > 1:
        new_b = max(1, batches // 2)
        feasible = True
        if budget is not None:
            scaled_mem = max(0.0, peak - fixed_mem)
            pred_peak = fixed_mem + scaled_mem * (batches / new_b)
            feasible = pred_peak <= budget * policy.safety
        if feasible:
            t_switch = new_b * t_fixed + batches * t_scaled
            if better(t_switch, t_keep):
                return {"batches": new_b}, "fixed-cost-dominated"

    # flip: the calibrated α–β model prices the other backend's
    # communication under the measured one by enough margin to cover
    # redoing the already-computed batches (all of them without a
    # checkpoint, only the remainder with one).
    if policy.allow_backend_flip and t_comm > 0.0:
        modelled = dict(policy.modelled_comm)
        other = "sparse" if backend == "dense" else "dense"
        m_cur = modelled.get(backend)
        m_other = modelled.get(other)
        if m_cur and m_other:
            per_batch_other = t_batch - t_comm + t_comm * (m_other / m_cur)
            redo = rem if policy.resumable else batches
            t_switch = redo * per_batch_other
            if better(t_switch, t_keep):
                return {"comm_backend": other}, "comm-bound-backend"
    return None


class Replanner:
    """Per-rank controller consulted by the ``replan-check`` step.

    Holds the policy plus the attempt's start batch (so the hysteresis
    counter measures batches observed *under the current plan*, not
    resumed-over ones).  :meth:`check` either returns quietly or raises
    a :class:`~repro.errors.ReplanSignal` — on every rank at once.
    """

    def __init__(self, policy: ReplanPolicy, *, start_batch: int = 0) -> None:
        self.policy = policy
        self.start_batch = int(start_batch)

    def measure(self, state, batch: int) -> dict:
        """This rank's local per-batch scalars from its tracer spans and
        ledger (pre-allreduce)."""
        t_fixed = t_scaled = t_comm = 0.0
        for span in state.tracer.spans:
            if span.batch != batch or not span.timed:
                continue
            if span.op in _FIXED_STEPS:
                t_fixed += span.duration
            elif span.op in _SCALED_STEPS:
                t_scaled += span.duration
            if span.op in _COMM_STEPS:
                t_comm += span.duration
        ledger = state.ledger
        return {
            "t_fixed": t_fixed,
            "t_scaled": t_scaled,
            "t_comm": t_comm,
            "peak": float(ledger.batch_peak(batch)),
            "fixed_mem": float(
                ledger.high_water("a_piece") + ledger.high_water("b_piece")
            ),
        }

    def check(self, state, batch: int) -> None:
        policy = self.policy
        if policy.revision >= policy.max_replans:
            return
        # forced amendments (deterministic test/demo hook): static data,
        # so every rank raises identically without any communication.
        for at, amend in policy.force:
            if int(at) == batch:
                raise ReplanSignal(
                    f"forced replan at batch {batch}: {dict(amend)}",
                    batch=batch, batches=state.batches,
                    amended=dict(amend), reason="forced",
                )
        if state.batches - (batch + 1) <= 0:
            return
        if (batch - self.start_batch + 1) < policy.min_batches:
            return
        local = self.measure(state, batch)
        # max-allreduce every scalar: all ranks then evaluate the pure
        # decision on identical inputs — a collective verdict.
        world = state.comms.world
        agreed = {
            key: float(world.allreduce(value, op="max"))
            for key, value in sorted(local.items())
        }
        budget = state.ledger.budget
        decision = decide_replan(
            policy,
            batches=state.batches,
            batch=batch,
            backend=state.backend.name,
            budget=None if budget is None else float(budget),
            max_batches=max(1, state.b_ncols),
            **agreed,
        )
        if decision is None:
            return
        amended, reason = decision
        raise ReplanSignal(
            f"replan at batch {batch} ({reason}): {amended}",
            batch=batch, batches=state.batches, amended=amended,
            reason=reason, measurements=agreed,
        )


def modelled_comm_per_batch(a, b, spec, batches: int | None) -> tuple:
    """Driver-side α–β per-batch communication estimate for both
    backends — the :class:`ReplanPolicy.modelled_comm` table.

    Runs one symbolic pass over the global operands (SpGEMM-family
    kernels only; the caller gates on ``kernel.supports_symbolic``).
    Returns ``()`` when the operands are not plain sparse matrices or
    the model cannot price them — the flip lever then simply stays off.
    """
    from ..model.machine import CORI_KNL
    from ..model.predictor import predict_steps
    from ..sparse.matrix import SparseMatrix
    from ..sparse.spgemm.symbolic import symbolic_flops, symbolic_nnz

    if not (isinstance(a, SparseMatrix) and isinstance(b, SparseMatrix)):
        return ()
    b_eff = max(1, int(batches or 1))
    try:
        stats = dict(
            nnz_a=a.nnz, nnz_b=b.nnz,
            nnz_c=symbolic_nnz(a, b), flops=symbolic_flops(a, b),
        )
        table = []
        for be in ("dense", "sparse"):
            steps = predict_steps(
                CORI_KNL, nprocs=spec.nprocs, layers=spec.layers,
                batches=b_eff, comm_backend=be, inner_dim=a.ncols, **stats,
            )
            comm = sum(steps.get(s) for s in _COMM_STEPS)
            table.append((be, comm / b_eff))
        return tuple(table)
    except (ValueError, ZeroDivisionError):
        return ()
