"""First-class execution plans for the SUMMA family.

The paper's core loop — pick ``(grid, layers, b)`` from an analytic
model, then run under a memory constraint — used to be spelled as ~25
loose keyword arguments copy-pasted across every driver.  This package
reifies it into two values:

* :class:`ExecSpec` — the frozen *request*: every run knob (kernel,
  semiring, comm backend, overlap, world/transport, batching, budget +
  enforcement, resilience, checkpointing, replanning), with
  ``to_dict``/``from_dict`` round-tripping that tolerates unknown keys
  (forward compatibility for checkpoint manifests and the serve layer).
* :class:`ExecPlan` — the resolved *decision*: a spec plus the chosen
  ``layers``/``batches``/``backend``, the model's predicted makespan and
  memory, and the provenance of how it was chosen (auto-config scoring,
  explicit knobs, or a mid-run amendment trail).

:func:`repro.summa.run_plan` executes a plan; the classic drivers
(:func:`~repro.summa.batched_summa3d` and friends) are thin shims that
build a spec from their kwargs through the single conversion point
:meth:`ExecSpec.from_kwargs`.  :class:`Replanner` re-examines the plan
at batch boundaries from measured evidence and may amend it mid-run.
"""

from __future__ import annotations

from .replan import (
    ReplanPolicy,
    Replanner,
    decide_replan,
    modelled_comm_per_batch,
)
from .spec import (
    REPLAN_MODES,
    SPEC_FIELDS,
    SPEC_VERSION,
    ExecPlan,
    ExecSpec,
)

__all__ = [
    "ExecPlan",
    "ExecSpec",
    "REPLAN_MODES",
    "ReplanPolicy",
    "Replanner",
    "SPEC_FIELDS",
    "SPEC_VERSION",
    "decide_replan",
    "modelled_comm_per_batch",
]
