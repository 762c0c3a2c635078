"""First-class execution plans for the SUMMA family.

The paper's core loop — pick ``(grid, layers, b)`` from an analytic
model, then run under a memory constraint — used to be spelled as ~25
loose keyword arguments copy-pasted across every driver.  This package
reifies it into two values:

* :class:`ExecSpec` — the frozen *request*: every run knob (kernel,
  semiring, comm backend, overlap, world/transport, batching, budget +
  enforcement, resilience, checkpointing), with
  ``to_dict``/``from_dict`` round-tripping that tolerates unknown keys
  (forward compatibility for checkpoint manifests and the serve layer).
* :class:`ExecPlan` — the resolved *decision*: a spec plus the chosen
  ``layers``/``batches``/``backend``, the model's predicted makespan and
  memory, and the provenance of how it was chosen (auto-config scoring
  or explicit knobs).

:func:`repro.summa.run_plan` executes a plan; the classic drivers
(:func:`~repro.summa.batched_summa3d` and friends) are thin shims that
build a spec from their kwargs through the single conversion point
:meth:`ExecSpec.from_kwargs`.  A plan is chosen once, before the run.
"""

from __future__ import annotations

from .spec import SPEC_FIELDS, SPEC_VERSION, ExecPlan, ExecSpec

__all__ = ["ExecPlan", "ExecSpec", "SPEC_FIELDS", "SPEC_VERSION"]
