"""Recovery machinery for faults injected (or, one day, real).

The injection side lives in :mod:`repro.simmpi.faults`; this package is
the side that *survives* it:

* :class:`RetryPolicy` — bounded, deterministic retry of transiently
  failed communication attempts, applied inside both
  :class:`~repro.comm.CommBackend` implementations and the symbolic
  step.  Backoff is *simulated* (recorded, never slept, never random) so
  faulty runs stay exactly reproducible.
* :class:`CheckpointManager` — a manifest-backed, atomically written
  checkpoint directory over the batch granularity of BatchedSUMMA3D
  (paper Alg. 4): each completed batch is durable the moment the last
  rank finishes it, so ``batched_summa3d(..., checkpoint_dir=...,
  resume=True)`` restarts from the last completed batch instead of
  batch 0.
* graceful degradation — a :class:`~repro.errors.MemoryPressureError`
  makes the driver double the batch count (the paper's own memory
  lever) and rerun, rather than die.
* healing (:mod:`repro.resilience.heal`) — a rank death under
  ``heal=`` is the driver's third amendment: :class:`HealContext`
  repairs the grid (a spare takes the dead position, or it is respawned
  onto a surviving host — a :class:`HealDecision`) and the run re-enters
  from the checkpointed batch boundary, bit-identical to a fault-free
  run.
"""

from .checkpoint import CheckpointManager, run_key
from .heal import HEAL_MODES, HealContext, HealDecision
from .retry import RetryPolicy

__all__ = [
    "RetryPolicy", "CheckpointManager", "run_key",
    "HealContext", "HealDecision", "HEAL_MODES",
]
