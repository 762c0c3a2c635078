"""Recovery machinery for faults injected (or, one day, real).

The injection side lives in :mod:`repro.simmpi.faults`; this package is
the side that *survives* it:

* :class:`RetryPolicy` — bounded (:data:`MAX_RETRIES`), deterministic
  retry of transiently failed communication attempts, applied at the entry of every op the
  rank program issues (:meth:`repro.simmpi.comm.SimComm._inject`).  Backoff is *simulated* (recorded, never slept, never random) so
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
* healing — under ``heal=True`` a rank death is the driver's third
  amendment (:func:`repro.summa.batched._amend`): every batch is an
  independent column block of ``C``, so the run re-enters from the last
  checkpointed batch on the same grid, bit-identical to a fault-free
  run, up to a fixed round budget (past it, a
  :class:`~repro.errors.HealError`).
"""

from .checkpoint import CheckpointManager, run_key
from .retry import MAX_RETRIES, RetryPolicy

__all__ = ["MAX_RETRIES", "RetryPolicy", "CheckpointManager", "run_key"]
