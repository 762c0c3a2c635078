"""Bounded deterministic retry of transient communication faults.

A :class:`RetryPolicy` wraps the entry of an individual communication
attempt — one ``bcast``, one ``isend``, one ``recv``, one ``alltoallv``
— and re-runs it when it raises :class:`~repro.errors.TransientCommError`.
Injection happens at operation *entry* (see
:meth:`repro.simmpi.faults.FaultInjector.on_attempt`), before the
operation touches any shared rendezvous state, so re-running the entry
on the failing rank alone is always alignment-safe: the peers are still
parked in the collective, waiting.  The rank program installs one policy
on its endpoint, and :meth:`repro.simmpi.comm.SimComm._inject` runs the
entry hook of every op under it — the one call site.

Backoff is world-aware:

* **threads** (the deterministic reference) — backoff is **simulated**:
  the policy computes the exponential delay a real system would sleep,
  records it in the tracker and the injector's event log, and does *not*
  sleep and does *not* draw randomness — a faulty run is a pure function
  of the fault plan.
* **processes** (``world.real_backoff`` is true) — the retrying rank is
  a real OS process contending for a real queue, so the policy actually
  sleeps: the same exponential schedule plus a small deterministic
  de-synchronisation jitter (a pure function of ``(rank, attempt)``, no
  RNG), the whole delay clamped to :attr:`RetryPolicy.sleep_cap` so an
  injected fault storm can never stall a worker near its watchdog
  deadline.  The *recorded* backoff is the slept value, keeping
  ``fault_stats`` faithful to what the run actually did.
"""

from __future__ import annotations

import time

from ..errors import TransientCommError

#: tracker op label for a retried communication attempt.
RETRY_OP = "retry"

#: retries of one transiently failed attempt before the fault surfaces;
#: the rank program installs ``RetryPolicy(MAX_RETRIES)`` on every rank
MAX_RETRIES = 3


class RetryPolicy:
    """Retry transiently-failing communication attempts, boundedly.

    Parameters
    ----------
    max_retries:
        Extra attempts after the first failure; attempt ``max_retries + 1``
        failing re-raises the :class:`~repro.errors.TransientCommError`.
    backoff_base:
        Delay before the first retry, in seconds (simulated under
        threads, slept under processes).
    multiplier:
        Exponential backoff factor between consecutive retries.
    sleep_cap:
        Upper bound, in seconds, on any single *real* sleep (process
        world only); also caps the jitter's contribution.
    """

    __slots__ = ("max_retries", "backoff_base", "multiplier", "sleep_cap")

    def __init__(
        self,
        max_retries: int = MAX_RETRIES,
        *,
        backoff_base: float = 0.001,
        multiplier: float = 2.0,
        sleep_cap: float = 0.05,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.multiplier = float(multiplier)
        if sleep_cap <= 0:
            raise ValueError(f"sleep_cap must be > 0, got {sleep_cap}")
        self.sleep_cap = float(sleep_cap)

    def backoff(self, attempt: int) -> float:
        """Base delay before retry number ``attempt`` (1-based)."""
        return self.backoff_base * self.multiplier ** (attempt - 1)

    def jitter(self, rank: int, attempt: int) -> float:
        """Deterministic de-synchronisation jitter for a real sleep.

        A pure function of ``(rank, attempt)`` — no RNG, so a retried
        process run remains a function of the fault plan — spreading
        simultaneous retriers across ``[0, backoff_base)`` seconds.
        """
        mix = (int(rank) * 2654435761 + int(attempt) * 40503) % 1024
        return self.backoff_base * (mix / 1024.0)

    def real_backoff(self, rank: int, attempt: int) -> float:
        """The bounded delay a process-world retry actually sleeps."""
        return min(self.backoff(attempt) + self.jitter(rank, attempt),
                   self.sleep_cap)

    def call(self, fn, *, comm=None, op: str = ""):
        """Run ``fn()``; on :class:`~repro.errors.TransientCommError`,
        record a retry event and run it again, up to ``max_retries``
        times.  ``comm`` (a :class:`~repro.simmpi.comm.SimComm`) routes
        the bookkeeping: one zero-byte ``"retry"`` event in the shared
        tracker plus one :class:`~repro.simmpi.faults.FaultEvent` with
        the (simulated or slept) backoff.  When the comm's world flags
        ``real_backoff`` (the process world), the policy sleeps
        :meth:`real_backoff` seconds before re-calling."""
        attempt = 0
        while True:
            try:
                return fn()
            except TransientCommError:
                attempt += 1
                if attempt > self.max_retries:
                    raise
                backoff_s = self.backoff(attempt)
                world = comm.world if comm is not None else None
                if world is not None and getattr(world, "real_backoff", False):
                    backoff_s = self.real_backoff(comm.global_rank, attempt)
                    time.sleep(backoff_s)
                if comm is not None:
                    world.tracker.record(
                        world.step_label, RETRY_OP, 2, 0, 0,
                        backend=world.backend_label,
                    )
                    if world.injector is not None:
                        world.injector.record_retry(
                            comm.global_rank, op, world.step_label,
                            attempt, backoff_s,
                        )

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(max_retries={self.max_retries}, "
            f"backoff_base={self.backoff_base}, multiplier={self.multiplier})"
        )
