"""Per-grid circuit breaker: healthy → degraded → quarantined.

A resident grid that keeps healing is telling you something: its jobs
keep losing ranks and re-entering, and `/dev/shm` hygiene failures mean
worker teardown is no longer trustworthy.  The breaker turns that drift
into an explicit state machine the pool acts on:

* ``healthy`` — dispatch normally;
* ``degraded`` — still dispatching, but the slot is flagged (stats and
  logs surface it; the pool prefers healthy slots when it has a choice);
* ``quarantined`` — the slot finishes its current job, is drained and
  re-forked (fresh ``DistContext``, fresh workers, clean shm), and the
  breaker resets.

Scoring is incident-weighted, not boolean: a heal is survivable (weight
1) while an unexplained job failure or an shm leak after sweep is worse
(weight 2) — repeated heals degrade a grid, repeated leaks quarantine it
quickly.  ``record_success`` decays the score so an old incident does
not permanently haunt a now-healthy grid.
"""

from __future__ import annotations

import threading

HEALTHY = "healthy"
DEGRADED = "degraded"
QUARANTINED = "quarantined"

STATES = (HEALTHY, DEGRADED, QUARANTINED)

#: incident weights
WEIGHT_HEAL = 1.0
WEIGHT_FAILURE = 2.0
WEIGHT_SHM_LEAK = 2.0

#: multiplicative score decay per clean job
SUCCESS_DECAY = 0.5


class CircuitBreaker:
    """Incident accumulator with two thresholds."""

    def __init__(self, *, degrade_after: float = 2.0,
                 quarantine_after: float = 4.0) -> None:
        if not (0 < degrade_after <= quarantine_after):
            raise ValueError(
                f"need 0 < degrade_after <= quarantine_after, got "
                f"{degrade_after} / {quarantine_after}"
            )
        self.degrade_after = float(degrade_after)
        self.quarantine_after = float(quarantine_after)
        self._lock = threading.Lock()
        self.score = 0.0
        self.heals = 0
        self.failures = 0
        self.shm_leaks = 0
        self.trips = 0  # times quarantine was reached

    # ------------------------------------------------------------------ #

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self.score >= self.quarantine_after:
            return QUARANTINED
        if self.score >= self.degrade_after:
            return DEGRADED
        return HEALTHY

    def _bump(self, weight: float) -> str:
        with self._lock:
            before = self._state_locked()
            self.score += weight
            after = self._state_locked()
            if after == QUARANTINED and before != QUARANTINED:
                self.trips += 1
            return after

    def record_heal(self, events: int = 1) -> str:
        """A job on this grid healed ``events`` rank losses."""
        with self._lock:
            self.heals += int(events)
        return self._bump(WEIGHT_HEAL * max(1, int(events)))

    def record_failure(self) -> str:
        """A job failed on this grid for a non-client reason (crashed
        ranks past healing, watchdog hang, engine error)."""
        with self._lock:
            self.failures += 1
        return self._bump(WEIGHT_FAILURE)

    def record_shm_leak(self, segments: int = 1) -> str:
        """Post-job hygiene found (and swept) leaked shm segments."""
        with self._lock:
            self.shm_leaks += int(segments)
        return self._bump(WEIGHT_SHM_LEAK)

    def record_success(self) -> str:
        """A job completed clean — decay the score."""
        with self._lock:
            self.score *= SUCCESS_DECAY
            if self.score < 1e-3:
                self.score = 0.0
            return self._state_locked()

    def reset(self) -> None:
        """Fresh grid after a re-fork: clean slate (trip count kept)."""
        with self._lock:
            self.score = 0.0

    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        with self._lock:
            return {
                "state": self._state_locked(),
                "score": round(self.score, 3),
                "heals": self.heals,
                "failures": self.failures,
                "shm_leaks": self.shm_leaks,
                "trips": self.trips,
            }

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.state}, score={self.score:.2f})"
