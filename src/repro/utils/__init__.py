"""Shared utilities: deterministic RNG handling and timers."""

from .rng import as_rng
from .timing import Timer, StepTimes

__all__ = [
    "as_rng",
    "Timer",
    "StepTimes",
]
