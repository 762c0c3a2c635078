"""Shared utilities: deterministic RNG handling and step-time breakdowns."""

from .rng import as_rng
from .timing import StepTimes

__all__ = [
    "as_rng",
    "StepTimes",
]
