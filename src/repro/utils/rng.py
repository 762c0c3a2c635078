"""Deterministic random-number-generator plumbing.

Every stochastic entry point in the library accepts ``seed`` as either an
``int``, ``None`` or an already-constructed :class:`numpy.random.Generator`.
Centralising the coercion here keeps generators reproducible.
"""

from __future__ import annotations

import numpy as np

SeedLike = "int | None | np.random.Generator"


def as_rng(seed=None) -> np.random.Generator:
    """Coerce ``seed`` to a :class:`numpy.random.Generator`.

    An existing generator is returned unchanged so callers can thread one
    stream through several helpers without accidental re-seeding.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
