"""Semiring abstraction for SpGEMM.

The paper (Sec. II-A) notes the algorithms apply over an arbitrary semiring
since nothing Strassen-like is used.  A :class:`Semiring` bundles the two
binary operations as NumPy ufuncs so the vectorised kernels can use
segmented reductions for "add" and elementwise ufunc application for
"multiply".

Only value semantics change across semirings; sparsity structure handling
is identical, so every kernel and every distributed algorithm accepts an
optional semiring and defaults to ordinary ``(+, *)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Entries from which a sum is placed rather than ``bincount``-ed: placed /
#: counted time 1.2-1.8 below 2k entries, 0.75 at 5k, 0.6-0.8 from 10k.
_PLACE_MIN = 2048


@dataclass(frozen=True)
class Semiring:
    """An algebraic semiring over float64 values.

    Attributes
    ----------
    name:
        Human-readable identifier.
    add:
        Commutative, associative NumPy ufunc used to combine partial
        products landing on the same output coordinate.
    mul:
        NumPy ufunc combining an A value with a B value.
    add_identity:
        Identity of ``add``; products equal to it are still *stored*
        (structural nonzero semantics follow GraphBLAS: an explicit entry
        is an entry), but it is what empty reductions would produce.
    """

    name: str
    add: np.ufunc
    mul: np.ufunc
    add_identity: float

    def reduce_segments(
        self, values: np.ndarray, boundary: np.ndarray, starts: np.ndarray
    ) -> np.ndarray:
        """Reduce with ``add`` each run of ``values`` that begins where
        ``boundary`` is true (at ``starts``, its ``flatnonzero``).  The one
        summation rule of every kernel and merge: coinciding entries are
        added **left to right** into ``add_identity`` in the order given —
        what ``bincount`` and ``ufunc.at`` do and ``ufunc.reduceat``
        (pairwise by SIMD lane; for min / max it picks among ``±0.0`` and
        NaNs by position) does not.  Each run's first entry is placed, the
        rest added into its slot; under ``_PLACE_MIN`` a sum bincounts."""
        if self.add is np.add and values.shape[0] < _PLACE_MIN:
            return np.bincount(np.cumsum(boundary), weights=values)[1:]
        sums = values[starts]
        self.add(self.add_identity, sums, out=sums)
        rest = np.flatnonzero(~boundary)
        rest_values = values[rest]
        rest -= np.arange(1, rest.shape[0] + 1)  # the run each belongs to
        self.add.at(sums, rest, rest_values)
        return sums

    def __repr__(self) -> str:  # keep dataclass repr short — ufuncs are noisy
        return f"Semiring({self.name})"


#: Ordinary arithmetic: the default for all numeric workloads.
PLUS_TIMES = Semiring("plus_times", np.add, np.multiply, 0.0)

#: Tropical semiring: one step of all-pairs shortest paths per SpGEMM.
MIN_PLUS = Semiring("min_plus", np.minimum, np.add, float("inf"))

#: Widest-path / bottleneck semiring.
MAX_MIN = Semiring("max_min", np.maximum, np.minimum, float("-inf"))

#: Boolean reachability (values coerced through float 0/1 arithmetic).
OR_AND = Semiring("or_and", np.logical_or, np.logical_and, 0.0)

#: GraphBLAS PLUS_PAIR: every structural product contributes exactly 1,
#: regardless of values — counts intersections (e.g. common neighbours in
#: triangle counting) on weighted matrices without re-patterning them.
_pair = np.frompyfunc(lambda _x, _y: 1.0, 2, 1)
PLUS_PAIR = Semiring("plus_pair", np.add, _pair, 0.0)

_REGISTRY = {s.name: s for s in (PLUS_TIMES, MIN_PLUS, MAX_MIN, OR_AND, PLUS_PAIR)}


def get_semiring(name_or_semiring) -> Semiring:
    """Resolve a semiring by name or pass one through unchanged."""
    if isinstance(name_or_semiring, Semiring):
        return name_or_semiring
    try:
        return _REGISTRY[name_or_semiring]
    except KeyError:
        raise ValueError(
            f"unknown semiring {name_or_semiring!r}; available: {sorted(_REGISTRY)}"
        ) from None
