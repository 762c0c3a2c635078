"""LRU cache of :func:`~repro.summa.planner.auto_config` decisions.

Admission control needs a plan (layers, batches, backend, predicted
seconds, Table III memory) for *every* submitted job — including the ones
it rejects — so planning sits on the service's hot path.  Repeat traffic
(the same graph squared every HipMCL iteration, the same adjacency every
GNN epoch) re-plans the same structure over and over; the cache keys the
decision by each operand's structure — a sparse operand's exact
:attr:`~repro.sparse.SparseMatrix.structure_key`, a dense panel's shape —
plus every knob that changes the answer (kernel, backend, overlap, grid
size, memory budget), so a hit is a dict lookup and a miss is one
``auto_config(use_symbolic=False)``.

Invalidation is by construction: any structural change to an operand
moves its key, and any change to kernel/backend/overlap/nprocs/budget
changes the key, so a stale plan can never be returned for different
inputs.  Values do not enter the key — ``auto_config`` reads only
dimensions and the nonzero pattern, so two matrices with one pattern and
different values share a plan, which is exactly why caching is sound.
A matrix is keyed once: the key is cached on it (its index arrays turn
read-only), so repeat submissions of one operand hash nothing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..plan.spec import ExecPlan
from ..sparse.matrix import SparseMatrix
from ..summa.planner import auto_config


def _operand_key(operand):
    """A sparse operand's :attr:`~repro.sparse.SparseMatrix.structure_key`;
    a dense panel's geometry (its plan is a pure function of its shape)."""
    if operand is None:
        return None
    if isinstance(operand, SparseMatrix):
        return operand.structure_key
    arr = np.asanyarray(operand)
    if arr.ndim != 2:
        raise TypeError(
            f"cannot key operand of type {type(operand).__name__} "
            f"with ndim={arr.ndim}; expected a SparseMatrix or 2-D panel"
        )
    return ("dense", *(int(d) for d in arr.shape))


class PlanCache:
    """Thread-safe LRU map from plan keys to
    :class:`~repro.plan.ExecPlan` (the reified execution plan the
    auto-tuner returns)."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, ExecPlan] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #

    @staticmethod
    def key(
        a,
        b,
        *,
        nprocs: int,
        memory_budget: int | None,
        kernel: str = "spgemm",
        backend: str = "dense",
        overlap: str = "off",
        mask=None,
    ) -> tuple:
        """The full cache key for one planning question.

        Operands enter by structure; ``mask`` (masked SpGEMM's pattern)
        is an operand too — a different mask changes the effective
        output structure a plan should be priced for.
        """
        return (
            _operand_key(a),
            _operand_key(b),
            str(kernel),
            str(backend),
            str(overlap),
            int(nprocs),
            None if memory_budget is None else int(memory_budget),
            _operand_key(mask),
        )

    def lookup(self, key: tuple) -> ExecPlan | None:
        """Return the cached plan for ``key`` (refreshing recency) or
        ``None``.  Does not count a miss — :meth:`plan` does."""
        with self._lock:
            plan = self._entries.get(key)
            if plan is not None:
                self._entries.move_to_end(key)
            return plan

    def insert(self, key: tuple, plan: ExecPlan) -> None:
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def plan(
        self,
        a,
        b,
        *,
        nprocs: int,
        memory_budget: int | None = None,
        kernel: str = "spgemm",
        backend: str = "dense",
        overlap: str = "off",
        mask=None,
        machine=None,
        sample=None,
    ) -> tuple[ExecPlan, bool]:
        """Plan one multiplication through the cache.

        Returns ``(plan, hit)``.  Misses run the analytic planner
        (``use_symbolic=False`` — admission cannot afford a distributed
        symbolic pass per arrival) and may raise
        :class:`~repro.errors.PlannerError` when no configuration fits;
        infeasibility is *not* cached, so a later submit with a larger
        budget re-plans.
        """
        key = self.key(
            a, b, nprocs=nprocs, memory_budget=memory_budget,
            kernel=kernel, backend=backend, overlap=overlap, mask=mask,
        )
        cached = self.lookup(key)
        if cached is not None:
            with self._lock:
                self.hits += 1
            return cached, True
        plan = auto_config(
            a, b, nprocs,
            memory_budget=memory_budget,
            machine=machine,
            use_symbolic=False,
            backend=backend,
            overlap=overlap,
            kernel=kernel,
            sample=sample if sample is not None else mask,
        )
        with self._lock:
            self.misses += 1
        self.insert(key, plan)
        return plan, False

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": int(self.hits),
                "misses": int(self.misses),
                "evictions": int(self.evictions),
            }
