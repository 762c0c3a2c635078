"""Communication metering.

Every collective executed by a :class:`~repro.simmpi.comm.SimComm` appends
one :class:`CommEvent` describing *what moved*: the operation, the step
label the algorithm was in (``"A-Broadcast"``, ``"AllToAll-Fiber"``, ...),
the communicator size, and the per-process payload bytes.  The α–β machine
model (:mod:`repro.model`) later converts events into projected times for
any machine, which is how the paper-scale figures are regenerated from
exactly-measured volumes.
"""

from __future__ import annotations

import math
import threading
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class CommEvent:
    """One collective operation observed on one communicator.

    Attributes
    ----------
    step:
        Algorithm step label active when the collective ran ("" if none).
    op:
        Collective name: ``bcast`` / ``allreduce`` / ``allgather`` /
        ``alltoall`` / ``alltoallv`` / ``send`` / ``barrier``.
    comm_size:
        Number of participating processes.
    nbytes:
        Per-process payload size: for ``bcast`` the broadcast message, for
        ``alltoall`` the *maximum* bytes any process sends, for reductions
        the contribution size.  This matches the α–β model's per-process
        bandwidth term.
    total_bytes:
        Aggregate bytes moved across the communicator (volume).
    count:
        Number of identical collectives this event represents (always 1 at
        record time; aggregation sums it).
    backend:
        Communication-backend tag (``""`` when untagged, ``"dense"`` /
        ``"sparse"`` when a :mod:`repro.comm` backend drove the transfer).
    """

    step: str
    op: str
    comm_size: int
    nbytes: int
    total_bytes: int
    count: int = 1
    backend: str = ""

    def latency_hops(self) -> int:
        """Message-startup count the α term multiplies, per the paper's
        model: tree depth ``ceil(log2(size))`` for rooted/tree collectives,
        ``size - 1`` rounds for all-to-all, one hop otherwise."""
        if self.comm_size <= 1:
            return 0
        if self.op in ("bcast", "allreduce", "allgather", "gather", "scatter", "barrier"):
            return math.ceil(math.log2(self.comm_size))
        if self.op in ("alltoall", "alltoallv"):
            return self.comm_size - 1
        return 1


class CommTracker:
    """Thread-safe accumulator of :class:`CommEvent` records.

    One tracker is shared by all ranks of an SPMD run.  To avoid counting
    the same collective once per participant, only the *completing* rank of
    each collective records it (the engine guarantees exactly one).
    """

    def __init__(self) -> None:
        self._events: list[CommEvent] = []
        self._lock = threading.Lock()

    def record(
        self,
        step: str,
        op: str,
        comm_size: int,
        nbytes: int,
        total_bytes: int | None = None,
        backend: str = "",
    ) -> None:
        if total_bytes is None:
            total_bytes = nbytes * max(comm_size - 1, 1)
        with self._lock:
            self._events.append(
                CommEvent(
                    step, op, int(comm_size), int(nbytes), int(total_bytes),
                    backend=backend,
                )
            )

    @property
    def events(self) -> list[CommEvent]:
        with self._lock:
            return list(self._events)

    def extend(self, events) -> None:
        """Merge already-recorded events (e.g. shipped back from worker
        processes) into this tracker."""
        with self._lock:
            self._events.extend(events)

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #

    def by_step(self) -> dict[str, dict[str, float]]:
        """Aggregate per step label: message count, bytes, latency hops.

        Returns ``{step: {"messages": n, "nbytes": per-process bytes summed
        over calls, "total_bytes": volume, "latency_hops": summed tree
        depths}}`` — the raw ingredients of the α–β projection.
        """
        agg: dict[str, dict[str, float]] = defaultdict(
            lambda: {"messages": 0, "nbytes": 0, "total_bytes": 0, "latency_hops": 0}
        )
        for ev in self.events:
            slot = agg[ev.step]
            slot["messages"] += ev.count
            slot["nbytes"] += ev.nbytes * ev.count
            slot["total_bytes"] += ev.total_bytes * ev.count
            slot["latency_hops"] += ev.latency_hops() * ev.count
        return dict(agg)

    def by_backend(self) -> dict[str, dict[str, float]]:
        """Aggregate per communication-backend tag.

        Returns ``{backend: {"messages": n, "nbytes": ..., "total_bytes":
        ...}}`` — the dense-vs-sparse volume comparison the ``repro.comm``
        benchmarks report.  Untagged events aggregate under ``""``.
        """
        agg: dict[str, dict[str, float]] = defaultdict(
            lambda: {"messages": 0, "nbytes": 0, "total_bytes": 0}
        )
        for ev in self.events:
            slot = agg[ev.backend]
            slot["messages"] += ev.count
            slot["nbytes"] += ev.nbytes * ev.count
            slot["total_bytes"] += ev.total_bytes * ev.count
        return dict(agg)

    def total_bytes(self, step: str | None = None, backend: str | None = None) -> int:
        """Total volume moved, optionally restricted to one step and/or
        one backend tag."""
        return int(
            sum(
                ev.total_bytes for ev in self.events
                if (step is None or ev.step == step)
                and (backend is None or ev.backend == backend)
            )
        )

    def message_count(self, step: str | None = None, backend: str | None = None) -> int:
        return sum(
            ev.count for ev in self.events
            if (step is None or ev.step == step)
            and (backend is None or ev.backend == backend)
        )

    def format_table(self, title: str = "communication by step") -> str:
        agg = self.by_step()
        lines = [title]
        if not agg:
            lines.append("  (no communication recorded)")
            return "\n".join(lines)
        width = max(len(s) or 6 for s in agg)
        lines.append(
            f"  {'step':<{width}}  {'msgs':>8}  {'per-proc bytes':>15}  {'volume bytes':>13}"
        )
        for step in sorted(agg):
            a = agg[step]
            lines.append(
                f"  {step or '(none)':<{width}}  {a['messages']:>8d}  "
                f"{a['nbytes']:>15,.0f}  {a['total_bytes']:>13,.0f}"
            )
        backends = self.by_backend()
        if any(tag for tag in backends):
            lines.append("  volume by backend:")
            for tag in sorted(backends):
                a = backends[tag]
                lines.append(
                    f"    {tag or '(untagged)':<{max(width - 2, 6)}}  "
                    f"{a['messages']:>8d}  {a['nbytes']:>15,.0f}  "
                    f"{a['total_bytes']:>13,.0f}"
                )
            dense = backends.get("dense")
            sparse = backends.get("sparse")
            if dense and sparse and dense["total_bytes"]:
                ratio = sparse["total_bytes"] / dense["total_bytes"]
                lines.append(
                    f"    sparse/dense volume ratio: {ratio:.3f}"
                )
        return "\n".join(lines)
