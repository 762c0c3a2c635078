"""Per-rank categorized memory accounting — the single source of truth
for bytes.

Every byte-touching layer charges a :class:`MemoryLedger` through tracked
:meth:`~MemoryLedger.acquire`/:meth:`~MemoryLedger.release` handles (or a
:meth:`~MemoryLedger.scope` context manager), under one of six categories
that map one-to-one onto the per-process memory terms of the paper's
Table III / Sec. III-B:

===============  ====================================================
category         Table III / Sec. III-B term
===============  ====================================================
``a_piece``      resident input tile  ``r * nnz(A_ik)``
``b_piece``      resident input tile  ``r * nnz(B_kj)``
``recv_buffer``  broadcast pieces in flight (``r * nnz(Â)``,
                 ``r * nnz(B̂) / b``) and AllToAll-Fiber pieces;
                 depth-1 overlap doubles the in-flight term
``merge_scratch``  unmerged partial results ``r * nnz(Ĉ_ij) / b``
                 (stage partials, merged layer result)
``output_batch``  the finished batch output tile, and — when the
                 caller keeps the product — accumulated pieces
``checkpoint``   driver-side checkpoint write buffers
===============  ====================================================

``r`` is ``BYTES_PER_NONZERO`` (24 B: an 8 B row index, an 8 B value and
an amortised 8 B of column-pointer/metadata — the paper's accounting
unit), which :attr:`repro.sparse.SparseMatrix.nbytes` also reports, so
ledger totals and symbolic predictions share one unit.

The ledger is *continuous* (every acquire/release moves ``current``)
with monotone per-category and total high-water marks, per-batch peaks
(:meth:`enter_batch`), and momentary :meth:`touch` spikes for wire
deliveries that are immediately handed to a tracked handle.  Budget
enforcement happens only at :meth:`check` — the rank program calls it
at stage boundaries — so a ``strict`` overrun raises a *deterministic*
:class:`~repro.errors.MemoryBudgetExceededError` at the same program
point on every run.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from ..errors import MemoryBudgetExceededError

__all__ = [
    "CATEGORIES",
    "ENFORCE_MODES",
    "MemAllocation",
    "MemoryLedger",
    "nbytes_of",
]

#: ledger categories, in reporting order (see module docstring for the
#: mapping onto the paper's Table III terms).
CATEGORIES = (
    "a_piece",
    "b_piece",
    "recv_buffer",
    "merge_scratch",
    "output_batch",
    "checkpoint",
)

#: supported settings of the ``enforce=`` knob.
ENFORCE_MODES = ("off", "warn", "strict")

#: cap on warnings retained per ledger / merged report.
_MAX_WARNINGS = 32


def nbytes_of(obj) -> int:
    """Uniform ``nbytes`` protocol: the tracked size of ``obj`` in bytes.

    Anything with an ``nbytes`` attribute (:class:`~repro.sparse.SparseMatrix`
    at ``r`` bytes per nonzero, numpy arrays) reports it directly; memoryviews report their mapped
    extent; lists/tuples sum their elements; ``None`` is free.  This is
    the one place that decides how an object is priced, so every layer
    charges the same number for the same thing.

    Zero-copy process-world receives deliver arrays that *view* a shared
    segment (``repro.mp``).  They price identically to owned arrays —
    ``ndarray.nbytes`` reports the mapped bytes regardless of ownership
    — and are charged exactly once, at delivery, to the receiver's
    ``recv_buffer`` category: transport decode never touches the ledger,
    so a payload is never double-counted between sender and receiver.
    """
    if obj is None:
        return 0
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(obj, (list, tuple)):
        return sum(nbytes_of(x) for x in obj)
    if hasattr(obj, "payload") and hasattr(obj, "crc"):
        # a transit Envelope (checksummed payload): priced as its payload
        # plus the 8-byte checksum word.  Duck-typed so the memory layer
        # never imports the simmpi wire format; Envelope has __slots__
        # and no nbytes attribute, so without this branch a checksummed
        # delivery would price as zero.
        return nbytes_of(obj.payload) + 8
    return 0


class MemAllocation:
    """A live tracked allocation — the handle :meth:`MemoryLedger.acquire`
    returns and :meth:`MemoryLedger.release` consumes.  ``nbytes`` may be
    adjusted in place via :meth:`MemoryLedger.resize` (postprocess hooks
    replace the output tile)."""

    __slots__ = ("category", "nbytes", "label", "live")

    def __init__(self, category: str, nbytes: int, label: str | None) -> None:
        self.category = category
        self.nbytes = int(nbytes)
        self.label = label
        self.live = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self.live else "released"
        return (
            f"MemAllocation({self.category!r}, {self.nbytes} B, "
            f"label={self.label!r}, {state})"
        )


class MemoryLedger:
    """Categorized per-rank byte accounting with budget enforcement.

    Thread-safe (the driver-side checkpoint ledger is charged from rank
    threads); each SPMD rank normally owns a private instance.
    """

    def __init__(
        self,
        *,
        rank=None,
        budget: int | None = None,
        enforce: str = "off",
        batches: int | None = None,
    ) -> None:
        if enforce not in ENFORCE_MODES:
            raise ValueError(
                f"unknown enforce mode {enforce!r}; expected one of {ENFORCE_MODES}"
            )
        if budget is not None and budget <= 0:
            raise ValueError(f"budget must be > 0 bytes, got {budget}")
        self.rank = rank
        self.budget = None if budget is None else int(budget)
        self.enforce = enforce
        #: current batch count — attached to strict overruns so the
        #: driver's graceful-degradation path knows what to double.
        self.batches = batches
        self._lock = threading.Lock()
        self._current = dict.fromkeys(CATEGORIES, 0)
        self._high_water = dict.fromkeys(CATEGORIES, 0)
        self._total = 0
        self._total_high_water = 0
        self._batch: int | None = None
        self._batch_peaks: dict[int, int] = {}
        self._warnings: list[dict] = []
        self._warned = False

    # ------------------------------------------------------------------ #
    # tracked allocations
    # ------------------------------------------------------------------ #

    def acquire(
        self, category: str, nbytes: int, label: str | None = None
    ) -> MemAllocation:
        """Charge ``nbytes`` under ``category`` and return the handle."""
        if category not in CATEGORIES:
            raise ValueError(
                f"unknown ledger category {category!r}; expected one of {CATEGORIES}"
            )
        alloc = MemAllocation(category, max(0, int(nbytes)), label)
        with self._lock:
            self._charge(category, alloc.nbytes)
        return alloc

    def release(self, alloc: MemAllocation | None) -> None:
        """Return an allocation.  ``None`` and double-release are no-ops,
        so op bodies can release unconditionally."""
        if alloc is None or not alloc.live:
            return
        alloc.live = False
        with self._lock:
            self._charge(alloc.category, -alloc.nbytes)

    def resize(self, alloc: MemAllocation, nbytes: int) -> None:
        """Adjust a live allocation in place (e.g. a postprocess hook
        replaced the tile it tracks)."""
        if not alloc.live:
            raise ValueError("cannot resize a released allocation")
        nbytes = max(0, int(nbytes))
        with self._lock:
            self._charge(alloc.category, nbytes - alloc.nbytes)
        alloc.nbytes = nbytes

    @contextmanager
    def scope(self, category: str, nbytes: int, label: str | None = None):
        """``with ledger.scope("checkpoint", n):`` — acquire on entry,
        release on exit, exception-safe."""
        alloc = self.acquire(category, nbytes, label)
        try:
            yield alloc
        finally:
            self.release(alloc)

    def touch(self, category: str, nbytes: int) -> None:
        """Record a momentary spike: bytes that exist *now* (a payload on
        the wire being handed over) but are immediately re-tracked by the
        receiving op's handle.  Moves the high-water marks, not
        ``current``."""
        if category not in CATEGORIES:
            raise ValueError(
                f"unknown ledger category {category!r}; expected one of {CATEGORIES}"
            )
        nbytes = max(0, int(nbytes))
        if nbytes == 0:
            return
        with self._lock:
            self._charge(category, nbytes)
            self._charge(category, -nbytes)

    def _charge(self, category: str, delta: int) -> None:
        # lock held by caller
        cur = self._current[category] + delta
        if cur < 0:  # released more than acquired — accounting bug
            raise ValueError(
                f"ledger category {category!r} would go negative ({cur} B)"
            )
        self._current[category] = cur
        if cur > self._high_water[category]:
            self._high_water[category] = cur
        self._total += delta
        if self._total > self._total_high_water:
            self._total_high_water = self._total
        if self._batch is not None and self._total > self._batch_peaks[self._batch]:
            self._batch_peaks[self._batch] = self._total

    # ------------------------------------------------------------------ #
    # batch boundaries and enforcement
    # ------------------------------------------------------------------ #

    def enter_batch(self, batch: int) -> None:
        """Mark the start of (or continuation into) a batch; subsequent
        peaks are also recorded per batch."""
        if batch == self._batch:
            return
        with self._lock:
            self._batch = batch
            peak = self._batch_peaks.get(batch, 0)
            self._batch_peaks[batch] = max(peak, self._total)

    def check(self, *, batch=None, stage=None, where: str = "stage boundary") -> None:
        """Enforce the budget (the rank program calls this at stage boundaries).

        ``strict`` raises :class:`~repro.errors.MemoryBudgetExceededError`
        the first time the high-water mark exceeds the per-rank budget —
        deterministic, because the high-water mark is a pure function of
        the program, not of timing.  ``warn`` records one warning.
        """
        if self.budget is None or self.enforce == "off":
            return
        if self._total_high_water <= self.budget:
            return
        if self.enforce == "strict":
            err = MemoryBudgetExceededError(
                f"rank {self.rank}: measured high-water "
                f"{self._total_high_water} B exceeds the per-rank budget "
                f"{self.budget} B at {where} (batch={batch}, stage={stage})",
                batches=self.batches,
            )
            err.context = {
                "rank": self.rank,
                "high_water_total": self._total_high_water,
                "budget_per_rank": self.budget,
                "batch": batch,
                "stage": stage,
            }
            raise err
        if not self._warned:
            self._warned = True
            with self._lock:
                if len(self._warnings) < _MAX_WARNINGS:
                    self._warnings.append({
                        "rank": self.rank,
                        "high_water_total": int(self._total_high_water),
                        "budget_per_rank": int(self.budget),
                        "batch": batch,
                        "stage": stage,
                    })

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    @property
    def current_total(self) -> int:
        return self._total

    @property
    def high_water_total(self) -> int:
        return self._total_high_water

    def current(self, category: str) -> int:
        return self._current[category]

    def high_water(self, category: str) -> int:
        return self._high_water[category]

    def batch_peak(self, batch: int) -> int:
        """Peak total bytes observed while executing ``batch`` (0 if the
        batch was never entered) — the replanner's measured-memory input."""
        return self._batch_peaks.get(batch, 0)

    def report(self) -> dict:
        """This rank's contribution to the uniform ``info["memory"]``
        block (see :meth:`merge_reports`)."""
        with self._lock:
            return {
                "rank": self.rank,
                "high_water_total": int(self._total_high_water),
                "current_total": int(self._total),
                "categories": {
                    cat: {
                        "high_water": int(self._high_water[cat]),
                        "current": int(self._current[cat]),
                    }
                    for cat in CATEGORIES
                    if self._high_water[cat]
                },
                "batch_peaks": {
                    int(b): int(peak) for b, peak in sorted(self._batch_peaks.items())
                },
                "budget_per_rank": self.budget,
                "enforce": self.enforce,
                "warnings": list(self._warnings),
            }

    @staticmethod
    def merge_reports(reports) -> dict:
        """Fold per-rank :meth:`report` dicts into the uniform
        ``info["memory"]`` block: high-water marks are maxima over ranks
        (the per-*process* peak, the paper's quantity), per-batch peaks
        likewise, warnings concatenate (bounded)."""
        reports = [r for r in reports if r]
        merged: dict = {
            "high_water_total": 0,
            "per_rank_high_water": [],
            "categories": {},
            "batch_peaks": {},
            "budget_per_rank": None,
            "enforce": "off",
            "warnings": [],
        }
        if not reports:
            return merged
        merged["budget_per_rank"] = reports[0].get("budget_per_rank")
        merged["enforce"] = reports[0].get("enforce", "off")
        for rep in reports:
            hw = int(rep.get("high_water_total", 0))
            merged["per_rank_high_water"].append(hw)
            merged["high_water_total"] = max(merged["high_water_total"], hw)
            for cat, stats in rep.get("categories", {}).items():
                slot = merged["categories"].setdefault(cat, {"high_water": 0})
                slot["high_water"] = max(
                    slot["high_water"], int(stats.get("high_water", 0))
                )
            for b, peak in rep.get("batch_peaks", {}).items():
                b = int(b)
                merged["batch_peaks"][b] = max(
                    merged["batch_peaks"].get(b, 0), int(peak)
                )
            for warning in rep.get("warnings", ()):
                if len(merged["warnings"]) < _MAX_WARNINGS:
                    merged["warnings"].append(warning)
        merged["batch_peaks"] = dict(sorted(merged["batch_peaks"].items()))
        return merged
