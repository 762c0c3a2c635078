"""repro.mem — first-class per-rank memory accounting.

See :mod:`repro.mem.ledger` for the category ↔ Table III mapping and the
enforcement semantics.
"""

from .ledger import (
    CATEGORIES,
    ENFORCE_MODES,
    MemAllocation,
    MemoryLedger,
    nbytes_of,
)

__all__ = [
    "CATEGORIES",
    "ENFORCE_MODES",
    "MemAllocation",
    "MemoryLedger",
    "nbytes_of",
]
