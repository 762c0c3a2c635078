"""Structural statistics of sparse matrices and their distributions.

The symbolic step (Alg. 3) works with per-process *maxima*, so its batch
count responds to load imbalance: "in comparison to perfectly-balanced
computation, SYMBOLIC3D will estimate more batches for load-imbalanced
cases" (paper Sec. IV-A).  This module quantifies that imbalance — degree
skew of a matrix, and the max/mean nnz ratio of its tiles under a given
grid — feeding the imbalance ablation bench and the planner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..grid.distribution import extract_a_tile, extract_b_tile
from ..grid.grid3d import ProcGrid3D
from .matrix import SparseMatrix


@dataclass(frozen=True)
class DegreeStats:
    """Summary of a degree (per-row or per-column nnz) distribution."""

    mean: float
    median: float
    maximum: int
    skew_ratio: float  # max / mean — 1.0 for perfectly regular

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "DegreeStats":
        if counts.size == 0 or counts.sum() == 0:
            return cls(0.0, 0.0, 0, 1.0)
        mean = float(counts.mean())
        return cls(
            mean=mean,
            median=float(np.median(counts)),
            maximum=int(counts.max()),
            skew_ratio=float(counts.max() / mean) if mean else 1.0,
        )


def degree_stats(a: SparseMatrix, axis: str = "column") -> DegreeStats:
    """Degree distribution along ``"column"`` or ``"row"``."""
    if axis == "column":
        counts = np.diff(a.indptr)
    elif axis == "row":
        counts = np.bincount(a.rowidx, minlength=a.nrows)
    else:
        raise ValueError(f"axis must be 'row' or 'column', got {axis!r}")
    return DegreeStats.from_counts(np.asarray(counts))


def tile_imbalance(
    a: SparseMatrix, grid: ProcGrid3D, *, operand: str = "A"
) -> float:
    """Max/mean nnz over the matrix's tiles under the grid's distribution.

    1.0 means perfectly balanced; Alg. 3's batch count scales with this
    factor because it budgets for the fullest process.
    """
    extract = extract_a_tile if operand == "A" else extract_b_tile
    counts = np.array(
        [extract(a, grid, rank).nnz for rank in range(grid.nprocs)],
        dtype=float,
    )
    mean = counts.mean()
    if mean == 0:
        return 1.0
    return float(counts.max() / mean)
