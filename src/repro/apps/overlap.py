"""BELLA/PASTIS-style sequence overlap detection via A·Aᵀ (paper Sec. V-G).

Given an occurrence matrix ``A`` (sequences × k-mers), ``A @ Aᵀ`` counts
the k-mers each pair of sequences shares — the candidate-generation step
of long-read overlappers (BELLA) and many-to-many protein aligners
(PASTIS).  Only pairs above a share threshold matter downstream, so each
batch of the product is filtered and reduced to a pair list immediately,
never materialising the full product: the paper's canonical
memory-constrained usage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..simmpi.tracker import CommTracker
from ..sparse.matrix import INDEX_DTYPE, SparseMatrix
from ..sparse.ops import prune_threshold, transpose
from ..summa.batched import batched_summa3d


@dataclass
class OverlapResult:
    """Candidate overlap pairs.

    ``pairs`` has one row ``(i, j, shared)`` per unordered pair ``i < j``
    with at least ``min_shared`` common k-mers, sorted by (i, j).
    ``batches`` is the batch count the run used.
    """

    pairs: np.ndarray
    min_shared: int
    batches: int

    @property
    def count(self) -> int:
        return int(self.pairs.shape[0])

    def as_set(self) -> set[tuple[int, int]]:
        return {(int(i), int(j)) for i, j, _s in self.pairs}


def find_overlaps(
    kmer_mat: SparseMatrix,
    *,
    min_shared: int = 2,
    nprocs: int = 4,
    layers: int = 1,
    memory_budget: int | None = None,
    tracker: CommTracker | None = None,
) -> OverlapResult:
    """All sequence pairs sharing at least ``min_shared`` k-mers.

    The product is consumed batch-by-batch (``keep_output=False``): each
    batch's column block is thresholded in the distributed ``postprocess``
    hook, then harvested into the pair list by the driver-side ``on_batch``
    hook and discarded — the full ``A Aᵀ`` never exists at once.
    """
    at = transpose(kmer_mat)
    collected: list[np.ndarray] = []

    def post(batch: int, c0: int, c1: int, block: SparseMatrix) -> SparseMatrix:
        return prune_threshold(block, float(min_shared))

    def harvest(batch: int, spans, batch_matrix: SparseMatrix) -> None:
        rows, cols, vals = batch_matrix.to_coo()
        keep = rows < cols  # upper triangle: unordered pairs, no diagonal
        if keep.any():
            collected.append(
                np.stack(
                    [rows[keep], cols[keep], vals[keep].astype(INDEX_DTYPE)], axis=1
                )
            )

    result = batched_summa3d(
        kmer_mat,
        at,
        nprocs=nprocs,
        layers=layers,
        memory_budget=memory_budget,
        keep_output=False,
        postprocess=post,
        on_batch=harvest,
        tracker=tracker,
    )
    if collected:
        pairs = np.concatenate(collected, axis=0)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        pairs = pairs[order]
    else:
        pairs = np.empty((0, 3), dtype=INDEX_DTYPE)
    return OverlapResult(pairs=pairs, min_shared=min_shared, batches=result.batches)
