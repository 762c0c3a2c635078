"""Index arithmetic for distributing matrices on a 3D grid (paper Fig. 1).

All distributions are *balanced block* partitions computed with
:func:`repro.sparse.ops.split_bounds`, nested two levels deep:

* **A** (and C): rows split into ``pr`` blocks; columns split into ``pc``
  super-blocks (the 2D process boundary), each super-block split into ``l``
  layer slices — layer ``k`` holds slice ``k`` of every super-block
  (Fig. 1(c)-(e)).
* **B**: rows split into ``pr`` super-blocks, each into ``l`` layer
  slices; columns split into ``pc`` blocks (Fig. 1(f)-(h)).
* **batches**: within each column super-block of B, columns are cut into
  ``b * l`` blocks; batch ``i`` takes blocks ``i, i+b, ..., i+(l-1)b`` —
  the block-cyclic pattern of Fig. 1(i), which hands exactly one block per
  batch to every layer and thereby balances Merge-Fiber.

Because every boundary comes from the same balanced-split function, the
inner-dimension blocks of A and B align stage-by-stage in SUMMA even when
nothing divides evenly.
"""

from __future__ import annotations

import numpy as np

from ..errors import DistributionError
from ..sparse.coo import colmajor_keys, indptr_from_cols, stable_order
from ..sparse.matrix import INDEX_DTYPE, SparseMatrix
from ..sparse.ops import split_bounds, submatrix
from .grid3d import ProcGrid3D


def nested_slice(
    n: int, outer_parts: int, j: int, inner_parts: int, k: int
) -> tuple[int, int]:
    """Global index range of inner slice ``k`` of outer super-block ``j``."""
    outer = split_bounds(n, outer_parts)
    start = int(outer[j])
    inner = split_bounds(int(outer[j + 1]) - start, inner_parts)
    return start + int(inner[k]), start + int(inner[k + 1])


def a_tile_range(
    grid: ProcGrid3D, nrows: int, ncols: int, i: int, j: int, k: int
) -> tuple[int, int, int, int]:
    """(row_start, row_stop, col_start, col_stop) of A's tile at (i, j, k)."""
    rb = split_bounds(nrows, grid.pr)
    c0, c1 = nested_slice(ncols, grid.pc, j, grid.layers, k)
    return int(rb[i]), int(rb[i + 1]), c0, c1


def b_tile_range(
    grid: ProcGrid3D, nrows: int, ncols: int, i: int, j: int, k: int
) -> tuple[int, int, int, int]:
    """(row_start, row_stop, col_start, col_stop) of B's tile at (i, j, k)."""
    r0, r1 = nested_slice(nrows, grid.pr, i, grid.layers, k)
    cb = split_bounds(ncols, grid.pc)
    return r0, r1, int(cb[j]), int(cb[j + 1])


def extract_a_tile(a: SparseMatrix, grid: ProcGrid3D, rank: int) -> SparseMatrix:
    """The local A tile a rank holds under the 3D distribution."""
    i, j, k = grid.coords(rank)
    r0, r1, c0, c1 = a_tile_range(grid, a.nrows, a.ncols, i, j, k)
    return submatrix(a, r0, r1, c0, c1)


def extract_b_tile(b: SparseMatrix, grid: ProcGrid3D, rank: int) -> SparseMatrix:
    """The local B tile a rank holds under the 3D distribution."""
    i, j, k = grid.coords(rank)
    r0, r1, c0, c1 = b_tile_range(grid, b.nrows, b.ncols, i, j, k)
    return submatrix(b, r0, r1, c0, c1)


#: batch layouts: "block-cyclic" is the paper's Fig. 1(i) scheme (each
#: batch draws one block from every layer's territory, balancing
#: Merge-Fiber); "block" is the naive contiguous split kept as the
#: load-imbalance ablation DESIGN.md calls out.
BATCH_SCHEMES = ("block-cyclic", "block")


def batch_layer_blocks(
    width: int, nbatches: int, layers: int, batch: int,
    scheme: str = "block-cyclic",
) -> list[tuple[int, int]]:
    """The ``layers`` column blocks batch ``batch`` owns within one column
    super-block of width ``width``.

    Entry ``t`` is the (start, stop) of the block destined for layer ``t``
    in the fiber exchange.  Under ``"block-cyclic"`` (Fig. 1(i)) the
    blocks interleave across batches; under ``"block"`` each batch is one
    contiguous range cut into ``layers`` pieces.
    """
    if not 0 <= batch < nbatches:
        raise DistributionError(f"batch {batch} out of range [0, {nbatches})")
    if scheme == "block-cyclic":
        bounds = split_bounds(width, nbatches * layers)
        return [
            (int(bounds[batch + t * nbatches]),
             int(bounds[batch + t * nbatches + 1]))
            for t in range(layers)
        ]
    if scheme == "block":
        outer = split_bounds(width, nbatches)
        start = int(outer[batch])
        inner = split_bounds(int(outer[batch + 1]) - start, layers)
        return [
            (start + int(inner[t]), start + int(inner[t + 1]))
            for t in range(layers)
        ]
    raise DistributionError(
        f"unknown batch scheme {scheme!r}; available: {BATCH_SCHEMES}"
    )


def batch_local_columns(
    width: int, nbatches: int, layers: int, batch: int,
    scheme: str = "block-cyclic",
) -> np.ndarray:
    """All column indices (within a super-block) belonging to a batch, in
    global column order — the concatenation of its layer blocks."""
    blocks = batch_layer_blocks(width, nbatches, layers, batch, scheme)
    if not blocks:
        return np.empty(0, dtype=INDEX_DTYPE)
    return np.concatenate(
        [np.arange(s, e, dtype=INDEX_DTYPE) for s, e in blocks]
    )


def c_tile_columns(
    grid: ProcGrid3D, ncols_b: int, nbatches: int, batch: int, j: int, k: int,
    scheme: str = "block-cyclic",
) -> tuple[int, int]:
    """Global B-column range of the C piece held at ``(., j, k)`` for a batch.

    After the fiber exchange, layer ``k`` ends up with block ``k`` of the
    batch's column set within super-block ``j``.
    """
    cb = split_bounds(ncols_b, grid.pc)
    c0 = int(cb[j])
    blocks = batch_layer_blocks(
        int(cb[j + 1]) - c0, nbatches, grid.layers, batch, scheme
    )
    s, e = blocks[k]
    return c0 + s, c0 + e


def gather_tiles(
    nrows: int, ncols: int, pieces
) -> SparseMatrix:
    """Assemble a global matrix from ``(row_offset, col_offset, tile)``
    triples.  Tiles must not overlap (duplicate coordinates raise): the
    global coordinates are range-checked and their keys sorted once, an
    overlap is two equal neighbours among them, and the result is built
    from what that pass established, with no second validation."""
    rows_parts = []
    cols_parts = []
    vals_parts = []
    for r0, c0, tile in pieces:
        if tile.nnz == 0:
            continue
        rows_parts.append(tile.rowidx + np.int64(r0))
        cols_parts.append(tile.col_indices() + np.int64(c0))
        vals_parts.append(tile.values)
    if not rows_parts:
        return SparseMatrix.empty(nrows, ncols)
    rows = np.concatenate(rows_parts)
    cols = np.concatenate(cols_parts)
    vals = np.concatenate(vals_parts)
    for name, idx, bound in (("row", rows, nrows), ("column", cols, ncols)):
        if idx.min() < 0 or idx.max() >= bound:
            raise DistributionError(
                f"overlapping or invalid tiles in gather: "
                f"{name} index out of range [0, {bound})"
            )
    order, sorted_key = stable_order(colmajor_keys(nrows, rows, cols))
    if np.any(sorted_key[1:] == sorted_key[:-1]):
        raise DistributionError(
            "overlapping or invalid tiles in gather: "
            "duplicate (row, col) coordinate"
        )
    return SparseMatrix(
        nrows, ncols, indptr_from_cols(cols, ncols), rows[order], vals[order],
        sorted_within_columns=True, validate=False,
    )


def gather_dense_tiles(nrows: int, ncols: int, pieces) -> np.ndarray:
    """Assemble a dense matrix from ``(row_offset, col_offset, block)``
    triples of 2-D ndarrays — the dense-output analogue of
    :func:`gather_tiles` used by kernels whose C is dense (SpMM).
    Blocks must tile disjoint regions; anything uncovered stays zero."""
    out = np.zeros((nrows, ncols))
    for r0, c0, block in pieces:
        block = np.asarray(block)
        r1 = r0 + block.shape[0]
        c1 = c0 + block.shape[1]
        if r1 > nrows or c1 > ncols:
            raise DistributionError(
                f"dense tile at ({r0}, {c0}) of shape {block.shape} exceeds "
                f"the {nrows}x{ncols} output"
            )
        out[r0:r1, c0:c1] = block
    return out
