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

A global sparse pair may be handed to the ranks :class:`Squeezed`: the
inner indices where both A's column and B's row are empty are dropped.
The split along the inner dimension stays the caller's; each tile's
bounds are mapped onto the surviving indices, so a rank holds the same
entries in a tile only as wide as they need.
"""

from __future__ import annotations

import numpy as np

from ..errors import DistributionError
from ..sparse.matrix import INDEX_DTYPE, VALUE_DTYPE, SparseMatrix
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


class Squeezed:
    """A global sparse operand stored without its dead inner indices.

    ``matrix`` is the operand with every inner index outside ``live``
    dropped (A's columns, B's rows) and the rest renumbered in order;
    ``live`` is the sorted caller index of each survivor.  ``nrows`` and
    ``ncols`` stay the caller's: tile bounds are cut on the caller's
    inner size and mapped through :meth:`narrow`.
    """

    __slots__ = ("matrix", "live", "nrows", "ncols")

    def __init__(self, matrix: SparseMatrix, live: np.ndarray,
                 nrows: int, ncols: int) -> None:
        self.matrix, self.live = matrix, live
        self.nrows, self.ncols = nrows, ncols

    def narrow(self, start: int, stop: int) -> tuple[int, int]:
        """The caller's inner range ``[start, stop)`` in the stored
        numbering: the prefix counts of the surviving indices."""
        lo, hi = np.searchsorted(self.live, (start, stop))
        return int(lo), int(hi)


def squeeze_inner(a, b) -> tuple:
    """``(A, B)`` without the inner indices ``k`` where ``A(:, k)`` and
    ``B(k, :)`` are both empty, as a :class:`Squeezed` pair.  Operands
    that are not both global sparse matrices, or that have no such index,
    come back as they are.

    Only the pair's storage changes: every dropped index carries no entry
    on either side, so each rank's tiles hold the entries they held, in
    the same order, and the product is bit-identical."""
    if not (isinstance(a, SparseMatrix) and isinstance(b, SparseMatrix)):
        return a, b
    alive = a.indptr[1:] != a.indptr[:-1]
    alive[b.rowidx] = True
    if alive.all():
        return a, b
    live = np.flatnonzero(alive)
    # the new index of each survivor, scattered: cheaper than a prefix
    # sum over the whole dimension when most of it is dead
    renumber = np.empty(alive.shape[0], dtype=INDEX_DTYPE)
    renumber[live] = np.arange(live.shape[0], dtype=INDEX_DTYPE)
    # dropped columns are empty, so a kept column still ends where the
    # next kept one starts
    a_live = SparseMatrix(
        a.nrows, live.shape[0], np.append(a.indptr[live], a.nnz),
        a.rowidx, a.values,
        sorted_within_columns=a.sorted_within_columns, validate=False,
    )
    # the renumbering is monotone: rows stay in their column order
    b_live = SparseMatrix(
        live.shape[0], b.ncols, b.indptr,
        renumber[b.rowidx], b.values,
        sorted_within_columns=b.sorted_within_columns, validate=False,
    )
    return (
        Squeezed(a_live, live, a.nrows, a.ncols),
        Squeezed(b_live, live, b.nrows, b.ncols),
    )


def _cut(m: SparseMatrix, r0: int, r1: int, c0: int, c1: int) -> SparseMatrix:
    """``m[r0:r1, c0:c1]``; a cut spanning all of ``m`` (every ``p = 1``
    tile) is ``m`` itself, uncopied — matrices are never written in place."""
    if (r0, r1, c0, c1) == (0, m.nrows, 0, m.ncols):
        return m
    return submatrix(m, r0, r1, c0, c1)


def extract_a_tile(a, grid: ProcGrid3D, rank: int) -> SparseMatrix:
    """The local A tile a rank holds under the 3D distribution."""
    i, j, k = grid.coords(rank)
    r0, r1, c0, c1 = a_tile_range(grid, a.nrows, a.ncols, i, j, k)
    if isinstance(a, Squeezed):
        (c0, c1), a = a.narrow(c0, c1), a.matrix
    return _cut(a, r0, r1, c0, c1)


def extract_b_tile(b, grid: ProcGrid3D, rank: int) -> SparseMatrix:
    """The local B tile a rank holds under the 3D distribution."""
    i, j, k = grid.coords(rank)
    r0, r1, c0, c1 = b_tile_range(grid, b.nrows, b.ncols, i, j, k)
    if isinstance(b, Squeezed):
        (r0, r1), b = b.narrow(r0, r1), b.matrix
    return _cut(b, r0, r1, c0, c1)


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


def _rows_rise(indptr: np.ndarray, rows: np.ndarray) -> bool:
    """Rows strictly increasing inside every column: sorted, duplicate-free."""
    rising = rows[1:] > rows[:-1]
    starts = indptr[1:-1]
    # a column's first entry owes nothing to its predecessor's last
    rising[starts[(starts > 0) & (starts < rows.shape[0])] - 1] = True
    return bool(rising.all())


def gather_tiles(
    nrows: int, ncols: int, pieces
) -> SparseMatrix:
    """Assemble a global matrix from ``(row_offset, col_offset, tile)``
    triples.  Tiles must not overlap (duplicate coordinates raise).

    Assembly is placement: the global ``indptr`` is the sum of the sorted
    tiles' own column counts, and inside a column the tiles follow one
    another in row-offset order, so every entry is written straight to
    its CSC slot — for non-overlapping tiles, what a stable sort of the
    concatenated coordinates returns.  One linear compare proves it; an
    assembly it rejects is sorted, to tell rectangles that interleave
    rows from an overlap.  One sorted tile of the full shape is its own
    gather, uncopied."""
    tiles = sorted(
        ((int(r0), int(c0), tile.sort_indices())
         for r0, c0, tile in pieces if tile.nnz),
        key=lambda piece: piece[:2],
    )
    if not tiles:
        return SparseMatrix.empty(nrows, ncols)
    r0, c0, whole = tiles[0]
    if len(tiles) > 1 or (r0, c0) != (0, 0) or whole.shape != (nrows, ncols):
        whole = None
    rows = whole.rowidx if whole is not None else np.concatenate(
        [t.rowidx + np.int64(r0) for r0, _c0, t in tiles]
    )
    # one run per occupied (tile, column), tile-major as the entries are:
    # its length and the global column it belongs to
    run_len = np.concatenate([t.col_nnz() for _r0, _c0, t in tiles])
    live = run_len > 0
    run_len = run_len[live]
    run_col = np.concatenate([
        np.arange(c0, c0 + t.ncols, dtype=INDEX_DTYPE) for _r0, c0, t in tiles
    ])[live]
    for name, idx, bound in (("row", rows, nrows), ("column", run_col, ncols)):
        if idx.min() < 0 or idx.max() >= bound:
            raise DistributionError(
                f"overlapping or invalid tiles in gather: "
                f"{name} index out of range [0, {bound})"
            )
    if whole is not None:
        indptr, vals = whole.indptr, whole.values
    else:
        # CSC order of the runs: by column, a column's tiles by row offset
        order = np.argsort(run_col, kind="stable")
        ends = np.concatenate(([0], np.cumsum(run_len[order])))
        indptr = ends[np.searchsorted(run_col[order], np.arange(ncols + 1))]
        # an entry's slot is its position among the concatenated tiles
        # plus a shift that is constant along its run
        shift = np.empty_like(run_len)
        shift[order] = ends[:-1]
        shift -= np.cumsum(run_len) - run_len
        slot = np.repeat(shift, run_len)
        slot += np.arange(slot.shape[0], dtype=INDEX_DTYPE)
        placed, vals = np.empty_like(rows), np.empty(rows.shape[0], VALUE_DTYPE)
        placed[slot] = rows
        vals[slot] = np.concatenate([t.values for _r0, _c0, t in tiles])
        rows = placed
    out = SparseMatrix(
        nrows, ncols, indptr, rows, vals,
        sorted_within_columns=_rows_rise(indptr, rows), validate=False,
    )
    if not out.sorted_within_columns:
        out = out.sort_indices()
        if not _rows_rise(out.indptr, out.rowidx):
            raise DistributionError(
                "overlapping or invalid tiles in gather: "
                "duplicate (row, col) coordinate"
            )
    return out


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
