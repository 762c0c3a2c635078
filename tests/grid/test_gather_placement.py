"""``gather_tiles`` is placement: sorted tiles are written straight to
their CSC slots and one linear compare proves the result; the sort only
classifies an assembly that compare rejects.

The property below holds placement to a reference that shares no code
with it (``np.lexsort`` over the concatenated triples, written here) on
every tiling the library produces and every way a tiling can be wrong:
the same arrays, or the same ``DistributionError``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.data import kmer_matrix, planted_partition, protein_similarity, rmat
from repro.dist import DistContext
from repro.errors import DistributionError
from repro.grid import distribution
from repro.grid.distribution import batch_layer_blocks, gather_tiles
from repro.sparse import SparseMatrix, random_sparse
from repro.sparse.ops import column_sums, scale_columns, split_bounds, submatrix

PREFIX = "overlapping or invalid tiles in gather: "


# --------------------------------------------------------------------- #
# the reference
# --------------------------------------------------------------------- #

def reference(nrows, ncols, pieces):
    """``(indptr, rowidx, values)`` of the assembled matrix, or the
    message the refusal starts with."""
    rows = [t.rowidx + r0 for r0, _c0, t in pieces]
    cols = [np.repeat(np.arange(t.ncols), np.diff(t.indptr)) + c0
            for _r0, c0, t in pieces]
    rows = np.concatenate([*rows, np.empty(0, dtype=np.int64)])
    cols = np.concatenate([*cols, np.empty(0, dtype=np.int64)])
    vals = np.concatenate([*(t.values for _r0, _c0, t in pieces), np.empty(0)])
    if rows.size:
        for name, idx, bound in (("row", rows, nrows), ("column", cols, ncols)):
            if idx.min() < 0 or idx.max() >= bound:
                return f"{PREFIX}{name} index out of range [0, {bound})"
    order = np.lexsort((rows, cols))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if np.any((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])):
        return f"{PREFIX}duplicate (row, col) coordinate"
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=ncols))))
    return indptr, rows, vals


def check(nrows, ncols, pieces):
    want = reference(nrows, ncols, pieces)
    if isinstance(want, str):
        with pytest.raises(DistributionError) as err:
            gather_tiles(nrows, ncols, pieces)
        assert str(err.value) == want
        return None
    got = gather_tiles(nrows, ncols, iter(pieces))
    assert got.shape == (nrows, ncols) and got.sorted_within_columns
    for mine, theirs in zip((got.indptr, got.rowidx, got.values), want, strict=True):
        assert np.array_equal(mine, theirs)
    return got


# --------------------------------------------------------------------- #
# tilings
# --------------------------------------------------------------------- #

def raw_tile(nrows, ncols, rows, cols, vals, sorted_flag=True):
    """A tile holding exactly these triples in this order within each
    column — duplicates and disorder included, nothing validated."""
    rows, cols, vals = (np.asarray(x) for x in (rows, cols, vals))
    order = np.argsort(cols, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=ncols))))
    return SparseMatrix(
        nrows, ncols, indptr, rows[order].astype(np.int64),
        vals[order].astype(np.float64),
        sorted_within_columns=sorted_flag, validate=False,
    )


def scrambled(tile, rng):
    """The same tile with every column's entries in random order."""
    perm = rng.permutation(tile.nnz)
    return raw_tile(
        tile.nrows, tile.ncols, tile.rowidx[perm], tile.col_indices()[perm],
        tile.values[perm], sorted_flag=False,
    )


def block_grid(c, row_cuts, col_cuts):
    return [
        (int(r0), int(c0), submatrix(c, r0, r1, c0, c1))
        for r0, r1 in zip(row_cuts[:-1], row_cuts[1:])
        for c0, c1 in zip(col_cuts[:-1], col_cuts[1:])
    ]


def batch_pieces(c, pr, pc, layers, nbatches, batch, scheme="block-cyclic"):
    """The pieces the ranks of a ``pr x pc x layers`` grid hold of one
    batch: per column super-block, layer ``t`` owns block ``t``."""
    rb, cb = split_bounds(c.nrows, pr), split_bounds(c.ncols, pc)
    pieces = []
    for j in range(pc):
        s0 = int(cb[j])
        blocks = batch_layer_blocks(
            int(cb[j + 1]) - s0, nbatches, layers, batch, scheme
        )
        for lo, hi in blocks:
            for i in range(pr):
                pieces.append((
                    int(rb[i]), s0 + lo,
                    submatrix(c, int(rb[i]), int(rb[i + 1]), s0 + lo, s0 + hi),
                ))
    return pieces


def cuts(draw, n):
    inner = draw(st.sets(st.integers(0, n), max_size=4))
    return np.array(sorted({0, n, *inner}))


@st.composite
def tilings(draw):
    """``(nrows, ncols, pieces)``: a random matrix cut one of the ways
    the library cuts matrices, then — perhaps — damaged."""
    nrows, ncols = draw(st.integers(1, 18)), draw(st.integers(1, 18))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = random_sparse(
        nrows, ncols, nnz=int(rng.integers(0, nrows * ncols + 1)),
        seed=int(rng.integers(2**31)),
    )
    shape = draw(st.sampled_from(
        ["grid", "batch", "all-batches", "checkpoint", "full", "interleaved"]
    ))
    geometry = dict(
        pr=draw(st.integers(1, 3)), pc=draw(st.integers(1, 3)),
        layers=draw(st.integers(1, 3)), nbatches=draw(st.integers(1, 4)),
        scheme=draw(st.sampled_from(distribution.BATCH_SCHEMES)),
    )
    every_batch = [
        batch_pieces(c, batch=batch, **geometry)
        for batch in range(geometry["nbatches"])
    ]
    if shape == "grid":
        pieces = block_grid(c, cuts(draw, nrows), cuts(draw, ncols))
    elif shape == "batch":
        pieces = every_batch[draw(st.integers(0, geometry["nbatches"] - 1))]
    elif shape == "all-batches":
        pieces = [p for batch in every_batch for p in batch]
    elif shape == "checkpoint":
        # each batch already gathered to the full shape: disjoint columns
        rows, cols, vals = c.to_coo()
        pieces = []
        for batch in every_batch:
            owned = np.zeros(ncols, dtype=bool)
            for _r0, c0, tile in batch:
                owned[c0:c0 + tile.ncols] = True
            m = owned[cols]
            pieces.append(
                (0, 0, raw_tile(nrows, ncols, rows[m], cols[m], vals[m]))
            )
    elif shape == "full":
        pieces = [(0, 0, c)]
    else:
        # two full-shape rectangles sharing no coordinate: rows interleave
        mine = rng.random(c.nnz) < 0.5
        rows, cols, vals = c.to_coo()
        pieces = [
            (0, 0, raw_tile(nrows, ncols, rows[m], cols[m], vals[m]))
            for m in (mine, ~mine)
        ]
    pieces = [pieces[i] for i in rng.permutation(len(pieces))]

    for damage in draw(st.lists(st.sampled_from(
        ["unsorted", "empty", "shift", "across", "within"]
    ), max_size=2)):
        at = int(rng.integers(len(pieces)))
        r0, c0, tile = pieces[at]
        if damage == "unsorted":
            pieces[at] = (r0, c0, scrambled(tile, rng))
        elif damage == "empty":
            # skipped wherever it claims to be
            pieces.insert(at, (int(rng.integers(-3, nrows + 3)),
                               int(rng.integers(-3, ncols + 3)),
                               SparseMatrix.empty(2, 2)))
        elif damage == "shift":
            dr, dc = rng.permutation([0, int(rng.integers(-2, 3))])
            pieces[at] = (r0 + int(dr), c0 + int(dc), tile)
        elif tile.nnz:
            k = int(rng.integers(tile.nnz))
            row, col = int(tile.rowidx[k]), int(tile.col_indices()[k])
            if damage == "across":
                pieces.append((r0 + row, c0 + col,
                               raw_tile(1, 1, [0], [0], [7.0])))
            else:
                rows, cols, vals = tile.to_coo()
                pieces[at] = (r0, c0, raw_tile(
                    tile.nrows, tile.ncols, [*rows, row], [*cols, col],
                    [*vals, 7.0], sorted_flag=bool(rng.integers(2)),
                ))
    return nrows, ncols, pieces


class TestPlacementProperty:
    @settings(max_examples=400)
    @given(tilings())
    def test_same_arrays_or_same_refusal(self, tiling):
        check(*tiling)

    def test_a_full_sorted_tile_is_its_own_gather(self):
        c = random_sparse(30, 20, nnz=200, seed=3)
        got = check(30, 20, [(5, 5, SparseMatrix.empty(4, 4)), (0, 0, c)])
        assert got.rowidx is c.rowidx and got.values is c.values
        # only after the same linear check: a tile that lies about
        # being sorted is sorted, one with a duplicate is refused
        lying = scrambled(c, np.random.default_rng(0))
        lying.sorted_within_columns = True
        check(30, 20, [(0, 0, lying)])
        rows, cols, vals = c.to_coo()
        twice = raw_tile(30, 20, [*rows, rows[0]], [*cols, cols[0]], [*vals, 1.0])
        with pytest.raises(DistributionError, match="duplicate"):
            gather_tiles(30, 20, [(0, 0, twice)])

    def test_many_tiny_pieces(self):
        # hypersparse: most (tile, column) runs are empty
        c = random_sparse(300, 4000, nnz=600, seed=5)
        pieces = [
            p for batch in range(3)
            for p in batch_pieces(c, 2, 2, 4, 3, batch)
        ]
        assert len(pieces) == 48
        check(300, 4000, pieces)

    def test_row_range_is_reported_before_column_range(self):
        tile = SparseMatrix.from_coo(2, 2, [0, 1], [0, 1], [1.0, 2.0])
        with pytest.raises(DistributionError, match="row index out of range"):
            gather_tiles(4, 4, [(3, 3, tile)])

    def test_a_tile_wider_than_the_matrix_may_hang_over_empty(self):
        # range is checked on entries, as it always was
        tile = raw_tile(2, 5, [0, 1], [0, 1], [1.0, 2.0])
        check(4, 4, [(0, 2, tile)])


# --------------------------------------------------------------------- #
# the tilings the benchmark's six workloads produce never reach the sort
# --------------------------------------------------------------------- #

def _normalise(batch, c0, c1, block):
    sums = column_sums(block)
    inv = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums != 0)
    return scale_columns(block, inv)


def _chain(g):
    with DistContext(nprocs=4, layers=1) as ctx:
        ha, hb = ctx.distribute(g, "A"), ctx.distribute(g, "B")
        for _ in range(2):
            hc, _result = ctx.multiply(
                ha, hb, kernel="masked_spgemm", mask=g, postprocess=_normalise,
            )
            ha, hb = ctx.redistribute(hc, "A"), ctx.redistribute(hc, "B")
        return ha.to_global()


def _rmat():
    return rmat(7, edge_factor=8, seed=1)


BENCHMARK_SHAPED = {
    "rmat_budget_t16": lambda tmp: (lambda a: repro.batched_summa3d(
        a, a, nprocs=16, layers=4, memory_budget=30 * a.nnz * 24))(_rmat()),
    "protein_local_p1": lambda tmp: (lambda a: repro.batched_summa3d(
        a, a, nprocs=1, layers=1, batches=1))(
        protein_similarity(150, intra_density=0.35, noise_degree=1.0, seed=1)),
    "kmer_aat_sparse_t16": lambda tmp: (lambda a: repro.batched_summa3d(
        a, repro.transpose(a), nprocs=16, layers=4, batches=2,
        comm_backend="sparse"))(
        kmer_matrix(120, 4000, kmers_per_seq=15.0, zipf_exponent=0.35, seed=1)),
    "rmat_shm_proc8": lambda tmp: (lambda a: repro.batched_summa3d(
        a, a, nprocs=8, layers=2, batches=1))(_rmat()),
    "mcl_chain_proc4": lambda tmp: _chain(
        planted_partition(120, 6, p_in=0.3, p_out=0.01, seed=1)[0]),
    "serve_mixed_t4": lambda tmp: (lambda a: [
        repro.batched_summa3d(a, a, nprocs=4),
        repro.batched_summa3d(a, a, nprocs=4, kernel="masked_spgemm", mask=a),
    ])(_rmat()),
    # not benchmark workloads, but callers of the same primitive: the
    # streaming collector and the checkpoint's assembly from whole batches
    "checkpointed": lambda tmp: (lambda a: repro.batched_summa3d(
        a, a, nprocs=8, layers=2, batches=3, checkpoint_dir=tmp))(_rmat()),
    "streamed": lambda tmp: (lambda a: repro.batched_summa3d(
        a, a, nprocs=8, layers=2, batches=3, keep_output=False,
        on_batch=lambda batch, spans, block: None))(_rmat()),
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_SHAPED))
def test_no_benchmark_shaped_tiling_takes_the_sort(workload, tmp_path, monkeypatch):
    proofs = []  # one verdict per gather: did placement pass the compare?
    real = distribution._rows_rise

    def recording(indptr, rows):
        proofs.append(real(indptr, rows))
        return proofs[-1]

    monkeypatch.setattr(distribution, "_rows_rise", recording)
    BENCHMARK_SHAPED[workload](str(tmp_path))
    assert proofs, "the workload never gathered"
    assert all(proofs)
