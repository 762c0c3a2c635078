"""Column-chunked ESC: every chunk target gives the same bits.

The production kernels walk the output columns in chunks of about
``esc._CHUNK_PRODUCTS`` partial products.  Every matrix in ``tests/`` fits
one chunk of the default target, so these tests shrink the target until
the same matrices span many chunks (down to one column per chunk) and
require the multiply, the masked multiply, the symbolic counts and the
grouped merge to stay bit-identical to the single-chunk result and to the
whole-expansion reference formulation (:func:`expand_products` + stable
``argsort`` + a left-to-right ``ufunc.at`` reduction), under every
registered semiring.
"""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sparse import SparseMatrix, multiply, random_sparse, transpose
from repro.sparse.merge import merge_grouped
from repro.sparse.ops import submatrix
from repro.sparse.semiring import _REGISTRY as SEMIRINGS
from repro.sparse.spgemm import esc
from repro.sparse.spgemm.esc import column_chunks, expand_products
from repro.sparse.spgemm.hash import spgemm_hash
from repro.sparse.spgemm.masked import spgemm_masked
from repro.sparse.spgemm.symbolic import (
    flops_per_column,
    symbolic_nnz,
    symbolic_pattern,
)
from tests.sparse.test_sort_once import FAMILIES, reference_dedup

DEFAULT_TARGET = 1 << 16
TARGETS = [1, 7, 64, DEFAULT_TARGET]
ONE_CHUNK = 1 << 62


@pytest.fixture
def chunk_target(monkeypatch):
    def set_target(target):
        monkeypatch.setattr(esc, "_CHUNK_PRODUCTS", target)

    return set_target


def arrays(m):
    return m.indptr, m.rowidx, m.values


def assert_identical(got, want):
    assert got.shape == want.shape
    for g, w in zip(arrays(got), arrays(want)):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)  # bit for bit, not allclose
    assert got.sorted_within_columns


def reference_product(a, b, semiring, keep=None):
    """The whole-expansion formulation: all ``flops`` products at once,
    optionally filtered by ``keep(rows, cols)``, one stable argsort, one
    left-to-right reduction."""
    rows, cols, vals = expand_products(a, b, semiring)
    if keep is not None:
        sel = keep(rows, cols)
        rows, cols, vals = rows[sel], cols[sel], vals[sel]
    return reference_matrix(a.nrows, b.ncols, rows, cols, vals, semiring)


def reference_matrix(nrows, ncols, rows, cols, vals, semiring):
    if rows.shape[0]:
        rows, cols, vals = reference_dedup(
            nrows, rows, cols, vals, semiring.add, semiring.add_identity)
    counts = np.bincount(cols, minlength=ncols)
    return SparseMatrix(
        nrows, ncols, np.concatenate(([0], np.cumsum(counts))), rows,
        np.asarray(vals, dtype=np.float64))


def reference_merge(parts, semiring):
    """The whole-concatenation formulation of the grouped merge."""
    return reference_matrix(
        *parts[0].shape,
        np.concatenate([p.rowidx for p in parts]),
        np.concatenate([p.col_indices() for p in parts]),
        np.concatenate([p.values for p in parts]), semiring)


def in_mask(mask):
    dense = mask.to_dense() != 0
    return lambda rows, cols: dense[rows, cols]


def complement_of(mask):
    """The pattern of every coordinate ``mask`` does not store: how a
    caller asks for a complement mask."""
    stored = np.zeros(mask.shape, dtype=bool)
    stored[mask.rowidx, mask.col_indices()] = True
    rows, cols = np.nonzero(~stored)
    return SparseMatrix.from_coo(
        mask.nrows, mask.ncols, rows, cols, np.ones(rows.shape[0]))


def thinned(m, seed):
    """About half of ``m``'s entries: a mask that hits and misses."""
    rng = np.random.default_rng(seed)
    keep = rng.random(m.nnz) < 0.5
    rows, cols, vals = m.to_coo()
    return SparseMatrix.from_coo(
        m.nrows, m.ncols, rows[keep], cols[keep], vals[keep])


def split_by_inner(a, b, pieces=4):
    """Partial products of ``A @ B`` over slices of the inner dimension:
    same-shaped matrices with overlapping coordinates, as Merge-Layer sees
    them."""
    bounds = np.linspace(0, a.ncols, pieces + 1).astype(int)
    return [
        multiply(submatrix(a, 0, a.nrows, lo, hi),
                 submatrix(b, lo, hi, 0, b.ncols))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def test_the_default_target_is_what_these_tests_assume():
    # under --chunk-products the constant is overridden for the session;
    # every test here sets the target it needs itself
    if esc._CHUNK_PRODUCTS != DEFAULT_TARGET:
        pytest.skip("--chunk-products given")
    assert all(
        flops_per_column(a, b).sum() <= DEFAULT_TARGET
        for a, b in FAMILIES.values()
    ), "a family outgrew one default chunk: TARGETS no longer brackets it"


# --------------------------------------------------------------------- #
# the column ranges themselves
# --------------------------------------------------------------------- #

class TestColumnChunks:
    def ranges(self, work, target, chunk_target):
        chunk_target(target)
        work_ptr = np.concatenate(([0], np.cumsum(work))).astype(np.int64)
        return list(column_chunks(work_ptr)), work_ptr

    @pytest.mark.parametrize("target", [1, 3, 10, 1000])
    @pytest.mark.parametrize("work", [
        [], [0], [5], [0, 0, 0], [1, 1, 1, 1], [3, 0, 0, 4, 0, 9, 1, 0],
        [0, 0, 20, 0, 0], [2] * 50,
    ])
    def test_ranges_partition_the_columns(self, work, target, chunk_target):
        ranges, work_ptr = self.ranges(work, target, chunk_target)
        assert ranges[0][0] == 0 and ranges[-1][1] == len(work)
        for (_, hi), (lo, _) in zip(ranges[:-1], ranges[1:]):
            assert hi == lo
        for j0, j1 in ranges:
            inside = work_ptr[j1] - work_ptr[j0]
            # over the target only when a single column is
            assert inside <= target or j1 - j0 == 1
            if len(ranges) > 1:
                assert j1 > j0

    def test_work_that_fits_is_one_range_with_no_cut(self, chunk_target):
        ranges, _ = self.ranges([4, 0, 3, 3], 10, chunk_target)
        assert ranges == [(0, 4)]

    def test_a_column_is_never_split(self, chunk_target):
        ranges, _ = self.ranges([1, 50, 1, 1], 4, chunk_target)
        assert ranges == [(0, 1), (1, 2), (2, 4)]

    def test_ranges_are_as_full_as_the_target_allows(self, chunk_target):
        ranges, _ = self.ranges([2] * 10, 6, chunk_target)
        assert ranges == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_runs_of_empty_columns_ride_along(self, chunk_target):
        ranges, _ = self.ranges([0] * 5 + [3] + [0] * 5 + [3] + [0] * 5, 3,
                                chunk_target)
        assert ranges == [(0, 11), (11, 17)]


# --------------------------------------------------------------------- #
# every consumer of the iterator, every family, every semiring
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("semiring", sorted(SEMIRINGS))
@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("name", sorted(FAMILIES))
class TestEveryTargetSameBits:
    def test_multiply(self, name, target, semiring, chunk_target):
        a, b = FAMILIES[name]
        sr = SEMIRINGS[semiring]
        chunk_target(ONE_CHUNK)
        whole = multiply(a, b, semiring=sr)
        chunk_target(target)
        got = multiply(a, b, semiring=sr)
        assert_identical(got, whole)
        assert_identical(got, reference_product(a, b, sr))

    @pytest.mark.parametrize("complement", [False, True])
    def test_spgemm_masked(self, name, target, semiring, complement,
                           chunk_target):
        a, b = FAMILIES[name]
        sr = SEMIRINGS[semiring]
        mask = thinned(multiply(a, b), seed=3)
        if complement:  # a dense mask, as a caller spells a complement
            mask = complement_of(mask)
        chunk_target(ONE_CHUNK)
        whole = spgemm_masked(a, b, mask, sr)
        chunk_target(target)
        got = spgemm_masked(a, b, mask, sr)
        assert_identical(got, whole)
        assert_identical(got, reference_product(a, b, sr, in_mask(mask)))

    def test_merge_grouped(self, name, target, semiring, chunk_target):
        a, b = FAMILIES[name]
        sr = SEMIRINGS[semiring]
        parts = split_by_inner(a, b)
        chunk_target(ONE_CHUNK)
        whole = merge_grouped(parts, sr)
        chunk_target(target)
        got = merge_grouped(parts, sr)
        assert_identical(got, whole)
        assert_identical(got, reference_merge(parts, sr))


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_symbolic_counts(name, target, chunk_target):
    a, b = FAMILIES[name]
    rows, cols, _ = expand_products(a, b)
    keys = np.unique(cols * np.int64(a.nrows) + rows)
    chunk_target(ONE_CHUNK)
    whole = symbolic_pattern(a, b)
    chunk_target(target)
    assert symbolic_nnz(a, b) == keys.shape[0]
    assert isinstance(symbolic_nnz(a, b), int)
    nnz_per_col = symbolic_pattern(a, b).col_nnz()
    flops_per_col = flops_per_column(a, b)
    assert nnz_per_col.dtype == flops_per_col.dtype == np.int64
    assert np.array_equal(
        nnz_per_col, np.bincount(keys // a.nrows, minlength=b.ncols))
    assert np.array_equal(flops_per_col, np.bincount(cols, minlength=b.ncols))
    pattern = symbolic_pattern(a, b)
    assert_identical(pattern, whole)
    assert np.array_equal(pattern.rowidx, keys % a.nrows)
    assert np.array_equal(pattern.values, np.ones(keys.shape[0]))
    SparseMatrix(*pattern.shape, *arrays(pattern))  # all invariants hold


# --------------------------------------------------------------------- #
# edge cases
# --------------------------------------------------------------------- #

def check_all_consumers(a, b, chunk_target, targets=(1, 2, 5, ONE_CHUNK)):
    """Multiply, the masked multiply under a mask and its complement, the
    symbolic pass and a merge of ``A @ B`` against the whole-expansion
    reference, per target."""
    sr = SEMIRINGS["plus_times"]
    want = reference_product(a, b, sr)
    masks = (thinned(want, seed=1),)
    masks += (complement_of(masks[0]),)
    for target in targets:
        chunk_target(target)
        assert_identical(multiply(a, b), want)
        for mask in masks:
            assert_identical(spgemm_masked(a, b, mask),
                             reference_product(a, b, sr, in_mask(mask)))
        assert symbolic_nnz(a, b) == want.nnz
        assert np.array_equal(symbolic_pattern(a, b).col_nnz(), want.col_nnz())
        assert np.array_equal(symbolic_pattern(a, b).indptr, want.indptr)
        assert np.array_equal(symbolic_pattern(a, b).rowidx, want.rowidx)
        parts = split_by_inner(a, b, 2)
        assert_identical(merge_grouped(parts), reference_merge(parts, sr))


class TestEdgeCases:
    @pytest.mark.parametrize("shape_a,shape_b", [
        ((6, 5), (5, 0)),    # ncols == 0
        ((0, 5), (5, 4)),    # no output rows
        ((6, 0), (0, 4)),    # empty inner dimension
        ((0, 0), (0, 0)),
    ])
    def test_degenerate_shapes(self, shape_a, shape_b, chunk_target):
        a, b = SparseMatrix.empty(*shape_a), SparseMatrix.empty(*shape_b)
        for target in (1, DEFAULT_TARGET):
            chunk_target(target)
            c = multiply(a, b)
            assert c.shape == (shape_a[0], shape_b[1]) and c.nnz == 0
            assert np.array_equal(c.indptr, np.zeros(shape_b[1] + 1))
            assert symbolic_nnz(a, b) == 0
            assert symbolic_pattern(a, b).nnz == 0
            assert symbolic_pattern(a, b).col_nnz().shape == (shape_b[1],)
            m = spgemm_masked(a, b, SparseMatrix.empty(*c.shape))
            assert m.shape == c.shape and m.nnz == 0
            assert merge_grouped([c, c]).nnz == 0

    def test_empty_a_or_b(self, chunk_target):
        full = random_sparse(12, 9, nnz=40, seed=1)
        check_all_consumers(SparseMatrix.empty(7, 12), full, chunk_target)
        check_all_consumers(full, SparseMatrix.empty(9, 8), chunk_target)

    def test_long_runs_of_empty_columns(self, chunk_target):
        a = random_sparse(10, 8, nnz=30, seed=2)
        rng = np.random.default_rng(4)
        cols = np.repeat([0, 41, 42, 99], 5)  # four occupied columns of 100
        b = SparseMatrix.from_coo(
            8, 100, rng.integers(0, 8, 20), cols, rng.random(20))
        check_all_consumers(a, b, chunk_target)

    def test_one_column_larger_than_the_target(self, chunk_target):
        # B's column 3 alone expands to far more products than the target:
        # it forms its own chunk, whole
        a = random_sparse(30, 20, nnz=400, seed=5)
        rows = np.concatenate((np.arange(20), [0, 1, 2]))
        cols = np.concatenate((np.full(20, 3), [0, 5, 7]))
        b = SparseMatrix.from_coo(20, 9, rows, cols, np.arange(1.0, 24.0))
        assert flops_per_column(a, b)[3] == 400
        check_all_consumers(a, b, chunk_target, targets=(1, 50, 399, 400))

    def test_unsorted_inputs(self, chunk_target):
        chunk_target(ONE_CHUNK)
        a = spgemm_hash(random_sparse(25, 18, nnz=120, seed=6),
                        random_sparse(18, 25, nnz=120, seed=7))
        assert not a.sorted_within_columns
        check_all_consumers(a, a, chunk_target)
        # unsorted parts, and an unsorted mask
        chunk_target(ONE_CHUNK)
        want = multiply(a, a)
        for target in (1, 3, ONE_CHUNK):
            chunk_target(target)
            doubled = merge_grouped([a, a])
            assert np.array_equal(doubled.rowidx, a.sort_indices().rowidx)
            assert np.array_equal(doubled.values, 2 * a.sort_indices().values)
            assert_identical(
                spgemm_masked(a, a, a),
                reference_product(a, a, SEMIRINGS["plus_times"], in_mask(a)))
        assert_identical(multiply(a, a), want)

    def test_mask_with_empty_column_ranges(self, chunk_target):
        a = random_sparse(16, 16, nnz=90, seed=8)
        product = multiply(a, a)
        rows, cols, vals = product.to_coo()
        only = (cols == 2) | (cols == 11)  # a mask on two columns of 16
        mask = SparseMatrix.from_coo(16, 16, rows[only], cols[only], vals[only])
        sr = SEMIRINGS["plus_times"]
        empty = SparseMatrix.empty(16, 16)
        for target in (1, 4, ONE_CHUNK):
            chunk_target(target)
            for m in (mask, complement_of(mask)):
                assert_identical(
                    spgemm_masked(a, a, m), reference_product(a, a, sr, in_mask(m)))
            assert spgemm_masked(a, a, empty).nnz == 0
            assert_identical(spgemm_masked(a, a, complement_of(empty)), product)

    def test_shape_mismatch_is_refused_before_any_work(self, chunk_target):
        chunk_target(1)
        a, b = random_sparse(4, 5, nnz=6, seed=1), random_sparse(4, 5, nnz=6, seed=2)
        for fn in (multiply, symbolic_nnz, flops_per_column, symbolic_pattern):
            with pytest.raises(ShapeError, match="cannot multiply"):
                fn(a, b)
        with pytest.raises(ShapeError):
            merge_grouped([a, transpose(a)])
