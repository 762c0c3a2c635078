"""Unit tests for the k-way merge kernels (Merge-Layer / Merge-Fiber)."""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FormatError, ShapeError
from repro.sparse import (
    SparseMatrix,
    merge_hash,
    merge_heap,
    merge_partials,
    random_sparse,
    spgemm_hash,
)
from repro.sparse import semiring as semiring_module
from repro.sparse.merge import merge_grouped
from repro.sparse.semiring import _REGISTRY as SEMIRINGS
from repro.sparse.spgemm import esc
from tests.conftest import TIER_THRESHOLDS

MERGES = {"hash": merge_hash, "heap": merge_heap, "grouped": merge_grouped}


@pytest.fixture(params=sorted(MERGES))
def merge(request):
    return MERGES[request.param]


def _parts(k=4, seed0=0, shape=(25, 18), nnz=80):
    return [
        random_sparse(*shape, nnz=nnz, seed=seed0 + s) for s in range(k)
    ]


class TestCorrectness:
    def test_matches_dense_sum(self, merge):
        parts = _parts()
        expected = sum(p.to_dense() for p in parts)
        assert np.allclose(merge(parts).to_dense(), expected)

    def test_single_part(self, merge):
        (p,) = _parts(1)
        assert merge([p]).allclose(p)

    def test_disjoint_parts(self, merge):
        a = SparseMatrix.from_coo(4, 4, [0], [0], [1.0])
        b = SparseMatrix.from_coo(4, 4, [3], [3], [2.0])
        out = merge([a, b])
        assert out.nnz == 2

    def test_fully_overlapping(self, merge):
        p = _parts(1)[0]
        out = merge([p, p, p])
        assert np.allclose(out.to_dense(), 3 * p.to_dense())

    def test_empty_parts(self, merge):
        parts = [SparseMatrix.empty(5, 5) for _ in range(3)]
        assert merge(parts).nnz == 0

    def test_many_parts(self, merge):
        parts = _parts(9, shape=(12, 12), nnz=30)
        expected = sum(p.to_dense() for p in parts)
        assert np.allclose(merge(parts).to_dense(), expected)


class TestValidation:
    def test_zero_parts(self, merge):
        with pytest.raises(ShapeError):
            merge([])

    def test_shape_mismatch(self, merge):
        with pytest.raises(ShapeError):
            merge([SparseMatrix.empty(2, 2), SparseMatrix.empty(2, 3)])


class TestSortedness:
    def test_hash_emits_unsorted_flag(self):
        out = merge_hash(_parts(3))
        assert not out.sorted_within_columns

    def test_heap_emits_sorted(self):
        out = merge_heap(_parts(3))
        assert out.sorted_within_columns
        out._validate()

    def test_heap_rejects_unsorted_input(self):
        a = random_sparse(10, 10, nnz=40, seed=1)
        unsorted = spgemm_hash(a, a)  # genuinely unsorted product
        with pytest.raises(FormatError):
            merge_heap([unsorted, unsorted])

    def test_hash_accepts_unsorted_input(self):
        a = random_sparse(10, 10, nnz=40, seed=2)
        unsorted = spgemm_hash(a, a)
        merged = merge_hash([unsorted, unsorted])
        assert np.allclose(merged.to_dense(), 2 * (a.to_dense() @ a.to_dense()))

    def test_grouped_accepts_unsorted_emits_sorted(self):
        a = random_sparse(10, 10, nnz=40, seed=3)
        unsorted = spgemm_hash(a, a)
        merged = merge_grouped([unsorted, unsorted])
        assert merged.sorted_within_columns
        merged._validate()


class TestDispatcher:
    def test_named_methods(self):
        parts = _parts(2)
        expected = sum(p.to_dense() for p in parts)
        for name in ("hash", "heap", "grouped"):
            assert np.allclose(
                merge_partials(parts, method=name).to_dense(), expected
            )

    def test_single_part_passthrough(self):
        p = _parts(1)[0]
        assert merge_partials([p], method="heap") is p

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown merge method"):
            merge_partials(_parts(2), method="zig")

    def test_callable_method(self):
        parts = _parts(2)
        out = merge_partials(parts, method=merge_grouped)
        assert np.allclose(out.to_dense(), sum(p.to_dense() for p in parts))


# --------------------------------------------------------------------- #
# every path through the grouping against a Python loop, bit for bit
# --------------------------------------------------------------------- #

#: values a sum must carry through exactly: signed zeros (a lone -0.0
#: sums to +0.0, as from a zero start), infinities, NaN, and finite
#: magnitudes wide enough that any other summation order shows
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=False, allow_infinity=False),
)
ADDS = st.sampled_from(["plus_times", "min_plus", "max_min", "or_and"])
#: every private choice of the grouping: table or sort tier, chunk target,
#: placed or ``bincount``-ed sum, decode by ``searchsorted`` or division
PATHS = st.fixed_dictionaries({
    "tier": st.sampled_from(sorted(TIER_THRESHOLDS)),
    "target": st.sampled_from([1, 3, 1 << 62]),
    "place_min": st.sampled_from([0, 1 << 62]),
    "decode_search": st.sampled_from([0, 1 << 62]),
})


@contextmanager
def forced(paths):
    """The drawn paths, with inf - inf and overflow left to the values."""
    table_sum, table_seen, _ = TIER_THRESHOLDS[paths["tier"]]
    with mock.patch.multiple(
            esc, _TABLE_SUM=table_sum, _TABLE_SEEN=table_seen,
            _CHUNK_PRODUCTS=paths["target"],
            _DECODE_SEARCH=paths["decode_search"]), \
            mock.patch.object(semiring_module, "_PLACE_MIN", paths["place_min"]), \
            np.errstate(all="ignore"):
        yield


@st.composite
def csc(draw, nrows, ncols, dense=False):
    """A matrix with drawn cells and values, stored sorted within columns
    or in drawn row order (then flagged unsorted)."""
    space = nrows * ncols
    cells = (draw(st.permutations(range(space))) if dense else
             draw(st.lists(st.integers(0, space - 1), unique=True, max_size=space)))
    cells = np.array(cells, dtype=np.int64)
    vals = np.array(draw(st.lists(VALUES, min_size=len(cells), max_size=len(cells))),
                    dtype=np.float64)
    rows, cols = cells % nrows, cells // nrows
    ordered = draw(st.booleans())
    order = np.lexsort((rows, cols)) if ordered else np.argsort(cols, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=ncols))))
    return SparseMatrix(nrows, ncols, indptr, rows[order], vals[order],
                        sorted_within_columns=ordered)


def stored(m):
    """``(col, row, value)`` of every entry, in storage order."""
    return [(j, int(m.rowidx[t]), m.values[t])
            for j in range(m.ncols) for t in range(m.indptr[j], m.indptr[j + 1])]


def loop_sums(semiring, entries):
    """Each coordinate's values folded into the add's identity one at a
    time, in the order given: the summation rule, in Python."""
    sums = {}
    for col, row, value in entries:
        acc = sums.get((col, row), semiring.add_identity)
        sums[(col, row)] = float(semiring.add(np.float64(acc), np.float64(value)))
    return sums


def assert_is_the_loop(got, sums):
    keys = sorted(sums)
    assert np.array_equal(got.col_indices(), [c for c, _ in keys])
    assert np.array_equal(got.rowidx, [r for _, r in keys])
    want = np.array([sums[k] for k in keys], dtype=np.float64)
    assert np.array_equal(got.values.view(np.int64), want.view(np.int64))
    assert got.sorted_within_columns


class TestEveryPathIsTheLoop:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), k=st.integers(1, 8), nrows=st.integers(1, 6),
           ncols=st.integers(1, 6), add=ADDS, paths=PATHS)
    def test_grouped_merge(self, data, k, nrows, ncols, add, paths):
        """k = 1..8 parts, any of them empty, each sorted or not: the merge
        adds coinciding entries in part order, whichever sort, sum and
        decode each chunk takes."""
        parts = [data.draw(csc(nrows, ncols)) for _ in range(k)]
        semiring = SEMIRINGS[add]
        with forced(paths):
            want = loop_sums(semiring, [e for p in parts for e in stored(p)])
            got = merge_grouped(parts, semiring)
        assert_is_the_loop(got, want)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), nrows=st.integers(1, 4), inner=st.integers(3, 9),
           ncols=st.integers(1, 4), add=ADDS, paths=PATHS)
    def test_multiply_with_long_runs(self, data, nrows, inner, ncols, add, paths):
        """Dense operands: every output coordinate collects ``inner`` >= 3
        products, added in expansion order (B nonzero by B nonzero, A's
        column in storage order)."""
        a = data.draw(csc(nrows, inner, dense=True))
        b = data.draw(csc(inner, ncols, dense=True))
        semiring = SEMIRINGS[add]
        with forced(paths):
            products = [
                (j, row, semiring.mul(np.float64(av), np.float64(bv)))
                for j, k, bv in stored(b)
                for _, row, av in (e for e in stored(a) if e[0] == k)
            ]
            want = loop_sums(semiring, products)
            got = esc.spgemm_esc(a, b, semiring)
        assert_is_the_loop(got, want)
