"""Accumulate tiers: two ways to group a chunk, one way to sum it.

``compress_chunks`` groups a column chunk through a dense table when its
key space is a few times its products and by a stable sort otherwise; the
symbolic pattern and the mask filter make the same choice for their bool
tables, and the symbolic count chooses between bitsets (the "table" tier
here) and the ESC count.  The choice is a function of the tile's
structure and must never show in the result: these tests force every
consumer onto each tier by setting the private thresholds (as
``--accumulate-tier`` does for whole suites) and require identical
bits — across tiers, across chunk targets, against the per-column SPA
and hash loop kernels, and against a Python loop that adds coinciding
entries left to right.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sparse import SparseMatrix, dedup_coo, multiply, random_sparse
from repro.sparse import semiring as semiring_module
from repro.sparse.coo import stable_order
from repro.sparse.merge import merge_grouped
from repro.sparse.semiring import _REGISTRY as SEMIRINGS
from repro.sparse.spgemm import esc, symbolic
from repro.sparse.spgemm.esc import expand_products, spgemm_esc
from repro.sparse.spgemm.hash import spgemm_hash
from repro.sparse.spgemm.masked import mask_hits, spgemm_masked
from repro.sparse.spgemm.spa import spgemm_spa
from repro.sparse.spgemm.symbolic import symbolic_nnz, symbolic_pattern
from tests.conftest import TIER_THRESHOLDS, set_tier
from tests.sparse import test_chunked
from tests.sparse.test_chunked import (
    ONE_CHUNK,
    TARGETS,
    assert_identical,
    complement_of,
    reference_product,
    split_by_inner,
    thinned,
)
from tests.sparse.test_sort_once import FAMILIES

chunk_target = test_chunked.chunk_target  # the fixture, for this module too
TIERS = sorted(TIER_THRESHOLDS)
FORCED = ["sort", "table"]


@pytest.fixture
def tier(monkeypatch):
    return lambda name: set_tier(monkeypatch.setattr, name)


def consumers(a, b):
    """Every path through the chunk grouping, as ``name -> thunk``."""
    mask = thinned(multiply(a, b), seed=3)
    halves, quarters = split_by_inner(a, b, 2), split_by_inner(a, b, 4)
    return {
        "multiply": lambda: multiply(a, b),
        "masked": lambda: spgemm_masked(a, b, mask),
        "masked complement": lambda: spgemm_masked(a, b, complement_of(mask)),
        "symbolic pattern": lambda: symbolic_pattern(a, b),
        "merge 2-way": lambda: merge_grouped(halves),
        "merge 4-way": lambda: merge_grouped(quarters),
    }


CONSUMERS = {name: consumers(a, b) for name, (a, b) in FAMILIES.items()}


# --------------------------------------------------------------------- #
# the forcing itself: each forced tier runs the code it names
# --------------------------------------------------------------------- #

class TestForcing:
    def test_table_tier_never_sorts(self, tier):
        a, b = FAMILIES["protein"]
        tier("table")

        def only_if_empty(fn):
            # a chunk of no keys (a run of empty columns under a small
            # chunk target) has nothing to group on either tier
            def checked(keys, *args):
                assert not keys.shape[0], "sorted on the table tier"
                return fn(keys, *args)
            return checked

        with mock.patch.object(
                esc, "stable_order", only_if_empty(esc.stable_order)), \
            mock.patch.object(
                esc, "run_boundary", only_if_empty(esc.run_boundary)), \
            mock.patch.object(
                symbolic, "run_boundary", only_if_empty(esc.run_boundary)):
            for run in CONSUMERS["protein"].values():
                run()
            symbolic_nnz(a, b)

    def test_sort_tier_builds_no_table(self, tier, monkeypatch):
        """No consumer on the sort tier scatters into a table or counts by
        bitsets, and its sum is left to right whether it is placed or
        ``bincount``-ed."""
        a, b = FAMILIES["protein"]
        parts = split_by_inner(a, b, 4)
        triples = [np.concatenate(x) for x in zip(*(p.to_coo() for p in parts))]
        tier("sort")
        for place_min in (0, 1 << 62):
            monkeypatch.setattr(semiring_module, "_PLACE_MIN", place_min)
            with mock.patch.object(esc, "key_table", side_effect=AssertionError), \
                    mock.patch.object(symbolic, "_column_bitsets",
                                      side_effect=AssertionError):
                for run in CONSUMERS["protein"].values():
                    run()
                symbolic_nnz(a, b)
                product, merged = multiply(a, b), merge_grouped(parts)
            assert_is_the_loop(product, *expand_products(a, b))
            assert_is_the_loop(merged, *triples)

    def test_default_tier_splits_by_density(self, tier, chunk_target):
        """A dense tile takes the table, a hypersparse one the sort, on the
        shipped thresholds — with no option read anywhere."""
        tier("default")
        chunk_target(ONE_CHUNK)
        dense, _ = FAMILIES["rmat"]                        # 1.3 cells a product
        sparse = random_sparse(600, 600, nnz=900, seed=2)  # some 270
        with mock.patch.object(esc, "stable_order",
                               wraps=esc.stable_order) as order, \
                mock.patch.object(esc, "key_table", wraps=esc.key_table) as table:
            multiply(dense, dense)
            assert table.call_count == 1 and order.call_count == 0
            multiply(sparse, sparse)
            assert table.call_count == 1 and order.call_count == 1

    @pytest.mark.parametrize("semiring", ["min_plus", "max_min", "or_and"])
    def test_other_adds_never_take_the_table(self, semiring, tier):
        """Only ``np.add`` has a ``bincount``: min / max / or chunks stay on
        the sort tier however dense they are."""
        a, b = FAMILIES["protein"]
        sr = SEMIRINGS[semiring]
        parts = split_by_inner(a, b, 2)
        tier("table")
        with mock.patch.object(np, "bincount", wraps=np.bincount) as bincount:
            got = multiply(a, b, semiring=sr)
            masked = spgemm_masked(a, b, a, sr)
            merged = merge_grouped(parts, sr)
            assert "weights" not in str(bincount.call_args_list)
            multiply(a, b)  # the spy does see plus_times take it
            assert "weights" in str(bincount.call_args_list)
        tier("sort")
        assert_identical(got, multiply(a, b, semiring=sr))
        assert_identical(got, reference_product(a, b, sr))
        assert_identical(masked, spgemm_masked(a, b, a, sr))
        assert_identical(merged, merge_grouped(parts, sr))


# --------------------------------------------------------------------- #
# every consumer x every family x every chunk target: same bits
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_tier_same_bits(name, target, tier, chunk_target):
    a, b = FAMILIES[name]
    tier("sort")
    chunk_target(ONE_CHUNK)
    want = {op: run() for op, run in CONSUMERS[name].items()}
    assert_identical(
        want["multiply"], reference_product(a, b, SEMIRINGS["plus_times"]))
    for forced in TIERS:
        tier(forced)
        chunk_target(target)
        for op, run in CONSUMERS[name].items():
            assert_identical(run(), want[op])
        nnz = symbolic_nnz(a, b)
        assert isinstance(nnz, int)
        assert nnz == want["multiply"].nnz == want["symbolic pattern"].nnz


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_esc_is_the_loop_kernels_bit_for_bit(name, tier, chunk_target):
    """Left to right in expansion order is what a per-column accumulator
    does: under ``plus_times`` ESC equals the SPA kernel and the (row
    sorted) hash kernel exactly, where ``reduceat`` was only close."""
    a, b = FAMILIES[name]
    spa = spgemm_spa(a, b)
    hashed = spgemm_hash(a, b).sort_indices()
    for forced in TIERS:
        tier(forced)
        for target in (7, ONE_CHUNK):
            chunk_target(target)
            got = spgemm_esc(a, b)
            assert_identical(got, spa)
            assert_identical(got, hashed)


@pytest.mark.parametrize("forced", FORCED)
def test_plus_pair_counts_structural_products(forced, tier, chunk_target):
    a, b = FAMILIES["planted"]
    sr = SEMIRINGS["plus_pair"]
    want = reference_product(a, b, sr)
    pattern = SparseMatrix(
        a.nrows, a.ncols, a.indptr, a.rowidx, np.ones(a.nnz), validate=False)
    tier(forced)
    for target in (7, ONE_CHUNK):
        chunk_target(target)
        got = multiply(a, b, semiring=sr)
        assert_identical(got, want)
        # one per structural product, whatever the stored values are
        assert_identical(got, multiply(pattern, pattern))


# --------------------------------------------------------------------- #
# edge cases, on each tier
# --------------------------------------------------------------------- #

class TestEdgeCasesOnEachTier(test_chunked.TestEdgeCases):
    """``test_chunked``'s edge cases — empty operands and chunks, a column
    larger than the target, ``nrows == 0`` and the other degenerate
    shapes, unsorted inputs, parts and masks, masks with empty column
    ranges — each against the whole-expansion reference, on each forced
    tier; then the cases only a table can get wrong."""

    @pytest.fixture(autouse=True, params=FORCED)
    def forced(self, request, tier):
        tier(request.param)

    def test_cancelling_products_keep_their_explicit_zero(self):
        # C(0, 0) = 1 * 1 + (-1) * 1 and C(2, 1) = 2 * 3 + 3 * (-2): stored
        # entries valued 0.0, which the table must find from its bool
        # table, not from the sums
        a = SparseMatrix.from_coo(
            3, 2, [0, 0, 2, 2, 1], [0, 1, 0, 1, 1], [1.0, -1.0, 2.0, 3.0, 5.0])
        b = SparseMatrix.from_coo(
            2, 2, [0, 1, 0, 1], [0, 0, 1, 1], [1.0, 1.0, 3.0, -2.0])
        c = multiply(a, b)
        assert np.array_equal(c.indptr, [0, 3, 6])
        assert np.array_equal(c.rowidx, [0, 1, 2, 0, 1, 2])
        assert np.array_equal(c.values, [0.0, 5.0, 5.0, 5.0, -10.0, 0.0])
        assert symbolic_nnz(a, b) == symbolic_pattern(a, b).nnz == c.nnz == 6
        halves = split_by_inner(a, b, 2)
        assert_identical(merge_grouped(halves), c)
        assert_identical(spgemm_masked(a, b, c), c)

    def test_mask_hits_is_membership(self):
        rng = np.random.default_rng(9)
        for mask in (random_sparse(13, 40, nnz=150, seed=3),
                     spgemm_hash(random_sparse(13, 9, nnz=60, seed=4),
                                 random_sparse(9, 40, nnz=90, seed=5)),
                     SparseMatrix.empty(13, 40)):
            stored = mask.to_dense() != 0
            for j0, j1 in ((0, 40), (7, 8), (5, 29)):
                keys = rng.integers(0, (j1 - j0) * 13, size=200)
                want = stored[keys % 13, j0 + keys // 13]
                assert np.array_equal(mask_hits(mask, j0, j1, keys), want)
            none = np.empty(0, dtype=np.int64)  # an empty range, no keys
            assert mask_hits(mask, 12, 12, none).shape == (0,)


# --------------------------------------------------------------------- #
# the summation rule itself
# --------------------------------------------------------------------- #

def loop_dedup(nrows, rows, cols, vals):
    """Coinciding entries added one by one in input order, in Python."""
    sums = {}
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        sums[(c, r)] = sums.get((c, r), 0.0) + v
    keys = sorted(sums)
    return (np.array([r for _, r in keys], dtype=np.int64),
            np.array([c for c, _ in keys], dtype=np.int64),
            np.array([sums[k] for k in keys], dtype=np.float64))


def assert_is_the_loop(got, rows, cols, vals):
    """``got`` holds the loop's sums of the triples, bit for bit."""
    want_rows, want_cols, want_vals = loop_dedup(got.nrows, rows, cols, vals)
    assert np.array_equal(got.rowidx, want_rows)
    assert np.array_equal(got.col_indices(), want_cols)
    assert np.array_equal(got.values.view(np.int64), want_vals.view(np.int64))


def wide_values(rng, n):
    """Magnitudes 1e-8 .. 1e8, both signs: any other summation order of
    three or more of them differs in the last bits."""
    return rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, size=n)


class TestLeftToRight:
    @given(nrows=st.integers(1, 12), ncols=st.integers(1, 12),
           n=st.integers(0, 400), seed=st.integers(0, 2**32 - 1))
    def test_dedup_coo_is_the_loop(self, nrows, ncols, n, seed):
        # from one entry per cell to dozens of duplicates on each
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(0, nrows, n), rng.integers(0, ncols, n)
        vals = wide_values(rng, n)
        for got, want in zip(dedup_coo(nrows, rows, cols, vals),
                             loop_dedup(nrows, rows, cols, vals)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @given(nrows=st.integers(1, 12), ncols=st.integers(1, 12),
           n=st.integers(1, 400), parts=st.integers(2, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_both_tiers_are_the_loop(self, nrows, ncols, n, parts, seed):
        """The same triples as a ``parts``-way merge: part order is input
        order, so every tier must reproduce the loop's bits."""
        rng = np.random.default_rng(seed)
        pieces, triples = [], []
        for _ in range(parts):
            flat = rng.choice(nrows * ncols, size=min(n, nrows * ncols),
                              replace=False)
            rows, cols, vals = flat % nrows, flat // nrows, wide_values(rng, flat.shape[0])
            pieces.append(SparseMatrix.from_coo(nrows, ncols, rows, cols, vals))
            triples.append(pieces[-1].to_coo())
        rows, cols, vals = (np.concatenate(x) for x in zip(*triples))
        want_rows, want_cols, want_vals = loop_dedup(nrows, rows, cols, vals)
        for forced in TIERS:
            table_sum, table_seen, _ = TIER_THRESHOLDS[forced]
            with mock.patch.multiple(
                    esc, _TABLE_SUM=table_sum, _TABLE_SEEN=table_seen):
                merged = merge_grouped(pieces)
            assert np.array_equal(merged.rowidx, want_rows)
            assert np.array_equal(merged.col_indices(), want_cols)
            assert np.array_equal(merged.values, want_vals)

    def test_reduceat_was_not_this_rule(self, monkeypatch):
        """Why the rule had to be stated: ``np.add.reduceat`` is not a
        left-to-right sum (it need not even agree with itself across
        machines), so it could not be what two tiers agree on."""
        rng = np.random.default_rng(0)
        vals = wide_values(rng, 64 * 9)
        starts = np.arange(0, vals.shape[0], 9)
        sequential = np.array(
            [sum(vals[s:s + 9].tolist(), 0.0) for s in starts.tolist()])
        boundary = np.zeros(vals.shape[0], dtype=bool)
        boundary[starts] = True
        for place_min in (0, 1 << 62):  # placed, and bincount-ed
            monkeypatch.setattr(semiring_module, "_PLACE_MIN", place_min)
            ours = SEMIRINGS["plus_times"].reduce_segments(vals, boundary, starts)
            assert np.array_equal(ours, sequential)
        assert np.allclose(np.add.reduceat(vals, starts), sequential, rtol=1e-9)


class TestStableOrderWithKnownSpace:
    @pytest.mark.parametrize("n", [0, 1, 2, 1000])
    def test_same_order_without_the_two_passes(self, n):
        key = np.random.default_rng(n).integers(0, 7, size=n).astype(np.int64)
        want = np.argsort(key, kind="stable")
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            order, sorted_key = stable_order(key, 7)
        assert argsort.call_count == 0  # packed, even when there is no key
        assert np.array_equal(order, want)
        assert np.array_equal(sorted_key, key[want])

    def test_a_space_too_wide_to_pack_falls_back(self):
        key = np.random.default_rng(1).integers(0, 4, size=1024).astype(np.int64)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            order, _ = stable_order(key, 2**53)  # 53 + 10 bits > 62
        assert argsort.call_count == 1
        assert np.array_equal(order, np.argsort(key, kind="stable"))
