"""The sort-once data path: one group-by-key primitive, no hash-unique.

Every block that was rebuilt on :func:`repro.sparse.coo.stable_order` is
checked bit for bit against an independent formulation kept here as the
reference (stable ``argsort`` + a left-to-right ``ufunc.at`` reduction;
``np.unique`` duplicate check; per-column sort loop), and against SciPy.
"""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.data import (
    erdos_renyi,
    kmer_matrix,
    planted_partition,
    protein_similarity,
    rmat,
)
from repro.errors import DistributionError, FormatError
from repro.grid.distribution import gather_tiles
from repro.sparse import (
    SparseMatrix,
    dedup_coo,
    merge_partials,
    multiply,
    random_sparse,
    transpose,
)
from repro.sparse.coo import run_boundary, stable_order
from repro.sparse.ops import submatrix
from repro.sparse.spgemm.esc import expand_products
from repro.sparse.spgemm.hash import spgemm_hash
from repro.sparse.spgemm.symbolic import (
    flops_per_column,
    symbolic_nnz,
    symbolic_pattern,
)
from tests.conftest import to_scipy


# --------------------------------------------------------------------- #
# the formulations this path replaced, kept as references
# --------------------------------------------------------------------- #

def reference_dedup(nrows, rows, cols, vals, add=np.add, identity=0.0):
    """Coinciding entries reduced left to right in input order, starting
    from the identity: ``ufunc.at`` is unbuffered and applies the
    operands one by one in the order given."""
    rows, cols, vals = map(np.asarray, (rows, cols, vals))
    key = cols * np.int64(max(nrows, 1)) + rows
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    group = np.repeat(
        np.arange(starts.shape[0]), np.diff(np.append(starts, key.shape[0])))
    reduced = np.full(starts.shape[0], identity, dtype=np.float64)
    add.at(reduced, group, vals[order])
    return rows[order][starts], cols[order][starts], reduced


def reference_csc(nrows, ncols, rows, cols, vals):
    """(indptr, rowidx, values) of the old compress / grouped merge."""
    rows, cols, vals = reference_dedup(nrows, rows, cols, vals)
    counts = np.bincount(cols, minlength=ncols)
    return np.concatenate(([0], np.cumsum(counts))), rows, vals


def reference_validate(nrows, ncols, indptr, rowidx, values, sorted_flag):
    """The old ``SparseMatrix._validate``: first failing check's message."""
    indptr, rowidx, values = map(np.asarray, (indptr, rowidx, values))
    if indptr.shape != (ncols + 1,):
        return "indptr length"
    if indptr[0] != 0:
        return "indptr must start at 0"
    if np.any(np.diff(indptr) < 0):
        return "indptr must be non-decreasing"
    nnz = int(indptr[-1])
    if rowidx.shape != (nnz,) or values.shape != (nnz,):
        return "array lengths"
    if nnz and (rowidx.min() < 0 or rowidx.max() >= nrows):
        return "row index out of range"
    if nnz:
        cols = np.repeat(np.arange(ncols), np.diff(indptr))
        key = cols * np.int64(max(nrows, 1)) + rowidx
        if np.unique(key).shape[0] != nnz:
            return "duplicate (row, col) coordinate"
        same_col = cols[1:] == cols[:-1]
        if sorted_flag and np.any(same_col & (np.diff(rowidx) <= 0)):
            return "sorted_within_columns set but a column is unsorted"
    return None


def assert_stable_order(key):
    order, sorted_key = stable_order(key)
    assert np.array_equal(order, np.argsort(key, kind="stable"))
    assert np.array_equal(sorted_key, key[order])


def assert_same_arrays(m, indptr, rowidx, values):
    assert np.array_equal(m.indptr, indptr)
    assert np.array_equal(m.rowidx, rowidx)
    assert np.array_equal(m.values, values)  # bit for bit, not allclose


def families():
    """The benchmark's matrix families, at small scale."""
    kmer = kmer_matrix(60, 900, kmers_per_seq=8.0, zipf_exponent=0.35, seed=1)
    square = {
        "rmat": rmat(7, edge_factor=8, seed=1),
        "protein": protein_similarity(
            150, intra_density=0.35, noise_degree=1.0, seed=1),
        "planted": planted_partition(120, 6, p_in=0.2, p_out=0.01, seed=1)[0],
        "erdos_renyi": erdos_renyi(128, avg_degree=6, seed=1),
    }
    pairs = {name: (m, m) for name, m in square.items()}
    pairs["kmer_aat"] = (kmer, transpose(kmer))
    return pairs


FAMILIES = families()


# --------------------------------------------------------------------- #
# stable_order / run_boundary
# --------------------------------------------------------------------- #

class TestStableOrder:
    @pytest.mark.parametrize("n", [0, 1, 2, 1000])
    def test_packed_branch_on_heavy_ties(self, n):
        key = np.random.default_rng(n).integers(0, 7, size=n).astype(np.int64)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            assert_stable_order(key)
        # the reference's own call, plus ours only when nothing can be packed
        assert argsort.call_count == 1 + (n == 0)

    @pytest.mark.parametrize("base", [2**62 - 4, 2**55, -3])
    def test_fallback_branch_on_heavy_ties(self, base):
        # key bits + index bits > 62 (or a negative key): packing would
        # overflow, the stable argsort takes over
        rng = np.random.default_rng(5)
        key = (base + rng.integers(0, 4, size=1000)).astype(np.int64)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            assert_stable_order(key)
        assert argsort.call_count == 2  # ours and the reference's

    def test_branch_boundary(self):
        # 1024 entries need 10 index bits: 52-bit keys still pack, 53 do not
        for top, packs in ((2**52 - 1, True), (2**52, False)):
            key = np.full(1024, top, dtype=np.int64)
            key[::3] = 5
            with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
                assert_stable_order(key)
            assert argsort.call_count == 1 + (not packs)

    @given(st.lists(st.integers(0, 2**62 - 1), max_size=60))
    def test_any_nonnegative_keys(self, keys):
        assert_stable_order(np.array(keys, dtype=np.int64))

    @given(st.lists(st.integers(0, 9), max_size=60))
    def test_groups_partition_the_input(self, keys):
        key = np.array(keys, dtype=np.int64)
        order, sorted_key = stable_order(key)
        starts = np.flatnonzero(run_boundary(sorted_key))
        assert np.array_equal(sorted_key[starts], np.unique(key))
        bounds = np.append(starts, key.shape[0])
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            group = order[lo:hi]
            assert np.all(key[group] == key[group[0]])
            assert np.all(np.diff(group) > 0)  # input order within a group


# --------------------------------------------------------------------- #
# products, merges and COO construction: bit-identical, and right
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("name", sorted(FAMILIES))
class TestBitIdentity:
    def test_multiply(self, name):
        a, b = FAMILIES[name]
        c = multiply(a, b)
        assert_same_arrays(
            c, *reference_csc(a.nrows, b.ncols, *expand_products(a, b)))
        expected = (to_scipy(a) @ to_scipy(b)).tocsc()
        expected.sort_indices()
        assert np.array_equal(c.indptr, expected.indptr)
        assert np.array_equal(c.rowidx, expected.indices)
        assert np.allclose(c.values, expected.data, rtol=1e-9)

    def test_merge_partials(self, name):
        a, b = FAMILIES[name]
        bounds = np.linspace(0, a.ncols, 5).astype(int)
        parts = [
            multiply(submatrix(a, 0, a.nrows, lo, hi),
                     submatrix(b, lo, hi, 0, b.ncols))
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        merged = merge_partials(parts)
        assert_same_arrays(merged, *reference_csc(
            a.nrows, b.ncols,
            np.concatenate([p.rowidx for p in parts]),
            np.concatenate([p.col_indices() for p in parts]),
            np.concatenate([p.values for p in parts]),
        ))
        assert np.allclose(
            merged.to_dense(), (to_scipy(a) @ to_scipy(b)).toarray(), rtol=1e-9)

    def test_dedup_coo(self, name):
        a, b = FAMILIES[name]
        rows, cols, vals = expand_products(a, b)
        for got, want in zip(dedup_coo(a.nrows, rows, cols, vals),
                             reference_dedup(a.nrows, rows, cols, vals)):
            assert np.array_equal(got, want)

    def test_symbolic_counts(self, name):
        a, b = FAMILIES[name]
        rows, cols, _ = expand_products(a, b)
        keys = np.unique(cols * np.int64(a.nrows) + rows)
        nnz_per_col = symbolic_pattern(a, b).col_nnz()
        flops_per_col = flops_per_column(a, b)
        want_flops = np.zeros(b.ncols, dtype=np.int64)
        np.add.at(want_flops, cols, 1)
        assert symbolic_nnz(a, b) == keys.shape[0] == multiply(a, b).nnz
        assert nnz_per_col.dtype == flops_per_col.dtype == np.int64
        assert np.array_equal(
            nnz_per_col, np.bincount(keys // a.nrows, minlength=b.ncols))
        assert np.array_equal(flops_per_col, want_flops)
        pattern = symbolic_pattern(a, b)
        SparseMatrix(pattern.nrows, pattern.ncols, pattern.indptr,
                     pattern.rowidx, pattern.values)  # all invariants hold
        assert np.array_equal(pattern.rowidx, multiply(a, b).rowidx)

    def test_sort_indices(self, name):
        a, b = FAMILIES[name]
        unsorted = spgemm_hash(a, b)
        assert not unsorted.sorted_within_columns
        rowidx, values = unsorted.rowidx.copy(), unsorted.values.copy()
        for j in range(unsorted.ncols):
            lo, hi = unsorted.indptr[j], unsorted.indptr[j + 1]
            order = np.argsort(rowidx[lo:hi], kind="stable")
            rowidx[lo:hi] = rowidx[lo:hi][order]
            values[lo:hi] = values[lo:hi][order]
        assert_same_arrays(unsorted.sort_indices(), unsorted.indptr, rowidx, values)


def test_dedup_coo_other_semiring_matches_reference():
    from repro.sparse.semiring import MIN_PLUS

    rng = np.random.default_rng(3)
    rows, cols = rng.integers(0, 6, size=(2, 200))
    vals = rng.random(200)
    for got, want in zip(
        dedup_coo(6, rows, cols, vals, MIN_PLUS),
        reference_dedup(6, rows, cols, vals, np.minimum, np.inf),
    ):
        assert np.array_equal(got, want)


# --------------------------------------------------------------------- #
# validation: the same defects, the same errors
# --------------------------------------------------------------------- #

def inject_row_out_of_range(m, i):
    m["rowidx"][i] = m["nrows"] + i


def inject_negative_row(m, i):
    m["rowidx"][i] = -1


def inject_duplicate(m, i):
    # copy a neighbour's row within a column holding at least two entries
    col = np.flatnonzero(np.diff(m["indptr"]) >= 2)
    lo = m["indptr"][col[i % col.shape[0]]]
    m["rowidx"][lo + 1] = m["rowidx"][lo]


def inject_far_duplicate(m, i):
    # duplicate that is not adjacent in storage: (r, x, r) within one column
    col = np.flatnonzero(np.diff(m["indptr"]) >= 3)
    lo = m["indptr"][col[i % col.shape[0]]]
    m["rowidx"][lo + 2] = m["rowidx"][lo]


def inject_unsorted_column(m, i):
    col = np.flatnonzero(np.diff(m["indptr"]) >= 2)
    lo = m["indptr"][col[i % col.shape[0]]]
    m["rowidx"][[lo, lo + 1]] = m["rowidx"][[lo + 1, lo]]


def inject_indptr_start(m, i):
    m["indptr"][0] = 1


def inject_indptr_decreasing(m, i):
    j = 1 + i % (m["ncols"] - 1)
    m["indptr"][j] = m["indptr"][j + 1] + 1


def inject_indptr_end(m, i):
    m["indptr"][-1] += 1


def inject_indptr_length(m, i):
    m["indptr"] = m["indptr"][:-1]


DEFECTS = [
    inject_row_out_of_range, inject_negative_row, inject_duplicate,
    inject_far_duplicate, inject_unsorted_column, inject_indptr_start,
    inject_indptr_decreasing, inject_indptr_end, inject_indptr_length,
]


@st.composite
def csc_with_one_defect(draw):
    nrows = draw(st.integers(4, 12))
    ncols = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 10**6))
    base = random_sparse(nrows, ncols, nnz=min(3 * ncols + 2, nrows * ncols // 2),
                         seed=seed)
    # every column long enough for the within-column defects
    dense = base.to_dense()
    dense[:3, :] = 1.0
    rows, cols = np.nonzero(dense.T)[::-1]
    base = SparseMatrix.from_coo(nrows, ncols, rows, cols, dense[rows, cols])
    arrays = dict(nrows=nrows, ncols=ncols, indptr=base.indptr.copy(),
                  rowidx=base.rowidx.copy(), values=base.values.copy())
    defect = draw(st.sampled_from(DEFECTS + [None]))
    sorted_flag = draw(st.booleans())
    if defect is not None:
        defect(arrays, draw(st.integers(0, 50)) % base.nnz)
    return arrays, sorted_flag


class TestValidationEquivalence:
    @given(csc_with_one_defect())
    def test_same_error_as_the_hash_unique_formulation(self, case):
        m, sorted_flag = case
        want = reference_validate(m["nrows"], m["ncols"], m["indptr"],
                                  m["rowidx"], m["values"], sorted_flag)

        def build():
            return SparseMatrix(m["nrows"], m["ncols"], m["indptr"], m["rowidx"],
                                m["values"], sorted_within_columns=sorted_flag)

        if want is None:
            build()
        else:
            with pytest.raises(FormatError) as err:
                build()
            assert want in str(err.value)

    @pytest.mark.parametrize("sorted_flag", [True, False])
    def test_every_defect_kind_is_reached(self, sorted_flag):
        """The strategy above is not vacuous: each defect, injected into a
        fixed matrix, produces the message the old check gave."""
        seen = set()
        for defect in DEFECTS:
            base = SparseMatrix.from_coo(
                5, 3, [0, 1, 2, 0, 1, 3, 0, 2, 4], [0, 0, 0, 1, 1, 1, 2, 2, 2],
                np.arange(9.0))
            m = dict(nrows=5, ncols=3, indptr=base.indptr.copy(),
                     rowidx=base.rowidx.copy(), values=base.values.copy())
            defect(m, 1)
            want = reference_validate(5, 3, m["indptr"], m["rowidx"],
                                      m["values"], sorted_flag)
            if want is None:  # an unsorted column is no defect when unflagged
                assert defect is inject_unsorted_column and not sorted_flag
                continue
            with pytest.raises(FormatError, match=re.escape(want)):
                SparseMatrix(5, 3, m["indptr"], m["rowidx"], m["values"],
                             sorted_within_columns=sorted_flag)
            seen.add(want)
        assert len(seen) == (7 if sorted_flag else 6)

    def test_unsorted_valid_matrix_passes_with_flag_unset(self):
        unsorted = spgemm_hash(*FAMILIES["rmat"])
        SparseMatrix(unsorted.nrows, unsorted.ncols, unsorted.indptr,
                     unsorted.rowidx, unsorted.values,
                     sorted_within_columns=False)


# --------------------------------------------------------------------- #
# gather_tiles: same result, same refusals
# --------------------------------------------------------------------- #

class TestGatherTiles:
    def pieces(self, c, side=3):
        rows = np.linspace(0, c.nrows, side + 1).astype(int)
        cols = np.linspace(0, c.ncols, side + 1).astype(int)
        return [
            (int(r0), int(c0), submatrix(c, r0, r1, c0, c1))
            for r0, r1 in zip(rows[:-1], rows[1:])
            for c0, c1 in zip(cols[:-1], cols[1:])
        ]

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_reassembles_bit_identically(self, name):
        c = multiply(*FAMILIES[name])
        pieces = self.pieces(c)
        assert_same_arrays(gather_tiles(c.nrows, c.ncols, pieces),
                           c.indptr, c.rowidx, c.values)
        # unsorted tiles in any order give the same sorted result
        shuffled = [pieces[i] for i in np.random.default_rng(0).permutation(9)]
        assert_same_arrays(gather_tiles(c.nrows, c.ncols, shuffled),
                           c.indptr, c.rowidx, c.values)

    def test_overlapping_tiles_rejected(self):
        c = multiply(*FAMILIES["rmat"])
        pieces = self.pieces(c)
        r0, c0, tile = next(p for p in pieces if p[2].nnz)
        with pytest.raises(DistributionError, match="overlapping or invalid"):
            gather_tiles(c.nrows, c.ncols, pieces + [(r0, c0, tile)])
        # one shared coordinate is enough
        one = SparseMatrix.from_coo(
            1, 1, [0], [0], [1.0])
        at = (int(r0 + tile.rowidx[0]), int(c0 + tile.col_indices()[0]))
        with pytest.raises(DistributionError, match="duplicate"):
            gather_tiles(c.nrows, c.ncols, pieces + [(*at, one)])

    @pytest.mark.parametrize("r0,c0,what", [
        (3, 0, "row"), (-1, 0, "row"), (0, 3, "column"), (0, -2, "column"),
    ])
    def test_out_of_range_tiles_rejected(self, r0, c0, what):
        tile = SparseMatrix.from_coo(2, 2, [0, 1], [0, 1], [1.0, 2.0])
        with pytest.raises(DistributionError, match=f"{what} index out of range"):
            gather_tiles(4, 4, [(r0, c0, tile)])
