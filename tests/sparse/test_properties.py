"""Property-based tests (hypothesis) on the sparse substrate.

Strategies generate random COO matrices; properties assert algebraic
identities and structural invariants that must hold for *every* input.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (
    SparseMatrix,
    col_concat,
    col_split,
    eye,
    merge_hash,
    merge_heap,
    spgemm_esc,
    spgemm_hash,
    spgemm_heap,
    spgemm_reference,
    symbolic_flops,
    symbolic_nnz,
    transpose,
)
from repro.sparse.merge import merge_grouped
from repro.sparse.ops import prune_topk_per_column, submatrix


@st.composite
def sparse_matrices(draw, max_dim=24, max_nnz=80, square=False):
    nrows = draw(st.integers(1, max_dim))
    ncols = nrows if square else draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, min(max_nnz, nrows * ncols)))
    rows = draw(
        st.lists(st.integers(0, nrows - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz)
    )
    vals = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return SparseMatrix.from_coo(nrows, ncols, rows, cols, vals)


@st.composite
def matrix_pairs(draw, max_dim=16, max_nnz=60):
    n = draw(st.integers(1, max_dim))
    k = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    a = draw(sparse_matrices_fixed(n, k, max_nnz))
    b = draw(sparse_matrices_fixed(k, m, max_nnz))
    return a, b


@st.composite
def sparse_matrices_fixed(draw, nrows, ncols, max_nnz=60):
    nnz = draw(st.integers(0, min(max_nnz, nrows * ncols)))
    rows = draw(st.lists(st.integers(0, nrows - 1), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz))
    vals = draw(
        st.lists(
            st.floats(-8, 8, allow_nan=False, allow_infinity=False),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return SparseMatrix.from_coo(nrows, ncols, rows, cols, vals)


class TestStructuralInvariants:
    @given(sparse_matrices())
    def test_validate_passes_on_constructed(self, m):
        m._validate()

    @given(sparse_matrices())
    def test_nnz_consistency(self, m):
        assert m.indptr[-1] == m.nnz == len(m.rowidx) == len(m.values)

    @given(sparse_matrices())
    def test_coo_roundtrip(self, m):
        rows, cols, vals = m.to_coo()
        back = SparseMatrix.from_coo(m.nrows, m.ncols, rows, cols, vals)
        assert back.allclose(m)

    @given(sparse_matrices())
    def test_transpose_involution(self, m):
        assert transpose(transpose(m)).allclose(m)

    @given(sparse_matrices())
    def test_transpose_preserves_nnz(self, m):
        assert transpose(m).nnz == m.nnz


class TestSplitProperties:
    @given(sparse_matrices(), st.integers(1, 6))
    def test_col_split_concat_roundtrip(self, m, parts):
        assert col_concat(col_split(m, parts)).allclose(m)

    @given(sparse_matrices(), st.integers(1, 5))
    def test_split_preserves_nnz(self, m, parts):
        assert sum(p.nnz for p in col_split(m, parts)) == m.nnz

    @given(sparse_matrices(), st.data())
    def test_submatrix_tiling_preserves_nnz(self, m, data):
        r = data.draw(st.integers(0, m.nrows))
        c = data.draw(st.integers(0, m.ncols))
        quadrants = [
            submatrix(m, 0, r, 0, c),
            submatrix(m, 0, r, c, m.ncols),
            submatrix(m, r, m.nrows, 0, c),
            submatrix(m, r, m.nrows, c, m.ncols),
        ]
        assert sum(q.nnz for q in quadrants) == m.nnz


class TestSpgemmProperties:
    @settings(max_examples=25)
    @given(matrix_pairs())
    def test_kernels_agree(self, pair):
        a, b = pair
        ref = spgemm_reference(a, b)
        assert spgemm_esc(a, b).allclose(ref)
        assert spgemm_hash(a, b).allclose(ref)
        assert spgemm_heap(a, b).allclose(ref)

    @settings(max_examples=25)
    @given(matrix_pairs())
    def test_matches_dense(self, pair):
        a, b = pair
        assert np.allclose(
            spgemm_esc(a, b).to_dense(), a.to_dense() @ b.to_dense()
        )

    @given(sparse_matrices())
    def test_identity_neutral(self, m):
        assert spgemm_esc(m, eye(m.ncols)).allclose(m)
        assert spgemm_esc(eye(m.nrows), m).allclose(m)

    @settings(max_examples=25)
    @given(matrix_pairs())
    def test_symbolic_matches_actual(self, pair):
        a, b = pair
        c = spgemm_esc(a, b)
        assert symbolic_nnz(a, b) == c.nnz
        assert symbolic_flops(a, b) >= c.nnz

    @settings(max_examples=20)
    @given(matrix_pairs())
    def test_transpose_identity(self, pair):
        # (A B)^T == B^T A^T
        a, b = pair
        lhs = transpose(spgemm_esc(a, b))
        rhs = spgemm_esc(transpose(b), transpose(a))
        assert lhs.allclose(rhs)


class TestMergeProperties:
    @settings(max_examples=25)
    @given(st.lists(sparse_matrices_fixed(10, 8, 30), min_size=1, max_size=5))
    def test_merges_agree(self, parts):
        g = merge_grouped(parts)
        assert merge_hash(parts).allclose(g)
        assert merge_heap(parts).allclose(g)

    @settings(max_examples=25)
    @given(
        st.lists(sparse_matrices_fixed(10, 8, 30), min_size=1, max_size=5),
        st.permutations(range(5)),
    )
    def test_merge_order_invariant(self, parts, perm):
        base = merge_grouped(parts)
        reordered = [parts[i] for i in perm if i < len(parts)]
        if len(reordered) == len(parts):
            assert merge_grouped(reordered).allclose(base)


class TestPruneProperties:
    @given(sparse_matrices(), st.integers(0, 10))
    def test_topk_bounds_column_nnz(self, m, k):
        p = prune_topk_per_column(m, k)
        assert np.all(p.col_nnz() <= k) or k >= int(m.col_nnz().max(initial=0))

    @given(sparse_matrices(), st.integers(0, 10))
    def test_topk_is_subset(self, m, k):
        p = prune_topk_per_column(m, k)
        orig = set(zip(*m.to_coo()[:2]))
        kept = set(zip(*p.to_coo()[:2]))
        assert kept <= orig
