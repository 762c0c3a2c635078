"""Extended property-based tests across the newer modules.

Covers the algebraic identities and round-trips of the elementwise ops,
masking, and the distributed-context layer — properties that must hold
for *every* input, not just the unit fixtures.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import DistContext
from repro.sparse import SparseMatrix, multiply
from repro.sparse.ewise import ewise_mult
from repro.sparse.merge import merge_grouped
from repro.sparse.ops import permute
from repro.sparse.spgemm.masked import spgemm_masked
from repro.sparse.spgemm.outer import spgemm_outer


@st.composite
def matrices(draw, max_dim=16, max_nnz=50):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    return draw(matrices_fixed(nrows, ncols, max_nnz))


@st.composite
def matrices_fixed(draw, nrows, ncols, max_nnz=50):
    nnz = draw(st.integers(0, min(max_nnz, nrows * ncols)))
    rows = draw(st.lists(st.integers(0, nrows - 1), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz))
    vals = draw(
        st.lists(
            st.floats(-9, 9, allow_nan=False, allow_infinity=False),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return SparseMatrix.from_coo(nrows, ncols, rows, cols, vals)


@st.composite
def same_shape_pairs(draw):
    nrows = draw(st.integers(1, 14))
    ncols = draw(st.integers(1, 14))
    return (
        draw(matrices_fixed(nrows, ncols)),
        draw(matrices_fixed(nrows, ncols)),
    )


class TestEwiseAlgebra:
    @given(same_shape_pairs())
    def test_mult_commutative(self, pair):
        a, b = pair
        assert ewise_mult(a, b).allclose(ewise_mult(b, a))

class TestMaskedProperties:
    @settings(max_examples=20)
    @given(st.data())
    def test_mask_equals_hadamard_after(self, data):
        n = data.draw(st.integers(2, 10))
        k = data.draw(st.integers(2, 10))
        m_dim = data.draw(st.integers(2, 10))
        a = data.draw(matrices_fixed(n, k, 30))
        b = data.draw(matrices_fixed(k, m_dim, 30))
        mask = data.draw(matrices_fixed(n, m_dim, 30))
        from repro.sparse.ops import hadamard

        pattern = SparseMatrix(
            mask.nrows, mask.ncols, mask.indptr, mask.rowidx,
            np.ones(mask.nnz), validate=False,
        )
        early = spgemm_masked(a, b, mask)
        late = hadamard(multiply(a, b), pattern)
        assert early.allclose(late)

    @settings(max_examples=15)
    @given(st.data())
    def test_mask_and_complement_partition_product(self, data):
        n = data.draw(st.integers(2, 8))
        a = data.draw(matrices_fixed(n, n, 20))
        mask = data.draw(matrices_fixed(n, n, 20))
        stored = np.zeros((n, n), dtype=bool)
        stored[mask.rowidx, mask.col_indices()] = True
        rows, cols = np.nonzero(~stored)  # the complement's pattern
        complement = SparseMatrix.from_coo(n, n, rows, cols, np.ones(rows.shape[0]))
        inside = spgemm_masked(a, a, mask)
        outside = spgemm_masked(a, a, complement)
        total = merge_grouped([inside, outside])
        assert total.allclose(multiply(a, a).canonical())


class TestOuterProperties:
    @settings(max_examples=20)
    @given(st.data())
    def test_outer_equals_gustavson(self, data):
        n = data.draw(st.integers(1, 10))
        k = data.draw(st.integers(1, 10))
        m_dim = data.draw(st.integers(1, 10))
        a = data.draw(matrices_fixed(n, k, 25))
        b = data.draw(matrices_fixed(k, m_dim, 25))
        bs = data.draw(st.integers(1, 8))
        assert spgemm_outer(a, b, block_size=bs).allclose(multiply(a, b))


class TestPermuteProperties:
    @settings(max_examples=20)
    @given(matrices(max_dim=12), st.randoms(use_true_random=False))
    def test_permute_roundtrip(self, a, rnd):
        perm = np.array(rnd.sample(range(a.nrows), a.nrows), dtype=np.int64)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(a.nrows)
        back = permute(permute(a, row_perm=perm), row_perm=inverse)
        assert back.allclose(a)


class TestDistContextProperties:
    @settings(max_examples=10)
    @given(matrices(max_dim=20, max_nnz=60))
    def test_distribute_gather_roundtrip(self, a):
        ctx = DistContext(nprocs=4)
        for layout in ("A", "B"):
            assert ctx.distribute(a, layout).to_global().allclose(a)

    @settings(max_examples=8)
    @given(matrices(max_dim=16, max_nnz=40))
    def test_redistribute_preserves_matrix(self, a):
        ctx = DistContext(nprocs=4)
        h = ctx.distribute(a, "A")
        assert ctx.redistribute(h, "B").to_global().allclose(a)
