"""Property-based tests of the distributed layer.

The core invariance: the BatchedSUMMA3D result is independent of grid
shape, layer count, batch count and kernel tier — all of it must equal
the single-process local product.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import SparseMatrix, multiply
from repro.summa import batched_summa3d

GRIDS = [(1, 1), (4, 1), (2, 2), (4, 4), (8, 2), (9, 1), (16, 4)]


@st.composite
def operand_pairs(draw):
    n = draw(st.integers(6, 28))
    k = draw(st.integers(6, 28))
    m = draw(st.integers(6, 28))

    def build(rows, cols):
        nnz = draw(st.integers(0, min(50, rows * cols)))
        rr = draw(st.lists(st.integers(0, rows - 1), min_size=nnz, max_size=nnz))
        cc = draw(st.lists(st.integers(0, cols - 1), min_size=nnz, max_size=nnz))
        vv = draw(
            st.lists(
                st.floats(-5, 5, allow_nan=False, allow_infinity=False),
                min_size=nnz,
                max_size=nnz,
            )
        )
        return SparseMatrix.from_coo(rows, cols, rr, cc, vv)

    return build(n, k), build(k, m)


class TestDistributionInvariance:
    @settings(max_examples=15)
    @given(operand_pairs(), st.sampled_from(GRIDS), st.integers(1, 5))
    def test_result_independent_of_configuration(self, pair, grid, batches):
        a, b = pair
        nprocs, layers = grid
        expected = multiply(a, b)
        r = batched_summa3d(
            a, b, nprocs=nprocs, layers=layers, batches=batches
        )
        assert r.matrix.allclose(expected)

    @settings(max_examples=10)
    @given(operand_pairs(), st.sampled_from(["esc", "unsorted-hash", "sorted-heap"]))
    def test_result_independent_of_suite(self, pair, tier):
        a, b = pair
        expected = multiply(a, b)
        r = batched_summa3d(
            a, b, nprocs=8, layers=2, batches=2, kernel=f"spgemm:{tier}"
        )
        assert r.matrix.allclose(expected)

    @settings(max_examples=10)
    @given(operand_pairs())
    def test_deterministic_repetition(self, pair):
        a, b = pair
        r1 = batched_summa3d(a, b, nprocs=8, layers=2, batches=2)
        r2 = batched_summa3d(a, b, nprocs=8, layers=2, batches=2)
        m1, m2 = r1.matrix.canonical(), r2.matrix.canonical()
        assert np.array_equal(m1.rowidx, m2.rowidx)
        assert np.array_equal(m1.values, m2.values)
