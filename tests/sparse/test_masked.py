"""Tests for masked SpGEMM (GraphBLAS-style mxm with a mask)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sparse import SparseMatrix, eye, random_sparse
from repro.sparse.semiring import MIN_PLUS
from repro.sparse.spgemm.masked import spgemm_masked


@pytest.fixture
def triple():
    a = random_sparse(30, 25, nnz=200, seed=81)
    b = random_sparse(25, 35, nnz=190, seed=82)
    m = random_sparse(30, 35, nnz=150, seed=83)
    return a, b, m


class TestMasked:
    def test_matches_dense(self, triple):
        a, b, m = triple
        got = spgemm_masked(a, b, m)
        expected = (a.to_dense() @ b.to_dense()) * (m.to_dense() != 0)
        assert np.allclose(got.to_dense(), expected)

    def test_complement(self, triple):
        a, b, m = triple
        got = spgemm_masked(a, b, m, complement=True)
        expected = (a.to_dense() @ b.to_dense()) * (m.to_dense() == 0)
        assert np.allclose(got.to_dense(), expected)

    def test_mask_values_ignored(self, triple):
        a, b, m = triple
        scaled = SparseMatrix(
            m.nrows, m.ncols, m.indptr, m.rowidx, m.values * 100.0,
        )
        assert spgemm_masked(a, b, m).allclose(spgemm_masked(a, b, scaled))

    def test_empty_mask(self, triple):
        a, b, _ = triple
        empty = SparseMatrix.empty(30, 35)
        assert spgemm_masked(a, b, empty).nnz == 0

    def test_empty_mask_complement_is_full_product(self, triple):
        a, b, _ = triple
        empty = SparseMatrix.empty(30, 35)
        got = spgemm_masked(a, b, empty, complement=True)
        assert np.allclose(got.to_dense(), a.to_dense() @ b.to_dense())

    def test_full_mask_is_full_product(self, triple):
        a, b, _ = triple
        from repro.sparse import from_dense

        full = from_dense(np.ones((30, 35)))
        got = spgemm_masked(a, b, full)
        assert np.allclose(got.to_dense(), a.to_dense() @ b.to_dense())

    def test_mask_shape_error(self, triple):
        a, b, _ = triple
        with pytest.raises(ShapeError):
            spgemm_masked(a, b, SparseMatrix.empty(3, 3))

    def test_operand_shape_error(self):
        with pytest.raises(ShapeError):
            spgemm_masked(eye(3), eye(4), eye(3))

    def test_semiring(self, triple):
        a, b, m = triple
        from repro.sparse import multiply
        from repro.sparse.ops import hadamard

        got = spgemm_masked(a, b, m, semiring=MIN_PLUS)
        # compare against unmasked min-plus product filtered by the mask
        full = multiply(a, b, semiring=MIN_PLUS)
        pattern = SparseMatrix(
            m.nrows, m.ncols, m.indptr, m.rowidx,
            np.ones(m.nnz), validate=False,
        )
        expected = hadamard(full, pattern)
        assert got.allclose(expected)

    def test_empty_operands(self):
        got = spgemm_masked(
            SparseMatrix.empty(4, 4), SparseMatrix.empty(4, 4), eye(4)
        )
        assert got.nnz == 0

    def test_saves_intermediate_space(self, triple):
        """The point of masking during the multiply: fewer entries reach
        the accumulator than the full product holds."""
        a, b, m = triple
        from repro.sparse import multiply

        full = multiply(a, b)
        masked = spgemm_masked(a, b, m)
        assert masked.nnz < full.nnz


class TestDistributedMask:
    def test_distributed_matches_local(self, triple):
        import numpy as np

        from repro.summa import batched_summa3d

        a, b, m = triple
        r = batched_summa3d(a, b, nprocs=8, layers=2, batches=3, mask=m)
        expected = spgemm_masked(a, b, m)
        assert r.matrix.allclose(expected)

    def test_mask_composes_with_postprocess(self, triple):
        from repro.sparse.ops import prune_topk_per_column
        from repro.summa import batched_summa3d

        a, b, m = triple

        def prune(batch, c0, c1, block):
            return prune_topk_per_column(block, 3)

        r = batched_summa3d(a, b, nprocs=4, batches=2, mask=m,
                            postprocess=prune)
        expected = prune_topk_per_column(spgemm_masked(a, b, m), 3)
        assert r.matrix.allclose(expected)

    def test_distributed_mask_shape_error(self, triple):
        from repro.summa import batched_summa3d

        a, b, _ = triple
        with pytest.raises(ShapeError):
            batched_summa3d(a, b, nprocs=4, mask=SparseMatrix.empty(2, 2))
