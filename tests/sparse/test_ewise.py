"""Tests for the elementwise operations."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sparse import SparseMatrix, random_sparse
from repro.sparse.ewise import ewise_mult


@pytest.fixture
def pair():
    a = random_sparse(20, 25, nnz=120, seed=151)
    b = random_sparse(20, 25, nnz=110, seed=152)
    return a, b


class TestEwiseMult:
    def test_intersection_product(self, pair):
        a, b = pair
        assert np.allclose(
            ewise_mult(a, b).to_dense(), a.to_dense() * b.to_dense()
        )

    def test_custom_ufunc(self, pair):
        a, b = pair
        got = ewise_mult(a, b, mul=np.maximum).to_dense()
        da, db = a.to_dense(), b.to_dense()
        both = (da != 0) & (db != 0)
        expected = np.where(both, np.maximum(da, db), 0.0)
        assert np.allclose(got, expected)

    def test_empty(self, pair):
        a, _ = pair
        assert ewise_mult(a, SparseMatrix.empty(20, 25)).nnz == 0

    def test_shape_mismatch(self, pair):
        a, _ = pair
        with pytest.raises(ShapeError):
            ewise_mult(a, SparseMatrix.empty(5, 5))
