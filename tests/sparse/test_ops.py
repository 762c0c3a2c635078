"""Unit tests for structural operations (transpose, splits, pruning, ...)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sparse import (
    SparseMatrix,
    col_concat,
    col_split,
    from_dense,
    prune_threshold,
    prune_topk_per_column,
    random_sparse,
    scale_columns,
    transpose,
    tril,
    triu,
)
from repro.sparse.ops import (
    col_select,
    col_slice,
    column_sums,
    diagonal,
    elementwise_power,
    hadamard,
    split_bounds,
    submatrix,
)


class TestTranspose:
    def test_matches_dense(self, square_matrix):
        assert np.allclose(
            transpose(square_matrix).to_dense(), square_matrix.to_dense().T
        )

    def test_double_transpose_identity(self, square_matrix):
        assert transpose(transpose(square_matrix)).allclose(square_matrix)

    def test_rectangular(self):
        m = random_sparse(5, 9, nnz=20, seed=1)
        t = transpose(m)
        assert t.shape == (9, 5)
        assert np.allclose(t.to_dense(), m.to_dense().T)

    def test_output_sorted(self, square_matrix):
        assert transpose(square_matrix).sorted_within_columns


class TestTriangular:
    def test_triu_tril_partition(self, square_matrix):
        up = triu(square_matrix, 1)
        lo = tril(square_matrix, -1)
        dg = hadamard(square_matrix, from_dense(np.eye(64)))
        total = up.nnz + lo.nnz + dg.nnz
        assert total == square_matrix.nnz

    def test_triu_matches_numpy(self, square_matrix):
        for k in (-2, 0, 3):
            assert np.allclose(
                triu(square_matrix, k).to_dense(),
                np.triu(square_matrix.to_dense(), k),
            )

    def test_tril_matches_numpy(self, square_matrix):
        for k in (-3, 0, 2):
            assert np.allclose(
                tril(square_matrix, k).to_dense(),
                np.tril(square_matrix.to_dense(), k),
            )


class TestScaling:
    def test_scale_columns(self, small_pair):
        a, _ = small_pair
        s = np.arange(a.ncols, dtype=float)
        assert np.allclose(
            scale_columns(a, s).to_dense(), a.to_dense() * s[None, :]
        )

    def test_scale_shape_errors(self, small_pair):
        a, _ = small_pair
        with pytest.raises(ShapeError):
            scale_columns(a, np.ones(3))

    def test_elementwise_power(self, square_matrix):
        p = elementwise_power(square_matrix, 2.0)
        assert np.allclose(p.values, square_matrix.values**2)


class TestSplitBounds:
    def test_even(self):
        assert split_bounds(12, 4).tolist() == [0, 3, 6, 9, 12]

    def test_uneven_front_loaded(self):
        assert split_bounds(10, 4).tolist() == [0, 3, 6, 8, 10]

    def test_more_parts_than_items(self):
        b = split_bounds(2, 5)
        assert b[-1] == 2 and len(b) == 6

    def test_invalid(self):
        with pytest.raises(ShapeError):
            split_bounds(5, 0)


class TestColumnOps:
    def test_col_slice(self, square_matrix):
        s = col_slice(square_matrix, 10, 20)
        assert s.shape == (64, 10)
        assert np.allclose(s.to_dense(), square_matrix.to_dense()[:, 10:20])

    def test_col_slice_invalid(self, square_matrix):
        with pytest.raises(ShapeError):
            col_slice(square_matrix, 5, 200)

    def test_col_select_arbitrary_order(self, square_matrix):
        cols = [5, 3, 60, 3]
        s = col_select(square_matrix, cols)
        assert np.allclose(s.to_dense(), square_matrix.to_dense()[:, cols])

    def test_col_select_out_of_range(self, square_matrix):
        with pytest.raises(ShapeError):
            col_select(square_matrix, [999])

    def test_col_split_concat_roundtrip(self, square_matrix):
        parts = col_split(square_matrix, 5)
        assert sum(p.ncols for p in parts) == 64
        assert col_concat(parts).allclose(square_matrix)

    def test_col_concat_empty_error(self):
        with pytest.raises(ShapeError):
            col_concat([])

    def test_col_concat_height_mismatch(self):
        with pytest.raises(ShapeError):
            col_concat([SparseMatrix.empty(2, 2), SparseMatrix.empty(3, 2)])

class TestSubmatrix:
    def test_matches_dense(self, square_matrix):
        s = submatrix(square_matrix, 10, 30, 5, 25)
        assert np.allclose(
            s.to_dense(), square_matrix.to_dense()[10:30, 5:25]
        )

    def test_empty_ranges(self, square_matrix):
        assert submatrix(square_matrix, 5, 5, 0, 64).nnz == 0

    def test_invalid_rows(self, square_matrix):
        with pytest.raises(ShapeError):
            submatrix(square_matrix, 50, 200, 0, 4)

    def test_tiles_tile_everything(self, square_matrix):
        total = 0
        for r0, r1 in [(0, 30), (30, 64)]:
            for c0, c1 in [(0, 20), (20, 64)]:
                total += submatrix(square_matrix, r0, r1, c0, c1).nnz
        assert total == square_matrix.nnz


class TestHadamard:
    def test_matches_dense(self, square_matrix):
        other = random_sparse(64, 64, nnz=600, seed=99)
        h = hadamard(square_matrix, other)
        assert np.allclose(
            h.to_dense(), square_matrix.to_dense() * other.to_dense()
        )

    def test_empty_operand(self, square_matrix):
        assert hadamard(square_matrix, SparseMatrix.empty(64, 64)).nnz == 0

    def test_shape_mismatch(self, square_matrix):
        with pytest.raises(ShapeError):
            hadamard(square_matrix, SparseMatrix.empty(3, 3))


class TestDiagAndSums:
    def test_diagonal(self):
        m = from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert diagonal(m).tolist() == [1.0, 4.0]

    def test_diagonal_missing_entries_zero(self):
        m = from_dense(np.array([[0.0, 2.0], [3.0, 0.0]]))
        assert diagonal(m).tolist() == [0.0, 0.0]

    def test_column_sums(self, square_matrix):
        assert np.allclose(
            column_sums(square_matrix), square_matrix.to_dense().sum(axis=0)
        )


class TestPruning:
    def test_threshold(self):
        m = from_dense(np.array([[0.1, 0.9], [-0.5, 0.01]]))
        p = prune_threshold(m, 0.2)
        assert p.nnz == 2
        assert p.to_dense()[1, 0] == -0.5

    def test_threshold_keeps_all(self, square_matrix):
        assert prune_threshold(square_matrix, 0.0).nnz == square_matrix.nnz

    def test_topk_keeps_largest(self):
        m = from_dense(np.array([[0.1], [0.5], [0.9], [0.3]]))
        p = prune_topk_per_column(m, 2)
        d = p.to_dense().ravel()
        assert d.tolist() == [0.0, 0.5, 0.9, 0.0]

    def test_topk_no_op_when_k_large(self, square_matrix):
        assert prune_topk_per_column(square_matrix, 1000) is square_matrix

    def test_topk_zero(self, square_matrix):
        assert prune_topk_per_column(square_matrix, 0).nnz == 0

    def test_topk_negative_raises(self, square_matrix):
        with pytest.raises(ShapeError):
            prune_topk_per_column(square_matrix, -1)

    def test_topk_tie_break_smaller_row(self):
        m = from_dense(np.array([[0.5], [0.5], [0.5]]))
        p = prune_topk_per_column(m, 1)
        assert p.rowidx.tolist() == [0]

    def test_topk_per_column_counts(self, square_matrix):
        p = prune_topk_per_column(square_matrix, 3)
        assert np.all(p.col_nnz() <= 3)
