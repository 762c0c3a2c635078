"""Symbolic SpGEMM tests: nnz / flops / per-column structure analysis."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sparse import (
    SparseMatrix,
    eye,
    spgemm_esc,
    symbolic_flops,
    symbolic_nnz,
)
from repro.sparse.spgemm.symbolic import flops_per_column, symbolic_pattern


class TestFlops:
    def test_manual_count(self):
        # A column 0 has 2 nonzeros; B(0, 0) nonzero => 2 products
        a = SparseMatrix.from_coo(3, 2, [0, 1], [0, 0], [1.0, 1.0])
        b = SparseMatrix.from_coo(2, 2, [0], [0], [1.0])
        assert symbolic_flops(a, b) == 2

    def test_identity_flops_equals_nnz(self, square_matrix):
        assert symbolic_flops(square_matrix, eye(64)) == square_matrix.nnz

    def test_empty(self):
        assert symbolic_flops(SparseMatrix.empty(3, 3), SparseMatrix.empty(3, 3)) == 0

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            symbolic_flops(eye(3), eye(4))

    def test_flops_ge_nnz_c(self, square_matrix):
        flops = symbolic_flops(square_matrix, square_matrix)
        nnz_c = symbolic_nnz(square_matrix, square_matrix)
        assert flops >= nnz_c >= 0


class TestNnz:
    def test_matches_actual_product(self, small_pair):
        a, b = small_pair
        assert symbolic_nnz(a, b) == spgemm_esc(a, b).nnz

    def test_square(self, square_matrix):
        assert symbolic_nnz(square_matrix, square_matrix) == spgemm_esc(
            square_matrix, square_matrix
        ).nnz

    def test_empty(self):
        assert symbolic_nnz(SparseMatrix.empty(3, 4), SparseMatrix.empty(4, 5)) == 0

    def test_symbolic_counts_cancellation(self):
        # numeric cancellation still counts structurally
        a = SparseMatrix.from_coo(1, 2, [0, 0], [0, 1], [1.0, 1.0])
        b = SparseMatrix.from_coo(2, 1, [0, 1], [0, 0], [1.0, -1.0])
        assert symbolic_nnz(a, b) == 1


class TestPerColumn:
    def test_sums_match_totals(self, small_pair):
        a, b = small_pair
        assert symbolic_pattern(a, b).col_nnz().sum() == symbolic_nnz(a, b)
        assert flops_per_column(a, b).sum() == symbolic_flops(a, b)

    def test_per_column_matches_product(self, small_pair):
        a, b = small_pair
        c = spgemm_esc(a, b)
        assert np.array_equal(symbolic_pattern(a, b).col_nnz(), c.col_nnz())

    def test_empty_inputs(self):
        a, b = SparseMatrix.empty(4, 4), SparseMatrix.empty(4, 6)
        assert symbolic_pattern(a, b).col_nnz().shape == (6,)
        assert flops_per_column(a, b).sum() == 0


class TestCompressionFactor:
    def test_at_least_one(self, square_matrix):
        assert symbolic_flops(square_matrix, square_matrix) >= symbolic_nnz(
            square_matrix, square_matrix
        )

    def test_identity_cf_is_one(self, square_matrix):
        assert symbolic_flops(square_matrix, eye(64)) == symbolic_nnz(
            square_matrix, eye(64)
        )
