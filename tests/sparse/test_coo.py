"""Unit tests for COO triple utilities."""

import pytest

from repro.errors import FormatError
from repro.sparse.coo import coo_to_csc_arrays, dedup_coo, sort_coo


class TestSortCoo:
    def test_sorts_by_col_then_row(self):
        rows, cols, vals = sort_coo(
            4, [3, 0, 1], [1, 1, 0], [1.0, 2.0, 3.0]
        )
        assert cols.tolist() == [0, 1, 1]
        assert rows.tolist() == [1, 0, 3]
        assert vals.tolist() == [3.0, 2.0, 1.0]

    def test_empty(self):
        rows, cols, vals = sort_coo(4, [], [], [])
        assert rows.shape == (0,)

    def test_stable_on_duplicates(self):
        rows, cols, vals = sort_coo(2, [0, 0], [0, 0], [1.0, 2.0])
        assert vals.tolist() == [1.0, 2.0]


class TestDedupCoo:
    def test_sums_duplicates(self):
        rows, cols, vals = dedup_coo(3, [1, 1, 2], [0, 0, 0], [1.0, 4.0, 2.0])
        assert rows.tolist() == [1, 2]
        assert vals.tolist() == [5.0, 2.0]

    def test_no_duplicates_passthrough(self):
        rows, cols, vals = dedup_coo(3, [0, 1], [0, 1], [1.0, 2.0])
        assert len(rows) == 2

    def test_empty(self):
        rows, cols, vals = dedup_coo(3, [], [], [])
        assert len(rows) == 0

    def test_all_same_coordinate(self):
        rows, cols, vals = dedup_coo(2, [1, 1, 1], [1, 1, 1], [1.0, 1.0, 1.0])
        assert rows.tolist() == [1]
        assert vals.tolist() == [3.0]


class TestCooToCsc:
    def test_basic(self):
        indptr, rowidx, values = coo_to_csc_arrays(
            3, 2, [2, 0], [1, 0], [9.0, 8.0]
        )
        assert indptr.tolist() == [0, 1, 2]
        assert rowidx.tolist() == [0, 2]

    def test_length_mismatch(self):
        with pytest.raises(FormatError, match="mismatched lengths"):
            coo_to_csc_arrays(2, 2, [0], [0, 1], [1.0])

    def test_row_out_of_range(self):
        with pytest.raises(FormatError, match="row index"):
            coo_to_csc_arrays(2, 2, [5], [0], [1.0])

    def test_col_out_of_range(self):
        with pytest.raises(FormatError, match="column index"):
            coo_to_csc_arrays(2, 2, [0], [7], [1.0])

    def test_without_dedup_keeps_duplicates(self):
        indptr, rowidx, values = coo_to_csc_arrays(
            2, 1, [0, 0], [0, 0], [1.0, 2.0], sum_duplicates=False
        )
        assert len(rowidx) == 2
