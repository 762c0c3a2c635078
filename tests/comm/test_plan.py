"""Unit tests for the sparse-backend planning primitives.

Covers the bit-packed mask wire format, the plan derivation (stage ``s``
swaps roles: B row masks select A columns and vice versa), and the
structure-preserving tile filters on empty and hypersparse tiles.
"""

import numpy as np
import pytest

from repro.comm import pack_mask, unpack_mask
from repro.sparse import SparseMatrix, random_sparse
from repro.sparse.ops import (
    mask_columns,
    mask_rows,
    nonempty_columns,
    nonempty_rows,
)


class TestMaskPacking:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 100])
    def test_roundtrip(self, n):
        rng = np.random.default_rng(n)
        mask = rng.random(n) < 0.3
        out = unpack_mask(pack_mask(mask))
        assert out.dtype == bool
        assert np.array_equal(out, mask)

    def test_packed_size(self):
        n, packed = pack_mask(np.ones(17, dtype=bool))
        assert n == 17
        assert packed.nbytes == 3  # ceil(17 / 8)

    def test_accepts_integer_mask(self):
        out = unpack_mask(pack_mask(np.array([1, 0, 1, 1])))
        assert np.array_equal(out, [True, False, True, True])


class TestOccupancy:
    def test_nonempty_columns_and_rows(self):
        m = SparseMatrix.from_coo(4, 5, [0, 2, 2], [1, 1, 3], [1.0, 2.0, 3.0])
        assert np.array_equal(
            nonempty_columns(m), [False, True, False, True, False]
        )
        assert np.array_equal(nonempty_rows(m), [True, False, True, False])

    def test_empty_tile(self):
        m = SparseMatrix.from_coo(3, 4, [], [], [])
        assert not nonempty_columns(m).any()
        assert not nonempty_rows(m).any()


class TestTileFilters:
    def test_mask_columns_preserves_shape(self):
        m = random_sparse(10, 8, nnz=20, seed=0)
        keep = np.arange(8) % 2 == 0
        out = mask_columns(m, keep)
        assert out.shape == m.shape
        assert not np.diff(out.indptr)[~keep].any()
        dense = m.to_dense()
        dense[:, ~keep] = 0
        assert np.array_equal(out.to_dense(), dense)

    def test_mask_rows_preserves_shape(self):
        m = random_sparse(10, 8, nnz=20, seed=1)
        keep = np.arange(10) % 3 == 0
        out = mask_rows(m, keep)
        assert out.shape == m.shape
        dense = m.to_dense()
        dense[~keep, :] = 0
        assert np.array_equal(out.to_dense(), dense)

    @pytest.mark.parametrize("filt", [mask_columns, mask_rows])
    def test_empty_tile(self, filt):
        m = SparseMatrix.from_coo(6, 6, [], [], [])
        out = filt(m, np.zeros(6, dtype=bool))
        assert out.shape == (6, 6) and out.nnz == 0

    def test_keep_all_is_identity(self):
        m = random_sparse(9, 9, nnz=30, seed=2)
        for out in (
            mask_columns(m, np.ones(9, dtype=bool)),
            mask_rows(m, np.ones(9, dtype=bool)),
        ):
            assert np.array_equal(out.indptr, m.indptr)
            assert np.array_equal(out.rowidx, m.rowidx)
            assert np.array_equal(out.values, m.values)

    def test_hypersparse_single_entry(self):
        m = SparseMatrix.from_coo(100, 100, [42], [7], [3.5])
        kept = mask_columns(m, np.arange(100) == 7)
        assert kept.nnz == 1
        dropped = mask_rows(m, np.arange(100) != 42)
        assert dropped.nnz == 0
        assert dropped.shape == (100, 100)
