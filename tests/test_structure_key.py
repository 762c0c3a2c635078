"""``SparseMatrix.structure_key``: one exact identity of a nonzero
pattern, computed once per matrix.

The plan cache keys a sparse operand by it, and a resident context
recognises the mask it already holds by it (plus a digest of the mask's
values).  The key is exact — a pattern that differs in a single entry
gets another key — and it is cached, so a matrix submitted again, or
used as the mask of every round of a chain, is hashed once.
"""

import copy
import hashlib
import pickle
import types

import numpy as np
import pytest

import repro.sparse.matrix as matrix_module
from repro.data import planted_partition
from repro.data.generators import erdos_renyi
from repro.dist import DistContext
from repro.serve import PlanCache, SpgemmService
from repro.sparse import SparseMatrix, random_sparse


def moved_entry(a: SparseMatrix, skip: int) -> SparseMatrix:
    """``a`` with one entry moved to the next row of its column; the entry
    is the first whose position is not a multiple of ``skip`` and whose
    next row is free, so every ``skip``-th position stays as it was."""
    cols = a.col_indices()
    last = np.zeros(a.nnz, dtype=bool)
    last[a.indptr[1:][np.diff(a.indptr) > 0] - 1] = True
    nxt = np.append(a.rowidx[1:], a.nrows)
    free = np.where(last, a.rowidx + 1 < a.nrows, nxt > a.rowidx + 1)
    e = next(i for i in range(a.nnz) if i % skip and free[i])
    rowidx = a.rowidx.copy()
    rowidx[e] += 1
    moved = SparseMatrix(a.nrows, a.ncols, a.indptr, rowidx, a.values)
    assert cols[e] == moved.col_indices()[e]
    return moved


def key_of(operand):
    return PlanCache.key(operand, None, nprocs=4, memory_budget=None)


class TestTheKeyIsExact:
    def test_one_moved_entry_moves_the_key(self):
        """28 537 entries: a strided 4 096-entry sample reads every 6th
        position of ``rowidx``, so moving an entry at another position
        leaves ``indptr`` and every sampled entry as they were."""
        a = random_sparse(4000, 4000, nnz=28537, seed=0)
        assert a.nnz // 4096 == 6
        b = moved_entry(a, skip=6)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.rowidx[::6], b.rowidx[::6])
        assert not np.array_equal(a.rowidx, b.rowidx)
        assert a.structure_key != b.structure_key
        assert key_of(a) != key_of(b)

    def test_the_key_is_blake2b_over_shape_and_pattern(self):
        a = random_sparse(30, 20, nnz=90, seed=1)
        h = hashlib.blake2b(repr((30, 20)).encode(), digest_size=16)
        h.update(a.indptr)
        h.update(a.rowidx)
        assert a.structure_key == h.digest()


class TestKeyingFreezesThePattern:
    def test_a_keyed_pattern_cannot_be_written(self):
        a = random_sparse(30, 30, nnz=120, seed=2)
        a.rowidx[0] = a.rowidx[0]  # unkeyed: writable
        key = a.structure_key
        with pytest.raises(ValueError):
            a.rowidx[0] = 0
        with pytest.raises(ValueError):
            a.indptr[-1] = 0
        a.values *= 2.0  # values stay writable, and out of the key
        assert a.structure_key == key

    @pytest.mark.parametrize("derive", [
        lambda m: SparseMatrix(m.nrows, m.ncols, m.indptr, m.rowidx,
                               m.values, sorted_within_columns=False,
                               ).sort_indices(),
        copy.copy,
        copy.deepcopy,
        lambda m: pickle.loads(pickle.dumps(m)),
    ], ids=["sort_indices", "copy", "deepcopy", "pickle"])
    def test_a_new_matrix_starts_unkeyed(self, derive, monkeypatch):
        a = random_sparse(30, 30, nnz=120, seed=5)
        key = a.structure_key
        b = derive(a)
        assert b is not a and b._structure_key is None
        calls = count_hashes(monkeypatch)
        assert b.structure_key == key and calls == [repr(b.shape)]


def count_hashes(monkeypatch) -> list:
    """Every structure hash from now on, as the shape it starts from."""
    calls = []

    def blake2b(data, **kwargs):
        calls.append(data.decode())
        return hashlib.blake2b(data, **kwargs)

    monkeypatch.setattr(
        matrix_module, "hashlib", types.SimpleNamespace(blake2b=blake2b)
    )
    return calls


def test_each_structure_is_hashed_once(monkeypatch):
    """Repeat submissions of all three job kinds, then a six-round
    masked chain on a resident context: three distinct patterns (the
    served operand, the served mask, the chain's graph), three hashes."""
    a = erdos_renyi(60, avg_degree=4.0, seed=21)
    mask = erdos_renyi(60, avg_degree=3.0, seed=22)
    panel = np.random.default_rng(0).random((60, 5))
    g = planted_partition(120, 4, p_in=0.3, p_out=0.01, seed=1)[0]
    calls = count_hashes(monkeypatch)
    with SpgemmService(grids=1, nprocs=4, world="threads") as svc:
        for _ in range(3):
            for kind, b, m in (
                ("multiply", None, None),
                ("spmm", panel, None),
                ("masked_spgemm", None, mask),
            ):
                svc.submit(
                    tenant="t", kind=kind, a=a, b=b, mask=m,
                ).result(timeout=60)
        assert svc.stats()["plan_cache"]["hits"] == 6
    with DistContext(4, 1) as ctx:
        ha, hb = ctx.distribute(g, "A"), ctx.distribute(g, "B")
        for _ in range(6):
            hc, _ = ctx.multiply(ha, hb, kernel="masked_spgemm", mask=g)
            ha = hb = hc
    assert len(calls) == 3
    assert all(m._structure_key is not None for m in (a, mask, g))


def test_a_revalued_mask_is_sent_again():
    """The held mask is known by its pattern *and* its values: a kernel
    may multiply by the values, so new values travel again."""
    g = planted_partition(120, 4, p_in=0.3, p_out=0.01, seed=1)[0]
    twin = SparseMatrix(g.nrows, g.ncols, g.indptr, g.rowidx, g.values * 3)
    with DistContext(4, 1) as ctx:
        sent, real = [], ctx._submit

        def spy(region, **submitted):
            if region == "multiply":
                sent.append(submitted["aux"] is not None)
            return real(region, **submitted)

        ctx._submit = spy
        ha, hb = ctx.distribute(g, "A"), ctx.distribute(g, "B")
        for mask in (g, g, twin, twin, g):
            ctx.multiply(ha, hb, kernel="masked_spgemm", mask=mask)
        g.values[0] += 1.0  # same object, same pattern, a new value
        ctx.multiply(ha, hb, kernel="masked_spgemm", mask=g)
        assert sent == [True, False, True, False, True, True]


def test_a_keyed_mask_is_held_without_a_copy():
    """Read-only index arrays are the caller's memory, not a received
    segment: the threads world's ranks hold the mask itself."""
    g = planted_partition(120, 4, p_in=0.3, p_out=0.01, seed=1)[0]
    with DistContext(4, 1) as ctx:
        ha, hb = ctx.distribute(g, "A"), ctx.distribute(g, "B")
        ctx.multiply(ha, hb, kernel="masked_spgemm", mask=g)
        assert not g.rowidx.flags.writeable
        assert all(store[ctx._held_aux[1]] is g for store in ctx._world.stores)
