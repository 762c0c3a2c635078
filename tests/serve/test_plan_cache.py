"""Plan-cache keying, invalidation, and the cached-plan-is-harmless
property: operand-key equality and miss behaviour, invalidation on
kernel/backend/overlap/sparsity change, and a property test that a cached
plan never changes the product."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.generators import erdos_renyi
from repro.errors import PlannerError
from repro.serve import PlanCache
from repro.sparse import SparseMatrix, random_sparse
from repro.summa import batched_summa3d


@pytest.fixture(scope="module")
def a():
    return erdos_renyi(80, avg_degree=5.0, seed=3)


@pytest.fixture(scope="module")
def b():
    return erdos_renyi(80, avg_degree=4.0, seed=4)


def key_of(operand):
    """The plan cache's key of one operand (``a``'s slot of the full key)."""
    return PlanCache.key(operand, None, nprocs=4, memory_budget=None)[0]


class TestSketch:
    """An operand's cache key: a sparse operand's exact
    ``structure_key``, a dense panel's geometry."""

    def test_same_structure_same_sketch(self, a):
        clone = SparseMatrix(
            a.nrows, a.ncols, a.indptr.copy(), a.rowidx.copy(),
            a.values.copy(),
        )
        assert clone.structure_key == a.structure_key
        assert key_of(a) == key_of(clone) == a.structure_key

    def test_values_do_not_enter_the_sketch(self, a):
        """Plans are value-independent, so the key must be too —
        that is what makes caching across HipMCL iterations sound."""
        scaled = SparseMatrix(
            a.nrows, a.ncols, a.indptr, a.rowidx, a.values * 3.7,
        )
        assert key_of(a) == key_of(scaled)

    def test_sparsity_change_moves_the_sketch(self, a):
        sk = key_of(a)
        dropped = SparseMatrix(  # same shape, column 0 emptied
            a.nrows, a.ncols,
            np.concatenate([[0], a.indptr[1:] - a.indptr[1]]),
            a.rowidx[a.indptr[1]:],
            a.values[a.indptr[1]:],
        )
        assert key_of(dropped) != sk

    def test_shape_change_moves_the_sketch(self, a):
        wider = SparseMatrix(
            a.nrows, a.ncols + 1,
            np.concatenate([a.indptr, a.indptr[-1:]]),
            a.rowidx, a.values,
        )
        assert key_of(wider) != key_of(a)
        taller = SparseMatrix(  # same arrays, one more (empty) row
            a.nrows + 1, a.ncols, a.indptr, a.rowidx, a.values,
        )
        assert key_of(taller) != key_of(a)

    def test_dense_panel_sketch_is_geometry_only(self):
        x = np.ones((40, 8))
        y = np.random.default_rng(0).standard_normal((40, 8))
        assert key_of(x) == key_of(y) == ("dense", 40, 8)
        assert key_of(x) != key_of(np.ones((40, 9)))
        with pytest.raises(TypeError):
            key_of(np.ones(40))

    def test_sketch_is_hashable(self, a):
        sk = key_of(a)
        assert isinstance(sk, bytes) and len(sk) == 16
        assert len({sk, key_of(a)}) == 1
        full = PlanCache.key(a, a, nprocs=4, memory_budget=None, mask=a)
        assert len({full, PlanCache.key(a, a, nprocs=4, memory_budget=None,
                                        mask=a)}) == 1


class TestCacheKeying:
    def test_hit_on_repeat_traffic(self, a, b):
        cache = PlanCache()
        p1, hit1 = cache.plan(a, b, nprocs=4)
        p2, hit2 = cache.plan(a, b, nprocs=4)
        assert (hit1, hit2) == (False, True)
        assert p2 is p1
        assert cache.stats() == {
            "size": 1, "capacity": 128, "hits": 1, "misses": 1,
            "evictions": 0,
        }

    @pytest.mark.parametrize("change", [
        dict(kernel="masked_spgemm"),
        dict(backend="sparse"),
        dict(overlap="depth1"),
        dict(nprocs=16),
        dict(memory_budget=1 << 30),
    ])
    def test_config_change_misses(self, a, b, change):
        cache = PlanCache()
        base = dict(nprocs=4, memory_budget=None, kernel="spgemm",
                    backend="dense", overlap="off")
        k1 = cache.key(a, b, **base)
        k2 = cache.key(a, b, **{**base, **change})
        assert k1 != k2

    def test_sparsity_change_misses(self, a):
        cache = PlanCache()
        cache.plan(a, a, nprocs=4)
        denser = erdos_renyi(80, avg_degree=9.0, seed=5)
        _, hit = cache.plan(denser, denser, nprocs=4)
        assert not hit
        assert cache.stats()["misses"] == 2

    def test_mask_is_part_of_the_key(self, a, b):
        m1 = random_sparse(80, 80, nnz=100, seed=6)
        m2 = random_sparse(80, 80, nnz=100, seed=7)
        k1 = PlanCache.key(a, b, nprocs=4, memory_budget=None,
                           kernel="masked_spgemm", mask=m1)
        k2 = PlanCache.key(a, b, nprocs=4, memory_budget=None,
                           kernel="masked_spgemm", mask=m2)
        assert k1 != k2

    def test_lru_eviction(self, a):
        cache = PlanCache(capacity=2)
        mats = [erdos_renyi(40, avg_degree=3.0, seed=s) for s in range(3)]
        for m in mats:
            cache.plan(m, m, nprocs=4)
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        # oldest (mats[0]) was evicted; re-planning misses
        _, hit = cache.plan(mats[0], mats[0], nprocs=4)
        assert not hit

    def test_infeasible_is_classified_and_not_cached(self, a, b):
        cache = PlanCache()
        tiny = 1024  # cannot even hold the inputs
        with pytest.raises(PlannerError):
            cache.plan(a, b, nprocs=4, memory_budget=tiny)
        assert cache.stats()["size"] == 0


class TestCachedPlanNeverChangesProduct:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=50),
        degree=st.floats(min_value=2.0, max_value=6.0),
    )
    def test_property(self, seed, degree):
        """The product under a cached plan is bit-identical to the
        product under a freshly computed plan — caching is a pure
        optimisation, never a semantic change."""
        m = erdos_renyi(48, avg_degree=degree, seed=seed)
        cache = PlanCache()
        fresh, hit1 = cache.plan(m, m, nprocs=4)
        cached, hit2 = cache.plan(m, m, nprocs=4)
        assert (hit1, hit2) == (False, True)
        assert (cached.layers, cached.batches, cached.backend) == (
            fresh.layers, fresh.batches, fresh.backend
        )
        r1 = batched_summa3d(m, m, nprocs=4, layers=fresh.layers,
                             batches=fresh.batches,
                             comm_backend=fresh.backend)
        r2 = batched_summa3d(m, m, nprocs=4, layers=cached.layers,
                             batches=cached.batches,
                             comm_backend=cached.backend)
        assert np.array_equal(r1.matrix.indptr, r2.matrix.indptr)
        assert np.array_equal(r1.matrix.rowidx, r2.matrix.rowidx)
        assert np.array_equal(r1.matrix.values, r2.matrix.values)
