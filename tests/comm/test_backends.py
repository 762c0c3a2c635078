"""Backend equivalence: dense collectives vs. sparse point-to-point.

The hard guarantee of :mod:`repro.comm` is that the sparse backend drops
only operand entries that participate in zero partial products, so both
backends produce **bit-identical** output — same indptr, same rowidx,
same values, same float accumulation order — on every grid shape.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    CommBackend,
    DenseCollective,
    SparseP2P,
    get_backend,
)
from repro.data.generators import erdos_renyi, rmat
from repro.errors import CommError
from repro.simmpi import CommTracker
from repro.sparse import SparseMatrix, random_sparse
from repro.summa import batched_summa3d, choose_backend, summa2d, summa3d

GRIDS = [(1, 1), (4, 1), (2, 2), (4, 4), (8, 2), (9, 1), (16, 4)]


def _identical(x: SparseMatrix, y: SparseMatrix) -> bool:
    x, y = x.canonical(), y.canonical()
    return (
        x.shape == y.shape
        and np.array_equal(x.indptr, y.indptr)
        and np.array_equal(x.rowidx, y.rowidx)
        and np.array_equal(x.values, y.values)
    )


def _run_both(a, b, **kw):
    dense = batched_summa3d(a, b, comm_backend="dense", **kw)
    sparse = batched_summa3d(a, b, comm_backend="sparse", **kw)
    assert dense.info["comm_backend"] == "dense"
    assert sparse.info["comm_backend"] == "sparse"
    return dense, sparse


class TestRegistry:
    def test_resolution(self):
        assert isinstance(get_backend("dense"), DenseCollective)
        assert isinstance(get_backend("sparse"), SparseP2P)
        assert isinstance(get_backend(SparseP2P), SparseP2P)
        inst = DenseCollective()
        assert get_backend(inst) is inst
        assert isinstance(get_backend("dense"), CommBackend)

    def test_auto_rejected_at_backend_layer(self):
        with pytest.raises(CommError):
            get_backend("auto")

    def test_unknown_name(self):
        with pytest.raises(CommError):
            get_backend("quantum")


class TestBitIdentical:
    @pytest.mark.parametrize("nprocs,layers", GRIDS)
    def test_er_graph_all_grids(self, nprocs, layers):
        a = erdos_renyi(36, avg_degree=3.0, seed=7)
        b = erdos_renyi(36, avg_degree=3.0, seed=8)
        dense, sparse = _run_both(a, b, nprocs=nprocs, layers=layers)
        assert _identical(dense.matrix, sparse.matrix)

    @pytest.mark.parametrize("nprocs,layers", [(4, 1), (16, 4), (8, 2)])
    def test_rmat_batched(self, nprocs, layers):
        a = rmat(5, edge_factor=4, seed=3)
        b = rmat(5, edge_factor=4, seed=4)
        dense, sparse = _run_both(
            a, b, nprocs=nprocs, layers=layers, batches=3
        )
        assert _identical(dense.matrix, sparse.matrix)

    def test_rectangular(self):
        a = random_sparse(30, 44, nnz=80, seed=5)
        b = random_sparse(44, 22, nnz=80, seed=6)
        dense, sparse = _run_both(a, b, nprocs=4, layers=1, batches=2)
        assert _identical(dense.matrix, sparse.matrix)

    def test_empty_operand(self):
        a = SparseMatrix.from_coo(20, 20, [], [], [])
        b = random_sparse(20, 20, nnz=40, seed=9)
        dense, sparse = _run_both(a, b, nprocs=4, layers=1)
        assert _identical(dense.matrix, sparse.matrix)
        assert dense.matrix.nnz == 0

    def test_hypersparse(self):
        a = SparseMatrix.from_coo(64, 64, [3, 60], [10, 50], [1.0, 2.0])
        b = SparseMatrix.from_coo(64, 64, [10, 11], [0, 1], [4.0, 5.0])
        dense, sparse = _run_both(a, b, nprocs=16, layers=4)
        assert _identical(dense.matrix, sparse.matrix)

    def test_summa2d_and_3d_wrappers(self):
        a = erdos_renyi(32, avg_degree=4.0, seed=1)
        b = erdos_renyi(32, avg_degree=4.0, seed=2)
        d2 = summa2d(a, b, nprocs=9, comm_backend="dense")
        s2 = summa2d(a, b, nprocs=9, comm_backend="sparse")
        assert _identical(d2.matrix, s2.matrix)
        d3 = summa3d(a, b, nprocs=8, layers=2, comm_backend="dense")
        s3 = summa3d(a, b, nprocs=8, layers=2, comm_backend="sparse")
        assert _identical(d3.matrix, s3.matrix)

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from(GRIDS),
        st.integers(1, 3),
    )
    def test_randomized_property(self, seed, grid, batches):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 40))
        k = int(rng.integers(8, 40))
        m = int(rng.integers(8, 40))
        a = random_sparse(n, k, nnz=int(rng.integers(0, 60)), seed=seed)
        b = random_sparse(k, m, nnz=int(rng.integers(0, 60)), seed=seed + 1)
        nprocs, layers = grid
        dense, sparse = _run_both(
            a, b, nprocs=nprocs, layers=layers, batches=batches
        )
        assert _identical(dense.matrix, sparse.matrix)


class TestMetering:
    def test_backend_tags_and_savings(self):
        # hypersparse at p = 16: the sparse backend must move fewer
        # broadcast bytes, and every tagged event carries its backend.
        a = random_sparse(64, 64, nnz=100, seed=11)
        b = random_sparse(64, 64, nnz=100, seed=12)
        td, ts = CommTracker(), CommTracker()
        batched_summa3d(a, b, nprocs=16, comm_backend="dense", tracker=td)
        batched_summa3d(a, b, nprocs=16, comm_backend="sparse", tracker=ts)
        assert set(td.by_backend()) == {"dense"}
        assert set(ts.by_backend()) == {"sparse"}
        d_bcast = td.total_bytes("A-Broadcast") + td.total_bytes("B-Broadcast")
        s_bcast = ts.total_bytes("A-Broadcast") + ts.total_bytes("B-Broadcast")
        assert s_bcast < d_bcast

    def test_auto_resolves_to_concrete_backend(self):
        a = random_sparse(32, 32, nnz=60, seed=13)
        r = batched_summa3d(a, a, nprocs=4, comm_backend="auto")
        assert r.info["comm_backend"] in ("dense", "sparse")
        assert _identical(
            r.matrix,
            batched_summa3d(a, a, nprocs=4, comm_backend="dense").matrix,
        )


class TestChooseBackend:
    def test_returns_valid_name(self):
        a = random_sparse(64, 64, nnz=120, seed=20)
        assert choose_backend(a, a, nprocs=16) in ("dense", "sparse")

    def test_single_rank_prefers_dense(self):
        # p = 1: nothing moves, the tie must go to dense
        a = random_sparse(16, 16, nnz=30, seed=21)
        assert choose_backend(a, a, nprocs=1) == "dense"
