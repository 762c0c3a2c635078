"""Kernel-equivalence matrix (ISSUE 7 acceptance criteria).

Every kernel must match its dense-numpy reference through the full
batched 3D pipeline, and must be *bit-identical* across execution
configurations — comm backend, overlap mode, execution world — because
the schedule only reorders floating-point-identical reductions when the
merge rule is deterministic.
"""

import numpy as np
import pytest

from repro.kernels import SpgemmKernel
from repro.sparse import SparseMatrix, multiply, random_sparse
from repro.summa import batched_summa3d


# ---------------------------------------------------------------------- #
# operands (module-scoped: the matrix is big enough to exercise 2x2x2
# grids with batching, small enough that the full config sweep is fast)
# ---------------------------------------------------------------------- #

M, K, N, F = 40, 30, 35, 6


@pytest.fixture(scope="module")
def sparse_pair():
    a = random_sparse(M, K, nnz=160, seed=11)
    b = random_sparse(K, N, nnz=140, seed=12)
    return a, b


@pytest.fixture(scope="module")
def dense_pair():
    rng = np.random.default_rng(7)
    return (
        np.ascontiguousarray(rng.standard_normal((M, K))),
        np.ascontiguousarray(rng.standard_normal((K, N))),
    )


@pytest.fixture(scope="module")
def dense_panel():
    return np.ascontiguousarray(
        np.random.default_rng(8).standard_normal((K, F))
    )


@pytest.fixture(scope="module")
def sample_pattern():
    return random_sparse(M, N, nnz=120, seed=13)


def _operands(kernel, sparse_pair, dense_pair, dense_panel, sample_pattern):
    """(a, b, extra-kwargs) for one kernel's standard test problem."""
    a, b = sparse_pair
    if kernel == "spgemm":
        return a, b, {}
    if kernel == "spmm":
        return a, dense_panel, {}
    if kernel == "sddmm":
        da, db = dense_pair
        return da, db, {"sample": sample_pattern}
    mask = random_sparse(M, N, nnz=200, seed=14)
    return a, b, {"mask": mask}


def _coo_dict(m: SparseMatrix) -> dict:
    return {
        (int(i), int(j)): float(v)
        for i, j, v in zip(m.rowidx, m.col_indices(), m.values)
    }


def _filter_by_pattern(m: SparseMatrix, mask: SparseMatrix):
    """Entries of ``m`` kept by ``mask``'s pattern."""
    keep = set(zip(mask.rowidx.tolist(), mask.col_indices().tolist()))
    return {ij: v for ij, v in _coo_dict(m).items() if ij in keep}


def assert_identical(x, y):
    """Bit-identity across runs: same pattern, same value bits."""
    if isinstance(x, SparseMatrix):
        assert isinstance(y, SparseMatrix)
        assert (x.nrows, x.ncols) == (y.nrows, y.ncols)
        assert np.array_equal(x.indptr, y.indptr)
        assert np.array_equal(x.rowidx, y.rowidx)
        assert np.array_equal(x.values, y.values)
    else:
        assert np.array_equal(np.asarray(x), np.asarray(y))


KERNELS = ["spgemm", "spmm", "sddmm", "masked_spgemm"]
#: the SpGEMM kernel's (multiply, merge) tiers beside the default ESC one
TIERS = ["unsorted-hash", "sorted-heap", "hybrid", "spa"]


# ---------------------------------------------------------------------- #
# numerical references
# ---------------------------------------------------------------------- #

class TestMatchesReference:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("nprocs,layers,batches", [
        (1, 1, 1), (4, 1, 2), (8, 2, 3),
    ])
    def test_kernel_matches_numpy(
        self, kernel, nprocs, layers, batches,
        sparse_pair, dense_pair, dense_panel, sample_pattern,
    ):
        a, b, extra = _operands(
            kernel, sparse_pair, dense_pair, dense_panel, sample_pattern
        )
        r = batched_summa3d(
            a, b, nprocs=nprocs, layers=layers, batches=batches,
            kernel=kernel, **extra,
        )
        to_dense = (
            lambda x: x.to_dense() if isinstance(x, SparseMatrix)
            else np.asarray(x)
        )
        product = to_dense(a) @ to_dense(b)
        if kernel == "sddmm":
            expected = product * sample_pattern.to_dense()
        elif kernel == "masked_spgemm":
            expected = product * (extra["mask"].to_dense() != 0)
        else:
            expected = product
        out = r.matrix.to_dense() if kernel != "spmm" else r.matrix
        assert np.allclose(out, expected)
        assert r.info["kernel"] == kernel

    def test_masked_matches_spgemm_filtered(self, sparse_pair):
        a, b = sparse_pair
        mask = random_sparse(M, N, nnz=200, seed=14)
        full = batched_summa3d(a, b, nprocs=4, batches=2).matrix
        masked = batched_summa3d(
            a, b, nprocs=4, batches=2, kernel="masked_spgemm", mask=mask
        ).matrix
        assert _coo_dict(masked) == _filter_by_pattern(full, mask)

    def test_masked_default_mask_is_product_pattern(self, sparse_pair):
        """Without an explicit mask, the symbolic product pattern is the
        mask — the result must equal plain SpGEMM exactly."""
        a, b = sparse_pair
        full = batched_summa3d(a, b, nprocs=4, batches=2).matrix
        masked = batched_summa3d(
            a, b, nprocs=4, batches=2, kernel="masked_spgemm"
        ).matrix
        assert_identical(masked.sort_indices(), full.sort_indices())


class TestTropicalUnderMask:
    """min-plus (shortest-path relaxation) restricted to a mask — the
    semiring and the mask must compose."""

    def test_min_plus_masked_matches_filtered_local(self):
        a = random_sparse(24, 24, nnz=110, seed=15)
        b = random_sparse(24, 24, nnz=100, seed=16)
        mask = random_sparse(24, 24, nnz=150, seed=17)
        local = multiply(a, b, semiring="min_plus")
        r = batched_summa3d(
            a, b, nprocs=4, layers=1, batches=2,
            kernel="masked_spgemm", mask=mask, semiring="min_plus",
        )
        assert _coo_dict(r.matrix) == pytest.approx(
            _filter_by_pattern(local, mask)
        )

    def test_min_plus_spmm_matches_local_kernel(self):
        from repro.kernels import spmm_local
        from repro.sparse.semiring import MIN_PLUS

        a = random_sparse(24, 24, nnz=110, seed=15)
        x = np.ascontiguousarray(
            np.random.default_rng(9).standard_normal((24, 4))
        )
        r = batched_summa3d(
            a, x, nprocs=4, batches=2, kernel="spmm", semiring="min_plus"
        )
        assert np.allclose(r.matrix, spmm_local(a, x, MIN_PLUS))


# ---------------------------------------------------------------------- #
# bit-identity across execution configurations
# ---------------------------------------------------------------------- #

class TestBitIdentity:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("comm_backend", ["dense", "sparse"])
    @pytest.mark.parametrize("overlap", ["off", "depth1"])
    def test_backend_overlap_matrix(
        self, kernel, comm_backend, overlap,
        sparse_pair, dense_pair, dense_panel, sample_pattern,
    ):
        a, b, extra = _operands(
            kernel, sparse_pair, dense_pair, dense_panel, sample_pattern
        )
        base = batched_summa3d(
            a, b, nprocs=4, layers=1, batches=2, kernel=kernel, **extra
        )
        run = batched_summa3d(
            a, b, nprocs=4, layers=1, batches=2, kernel=kernel,
            comm_backend=comm_backend, overlap=overlap, **extra,
        )
        assert_identical(run.matrix, base.matrix)

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("merge_policy", ["deferred", "incremental"])
    @pytest.mark.parametrize("comm_backend", ["dense", "sparse"])
    @pytest.mark.parametrize("overlap", ["off", "depth1"])
    def test_spgemm_tier_matrix(
        self, tier, merge_policy, comm_backend, overlap, sparse_pair
    ):
        """The loop tiers of the SpGEMM kernel ride the same schedule:
        reached by name or by instance through ``kernel=``, a tier's bits
        do not depend on backend or overlap, and its product is the ESC
        tier's."""
        a, b = sparse_pair
        kw = dict(nprocs=4, layers=1, batches=2, merge_policy=merge_policy)
        base = batched_summa3d(a, b, kernel=f"spgemm:{tier}", **kw)
        run = batched_summa3d(
            a, b, kernel=SpgemmKernel(tier), comm_backend=comm_backend,
            overlap=overlap, **kw,
        )
        assert_identical(run.matrix, base.matrix)
        assert run.info["kernel"] == base.info["kernel"] == f"spgemm:{tier}"
        assert run.matrix.allclose(batched_summa3d(a, b, **kw).matrix)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_process_world_matches_threads(
        self, kernel, sparse_pair, dense_pair, dense_panel, sample_pattern,
    ):
        a, b, extra = _operands(
            kernel, sparse_pair, dense_pair, dense_panel, sample_pattern
        )
        kw = dict(nprocs=4, layers=1, batches=2, kernel=kernel, **extra)
        base = batched_summa3d(a, b, **kw)
        run = batched_summa3d(
            a, b, world="processes", transport="shm", **kw
        )
        assert_identical(run.matrix, base.matrix)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_layered_grid_matches_flat(
        self, kernel, sparse_pair, dense_pair, dense_panel, sample_pattern,
    ):
        a, b, extra = _operands(
            kernel, sparse_pair, dense_pair, dense_panel, sample_pattern
        )
        flat = batched_summa3d(
            a, b, nprocs=4, layers=1, batches=2, kernel=kernel, **extra
        )
        layered = batched_summa3d(
            a, b, nprocs=8, layers=2, batches=2, kernel=kernel,
            overlap="depth1", **extra,
        )
        out_f, out_l = flat.matrix, layered.matrix
        if isinstance(out_f, SparseMatrix):
            assert out_l.sort_indices().allclose(out_f.sort_indices())
        else:
            assert np.allclose(out_l, out_f)


# ---------------------------------------------------------------------- #
# the resident SpMM chain (what k-hop feature propagation runs on)
# ---------------------------------------------------------------------- #

class TestResidentSpmmChain:
    """One ``"A"``-layout handle, distributed once, multiplied against a
    dense panel hop after hop through :meth:`DistContext.spmm`."""

    @pytest.fixture(scope="class")
    def operator(self):
        return random_sparse(48, 48, nnz=400, seed=23)

    @pytest.fixture(scope="class")
    def panel(self):
        return np.ascontiguousarray(
            np.random.default_rng(4).standard_normal((48, 5))
        )

    @staticmethod
    def _chain(operator, panel, hops, *, world="threads", **knobs):
        from repro.dist import DistContext

        results = []
        with DistContext(nprocs=4, world=world, transport="shm") as ctx:
            handle = ctx.distribute(operator, layout="A")
            for _ in range(hops):
                panel, result = ctx.spmm(handle, panel, **knobs)
                results.append(result)
        return panel, results

    def test_iterated_spmm_matches_dense_reference(self, operator, panel):
        out, per_hop = self._chain(operator, panel, 3, batches=2)
        dense = operator.to_dense()
        assert np.allclose(out, dense @ (dense @ (dense @ panel)))
        for hop in per_hop:
            assert hop.info["kernel"] == "spmm"
            assert hop.memory["high_water_total"] > 0

    def test_process_world_shm_matches_threads(self, operator, panel):
        threaded, _ = self._chain(operator, panel, 2, batches=2)
        procs, _ = self._chain(
            operator, panel, 2, world="processes", batches=2
        )
        assert_identical(procs, threaded)

    def test_memory_budget_forces_batching(self, operator, panel):
        out, (hop,) = self._chain(
            operator, panel, 1, batches=None, memory_budget=30_000
        )
        assert hop.batches > 1
        assert np.allclose(out, operator.to_dense() @ panel)
