"""Unit tests for the LocalKernel registry and the local kernel math."""

import numpy as np
import pytest

from repro.errors import DistributionError, ShapeError
from repro.kernels import (
    LocalKernel,
    MaskedSpgemmKernel,
    SddmmKernel,
    SpgemmKernel,
    SpmmKernel,
    available_kernels,
    get_kernel,
    resolve_tile,
)
from repro.kernels.sddmm import sddmm_local
from repro.kernels.spmm import spmm_local
from repro.sparse import random_sparse
from repro.sparse.semiring import get_semiring


class TestRegistry:
    def test_available_kernels(self):
        assert set(available_kernels()) == {
            "spgemm", "spmm", "sddmm", "masked_spgemm",
        }

    @pytest.mark.parametrize("name,cls", [
        ("spgemm", SpgemmKernel),
        ("spmm", SpmmKernel),
        ("sddmm", SddmmKernel),
        ("masked_spgemm", MaskedSpgemmKernel),
    ])
    def test_get_by_name_class_instance(self, name, cls):
        assert isinstance(get_kernel(name), cls)
        assert isinstance(get_kernel(cls), cls)
        inst = cls()
        assert get_kernel(inst) is inst

    def test_unknown_name_raises(self):
        with pytest.raises(DistributionError):
            get_kernel("conv2d")

    def test_every_kernel_is_a_local_kernel(self):
        for name in available_kernels():
            kern = get_kernel(name)
            assert isinstance(kern, LocalKernel)
            assert kern.name == name
            assert kern.a_kind in ("sparse", "dense")
            assert kern.b_kind in ("sparse", "dense")
            assert kern.output_kind in ("sparse", "dense")

    def test_operand_kind_table(self):
        assert (get_kernel("spgemm").a_kind, get_kernel("spgemm").b_kind,
                get_kernel("spgemm").output_kind) == \
            ("sparse", "sparse", "sparse")
        assert (get_kernel("spmm").a_kind, get_kernel("spmm").b_kind,
                get_kernel("spmm").output_kind) == \
            ("sparse", "dense", "dense")
        assert (get_kernel("sddmm").a_kind, get_kernel("sddmm").b_kind,
                get_kernel("sddmm").output_kind) == \
            ("dense", "dense", "sparse")

    def test_dense_accumulator_kernels_are_incremental_only(self):
        assert get_kernel("spmm").incremental_only
        assert get_kernel("sddmm").incremental_only
        assert not get_kernel("spgemm").incremental_only


class TestValidate:
    def test_spgemm_shape_mismatch(self):
        a = random_sparse(6, 5, nnz=8, seed=1)
        b = random_sparse(4, 7, nnz=8, seed=2)
        with pytest.raises(ShapeError):
            get_kernel("spgemm").validate(a, b, None)

    def test_resolve_tile_enforces_operand_kind(self):
        from repro.grid.grid3d import ProcGrid3D

        grid = ProcGrid3D(4, 1)
        sparse_b = random_sparse(8, 8, nnz=10, seed=2)
        with pytest.raises(ShapeError):
            resolve_tile(sparse_b, grid, 0, "B", "dense")
        with pytest.raises(ShapeError):
            resolve_tile(np.zeros((8, 8)), grid, 0, "B", "sparse")

    def test_sddmm_requires_sample(self):
        a = np.zeros((6, 5))
        b = np.zeros((5, 7))
        with pytest.raises(ValueError):
            get_kernel("sddmm").validate(a, b, None)

    def test_sddmm_sample_shape_checked(self):
        a = np.zeros((6, 5))
        b = np.zeros((5, 7))
        s = random_sparse(6, 6, nnz=4, seed=3)
        with pytest.raises(ShapeError):
            get_kernel("sddmm").validate(a, b, s)

    def test_spgemm_rejects_stray_aux(self):
        a = random_sparse(6, 5, nnz=8, seed=1)
        b = random_sparse(5, 7, nnz=8, seed=2)
        with pytest.raises(ValueError):
            get_kernel("spgemm").validate(a, b, b)


class TestLocalMath:
    def test_spmm_local_matches_dense(self):
        a = random_sparse(12, 9, nnz=40, seed=4)
        x = np.random.default_rng(0).standard_normal((9, 5))
        out = spmm_local(a, x, get_semiring("plus_times"))
        assert np.allclose(out, a.to_dense() @ x)

    def test_spmm_local_min_plus(self):
        a = random_sparse(8, 8, nnz=20, seed=5)
        x = np.random.default_rng(1).standard_normal((8, 3))
        sr = get_semiring("min_plus")
        out = spmm_local(a, x, sr)
        ref = np.full((8, 3), sr.add_identity)
        cols = a.col_indices()
        for i, k, v in zip(a.rowidx, cols, a.values):
            ref[i] = np.minimum(ref[i], v + x[k])
        assert np.allclose(out, ref)

    def test_sddmm_local_matches_dense(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((10, 4))
        vt = rng.standard_normal((4, 8))
        s = random_sparse(10, 8, nnz=25, seed=6)
        out = sddmm_local(s, u, vt, get_semiring("plus_times"))
        ref = (u @ vt) * s.to_dense()
        assert np.allclose(out.to_dense(), ref)
        # the output keeps S's pattern exactly
        assert np.array_equal(out.rowidx, s.rowidx)
        assert np.array_equal(out.indptr, s.indptr)

    def test_sddmm_local_zero_rank(self):
        s = random_sparse(5, 5, nnz=6, seed=7)
        u = np.zeros((5, 0))
        vt = np.zeros((0, 5))
        out = sddmm_local(s, u, vt, get_semiring("plus_times"))
        assert np.allclose(out.values, 0.0)


class TestMemoryModel:
    def test_spmm_model_has_dense_panel_terms(self):
        a = random_sparse(64, 64, nnz=600, seed=8)
        x = np.zeros((64, 8))
        model = get_kernel("spmm").predict_memory(
            a, x, None, nprocs=4, layers=1, batches=2, overlap="off",
        )
        cats = model["categories"]
        assert cats["b_piece"] > 0
        assert cats["output_batch"] > 0
        assert model["high_water_total"] >= sum(
            (cats["a_piece"], cats["b_piece"])
        )

    def test_spgemm_defers_to_symbolic_model(self):
        a = random_sparse(16, 16, nnz=40, seed=9)
        assert get_kernel("spgemm").predict_memory(
            a, a, None, nprocs=4, layers=1, batches=1, overlap="off",
        ) is None

    def test_batches_for_budget_monotone(self):
        a = random_sparse(64, 64, nnz=600, seed=8)
        x = np.zeros((64, 16))
        kern = get_kernel("spmm")
        loose = kern.batches_for_budget(
            a, x, None, nprocs=4, layers=1, memory_budget=10**9
        )
        tight = kern.batches_for_budget(
            a, x, None, nprocs=4, layers=1, memory_budget=120_000
        )
        assert loose == 1
        assert tight >= loose
