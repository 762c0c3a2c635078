"""Correctness of SUMMA2D / SUMMA3D / BatchedSUMMA3D across grid shapes.

Every configuration must produce exactly the local-kernel product: the
distribution, staging, batching and merging must be invisible in the
result.
"""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.kernels import get_kernel
from repro.simmpi import CommTracker
from repro.sparse import multiply, random_sparse
from repro.sparse.semiring import MIN_PLUS
from repro.summa import batched_summa3d, summa2d, summa3d
from tests.conftest import to_scipy


@pytest.fixture(scope="module")
def operands():
    a = random_sparse(54, 47, nnz=700, seed=31)
    b = random_sparse(47, 61, nnz=650, seed=32)
    return a, b, (to_scipy(a) @ to_scipy(b)).toarray()


class TestSumma2D:
    @pytest.mark.parametrize("nprocs", [1, 4, 9, 16])
    def test_matches_scipy(self, operands, nprocs):
        a, b, expected = operands
        r = summa2d(a, b, nprocs=nprocs)
        assert np.allclose(r.matrix.to_dense(), expected)
        assert r.batches == 1

    def test_non_square_grid_rejected(self, operands):
        a, b, _ = operands
        with pytest.raises(Exception):
            summa2d(a, b, nprocs=6)

    def test_shape_mismatch(self):
        a = random_sparse(5, 6, nnz=5, seed=1)
        with pytest.raises(ShapeError):
            summa2d(a, a, nprocs=1)

    def test_output_sorted(self, operands):
        a, b, _ = operands
        r = summa2d(a, b, nprocs=4)
        assert r.matrix.sorted_within_columns
        r.matrix._validate()


class TestSumma3D:
    @pytest.mark.parametrize("nprocs,layers", [(2, 2), (4, 4), (8, 2), (16, 4), (18, 2)])
    def test_matches_scipy(self, operands, nprocs, layers):
        a, b, expected = operands
        r = summa3d(a, b, nprocs=nprocs, layers=layers)
        assert np.allclose(r.matrix.to_dense(), expected)

    def test_fiber_steps_present_only_with_layers(self, operands):
        a, b, _ = operands
        r1 = summa2d(a, b, nprocs=4)
        r3 = summa3d(a, b, nprocs=8, layers=2)
        assert "AllToAll-Fiber" not in r1.step_times.seconds
        assert "AllToAll-Fiber" in r3.step_times.seconds
        assert "Merge-Fiber" in r3.step_times.seconds


class TestBatched:
    @pytest.mark.parametrize("batches", [1, 2, 3, 5, 8])
    def test_batching_invariance_2d(self, operands, batches):
        a, b, expected = operands
        r = batched_summa3d(a, b, nprocs=4, layers=1, batches=batches)
        assert np.allclose(r.matrix.to_dense(), expected)
        assert r.batches == batches

    @pytest.mark.parametrize("batches", [1, 2, 4, 7])
    def test_batching_invariance_3d(self, operands, batches):
        a, b, expected = operands
        r = batched_summa3d(a, b, nprocs=8, layers=2, batches=batches)
        assert np.allclose(r.matrix.to_dense(), expected)

    @pytest.mark.parametrize("tier", ["esc", "unsorted-hash", "sorted-heap", "hybrid", "spa"])
    def test_kernel_suite_invariance(self, operands, tier):
        """Every (multiply, merge) tier of the SpGEMM kernel, reached
        through the ``kernel=`` seam, computes the same product."""
        a, b, expected = operands
        r = batched_summa3d(
            a, b, nprocs=8, layers=2, batches=2, kernel=f"spgemm:{tier}"
        )
        assert np.allclose(r.matrix.to_dense(), expected)
        assert r.info["kernel"] == ("spgemm" if tier == "esc" else f"spgemm:{tier}")
        # the recorded plan names the same kernel back
        assert get_kernel(r.info["plan"]["spec"]["kernel"]).name == r.info["kernel"]

    def test_batches_exceeding_columns(self, operands):
        a, b, expected = operands
        r = batched_summa3d(a, b, nprocs=4, layers=1, batches=b.ncols + 10)
        assert np.allclose(r.matrix.to_dense(), expected)

    def test_invalid_batches(self, operands):
        a, b, _ = operands
        with pytest.raises(ShapeError):
            batched_summa3d(a, b, nprocs=4, batches=0)

    def test_discard_output(self, operands):
        a, b, _ = operands
        r = batched_summa3d(a, b, nprocs=4, batches=2, keep_output=False)
        assert r.matrix is None

    def test_on_batch_sees_every_batch(self, operands):
        a, b, expected = operands
        seen = {}

        def on_batch(batch, spans, mat):
            seen[batch] = mat

        batched_summa3d(
            a, b, nprocs=4, batches=3, keep_output=False, on_batch=on_batch
        )
        assert sorted(seen) == [0, 1, 2]
        total = sum(m.to_dense() for m in seen.values())
        assert np.allclose(total, expected)

    def test_postprocess_applied(self, operands):
        a, b, _ = operands

        def zero_all(batch, c0, c1, block):
            from repro.sparse import SparseMatrix

            return SparseMatrix.empty(block.nrows, block.ncols)

        r = batched_summa3d(a, b, nprocs=4, batches=2, postprocess=zero_all)
        assert r.matrix.nnz == 0

    def test_semiring_through_distribution(self, operands):
        a, b, _ = operands
        r = batched_summa3d(a, b, nprocs=8, layers=2, batches=2, semiring=MIN_PLUS)
        local = multiply(a, b, semiring=MIN_PLUS)
        assert r.matrix.allclose(local)

    def test_empty_inputs(self):
        from repro.sparse import SparseMatrix

        a = SparseMatrix.empty(20, 20)
        r = batched_summa3d(a, a, nprocs=4, layers=1, batches=2)
        assert r.matrix.nnz == 0

    def test_single_process(self, operands):
        a, b, expected = operands
        r = batched_summa3d(a, b, nprocs=1, layers=1, batches=3)
        assert np.allclose(r.matrix.to_dense(), expected)

    def test_tall_grid_all_layers(self, operands):
        a, b, expected = operands
        r = batched_summa3d(a, b, nprocs=4, layers=4, batches=2)
        assert np.allclose(r.matrix.to_dense(), expected)


class TestResultMetadata:
    def test_step_times_present(self, operands):
        a, b, _ = operands
        r = batched_summa3d(a, b, nprocs=8, layers=2, batches=2)
        for step in ("A-Broadcast", "B-Broadcast", "Local-Multiply",
                     "Merge-Layer", "AllToAll-Fiber", "Merge-Fiber"):
            assert step in r.step_times.seconds, step
        assert len(r.per_rank_times) == 8

    def test_tracker_records_steps(self, operands):
        a, b, _ = operands
        tracker = CommTracker()
        batched_summa3d(a, b, nprocs=8, layers=2, batches=2, tracker=tracker)
        steps = {e.step for e in tracker.events}
        assert {"A-Broadcast", "B-Broadcast", "AllToAll-Fiber"} <= steps

    def test_memory_high_water_positive(self, operands):
        a, b, _ = operands
        r = batched_summa3d(a, b, nprocs=4, batches=1)
        assert r.max_local_bytes > 0

    def test_more_batches_lower_high_water(self, operands):
        """The whole point of batching: transient memory shrinks with b."""
        a, b, _ = operands
        r1 = batched_summa3d(a, b, nprocs=4, batches=1)
        r8 = batched_summa3d(a, b, nprocs=4, batches=8)
        assert r8.max_local_bytes < r1.max_local_bytes

    def test_info_fields(self, operands):
        a, b, _ = operands
        r = batched_summa3d(a, b, nprocs=4, batches=1)
        assert r.info["kernel"] == "spgemm"
        assert r.info["nprocs"] == 4

    def test_repr(self, operands):
        a, b, _ = operands
        r = batched_summa3d(a, b, nprocs=4, batches=2)
        assert "batches=2" in repr(r)


class TestAAT:
    def test_aat_with_rectangular_input(self):
        from repro.sparse import transpose

        a = random_sparse(30, 80, nnz=300, seed=41)
        at = transpose(a)
        expected = (to_scipy(a) @ to_scipy(at)).toarray()
        r = batched_summa3d(a, at, nprocs=8, layers=2, batches=3)
        assert np.allclose(r.matrix.to_dense(), expected)
