"""Tests for the extended batching options: row batching, batch schemes,
merge policies, and per-batch consumption (``on_batch``)."""

import numpy as np
import pytest

from repro.sparse import random_sparse
from repro.summa import batched_summa3d, batched_summa3d_rows
from tests.conftest import to_scipy


@pytest.fixture(scope="module")
def operands():
    a = random_sparse(40, 33, nnz=350, seed=71)
    b = random_sparse(33, 46, nnz=330, seed=72)
    return a, b, (to_scipy(a) @ to_scipy(b)).toarray()


class TestRowBatching:
    @pytest.mark.parametrize("batches", [1, 2, 4])
    def test_matches_column_batching(self, operands, batches):
        a, b, expected = operands
        r = batched_summa3d_rows(a, b, nprocs=4, batches=batches)
        assert np.allclose(r.matrix.to_dense(), expected)
        assert r.info["batch_axis"] == "rows"

    def test_3d_grid(self, operands):
        a, b, expected = operands
        r = batched_summa3d_rows(a, b, nprocs=8, layers=2, batches=3)
        assert np.allclose(r.matrix.to_dense(), expected)

    def test_on_batch_receives_row_blocks(self, operands):
        a, b, expected = operands
        seen = {}

        def hook(batch, spans, mat):
            seen[batch] = mat

        batched_summa3d_rows(
            a, b, nprocs=4, batches=3, keep_output=False, on_batch=hook
        )
        assert sorted(seen) == [0, 1, 2]
        # batches are row blocks: full output shape, disjoint row support
        total = sum(m.to_dense() for m in seen.values())
        assert np.allclose(total, expected)
        supports = [set(m.rowidx.tolist()) for m in seen.values()]
        for x in range(len(supports)):
            for y in range(x + 1, len(supports)):
                assert not (supports[x] & supports[y])

    def test_symbolic_batching_via_budget(self, operands):
        a, b, expected = operands
        budget = 8 * (a.nnz + b.nnz) * 24
        r = batched_summa3d_rows(a, b, nprocs=4, memory_budget=budget)
        assert np.allclose(r.matrix.to_dense(), expected)

    def test_heavy_a_broadcast_shrinks(self):
        """The point of row batching: when nnz(A) >> nnz(B), column
        batching re-broadcasts the heavy A b times; row batching
        re-broadcasts the light B instead."""
        from repro.simmpi import CommTracker

        a = random_sparse(40, 40, nnz=800, seed=73)   # heavy
        b = random_sparse(40, 40, nnz=80, seed=74)    # light
        col_tracker = CommTracker()
        batched_summa3d(a, b, nprocs=4, batches=4, tracker=col_tracker)
        row_tracker = CommTracker()
        batched_summa3d_rows(a, b, nprocs=4, batches=4, tracker=row_tracker)
        assert row_tracker.total_bytes() < col_tracker.total_bytes()


class TestBatchSchemes:
    @pytest.mark.parametrize("scheme", ["block-cyclic", "block"])
    @pytest.mark.parametrize("batches", [1, 3])
    def test_schemes_agree(self, operands, scheme, batches):
        a, b, expected = operands
        r = batched_summa3d(
            a, b, nprocs=8, layers=2, batches=batches, batch_scheme=scheme
        )
        assert np.allclose(r.matrix.to_dense(), expected)

    def test_unknown_scheme(self, operands):
        a, b, _ = operands
        with pytest.raises(Exception):
            batched_summa3d(a, b, nprocs=4, batches=2, batch_scheme="zig")

    def test_block_cyclic_balances_fiber(self):
        """The Fig. 1(i) rationale: under block-cyclic batching the fiber
        exchange volumes are spread more evenly across batches than under
        a contiguous block split when the matrix is column-skewed."""
        import numpy as np

        from repro.sparse import SparseMatrix

        # heavily column-skewed B: all mass in the first third of columns
        rng = np.random.default_rng(75)
        n = 48
        rows = rng.integers(0, n, 600)
        cols = rng.integers(0, n // 3, 600)
        b = SparseMatrix.from_coo(n, n, rows, cols, np.ones(600))
        a = random_sparse(n, n, nnz=500, seed=76)

        def imbalance(scheme):
            r = batched_summa3d(
                a, b, nprocs=4, layers=4, batches=4, batch_scheme=scheme
            )
            # per-rank, per-batch fiber volumes
            per_batch = np.array(r.info["fiber_piece_nnz"], dtype=float)
            batch_totals = per_batch.sum(axis=0)
            return batch_totals.max() / max(batch_totals.mean(), 1.0)

        assert imbalance("block-cyclic") <= imbalance("block")


class TestMergePolicies:
    @pytest.mark.parametrize("policy", ["deferred", "incremental"])
    def test_policies_agree(self, operands, policy):
        a, b, expected = operands
        r = batched_summa3d(
            a, b, nprocs=9, layers=1, batches=2, merge_policy=policy
        )
        assert np.allclose(r.matrix.to_dense(), expected)

    def test_unknown_policy(self, operands):
        a, b, _ = operands
        with pytest.raises(Exception):
            batched_summa3d(a, b, nprocs=4, batches=1, merge_policy="eager")

    def test_incremental_lowers_transient_memory(self):
        """Sec. III-A: incremental merging trades extra merge work for not
        holding all stage partials — the per-process high water drops."""
        a = random_sparse(60, 60, nnz=900, seed=77)
        deferred = batched_summa3d(
            a, a, nprocs=16, batches=1, merge_policy="deferred",
            keep_output=False,
        )
        incremental = batched_summa3d(
            a, a, nprocs=16, batches=1, merge_policy="incremental",
            keep_output=False,
        )
        assert incremental.max_local_bytes <= deferred.max_local_bytes


class TestOnBatch:
    def test_on_batch_with_keep_output(self, operands):
        """Consuming batches does not cost the product: with the output
        kept, the hook sees every batch and the matrix is still whole."""
        a, b, expected = operands
        seen = {}
        r = batched_summa3d(
            a, b, nprocs=4, batches=2,
            on_batch=lambda batch, spans, m: seen.__setitem__(batch, m),
        )
        assert np.allclose(r.matrix.to_dense(), expected)
        assert sorted(seen) == [0, 1]
        assert np.allclose(sum(m.to_dense() for m in seen.values()), expected)


class TestRowBatchingForwarding:
    """The row driver must forward every batching/communication knob to
    the transposed inner run, not silently drop it."""

    def test_sparse_backend_matches_reference(self, operands):
        a, b, expected = operands
        r = batched_summa3d_rows(
            a, b, nprocs=4, batches=2, comm_backend="sparse",
        )
        assert np.allclose(r.matrix.to_dense(), expected)
        assert r.info["comm_backend"] == "sparse"

    @pytest.mark.parametrize("scheme", ["block", "block-cyclic"])
    @pytest.mark.parametrize("policy", ["deferred", "incremental"])
    def test_scheme_and_policy_forwarded(self, operands, scheme, policy):
        a, b, expected = operands
        r = batched_summa3d_rows(
            a, b, nprocs=4, batches=3, batch_scheme=scheme,
            merge_policy=policy,
        )
        assert np.allclose(r.matrix.to_dense(), expected)
        assert r.info["batch_scheme"] == scheme
        assert r.info["merge_policy"] == policy

    def test_overlap_forwarded_and_identical(self, operands):
        a, b, expected = operands
        off = batched_summa3d_rows(a, b, nprocs=4, batches=2, overlap="off")
        d1 = batched_summa3d_rows(a, b, nprocs=4, batches=2,
                                  overlap="depth1")
        assert d1.info["overlap"] == "depth1"
        assert np.allclose(d1.matrix.to_dense(), expected)
        assert np.array_equal(
            off.matrix.canonical().to_dense(),
            d1.matrix.canonical().to_dense(),
        )


class TestStreamingMemory:
    """Finished pieces leave the ranks as each batch ends, so the
    per-rank high water must not grow with the batch count — and keeping
    the product costs the ranks nothing: the driver assembles it."""

    def _streamed(self, batches):
        a = random_sparse(60, 60, nnz=1200, seed=81)
        b = random_sparse(60, 60, nnz=1100, seed=82)
        seen = {}
        r = batched_summa3d(
            a, b, nprocs=4, batches=batches, keep_output=False,
            on_batch=lambda batch, spans, m: seen.__setitem__(batch, m),
        )
        return a, b, r, seen

    def test_on_batch_high_water_flat_in_batches(self):
        hw1 = self._streamed(1)[2].max_local_bytes
        hw4 = self._streamed(4)[2].max_local_bytes
        assert hw4 <= hw1

    def test_streaming_beats_keeping(self):
        a, b, streamed, seen = self._streamed(4)
        kept = batched_summa3d(a, b, nprocs=4, batches=4)
        assert streamed.max_local_bytes == kept.max_local_bytes
        # and streaming loses nothing: the consumed batches reassemble
        assert np.allclose(
            sum(m.to_dense() for m in seen.values()), kept.matrix.to_dense()
        )

    def test_on_batch_streams_without_spill(self):
        a = random_sparse(60, 60, nnz=1200, seed=81)
        b = random_sparse(60, 60, nnz=1100, seed=82)
        seen = {}
        r = batched_summa3d(
            a, b, nprocs=4, batches=3, keep_output=False,
            on_batch=lambda batch, spans, m: seen.__setitem__(batch, m),
        )
        assert sorted(seen) == [0, 1, 2]
        kept = batched_summa3d(a, b, nprocs=4, batches=3)
        assert np.allclose(
            sum(m.to_dense() for m in seen.values()),
            kept.matrix.to_dense(),
        )
        assert r.max_local_bytes == kept.max_local_bytes
