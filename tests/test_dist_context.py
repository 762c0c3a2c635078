"""Tests for the persistent distributed-matrix context."""

import pytest

from repro.dist import DistContext
from repro.errors import DistributionError, ShapeError
from repro.sparse import multiply, random_sparse
from repro.sparse.semiring import MIN_PLUS
from tests.conftest import shm_names


@pytest.fixture(scope="module")
def matrix():
    return random_sparse(40, 40, nnz=420, seed=141)


@pytest.fixture
def ctx():
    return DistContext(nprocs=4, layers=1)


class TestHandles:
    def test_distribute_gather_roundtrip_a(self, ctx, matrix):
        h = ctx.distribute(matrix, "A")
        assert h.to_global().allclose(matrix)
        assert h.layout == "A"
        assert h.shape == (40, 40)

    def test_distribute_gather_roundtrip_b(self, ctx, matrix):
        h = ctx.distribute(matrix, "B")
        assert h.to_global().allclose(matrix)

    def test_nnz_sums_tiles(self, ctx, matrix):
        h = ctx.distribute(matrix)
        assert h.nnz == matrix.nnz

    def test_rectangular(self, ctx):
        m = random_sparse(30, 50, nnz=200, seed=142)
        for layout in ("A", "B"):
            assert ctx.distribute(m, layout).to_global().allclose(m)

    def test_unknown_layout(self, ctx, matrix):
        with pytest.raises(DistributionError):
            ctx.distribute(matrix, "Z")

    def test_free_invalidates(self, ctx, matrix):
        h = ctx.distribute(matrix)
        ctx.free(h)
        with pytest.raises(DistributionError):
            ctx.gather(h)

    def test_foreign_handle_rejected(self, ctx, matrix):
        other = DistContext(nprocs=4)
        h = other.distribute(matrix)
        with pytest.raises(DistributionError):
            ctx.gather(h)

    def test_free_refuses_a_foreign_handle(self, ctx, matrix):
        """Keys used to be per-context counters from 0 and ``free``
        skipped the ownership check: freeing another context's handle
        silently dropped *this* context's tile with the same key."""
        mine = ctx.distribute(matrix)
        other = DistContext(nprocs=4)
        theirs = other.distribute(matrix)
        assert mine.key != theirs.key
        with pytest.raises(DistributionError):
            ctx.free(theirs)
        assert mine.to_global().allclose(matrix)
        assert theirs.to_global().allclose(matrix)

    def test_double_free_is_a_noop(self, ctx, matrix):
        h = ctx.distribute(matrix)
        keep = ctx.distribute(matrix)
        ctx.free(h)
        ctx.free(h)
        assert ctx.memory_bytes() == matrix.nnz * 24
        assert keep.to_global().allclose(matrix)

    def test_freed_handle_reads_raise_typed_errors(self, ctx, matrix):
        h = ctx.distribute(matrix)
        ctx.free(h)
        with pytest.raises(DistributionError):
            h.nnz  # noqa: B018 - used to be a bare KeyError
        assert "freed" in repr(h)
        with pytest.raises(DistributionError):
            h.tile(0)  # the tiles live in the ranks

    def test_freed_tiles_leave_the_ranks(self, ctx, matrix):
        h = ctx.distribute(matrix)
        ctx.free(h)
        ctx.distribute(matrix)  # frees ride the next region
        assert all(h.key not in store for store in ctx._world.stores)

    def test_memory_accounting(self, ctx, matrix):
        before = ctx.memory_bytes()
        ctx.distribute(matrix)
        assert ctx.memory_bytes() == before + matrix.nnz * 24

    def test_repr(self, ctx, matrix):
        assert "layout='A'" in repr(ctx.distribute(matrix))


class TestRedistribute:
    @pytest.mark.parametrize("nprocs,layers", [(4, 1), (8, 2), (16, 4)])
    def test_a_to_b_roundtrip(self, matrix, nprocs, layers):
        ctx = DistContext(nprocs=nprocs, layers=layers)
        ha = ctx.distribute(matrix, "A")
        hb = ctx.redistribute(ha, "B")
        # on a 2D grid "A" and "B" are the same ranges: nothing to move
        assert (hb is ha) == (layers == 1)
        assert hb.layout == ("A" if layers == 1 else "B")
        assert hb.to_global().allclose(matrix)
        back = ctx.redistribute(hb, "A")
        assert back.to_global().allclose(matrix)

    def test_same_layout_is_identity(self, ctx, matrix):
        h = ctx.distribute(matrix, "A")
        assert ctx.redistribute(h, "A") is h

    def test_redistribution_metered(self, matrix):
        ctx = DistContext(nprocs=8, layers=2)
        h = ctx.distribute(matrix, "A")
        ctx.redistribute(h, "B")
        assert ctx.tracker.total_bytes("Redistribute") > 0

    def test_preserves_nnz(self, matrix):
        ctx = DistContext(nprocs=8, layers=2)
        h = ctx.distribute(matrix, "A")
        moved = ctx.redistribute(h, "B")
        assert moved is not h and moved.nnz == matrix.nnz


class TestMultiply:
    @pytest.mark.parametrize("nprocs,layers", [(4, 1), (8, 2), (16, 4)])
    @pytest.mark.parametrize("batches", [1, 3])
    def test_matches_local(self, matrix, nprocs, layers, batches):
        ctx = DistContext(nprocs=nprocs, layers=layers)
        ha = ctx.distribute(matrix, "A")
        hb = ctx.distribute(matrix, "B")
        hc, result = ctx.multiply(ha, hb, batches=batches)
        assert hc.to_global().allclose(multiply(matrix, matrix))
        assert result.batches == batches
        assert result.matrix is None

    def test_chained_squaring(self, matrix):
        """The HipMCL pattern: square, redistribute, square again —
        no global matrix ever re-distributed from scratch."""
        ctx = DistContext(nprocs=4)
        ha = ctx.distribute(matrix, "A")
        hb = ctx.distribute(matrix, "B")
        hc, _ = ctx.multiply(ha, hb, batches=2)
        hc_b = ctx.redistribute(hc, "B")
        hc2, _ = ctx.multiply(ha, hc_b, batches=2)
        expected = multiply(matrix, multiply(matrix, matrix))
        assert hc2.to_global().allclose(expected)

    def test_layout_enforced(self, matrix):
        ctx = DistContext(nprocs=8, layers=2)  # where "A" and "B" differ
        ha = ctx.distribute(matrix, "A")
        hb = ctx.distribute(matrix, "B")
        with pytest.raises(DistributionError):
            ctx.multiply(hb, hb)
        with pytest.raises(DistributionError):
            ctx.multiply(ha, ha)

    def test_shape_mismatch(self, ctx):
        a = ctx.distribute(random_sparse(10, 12, nnz=20, seed=143), "A")
        b = ctx.distribute(random_sparse(9, 10, nnz=20, seed=144), "B")
        with pytest.raises(ShapeError):
            ctx.multiply(a, b)

    def test_memory_budget_batching(self, matrix):
        ctx = DistContext(nprocs=4)
        ha = ctx.distribute(matrix, "A")
        hb = ctx.distribute(matrix, "B")
        budget = 8 * matrix.nnz * 24
        hc, result = ctx.multiply(ha, hb, batches=None, memory_budget=budget)
        assert result.batches >= 1
        assert hc.to_global().allclose(multiply(matrix, matrix))

    def test_semiring(self, ctx, matrix):
        ha = ctx.distribute(matrix, "A")
        hb = ctx.distribute(matrix, "B")
        hc, _ = ctx.multiply(ha, hb, semiring=MIN_PLUS)
        assert hc.to_global().allclose(multiply(matrix, matrix, semiring=MIN_PLUS))

    def test_rectangular_chain(self, ctx):
        a = random_sparse(24, 30, nnz=150, seed=145)
        b = random_sparse(30, 18, nnz=140, seed=146)
        ha = ctx.distribute(a, "A")
        hb = ctx.distribute(b, "B")
        hc, _ = ctx.multiply(ha, hb)
        assert hc.shape == (24, 18)
        assert hc.to_global().allclose(multiply(a, b))


class TestResidentPostprocess:
    def test_pruning_inside_resident_multiply(self, matrix):
        """HipMCL's access pattern on resident matrices: prune each batch
        of the product inside the multiply."""
        from repro.sparse.ops import prune_topk_per_column

        ctx = DistContext(nprocs=4)
        ha = ctx.distribute(matrix, "A")
        hb = ctx.distribute(matrix, "B")

        def prune(batch, c0, c1, block):
            return prune_topk_per_column(block, 5)

        hc, _ = ctx.multiply(ha, hb, batches=2, postprocess=prune)
        pruned = hc.to_global()
        expected = prune_topk_per_column(multiply(matrix, matrix), 5)
        assert pruned.allclose(expected)

    def test_resident_squaring_chain_with_pruning(self, matrix):
        from repro.sparse.ops import prune_topk_per_column

        def prune(batch, c0, c1, block):
            return prune_topk_per_column(block, 8)

        ctx = DistContext(nprocs=4)
        ha = ctx.distribute(matrix, "A")
        hb = ctx.distribute(matrix, "B")
        hc, _ = ctx.multiply(ha, hb, batches=2, postprocess=prune)
        hc2, _ = ctx.multiply(
            ctx.redistribute(hc, "A"), ctx.redistribute(hc, "B"),
            batches=2, postprocess=prune,
        )
        m1 = prune_topk_per_column(multiply(matrix, matrix), 8)
        m2 = prune_topk_per_column(multiply(m1, m1), 8)
        assert hc2.to_global().allclose(m2)


class TestDistributedTranspose:
    @pytest.mark.parametrize("nprocs,layers", [(4, 1), (16, 4)])
    def test_a_handle_becomes_bt(self, nprocs, layers):
        from repro.sparse import transpose

        a = random_sparse(36, 28, nnz=250, seed=351)
        ctx = DistContext(nprocs=nprocs, layers=layers)
        ha = ctx.distribute(a, "A")
        ht = ctx.transpose(ha)
        assert ht.layout == "B"
        assert ht.shape == (28, 36)
        assert ht.to_global().allclose(transpose(a))

    def test_b_handle_becomes_at(self):
        from repro.sparse import transpose

        a = random_sparse(30, 30, nnz=200, seed=352)
        ctx = DistContext(nprocs=4)
        hb = ctx.distribute(a, "B")
        ht = ctx.transpose(hb)
        assert ht.layout == "A"
        assert ht.to_global().allclose(transpose(a))

    def test_resident_aat(self):
        """The BELLA workload on resident matrices: A @ Aᵀ without ever
        assembling either operand globally."""
        from repro.sparse import multiply, transpose

        a = random_sparse(32, 48, nnz=300, seed=353)
        ctx = DistContext(nprocs=4)
        ha = ctx.distribute(a, "A")
        hat = ctx.transpose(ha)      # Aᵀ in B layout: ready to multiply
        hc, _ = ctx.multiply(ha, hat, batches=2)
        assert hc.to_global().allclose(multiply(a, transpose(a)))

    def test_transpose_metered(self):
        a = random_sparse(24, 24, nnz=120, seed=354)
        ctx = DistContext(nprocs=4)
        ctx.transpose(ctx.distribute(a, "A"))
        assert ctx.tracker.total_bytes("Transpose") > 0

    def test_double_transpose_roundtrip(self):
        a = random_sparse(26, 22, nnz=150, seed=355)
        ctx = DistContext(nprocs=4)
        h = ctx.distribute(a, "A")
        back = ctx.transpose(ctx.transpose(h))
        assert back.layout == "A"
        assert back.to_global().allclose(a)

    def test_rejects_product_layout(self):
        a = random_sparse(20, 20, nnz=100, seed=356)
        ctx = DistContext(nprocs=4)
        ha = ctx.distribute(a, "A")
        hb = ctx.distribute(a, "B")
        hc, _ = ctx.multiply(ha, hb, batches=3)
        if hc.layout == "C":
            with pytest.raises(DistributionError):
                ctx.transpose(hc)


class TestLifecycle:
    """Satellite (ISSUE 9): DistContext as a reusable, resource-safe
    context manager — close() always sweeps and is idempotent, closed
    contexts refuse work with a typed error, and the exception path
    cleans up too."""

    def test_context_manager_reuse_within_block(self, matrix):
        with DistContext(nprocs=4) as ctx:
            for _ in range(2):
                ha = ctx.distribute(matrix, "A")
                hb = ctx.distribute(matrix, "B")
                hc, _ = ctx.multiply(ha, hb, batches=2)
                assert hc.to_global().allclose(multiply(matrix, matrix))
                for h in (ha, hb, hc):
                    ctx.free(h)
            assert ctx.memory_bytes() == 0
        assert ctx.closed

    def test_closed_context_refuses_work(self, matrix):
        ctx = DistContext(nprocs=4)
        ctx.distribute(matrix, "A")
        ctx.close()
        with pytest.raises(DistributionError, match="closed"):
            ctx.distribute(matrix, "A")

    def test_close_is_idempotent_and_frees_tiles(self, matrix):
        ctx = DistContext(nprocs=4)
        ctx.distribute(matrix, "A")
        assert ctx.memory_bytes() > 0
        ctx.close()
        assert ctx.memory_bytes() == 0
        ctx.close()  # second close is a no-op
        assert ctx.closed

    def test_exception_path_still_closes(self, matrix):
        ctx = DistContext(nprocs=4)
        with pytest.raises(RuntimeError, match="boom"):
            with ctx:
                ctx.distribute(matrix, "A")
                raise RuntimeError("boom")
        assert ctx.closed
        assert ctx.memory_bytes() == 0

    def test_handle_operations_fail_after_close(self, matrix):
        ctx = DistContext(nprocs=4)
        h = ctx.distribute(matrix, "A")
        ctx.close()
        with pytest.raises(DistributionError):
            ctx.transpose(h)

    def test_process_world_close_sweeps_shm(self, matrix):
        """In the process world every run's shm segments are gone after
        close() — the serving pool relies on this for slot hygiene."""
        before = shm_names()
        ctx = DistContext(nprocs=4, world="processes", timeout=60.0)
        try:
            ha = ctx.distribute(matrix, "A")
            hb = ctx.distribute(matrix, "B")
            hc, _ = ctx.multiply(ha, hb, batches=2)
            assert hc.to_global().allclose(multiply(matrix, matrix))
        finally:
            ctx.close()
        assert shm_names() <= before
        assert ctx.last_world_info.get("world") == "processes"
