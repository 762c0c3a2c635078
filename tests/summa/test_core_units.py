"""Unit tests for the SPMD core's internal building blocks."""

import pytest

from repro.grid import ProcGrid3D
from repro.grid.distribution import extract_a_tile, extract_b_tile
from repro.simmpi import run_spmd
from repro.sparse import multiply, random_sparse
from repro.kernels.base import TileSource, resolve_tile
from repro.mem import MemoryLedger
from repro.plan import ExecSpec
from repro.summa.core import ALL_STEPS, spmd_batched_summa3d


class TestStepInventory:
    def test_all_seven_paper_steps(self):
        assert ALL_STEPS == (
            "Symbolic", "A-Broadcast", "B-Broadcast", "Local-Multiply",
            "Merge-Layer", "AllToAll-Fiber", "Merge-Fiber",
        )


class TestTileSource:
    def test_wraps_getter(self):
        a = random_sparse(20, 20, nnz=60, seed=411)
        grid = ProcGrid3D(4)
        src = TileSource(20, 20, lambda r: extract_a_tile(a, grid, r))
        assert src.nrows == 20
        for rank in range(4):
            assert src.tile(rank).allclose(extract_a_tile(a, grid, rank))

    def test_operand_tile_dispatch(self):
        a = random_sparse(16, 16, nnz=50, seed=412)
        grid = ProcGrid3D(4)
        # global matrix -> layout-specific extraction
        assert resolve_tile(a, grid, 1, "A", "sparse").allclose(
            extract_a_tile(a, grid, 1)
        )
        assert resolve_tile(a, grid, 2, "B", "sparse").allclose(
            extract_b_tile(a, grid, 2)
        )
        # TileSource -> passthrough regardless of role
        marker = random_sparse(4, 4, nnz=3, seed=413)
        src = TileSource(16, 16, lambda r: marker)
        assert resolve_tile(src, grid, 0, "A", "sparse") is marker
        assert resolve_tile(src, grid, 3, "B", "sparse") is marker


class TestMemoryAccounting:
    """The core meters through :class:`repro.mem.MemoryLedger` (which
    replaced the old boundary-snapshot ``_MemoryMeter``)."""

    def test_high_water_tracks_maximum(self):
        ledger = MemoryLedger()
        base = ledger.acquire("a_piece", 100)
        assert ledger.high_water_total == 100
        transient = ledger.acquire("recv_buffer", 50)
        assert ledger.high_water_total == 150
        ledger.release(transient)
        ledger.acquire("output_batch", 30)
        # lower current totals never regress the mark
        assert ledger.high_water_total == 150
        assert ledger.current_total == 130
        ledger.release(base)

    def test_held_accumulates(self):
        ledger = MemoryLedger()
        for _ in range(3):
            ledger.acquire("output_batch", 40)
        assert ledger.high_water_total == 120


class TestSpmdDirectInvocation:
    def test_core_runs_with_tile_sources(self):
        """The core called directly (no driver) with pre-distributed tiles
        — the contract DistContext builds on."""
        a = random_sparse(24, 24, nnz=120, seed=414)
        grid = ProcGrid3D(4)
        a_src = TileSource(24, 24, lambda r: extract_a_tile(a, grid, r))
        b_src = TileSource(24, 24, lambda r: extract_b_tile(a, grid, r))

        per_rank = run_spmd(
            4, spmd_batched_summa3d, a_src, b_src, grid, ExecSpec(),
            kernel="spgemm", batches=2,
        )
        from repro.grid.distribution import gather_tiles

        pieces = [
            (r0, c0, tile)
            for r in per_rank
            for (_b, r0, c0, tile) in r["pieces"]
        ]
        assert gather_tiles(24, 24, pieces).allclose(multiply(a, a))

    def test_per_rank_payload_fields(self):
        a = random_sparse(16, 16, nnz=60, seed=415)
        grid = ProcGrid3D(4, 1)
        per_rank = run_spmd(
            4, spmd_batched_summa3d, a, a, grid, ExecSpec(),
            kernel="spgemm", batches=1,
        )
        for r in per_rank:
            assert set(r) == {
                "pieces", "times", "batches", "max_local_bytes",
                "fiber_piece_nnz", "info", "trace",
            }
            assert r["batches"] == 1
            assert r["max_local_bytes"] > 0
            assert r["fiber_piece_nnz"] == []  # no fiber steps at l=1

    def test_invalid_merge_policy_rejected(self):
        a = random_sparse(8, 8, nnz=10, seed=416)
        grid = ProcGrid3D(1)
        from repro.errors import SpmdError

        with pytest.raises((ValueError, SpmdError)):
            run_spmd(
                1, spmd_batched_summa3d, a, a, grid,
                ExecSpec(merge_policy="bogus"), kernel="spgemm", batches=1,
            )
