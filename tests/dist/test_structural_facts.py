"""What depends only on structure and geometry is derived once: a layout
the tiles already satisfy launches no region, the grid communicators are
computed and not negotiated, a partition's boundaries are one read-only
table, and the mask of a resident chain travels once.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data import planted_partition
from repro.dist import DistContext
from repro.errors import DistributionError, SpmdError
from repro.grid import GridComms, ProcGrid3D
from repro.plan import ExecSpec
from repro.simmpi.comm import SimComm
from repro.simmpi.engine import open_world, run_spmd
from repro.sparse import SparseMatrix
from repro.sparse.ops import column_sums, scale_columns, split_bounds
from repro.summa import run_plan

WORLDS = ["threads", "processes"]
GRIDS = [(1, 1), (4, 1), (8, 2), (9, 1), (16, 4), (18, 2)]
ROUNDS = 6


@pytest.fixture(scope="module")
def graph():
    # its arrays are above the shm transport's 32 KiB floor
    return planted_partition(300, 6, p_in=0.3, p_out=0.01, seed=1)[0]


def _normalise(batch, c0, c1, block):
    sums = column_sums(block)
    inv = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums != 0)
    return scale_columns(block, inv)


def bit_identical(x, y):
    return all(
        np.array_equal(getattr(x, name), getattr(y, name))
        for name in ("indptr", "rowidx", "values")
    )


def submits(ctx):
    """Every region ``ctx`` submits from now on, as ``(name, kwargs)``."""
    log, real = [], ctx._submit

    def spy(region, **submitted):
        log.append((region, submitted))
        return real(region, **submitted)

    ctx._submit = spy
    return log


def chain(ctx, g, masks):
    """HipMCL's shape, as ``mcl_chain_proc4`` runs it: one masked
    squaring per mask, the product fed back as both operands."""
    ha, hb = ctx.distribute(g, "A"), ctx.distribute(g, "B")
    for mask in masks:
        hc, _ = ctx.multiply(
            ha, hb, kernel="masked_spgemm", mask=mask, postprocess=_normalise,
        )
        ctx.free(ha)
        ctx.free(hb)
        ha, hb = ctx.redistribute(hc, "A"), ctx.redistribute(hc, "B")
        if ha is not hc and hb is not hc:
            ctx.free(hc)
    return ha.to_global()


def global_chain(g, masks, nprocs, layers):
    """The same chain with no context: every round gathers and cuts anew."""
    spec = ExecSpec(nprocs=nprocs, layers=layers, kernel="masked_spgemm")
    m = g
    for mask in masks:
        m = run_plan(m, m, spec, mask=mask, postprocess=_normalise).matrix
    return m


# ---------------------------------------------------------------------- #
# layouts are ranges
# ---------------------------------------------------------------------- #

class TestLayoutsAreRanges:
    @pytest.mark.parametrize("world", WORLDS)
    def test_a_flat_grid_chain_is_six_multiplies_and_nothing_else(
        self, graph, world
    ):
        with DistContext(4, 1, world=world) as ctx:
            log = submits(ctx)
            product = chain(ctx, graph, [graph] * ROUNDS)
            regions = [name for name, _ in log]
            assert regions == ["scatter"] * 2 + ["multiply"] * ROUNDS + ["gather"]
            if world == "processes":  # the world counted the same regions
                assert ctx.last_world_info["region"] == len(regions) - 1
            assert ctx.tracker.total_bytes("Redistribute") == 0
        assert bit_identical(product, global_chain(graph, [graph] * ROUNDS, 4, 1))

    @pytest.mark.parametrize("nprocs,layers", [(8, 2), (16, 4)])
    def test_layers_still_redistribute(self, graph, nprocs, layers):
        with DistContext(nprocs, layers) as ctx:
            log = submits(ctx)
            product = chain(ctx, graph, [graph] * 2)
            # with b = 1 a product nests into "A"; "B" differs from it
            assert [name for name, _ in log].count("redistribute") == 2
            assert ctx.tracker.total_bytes("Redistribute") > 0
        assert bit_identical(
            product, global_chain(graph, [graph] * 2, nprocs, layers)
        )

    def test_an_operand_fits_by_its_ranges_not_its_label(self, graph):
        with DistContext(4, 1) as ctx:
            ha = ctx.distribute(graph, "A")
            assert ctx.redistribute(ha, "B") is ha
            hc, _ = ctx.multiply(ha, ha)  # an "A" label as right operand
            assert (ha.layout, hc.layout) == ("A", "A")
            ref = run_plan(graph, graph, ExecSpec(nprocs=4)).matrix
            assert bit_identical(hc.to_global(), ref)
        with DistContext(8, 2) as ctx:
            ha = ctx.distribute(graph, "A")
            with pytest.raises(DistributionError) as refused:
                ctx.multiply(ha, ha)
            assert str(refused.value) == (
                "right operand must have standard layout 'B' "
                "(got 'A'; redistribute first)"
            )
            hb = ctx.redistribute(ha, "B")
            assert hb is not ha and hb.layout == "B"
            with pytest.raises(DistributionError, match="left operand"):
                ctx.multiply(hb, hb)


# ---------------------------------------------------------------------- #
# grid communicators are derived
# ---------------------------------------------------------------------- #

def _describe(comm):
    return comm.members, comm.rank, comm.size


def _grid_groups(grid, rank):
    """The row, column, fiber and layer of ``rank`` from coordinates
    alone: the ranks that share all of ``(i, j, k)`` but the varying one
    (the layer shares ``k``), ordered by what varies."""
    i, j, k = grid.coords(rank)
    coords = {r: grid.coords(r) for r in range(grid.nprocs)}

    def group(same, order):
        members = [r for r, c in coords.items() if same(c)]
        return tuple(sorted(members, key=lambda r: order(coords[r])))

    return (
        group(lambda c: (c[0], c[2]) == (i, k), lambda c: c[1]),
        group(lambda c: (c[1], c[2]) == (j, k), lambda c: c[0]),
        group(lambda c: c[:2] == (i, j), lambda c: c[2]),
        group(lambda c: c[2] == k, lambda c: c[:2]),
    )


def _build(comm, grid):
    built = GridComms.build(comm, grid)
    comms = (built.row, built.col, built.fiber, built.layer)
    return [_describe(c) for c in comms], [c.comm_id for c in comms]


def _row_size(comm, grid):
    return GridComms.build(comm, grid).row.size


def _two_builds(comm, grid):
    """Two sets of communicators alive at once: what is sent on the
    second set's row first is still received on the second set's row."""
    one, two = GridComms.build(comm, grid), GridComms.build(comm, grid)
    ids = {
        c.comm_id
        for comms in (one, two)
        for c in (comms.row, comms.col, comms.fiber, comms.layer)
    }
    if one.row.rank == 0:
        two.row.send("two", dest=1)
        one.row.send("one", dest=1)
        return len(ids), "one", "two"
    return len(ids), one.row.recv(source=0), two.row.recv(source=0)


def _abort_after_build(comm, grid, *, boom):
    comms = GridComms.build(comm, grid)
    if boom:
        # the row root's broadcast is on the wire when its peer gives up
        if comms.row.rank == 0:
            comms.row.bcast(np.full(8192, 7.0))
            comm.barrier()
        raise RuntimeError("boom after build")
    got = comms.row.bcast(np.full(8192, 1.0) if comms.row.rank == 0 else None)
    return float(got[0]), comms.row.comm_id


class TestGridCommsAreDerived:
    @pytest.mark.parametrize("nprocs,layers", GRIDS)
    def test_groups_are_the_grid_rank_sets(self, nprocs, layers):
        grid = ProcGrid3D(nprocs, layers)
        out = run_spmd(nprocs, _build, grid)
        for rank, (built, _ids) in enumerate(out):
            assert built == [
                (group, group.index(rank), len(group))
                for group in _grid_groups(grid, rank)
            ]
        # one id per group, the same on every member
        for which in range(4):
            by_group = {}
            for (built, ids) in out:
                by_group.setdefault(built[which][0], set()).add(ids[which])
            assert all(len(ids) == 1 for ids in by_group.values())
            assert len({next(iter(ids)) for ids in by_group.values()}) == len(by_group)

    def test_build_needs_no_rendezvous(self, monkeypatch):
        def refuse(self, payload, op):
            raise AssertionError(f"GridComms.build exchanged a {op}")

        monkeypatch.setattr(SimComm, "_relay", refuse)
        assert run_spmd(8, _row_size, ProcGrid3D(8, 2)) == [2] * 8

    @pytest.mark.parametrize("world", WORLDS)
    def test_two_builds_do_not_cross_deliver(self, world):
        out = run_spmd(8, _two_builds, ProcGrid3D(8, 2), world=world)
        assert out == [(8, "one", "two")] * 8

    def test_an_aborted_region_leaves_no_wire_for_the_next(self):
        grid = ProcGrid3D(4, 1)
        world = open_world(4, _abort_after_build, grid, world="processes",
                           transport="shm")
        try:
            with pytest.raises(SpmdError):
                world.submit(boom=True)
            info = {}
            out = world.submit(boom=False, world_info=info)
            assert [value for value, _ in out] == [1.0] * 4
            # the new region's communicators carry its epoch
            assert all(cid[:3] == ("world", "epoch", 1) for _, cid in out)
            assert info["swept_segments"] == 0
        finally:
            world.stop()


# ---------------------------------------------------------------------- #
# geometry is one table
# ---------------------------------------------------------------------- #

def _split_bounds_as_it_was(n, nparts):
    base, extra = divmod(n, nparts)
    sizes = np.full(nparts, base, dtype=np.int64)
    sizes[:extra] += 1
    return np.concatenate(([0], np.cumsum(sizes)))


class TestBoundsAreOneTable:
    @given(n=st.integers(0, 5000), nparts=st.integers(1, 200))
    def test_equal_to_the_array_building_arithmetic(self, n, nparts):
        bounds = split_bounds(n, nparts)
        reference = _split_bounds_as_it_was(n, nparts)
        assert bounds.dtype == reference.dtype
        assert np.array_equal(bounds, reference)

    def test_shared_and_read_only(self):
        bounds = split_bounds(10, 4)
        assert split_bounds(10, 4) is bounds
        assert not bounds.flags.writeable
        with pytest.raises(ValueError):
            bounds[0] = 1
        assert split_bounds(2, 5).tolist() == [0, 1, 2, 2, 2, 2]
        assert split_bounds(0, 3).tolist() == [0, 0, 0, 0]


# ---------------------------------------------------------------------- #
# the mask travels once
# ---------------------------------------------------------------------- #

def pruned(mask, keep_every=3):
    """``mask`` without every ``keep_every``-th entry of each column."""
    keep = np.arange(mask.nnz) % keep_every != 0
    kept = np.concatenate(([0], np.cumsum(keep)))
    return SparseMatrix(
        mask.nrows, mask.ncols, kept[mask.indptr], mask.rowidx[keep],
        mask.values[keep],
    )


class TestTheMaskTravelsOnce:
    @pytest.mark.parametrize("world", WORLDS)
    def test_later_rounds_carry_the_key_alone(self, graph, world):
        with DistContext(4, 1, world=world, transport="shm") as ctx:
            log = submits(ctx)
            infos = []
            ha, hb = ctx.distribute(graph, "A"), ctx.distribute(graph, "B")
            for _ in range(3):
                hc, _ = ctx.multiply(ha, hb, kernel="masked_spgemm", mask=graph)
                infos.append(ctx.last_world_info)
            shipped = [kw["aux"] for name, kw in log if name == "multiply"]
            assert shipped[0] is graph and shipped[1:] == [None, None]
            keys = {kw["aux_key"] for name, kw in log if name == "multiply"}
            assert len(keys) == 1 and None not in keys
            if world == "processes":
                # one copy of the mask per rank, gone from the later rounds
                saved = infos[0]["shm_bytes"] - infos[1]["shm_bytes"]
                assert saved >= 4 * graph.values.nbytes
                assert infos[1]["shm_bytes"] == infos[2]["shm_bytes"]

    @pytest.mark.parametrize("world", WORLDS)
    def test_a_pruned_or_mutated_mask_is_sent_again(self, graph, world):
        spec = ExecSpec(nprocs=4, kernel="masked_spgemm")
        mask = pruned(graph)
        with DistContext(4, 1, world=world, transport="shm") as ctx:
            log = submits(ctx)
            ha, hb = ctx.distribute(graph, "A"), ctx.distribute(graph, "B")

            def follows(m):
                hc, _ = ctx.multiply(ha, hb, kernel="masked_spgemm", mask=m)
                product = hc.to_global()
                assert bit_identical(
                    product, run_plan(graph, graph, spec, mask=m).matrix
                )
                return product

            follows(graph)
            follows(graph)
            follows(mask)
            follows(mask)
            # a held mask's pattern is keyed, and a keyed pattern cannot
            # change in place; its values can — same object, sent again
            with pytest.raises(ValueError):
                mask.rowidx[mask.indptr[:-1][np.diff(mask.indptr) > 0]] = 0
            mask.values[::2] *= 2.0
            follows(mask)
            sent = [kw["aux"] is not None for name, kw in log if name == "multiply"]
            assert sent == [True, False, True, False, True]
            # the ranks keep one mask: each superseded key was freed
            held = [kw["aux_key"] for name, kw in log if name == "multiply"]
            assert ctx._held_aux[1] == held[-1]
            if world == "threads":  # frees ride the next region (the gather)
                for store in ctx._world.stores:
                    assert held[-1] in store
                    assert held[0] not in store and held[2] not in store

    def test_an_amended_run_resends_until_a_region_succeeds(self, graph):
        spec = ExecSpec(batches=2, kernel="masked_spgemm")
        with DistContext(4, 1) as ctx:
            log = submits(ctx)
            ha, hb = ctx.distribute(graph, "A"), ctx.distribute(graph, "B")
            hc, result = ctx.multiply(
                ha, hb, plan=spec, mask=graph,
                faults=["mem-pressure:rank=0,batch=1"],
            )
            hc2, _ = ctx.multiply(ha, hb, plan=spec, mask=graph)
            sent = [kw["aux"] is not None for name, kw in log if name == "multiply"]
            assert result.batches == 4 and sent == [True, True, False]
            assert bit_identical(hc.to_global(), hc2.to_global())
