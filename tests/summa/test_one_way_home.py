"""One way home: every finished batch tile leaves its rank through the
run's one sink, so a rank holds one batch of C at a time (Alg. 4).

On a budgeted run whose Alg. 3 picks ``b >= 3``, in both worlds: the
``output_batch`` high water is one batch tile, not their sum; no rank
returns a piece; and the product is the same bits whichever way it is
taken home — kept or not, consumed per batch or not, checkpointed or
not, one-shot or resident.
"""

import itertools

import numpy as np
import pytest

from repro import batched_summa3d
from repro.data.generators import rmat
from repro.dist import DistContext
from repro.grid.distribution import gather_tiles
from repro.plan import ExecSpec
from repro.sparse.matrix import SparseMatrix
from repro.summa import batched

NPROCS = 4
WORLDS = ["threads", "processes"]


@pytest.fixture(scope="module")
def operand():
    return rmat(8, edge_factor=8, seed=3)


@pytest.fixture(scope="module")
def budget(operand):
    # tight enough that Alg. 3 picks four batches on four ranks
    return 10 * operand.nnz * 24


def _bits(m: SparseMatrix) -> tuple:
    return (m.shape, m.indptr.tobytes(), m.rowidx.tobytes(), m.values.tobytes())


@pytest.fixture(scope="module")
def reference(operand, budget):
    r = batched_summa3d(operand, operand, nprocs=NPROCS, memory_budget=budget)
    assert r.batches >= 3
    return r


@pytest.mark.parametrize("world", WORLDS)
def test_a_rank_holds_one_batch_tile(operand, budget, world, monkeypatch):
    tiles = []
    sink = batched._BatchPieceCollector.sink

    def recording(self, batch, r0, c0, tile):
        tiles.append(tile.nbytes)
        return sink(self, batch, r0, c0, tile)

    monkeypatch.setattr(batched._BatchPieceCollector, "sink", recording)
    r = batched_summa3d(
        operand, operand, nprocs=NPROCS, memory_budget=budget, world=world,
    )
    assert r.batches >= 3 and len(tiles) == NPROCS * r.batches
    held = r.memory["categories"]["output_batch"]["high_water"]
    assert 0 < held <= max(tiles)


@pytest.mark.parametrize("world", WORLDS)
def test_a_one_shot_rank_returns_no_pieces(operand, budget, world):
    run = batched.drive(
        operand, operand,
        ExecSpec(nprocs=NPROCS, memory_budget=budget, world=world),
    )
    assert run.result.batches >= 3
    for returned in run.per_rank:
        assert "pieces" not in returned
        assert not any(
            isinstance(value, SparseMatrix) for value in returned.values()
        )
    assert len(run.collector.pieces) == NPROCS * run.result.batches


@pytest.mark.parametrize("world", WORLDS)
@pytest.mark.parametrize(
    "keep_output, consumed, checkpointed",
    [
        combo for combo in itertools.product((True, False), repeat=3)
        if combo[0] or combo[1]  # something takes the product home
    ],
    ids=lambda v: str(v)[0],
)
def test_every_way_home_has_the_same_bits(
    operand, budget, reference, world, keep_output, consumed, checkpointed,
    tmp_path,
):
    seen = {}
    r = batched_summa3d(
        operand, operand, nprocs=NPROCS, memory_budget=budget, world=world,
        keep_output=keep_output,
        on_batch=(lambda batch, spans, m: seen.__setitem__(batch, m))
        if consumed else None,
        checkpoint_dir=str(tmp_path) if checkpointed else None,
    )
    assert r.batches == reference.batches
    want = _bits(reference.matrix)
    if keep_output:
        assert _bits(r.matrix) == want
    else:
        assert r.matrix is None
    if consumed:
        assert sorted(seen) == list(range(r.batches))
        assert _bits(gather_tiles(
            *reference.matrix.shape, [(0, 0, m) for m in seen.values()]
        )) == want


@pytest.mark.parametrize("world", WORLDS)
def test_resident_runs_have_the_global_bits(operand, budget, reference, world):
    with DistContext(NPROCS, world=world) as ctx:
        hc, r = ctx.multiply(
            ctx.distribute(operand, "A"), ctx.distribute(operand, "B"),
            plan=ExecSpec(memory_budget=budget),
        )
        product = hc.to_global()
        x = np.random.default_rng(5).standard_normal((operand.ncols, 3))
        y, dense = ctx.spmm(
            ctx.distribute(operand, "A"), x,
            plan=ExecSpec(batches=reference.batches),
        )
    assert r.batches == reference.batches
    assert _bits(product) == _bits(reference.matrix)
    # a dense product comes back with the region, one tile per rank
    assert dense.batches == reference.batches
    assert np.array_equal(y, batched_summa3d(
        operand, x, nprocs=NPROCS, kernel="spmm", batches=reference.batches,
    ).matrix)
