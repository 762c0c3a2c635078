"""Dead inner indices are not distributed.

An inner index ``k`` where ``A(:, k)`` and ``B(k, :)`` are both empty
carries no product term.  A run on global sparse operands hands its ranks
the pair without those indices (``repro.grid.distribution.squeeze_inner``)
while the tile bounds stay the caller's nested split, so every rank holds
the entries it held before, in narrower tiles.  What must not move: the
product bits (against a :class:`~repro.dist.DistContext` run, whose
resident tiles are never squeezed, and against SciPy), every message
count, and every byte the dense collectives ship.
"""

import importlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data import kmer_matrix
from repro.dist import DistContext
from repro.grid import ProcGrid3D, a_tile_range, squeeze_inner
from repro.grid.distribution import Squeezed
from repro.kernels.base import LocalKernel
from repro.plan import ExecSpec
from repro.simmpi import CommTracker, FaultPlan
from repro.sparse import SparseMatrix, random_sparse, transpose
from repro.summa import batched_summa3d, batched_summa3d_rows, run_plan, symbolic3d
from repro.summa import batched as batched_mod

GRIDS = [(1, 1), (4, 1), (8, 2), (16, 4)]
KERNELS = ["spgemm", "masked_spgemm", "spgemm:sorted-heap"]


def with_dead(m, k, n, mode, seed, nnz=90):
    """``(A, B)`` of shapes ``m x k`` and ``k x n`` whose inner indices
    are dead on both sides (``"some"``, ``"all"``), on one side only
    (``"a_only"``, ``"b_only"``) or not deliberately dead (``"none"``).
    Values are positive, so no sum cancels and SciPy's pattern is ours."""
    a = random_sparse(m, k, nnz=min(nnz, m * k), seed=seed)
    b = random_sparse(k, n, nnz=min(nnz, k * n), seed=seed + 1)
    rng = np.random.default_rng(seed)
    dead = {
        "none": np.zeros(k, bool),
        "all": np.ones(k, bool),
    }.get(mode, rng.random(k) < 0.4)

    def drop(x, axis_of_entry):
        rows, cols, vals = x.to_coo()
        keep = ~dead[rows if axis_of_entry == "row" else cols]
        return SparseMatrix.from_coo(
            x.nrows, x.ncols, rows[keep], cols[keep], vals[keep]
        )

    if mode in ("some", "all", "a_only"):
        a = drop(a, "col")
    if mode in ("some", "all", "b_only"):
        b = drop(b, "row")
    return a, b


def to_scipy(x):
    return sp.csc_matrix((x.values, x.rowidx, x.indptr), shape=x.shape)


def bit_identical(x, y):
    return (
        x.shape == y.shape
        and np.array_equal(x.indptr, y.indptr)
        and np.array_equal(x.rowidx, y.rowidx)
        and np.array_equal(x.values, y.values)
    )


def scipy_agrees(c, a, b):
    ref = (to_scipy(a) @ to_scipy(b)).tocsc()
    ref.sort_indices()
    got = to_scipy(c)
    return (
        c.shape == ref.shape
        and np.array_equal(got.indptr, ref.indptr)
        and np.array_equal(got.indices, ref.indices)
        and np.allclose(got.data, ref.data, rtol=1e-12)
    )


def live_count(a, b):
    return int(np.count_nonzero((a.col_nnz() > 0) | (b.T.col_nnz() > 0)))


class TestSqueezeInner:
    def test_drops_exactly_the_indices_dead_on_both_sides(self):
        a, b = with_dead(12, 30, 10, "some", seed=3)
        sa, sb = squeeze_inner(a, b)
        assert isinstance(sa, Squeezed) and isinstance(sb, Squeezed)
        assert (sa.nrows, sa.ncols) == a.shape
        assert (sb.nrows, sb.ncols) == b.shape
        assert sa.matrix.ncols == sb.matrix.nrows == live_count(a, b)
        # the stored pair is the caller's pair with the dead indices cut
        live = sa.live
        assert np.array_equal(
            sa.matrix.to_dense(), a.to_dense()[:, live]
        )
        assert np.array_equal(sb.matrix.to_dense(), b.to_dense()[live, :])

    @pytest.mark.parametrize("mode", ["none", "a_only", "b_only"])
    def test_nothing_dead_on_both_sides_is_not_squeezed(self, mode):
        a, b = with_dead(12, 30, 10, mode, seed=5, nnz=200)
        if live_count(a, b) < a.ncols:
            pytest.skip("the draw left an index dead on both sides")
        sa, sb = squeeze_inner(a, b)
        assert sa is a and sb is b

    def test_non_sparse_pairs_pass_through(self):
        a = random_sparse(6, 6, nnz=4, seed=1)
        x = np.ones((6, 2))
        assert squeeze_inner(a, x) == (a, x)
        sa, sb = squeeze_inner(*with_dead(6, 20, 6, "some", seed=1))
        assert squeeze_inner(sa, sb) == (sa, sb)

    def test_narrow_is_the_prefix_count(self):
        a, b = with_dead(8, 40, 8, "some", seed=9)
        sa, _ = squeeze_inner(a, b)
        alive = np.zeros(41, int)
        alive[1:] = np.cumsum(np.isin(np.arange(40), sa.live))
        for start in range(41):
            for stop in range(start, 41):
                assert sa.narrow(start, stop) == (alive[start], alive[stop])


@st.composite
def cases(draw):
    nprocs, layers = draw(st.sampled_from(GRIDS))
    return dict(
        mode=draw(st.sampled_from(["none", "some", "all", "a_only", "b_only"])),
        shape=(draw(st.integers(4, 24)), draw(st.integers(1, 60)),
               draw(st.integers(4, 24))),
        seed=draw(st.integers(0, 10_000)),
        nprocs=nprocs, layers=layers,
        batches=draw(st.integers(1, 3)),
        backend=draw(st.sampled_from(["dense", "sparse"])),
        overlap=draw(st.sampled_from(["off", "depth1"])),
        kernel=draw(st.sampled_from(KERNELS)),
    )


class TestResidentEquivalence:
    """Global (squeezed) ≡ resident (never squeezed) ≡ SciPy's pattern."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=cases())
    def test_product_bit_identical_to_resident(self, case):
        m, k, n = case["shape"]
        a, b = with_dead(m, k, n, case["mode"], case["seed"])
        batches = min(case["batches"], n)
        spec = ExecSpec(
            batches=batches, kernel=case["kernel"],
            comm_backend=case["backend"], overlap=case["overlap"],
        )
        runtime = {}
        if case["kernel"] == "masked_spgemm":
            runtime["mask"] = random_sparse(m, n, nnz=m * n // 2, seed=7)
        with DistContext(case["nprocs"], case["layers"]) as ctx:
            ha, hb = ctx.distribute(a, "A"), ctx.distribute(b, "B")
            hc, resident = ctx.multiply(ha, hb, plan=spec, **runtime)
            product = hc.to_global()
        glob = run_plan(
            a, b,
            spec.amended(nprocs=case["nprocs"], layers=case["layers"]),
            **runtime,
        )
        assert bit_identical(glob.matrix, product)
        assert resident.info["inner"] == {"n": k, "distributed": k}
        assert glob.info["inner"] == {"n": k, "distributed": live_count(a, b)}
        if case["kernel"] != "masked_spgemm":
            assert scipy_agrees(glob.matrix, a, b)


def unsqueezed(monkeypatch):
    """Run the driver as it ran before dead indices were dropped."""
    monkeypatch.setattr(batched_mod, "squeeze_inner", lambda a, b: (a, b))


def comm_by_step(tracker):
    return {
        step: (agg["messages"], agg["nbytes"])
        for step, agg in tracker.by_step().items()
    }


@pytest.mark.parametrize("backend", ["dense", "sparse"])
@pytest.mark.parametrize("nprocs,layers,batches", [(4, 1, 2), (16, 4, 2)])
def test_meters_unmoved_but_comm_plan(monkeypatch, backend, nprocs, layers,
                                      batches):
    a, b = with_dead(40, 120, 36, "some", seed=11, nnz=400)
    knobs = dict(nprocs=nprocs, layers=layers, batches=batches,
                 comm_backend=backend)
    squeezed_tracker, plain_tracker = CommTracker(), CommTracker()
    squeezed = batched_summa3d(a, b, tracker=squeezed_tracker, **knobs)
    with monkeypatch.context() as patch:
        unsqueezed(patch)
        plain = batched_summa3d(a, b, tracker=plain_tracker, **knobs)
    assert bit_identical(squeezed.matrix, plain.matrix)
    assert squeezed.info["memory"] == plain.info["memory"]
    got, ref = comm_by_step(squeezed_tracker), comm_by_step(plain_tracker)
    assert got.keys() == ref.keys()
    for step in ref:
        assert got[step][0] == ref[step][0], step
        if step == "Comm-Plan":
            # the only bytes that shrink: occupancy masks over the inner
            # dimension
            assert got[step][1] < ref[step][1]
        else:
            assert got[step][1] == ref[step][1], step


class TestKmerTiles:
    def test_a_tile_spans_the_live_indices_of_its_block(self, monkeypatch):
        """Each rank's A tile is as wide as the surviving inner indices of
        the block the caller's nested split gives it."""
        a = kmer_matrix(300, 20_000, kmers_per_seq=15.0, zipf_exponent=0.35,
                        seed=1)
        at = transpose(a)
        nprocs, layers = 16, 4
        widths = {}
        original = LocalKernel.a_tile

        def spy(self, operand, grid, rank):
            tile = original(self, operand, grid, rank)
            widths[rank] = tile.ncols
            return tile

        monkeypatch.setattr(LocalKernel, "a_tile", spy)
        result = batched_summa3d(a, at, nprocs=nprocs, layers=layers,
                                 batches=2, comm_backend="sparse")
        live = a.col_nnz() > 0
        assert live.sum() < a.ncols // 2  # hypersparse: most k-mers unseen
        grid = ProcGrid3D(nprocs, layers)
        for rank in range(nprocs):
            _r0, _r1, c0, c1 = a_tile_range(grid, a.nrows, a.ncols,
                                            *grid.coords(rank))
            assert widths[rank] == int(live[c0:c1].sum())
        assert result.info["inner"] == {
            "n": a.ncols, "distributed": int(live.sum()),
        }
        assert scipy_agrees(result.matrix, a, at)


class TestEdges:
    @pytest.mark.parametrize("world", ["threads", "processes"])
    def test_all_inner_indices_dead(self, world):
        a, b = with_dead(10, 16, 12, "all", seed=2)
        assert a.nnz == b.nnz == 0
        r = batched_summa3d(a, b, nprocs=4, layers=1, batches=2, world=world)
        assert r.matrix.shape == (10, 12) and r.matrix.nnz == 0
        assert r.info["inner"] == {"n": 16, "distributed": 0}

    def test_some_dead_processes_world(self):
        a, b = with_dead(24, 50, 20, "some", seed=4)
        threads = batched_summa3d(a, b, nprocs=8, layers=2, batches=2,
                                  comm_backend="sparse")
        procs = batched_summa3d(a, b, nprocs=8, layers=2, batches=2,
                                comm_backend="sparse", world="processes")
        assert bit_identical(threads.matrix, procs.matrix)

    @pytest.mark.parametrize("inner", [1, 3, 7])
    def test_inner_smaller_than_pc_times_l(self, monkeypatch, inner):
        # pc * l = 8 on a 16-rank, 4-layer grid: some tiles are empty
        a, b = with_dead(20, inner, 18, "some", seed=inner, nnz=60)
        r = batched_summa3d(a, b, nprocs=16, layers=4, batches=2)
        with monkeypatch.context() as patch:
            unsqueezed(patch)
            ref = batched_summa3d(a, b, nprocs=16, layers=4, batches=2)
        assert bit_identical(r.matrix, ref.matrix)
        assert scipy_agrees(r.matrix, a, b)

    def test_a_is_b(self):
        x = random_sparse(40, 40, nnz=120, seed=8)
        rows, cols, vals = x.to_coo()
        keep = (rows % 3 != 0) & (cols % 3 != 0)  # index 3i dead both ways
        a = SparseMatrix.from_coo(40, 40, rows[keep], cols[keep], vals[keep])
        r = batched_summa3d(a, a, nprocs=8, layers=2, batches=2)
        assert r.info["inner"]["distributed"] == live_count(a, a) < 40
        assert scipy_agrees(r.matrix, a, a)

    def test_row_batched(self, monkeypatch):
        a, b = with_dead(30, 60, 26, "some", seed=12)
        r = batched_summa3d_rows(a, b, nprocs=4, layers=1, batches=3)
        with monkeypatch.context() as patch:
            unsqueezed(patch)
            ref = batched_summa3d_rows(a, b, nprocs=4, layers=1, batches=3)
        assert bit_identical(r.matrix, ref.matrix)
        assert r.info["inner"]["distributed"] < 60

    def test_symbolic3d_squeezes_its_pair(self, monkeypatch):
        a, b = with_dead(30, 80, 30, "some", seed=13, nnz=300)
        budget = 6 * a.nnz * 24
        spies = []
        module = importlib.import_module("repro.summa.symbolic3d")

        def spy(x, y):
            spies.append(squeeze_inner(x, y))
            return spies[-1]

        monkeypatch.setattr(module, "squeeze_inner", spy)
        got = symbolic3d(a, b, nprocs=4, layers=1, memory_budget=budget)
        assert len(spies) == 1
        assert all(isinstance(x, Squeezed) for x in spies[0])
        monkeypatch.setattr(module, "squeeze_inner", lambda x, y: (x, y))
        ref = symbolic3d(a, b, nprocs=4, layers=1, memory_budget=budget)
        assert (got.batches, got.max_nnz_a, got.max_nnz_b, got.max_nnz_c) == \
            (ref.batches, ref.max_nnz_a, ref.max_nnz_b, ref.max_nnz_c)
        assert comm_by_step(got.tracker) == comm_by_step(ref.tracker)

    def test_budgeted_run_matches_unsqueezed(self, monkeypatch):
        a, b = with_dead(30, 80, 30, "some", seed=14, nnz=300)
        budget = 8 * a.nnz * 24
        r = batched_summa3d(a, b, nprocs=4, memory_budget=budget)
        with monkeypatch.context() as patch:
            unsqueezed(patch)
            ref = batched_summa3d(a, b, nprocs=4, memory_budget=budget)
        assert r.batches == ref.batches
        assert r.info["symbolic"] == ref.info["symbolic"]
        assert bit_identical(r.matrix, ref.matrix)

    def test_checkpointed_budget_prepass_squeezes(self, tmp_path, monkeypatch):
        # the driver pre-pass hands symbolic3d the caller's pair, and
        # symbolic3d squeezes it
        a, b = with_dead(30, 80, 30, "some", seed=14, nnz=300)
        budget = 8 * a.nnz * 24
        handed = []
        module = importlib.import_module("repro.summa.symbolic3d")

        def spy(x, y):
            handed.append((x, y))
            return squeeze_inner(x, y)

        monkeypatch.setattr(module, "squeeze_inner", spy)
        r = batched_summa3d(a, b, nprocs=4, memory_budget=budget,
                            checkpoint_dir=tmp_path / "ck")
        assert len(handed) == 1 and handed[0][0] is a and handed[0][1] is b
        ref = batched_summa3d(a, b, nprocs=4, memory_budget=budget)
        assert r.batches == ref.batches
        assert bit_identical(r.matrix, ref.matrix)


class TestRecovery:
    @pytest.fixture(scope="class")
    def operands(self):
        return with_dead(36, 90, 36, "some", seed=21, nnz=500)

    @pytest.fixture(scope="class")
    def fault_free(self, operands):
        return batched_summa3d(*operands, nprocs=4, batches=3)

    def test_checkpoint_and_resume(self, tmp_path, operands, fault_free):
        from repro.errors import SpmdError

        with pytest.raises(SpmdError):
            batched_summa3d(
                *operands, nprocs=4, batches=3, timeout=15,
                checkpoint_dir=tmp_path / "ck",
                faults=FaultPlan(["crash:rank=2,batch=1"]),
            )
        r = batched_summa3d(
            *operands, nprocs=4, batches=None, timeout=15,
            checkpoint_dir=tmp_path / "ck", resume=True,
        )
        assert r.info["resilience"]["resumed_from_batch"] == 1
        assert bit_identical(r.matrix, fault_free.matrix)

    @pytest.mark.parametrize("world", ["threads", "processes"])
    def test_heal(self, tmp_path, operands, fault_free, world):
        r = batched_summa3d(
            *operands, nprocs=4, batches=3, timeout=20, world=world,
            checkpoint_dir=tmp_path / "ck", heal=True,
            faults=FaultPlan(["crash:rank=1,batch=1"]),
        )
        assert r.info["resilience"]["heal"]["heals"] == 1
        assert bit_identical(r.matrix, fault_free.matrix)
