"""Integration tests across the full stack.

These exercise the whole pipeline the way the paper's evaluation does:
scaled datasets through BatchedSUMMA3D under memory pressure, applications
over the distributed layer, and metered communication matching the
Table II closed forms.
"""

import math

import pytest

from repro.data import load_dataset, planted_partition
from repro.apps import markov_cluster
from repro.model import comm_complexity
from repro.simmpi import CommTracker
from repro.sparse import multiply, random_sparse
from repro.sparse.matrix import BYTES_PER_NONZERO
from repro.summa import batched_summa3d, summa2d, summa3d


class TestDatasetPipeline:
    @pytest.mark.parametrize("name", ["eukarya", "friendster"])
    def test_scaled_dataset_squaring(self, name):
        spec = load_dataset(name)
        a, b = spec.operands(seed=0)
        expected = multiply(a, b)
        r = batched_summa3d(a, b, nprocs=4, layers=1, batches=2)
        assert r.matrix.allclose(expected)

    def test_memory_constrained_squaring_stays_in_budget(self):
        spec = load_dataset("eukarya")
        a, _ = spec.operands(seed=0)
        budget = 6 * a.nnz * BYTES_PER_NONZERO
        # the paper's memory-constrained usage: batches are consumed, not
        # accumulated — Alg. 3 budgets the per-batch transient state
        r = batched_summa3d(a, a, nprocs=4, layers=1, memory_budget=budget,
                            keep_output=False)
        assert r.batches > 1
        # Alg. 3's denominator subtracts the *stored* input tiles but not
        # the transient broadcast receive buffers (~ one extra A tile and
        # one B tile per stage); the honest meter sees those, so allow 2x.
        assert r.max_local_bytes <= budget / 4 * 2.0
        # and batching genuinely was necessary: unbatched needs more memory
        unbatched = batched_summa3d(a, a, nprocs=4, layers=1, batches=1,
                                    keep_output=False)
        assert unbatched.max_local_bytes > r.max_local_bytes
        # same configuration with the output kept is still correct
        kept = batched_summa3d(a, a, nprocs=4, layers=1, batches=r.batches)
        assert kept.matrix.allclose(multiply(a, a))

    def test_aat_dataset(self):
        spec = load_dataset("rice_kmers")
        a, at = spec.operands(seed=0)
        r = batched_summa3d(a, at, nprocs=4, batches=1)
        assert r.matrix.allclose(multiply(a, at))


class TestCommVolumesMatchModel:
    """The simulator's metered bytes must match Table II's closed forms.

    For the broadcasts the model is exact (every byte of A and B moves a
    known number of times); this is the strongest validation that the
    simulation implements the algorithm the paper analyses.
    """

    @pytest.mark.parametrize("nprocs,layers,batches", [
        (4, 1, 1), (4, 1, 3), (8, 2, 1), (8, 2, 2), (16, 4, 2),
    ])
    def test_abcast_volume(self, nprocs, layers, batches):
        a = random_sparse(48, 48, nnz=600, seed=71)
        tracker = CommTracker()
        batched_summa3d(a, a, nprocs=nprocs, layers=layers, batches=batches,
                        tracker=tracker)
        measured = tracker.by_step()["A-Broadcast"]["nbytes"]
        # every tile of A is broadcast exactly once per batch (summed over
        # all row communicators, stages and layers), so the summed payloads
        # are exactly b * nnz(A) * r plus per-tile indptr metadata
        expected = batches * a.nnz * BYTES_PER_NONZERO
        assert expected <= measured <= expected * 1.35

    def test_abcast_scales_linearly_with_batches(self):
        a = random_sparse(48, 48, nnz=600, seed=72)
        volumes = []
        for b in (1, 2, 4):
            tracker = CommTracker()
            batched_summa3d(a, a, nprocs=4, batches=b, tracker=tracker)
            volumes.append(tracker.by_step()["A-Broadcast"]["nbytes"])
        assert volumes[1] == pytest.approx(2 * volumes[0], rel=0.05)
        assert volumes[2] == pytest.approx(4 * volumes[0], rel=0.05)

    def test_bbcast_volume_batch_invariant(self):
        a = random_sparse(48, 48, nnz=600, seed=73)
        volumes = []
        messages = []
        for b in (1, 4):
            tracker = CommTracker()
            batched_summa3d(a, a, nprocs=4, batches=b, tracker=tracker)
            agg = tracker.by_step()["B-Broadcast"]
            volumes.append(agg["nbytes"])
            messages.append(agg["messages"])
        # bandwidth ~constant (indptr metadata adds a little per batch),
        # message count scales with b (the latency cost the paper notes)
        assert volumes[1] < volumes[0] * 1.5
        assert messages[1] == 4 * messages[0]

    def test_message_counts_match_model(self):
        a = random_sparse(48, 48, nnz=600, seed=74)
        nprocs, layers, batches = 16, 4, 3
        tracker = CommTracker()
        batched_summa3d(a, a, nprocs=nprocs, layers=layers, batches=batches,
                        tracker=tracker)
        agg = tracker.by_step()
        model = comm_complexity(
            nprocs=nprocs, layers=layers, batches=batches,
            nnz_a=a.nnz, nnz_b=a.nnz, flops=1,
        )
        # one metered event per bcast call per communicator; the model's
        # "messages" counts per-process calls: stages * batches
        assert agg["A-Broadcast"]["messages"] == \
            model["A-Broadcast"]["messages"] * layers * int(math.isqrt(nprocs // layers))
        assert agg["AllToAll-Fiber"]["messages"] == \
            batches * (nprocs // layers)


class TestApplicationsUnderPressure:
    def test_mcl_under_memory_pressure_matches_unconstrained(self):
        adj, truth = planted_partition(72, 4, p_in=0.65, p_out=0.02, seed=81)
        free = markov_cluster(adj, nprocs=4, max_iterations=30)
        tight = markov_cluster(
            adj, nprocs=4,
            memory_budget=14 * adj.nnz * BYTES_PER_NONZERO,
            max_iterations=30,
        )
        mapping = {}
        for la, lb in zip(free.labels.tolist(), tight.labels.tolist()):
            assert mapping.setdefault(la, lb) == lb

    def test_2d_3d_equivalence_on_dataset(self):
        spec = load_dataset("friendster")
        a, _ = spec.operands(seed=0)
        r2 = summa2d(a, a, nprocs=4)
        r3 = summa3d(a, a, nprocs=16, layers=4)
        assert r2.matrix.allclose(r3.matrix)


class TestCommunicationAvoidance:
    def test_layers_reduce_abcast_volume(self):
        """The paper's headline mechanism: at fixed p, more layers shrink
        per-process broadcast volume ~ 1/sqrt(l)."""
        a = random_sparse(64, 64, nnz=1000, seed=91)
        volumes = {}
        for layers in (1, 4):
            tracker = CommTracker()
            batched_summa3d(a, a, nprocs=16, layers=layers, batches=2,
                            tracker=tracker)
            volumes[layers] = tracker.by_step()["A-Broadcast"]["total_bytes"]
        assert volumes[4] < volumes[1]

    def test_fiber_volume_grows_with_layers(self):
        a = random_sparse(64, 64, nnz=1000, seed=92)
        volumes = {}
        for layers in (4, 16):
            tracker = CommTracker()
            batched_summa3d(a, a, nprocs=16, layers=layers, batches=1,
                            tracker=tracker)
            volumes[layers] = tracker.by_step()["AllToAll-Fiber"]["total_bytes"]
        assert volumes[16] > volumes[4]


class TestSortOnceRunPath:
    def test_no_hash_unique_on_the_run_path(self, monkeypatch):
        """Driver epilogue, in-band Symbolic, SYMBOLIC3D, kernel, merges
        and the resident gather all group by one sort: none may fall back
        to ``np.unique`` (0.4 s per call on flops-sized keys)."""
        import numpy as np

        from repro.dist import DistContext

        a = random_sparse(96, 96, nnz=900, seed=7)
        expected = multiply(a, a)

        def refuse(*args, **kwargs):
            raise AssertionError("np.unique called on the run path")

        monkeypatch.setattr(np, "unique", refuse)
        r = batched_summa3d(
            a, a, nprocs=16, layers=4,
            memory_budget=12 * a.nnz * BYTES_PER_NONZERO,
        )
        assert r.batches > 1  # the budget made SYMBOLIC3D choose b
        assert r.matrix.allclose(expected)
        with DistContext(nprocs=4, world="threads") as ctx:
            hc, _ = ctx.multiply(ctx.distribute(a, "A"), ctx.distribute(a, "B"))
            assert hc.to_global().allclose(expected)


class TestChunkSizedWorkingSets:
    """The Gustavson property of the local kernels (PR 15): working sets
    are sized by a column chunk and by the matrices, never by ``flops``."""

    def test_multiply_peak_memory_tracks_the_matrices_not_flops(self):
        import tracemalloc

        from repro.data import protein_similarity
        from repro.sparse import symbolic_flops
        from repro.sparse.spgemm import esc

        a = protein_similarity(1500, intra_density=0.35, noise_degree=0.1, seed=5)
        c = multiply(a, a)
        flops = symbolic_flops(a, a)
        assert flops / c.nnz >= 10  # high cf: flops-sized arrays would dwarf C
        assert flops > 8 * esc._CHUNK_PRODUCTS  # and the product spans chunks

        def stored(m):
            return m.indptr.nbytes + m.rowidx.nbytes + m.values.nbytes

        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            multiply(a, a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A, B-sized bookkeeping plus C twice (pieces, then their
        # concatenation), and a dozen chunk-sized temporaries.  Expanding
        # the whole tile instead peaks at ~8 flops-sized arrays — 5x this.
        bound = 3 * (2 * stored(a) + stored(c)) + 12 * esc._CHUNK_PRODUCTS * 8
        assert peak - before < bound
        assert bound < 3 * flops * 8

    def test_no_flops_sized_array_on_the_run_path(self, monkeypatch):
        """A budgeted 3D run and SYMBOLIC3D, with the chunk target far
        below a tile's flops: the full expansion is never built, and no
        array the kernels expand, index or concatenate while they work on
        a tile reaches that tile's flops."""
        import threading

        import numpy as np

        from repro.sparse import symbolic_flops
        from repro.sparse.spgemm import esc, masked, symbolic
        from repro.sparse.spgemm.symbolic import flops_per_column
        from repro.summa import symbolic3d

        target = 64
        a = random_sparse(160, 160, nnz=6000, seed=2)  # work on every tile
        expected = multiply(a, a)
        budget = 12 * a.nnz * BYTES_PER_NONZERO

        def refuse(*args, **kwargs):
            raise AssertionError("full expansion built on the run path")

        tile = threading.local()   # flops of the tile this rank is working on
        checked = {"numeric": 0, "symbolic": 0}
        real_chunks = esc.product_chunks

        def spying_chunks(a_tile, b_tile, semiring):
            flops = symbolic_flops(a_tile, b_tile)
            widest = int(flops_per_column(a_tile, b_tile).max(initial=0))
            if flops >= 4 * (target + widest):   # a tile of many chunks
                tile.flops = flops
                checked["symbolic" if semiring is None else "numeric"] += 1
            try:
                yield from real_chunks(a_tile, b_tile, semiring)
            finally:
                tile.flops = None

        def sized(fn):
            def checking(*args, **kwargs):
                out = fn(*args, **kwargs)
                limit = getattr(tile, "flops", None)
                assert limit is None or out.size < limit, (
                    f"np.{fn.__name__} built {out.size} elements for a tile "
                    f"of {limit} flops")
                return out
            return checking

        monkeypatch.setattr(esc, "_CHUNK_PRODUCTS", target)
        monkeypatch.setattr(esc, "expand_products", refuse)
        for module in (esc, masked, symbolic):
            monkeypatch.setattr(module, "product_chunks", spying_chunks)
        for name in ("repeat", "arange", "concatenate", "zeros", "empty"):
            monkeypatch.setattr(np, name, sized(getattr(np, name)))

        r = batched_summa3d(a, a, nprocs=16, layers=4, memory_budget=budget)
        assert r.batches > 1  # the budget made SYMBOLIC3D choose b
        assert r.matrix.allclose(expected)
        assert checked["numeric"] >= 32 and checked["symbolic"] >= 32
        before = dict(checked)
        sym = symbolic3d(a, a, nprocs=16, layers=4, memory_budget=budget)
        assert sym.batches == r.batches
        assert checked["symbolic"] >= before["symbolic"] + 32
        assert checked["numeric"] == before["numeric"]
