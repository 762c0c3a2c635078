"""Threads-vs-processes equivalence: same algorithms, bit-identical output.

The threaded simulator is the deterministic reference; the process world
must reproduce it exactly — same products to the last bit, same
communication-meter aggregates, same memory high-water marks.  This is
the contract that makes ``world="processes"`` a pure performance knob.
"""

import numpy as np
import pytest

from repro.dist import DistContext
from repro.simmpi import CommTracker
from repro.sparse import multiply, random_sparse
from repro.summa import (
    batched_summa3d,
    batched_summa3d_rows,
    summa2d,
    summa3d,
    symbolic3d,
)


@pytest.fixture(scope="module")
def operands():
    a = random_sparse(60, 60, nnz=500, seed=31)
    b = random_sparse(60, 60, nnz=500, seed=32)
    return a, b


def dense_equal(x, y):
    return (
        x is not None and y is not None
        and x.nnz == y.nnz
        and np.array_equal(x.to_dense(), y.to_dense())
    )


def by_step(tracker):
    return tracker.by_step()


DRIVERS = {
    "summa2d": lambda a, b, **kw: summa2d(a, b, nprocs=4, **kw),
    "summa3d": lambda a, b, **kw: summa3d(a, b, nprocs=8, layers=2, **kw),
    "batched": lambda a, b, **kw: batched_summa3d(
        a, b, nprocs=4, layers=1, batches=2, **kw
    ),
}


class TestDriverMatrix:
    @pytest.mark.parametrize("overlap", ["off", "depth1"])
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_bit_identical_products_and_meters(
        self, operands, driver, backend, overlap
    ):
        a, b = operands
        run = DRIVERS[driver]
        tt, tp = CommTracker(), CommTracker()
        rt = run(a, b, comm_backend=backend, overlap=overlap, tracker=tt)
        rp = run(a, b, comm_backend=backend, overlap=overlap, tracker=tp,
                 world="processes")
        assert dense_equal(rt.matrix, rp.matrix)
        # meter aggregates agree (event order may differ: per-rank
        # streams are merged in rank order, threads interleave live)
        assert by_step(tt) == by_step(tp)
        assert tt.total_bytes() == tp.total_bytes()

    @pytest.mark.parametrize("transport", ["naive", "shm", "auto"])
    def test_every_transport_reproduces_the_reference(
        self, operands, transport
    ):
        a, b = operands
        rt = batched_summa3d(a, b, nprocs=4, batches=2)
        rp = batched_summa3d(a, b, nprocs=4, batches=2,
                             world="processes", transport=transport)
        assert dense_equal(rt.matrix, rp.matrix)
        assert rp.info["world"]["transport"] == transport

    @pytest.mark.parametrize("tier", ["unsorted-hash", "sorted-heap"])
    def test_a_kernel_tier_reproduces_the_reference(self, operands, tier):
        a, b = operands
        kw = dict(nprocs=4, batches=2, kernel=f"spgemm:{tier}")
        rt = batched_summa3d(a, b, **kw)
        rp = batched_summa3d(a, b, world="processes", **kw)
        assert dense_equal(rt.matrix, rp.matrix)
        assert rp.info["kernel"] == f"spgemm:{tier}"

    def test_memory_reports_match(self, operands):
        a, b = operands
        kw = dict(nprocs=4, batches=2, memory_budget=4 * 10**6)
        rt = batched_summa3d(a, b, **kw)
        rp = batched_summa3d(a, b, world="processes", **kw)
        mt, mp_ = rt.memory, rp.memory
        assert mt["high_water_total"] == mp_["high_water_total"]
        cats_t = {k: v["high_water"] for k, v in mt["categories"].items()}
        cats_p = {k: v["high_water"] for k, v in mp_["categories"].items()}
        assert cats_t == cats_p


class TestSurfaces:
    def test_symbolic3d(self, operands):
        a, b = operands
        st = symbolic3d(a, b, nprocs=4, memory_budget=4 * 10**5)
        sp = symbolic3d(a, b, nprocs=4, memory_budget=4 * 10**5,
                        world="processes")
        assert st.batches == sp.batches
        assert (st.max_nnz_a, st.max_nnz_b, st.max_nnz_c) == \
               (sp.max_nnz_a, sp.max_nnz_b, sp.max_nnz_c)

    def test_rows_wrapper(self, operands):
        a, b = operands
        rt = batched_summa3d_rows(a, b, nprocs=4, batches=2)
        rp = batched_summa3d_rows(a, b, nprocs=4, batches=2,
                                  world="processes")
        assert dense_equal(rt.matrix, rp.matrix)

    def test_streaming_on_batch_runs_in_the_parent(self, operands):
        a, b = operands
        ref = multiply(a, b)
        seen = {}

        def hook(batch, spans, mat):
            seen[batch] = mat

        result = batched_summa3d(
            a, b, nprocs=4, batches=3, keep_output=False,
            on_batch=hook, world="processes",
        )
        assert result.matrix is None
        assert sorted(seen) == [0, 1, 2]
        assert sum(m.nnz for m in seen.values()) == ref.nnz

    def test_checkpoint_roundtrip(self, operands, tmp_path):
        a, b = operands
        result = batched_summa3d(
            a, b, nprocs=4, batches=2, world="processes",
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        assert result.matrix.allclose(multiply(a, b))
        resumed = batched_summa3d(
            a, b, nprocs=4, batches=2, world="processes",
            checkpoint_dir=str(tmp_path / "ckpt"), resume=True,
        )
        assert dense_equal(resumed.matrix, result.matrix)

    def test_dist_context_multiply(self, operands):
        a, b = operands
        ref = multiply(a, b)
        out = {}
        for world in ("threads", "processes"):
            ctx = DistContext(nprocs=4, world=world)
            ha = ctx.distribute(a, layout="A")
            hb = ctx.distribute(b, layout="B")
            hc, _ = ctx.multiply(ha, hb)
            out[world] = ctx.gather(hc)
        assert out["threads"].allclose(ref)
        assert dense_equal(out["threads"], out["processes"])
