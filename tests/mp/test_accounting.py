"""Zero-copy receive accounting: a payload that crosses a process
boundary through shared memory is charged exactly once, to the
receiver's ``recv_buffer`` category, priced identically to an owned
copy.  Double counting would make the process world *appear* to need
more memory than the threaded reference it must reproduce.
"""

import gc

import numpy as np
import pytest

from repro.data.generators import erdos_renyi
from repro.errors import SpmdError
from repro.mem import nbytes_of
from repro.mp.shm import SegmentRegistry, leaked_segments
from repro.mp.transport import ShmTransport
from repro.simmpi import CommTracker, FaultPlan, run_spmd
from repro.sparse import random_sparse
from repro.summa import batched_summa3d


class TestNbytesOf:
    def test_shm_view_prices_like_an_owned_array(self):
        reg = SegmentRegistry("repro-test-acct", rank=0)
        try:
            t = ShmTransport(reg)
            arr = np.arange(5000, dtype=np.float64)
            out = t.decode(t.encode(arr))
            # a zero-copy view reports its mapped extent, same as a copy
            assert nbytes_of(out) == nbytes_of(arr) == arr.nbytes
            del out
        finally:
            gc.collect()
            reg.reap()
            reg.abandon()
        assert leaked_segments("repro-test-acct") == []

    def test_memoryview_reports_mapped_bytes(self):
        buf = memoryview(bytearray(1024))
        assert nbytes_of(buf) == 1024

    def test_containers_of_views_sum_once(self):
        a = np.ones(10, dtype=np.float64)
        assert nbytes_of([a, a[:5]]) == 80 + 40


class TestRecvBufferParity:
    @pytest.mark.parametrize("transport", ["naive", "shm", "auto"])
    def test_recv_buffer_high_water_matches_threads(self, transport):
        """The receive-side charge happens at delivery (once), never in
        transport decode — so every transport meters exactly what the
        threaded world meters."""
        a = random_sparse(80, 80, nnz=2000, seed=17)
        kw = dict(nprocs=4, batches=2, memory_budget=4 * 10**7)
        ref = batched_summa3d(a, a, **kw)
        run = batched_summa3d(a, a, world="processes",
                              transport=transport, **kw)
        cat_ref = ref.memory["categories"]["recv_buffer"]
        cat_run = run.memory["categories"]["recv_buffer"]
        assert cat_run["high_water"] == cat_ref["high_water"]
        assert run.memory["high_water_total"] == \
            ref.memory["high_water_total"]


def _bcast_barrier_raise(comm):
    comm.bcast(np.arange(64.0) if comm.rank == 0 else None, root=0)
    comm.barrier()
    if comm.rank == 1:
        raise ValueError("boom")
    comm.barrier()  # never completes: rank 1 is gone


class TestAbortedRegionsAreMetered:
    """A region that aborts still moved what it moved: every rank that
    reports — returned or raised — ships its tracker events and
    transport counters, and the parent merges them either way.  (They
    used to ride ``("done", ...)`` reports only, so a re-batched or
    repaired run under-reported by a whole region.)"""

    def test_a_raising_region_reports_its_traffic(self):
        meters = {}
        for world in ("threads", "processes"):
            tracker, info = CommTracker(), {}
            with pytest.raises(SpmdError) as err:
                run_spmd(4, _bcast_barrier_raise, world=world, timeout=15.0,
                         tracker=tracker, world_info=info, transport="naive")
            assert isinstance(err.value.failures[1], ValueError)
            meters[world] = (tracker.total_bytes(), len(tracker.events))
            if world == "processes":
                assert info["naive_msgs"] > 0
        # one broadcast and one barrier completed before anyone raised
        assert meters["processes"] == meters["threads"]
        assert meters["threads"][1] == 2

    def test_rebatched_run_meters_agree_across_worlds(self):
        a = erdos_renyi(96, avg_degree=6.0, seed=23)
        meters = {}
        for world in ("threads", "processes"):
            tracker = CommTracker()
            result = batched_summa3d(
                a, a, nprocs=4, batches=4, tracker=tracker, timeout=30,
                faults=FaultPlan(["mem-pressure:rank=0,batch=1,stage=0"]),
                world=world,
            )
            assert result.info["resilience"]["rebatched"] == [
                {"from": 4, "to": 8}
            ]
            meters[world] = (tracker.total_bytes(), len(tracker.events))
        (tb, te), (pb, pe) = meters["threads"], meters["processes"]
        # Equal — except that rank 0's abort races one broadcast, the
        # aborted batch's first on the row communicator rank 0 is not in:
        # its root always records it in the process world (at the send),
        # the thread world only if both members met first (it lost 31 of
        # 300 runs).  Dropping the aborted region loses 9 events.
        assert 0 <= pe - te <= 1, meters
        assert (pb == tb) if pe == te else (pb > tb), meters

    def test_healed_run_meters_are_bounded_by_the_thread_worlds(
        self, tmp_path
    ):
        a = erdos_renyi(96, avg_degree=6.0, seed=23)
        fault_free = CommTracker()
        batched_summa3d(a, a, nprocs=4, batches=4, tracker=fault_free)
        totals = {}
        for world in ("threads", "processes"):
            tracker = CommTracker()
            result = batched_summa3d(
                a, a, nprocs=4, batches=4, tracker=tracker, timeout=30,
                checkpoint_dir=tmp_path / world,
                faults=FaultPlan(["crash:rank=1,batch=2"]),
                heal="spare", world_spares=1, world=world,
            )
            assert result.info["resilience"]["heal"]["heals"] == 1
            totals[world] = tracker.total_bytes()
            # bench_heal's bound: near the fault-free volume
            assert totals[world] < 1.25 * fault_free.total_bytes()
        # the SIGKILLed rank's own unreported events are the only
        # permitted gap; 69 440 B is what the survivors and the repaired
        # region meter (the repaired region alone is about half of it)
        assert 69_440 <= totals["processes"] <= totals["threads"]
