"""Tests for communication metering (tracker + payload sizing)."""

import numpy as np
import pytest

from repro.simmpi import CommTracker, payload_nbytes, run_spmd
from repro.simmpi.tracker import CommEvent
from repro.sparse import random_sparse
from repro.sparse.matrix import BYTES_PER_NONZERO


class TestPayloadNbytes:
    def test_none(self):
        assert payload_nbytes(None) == 0

    def test_scalars(self):
        assert payload_nbytes(5) == 8
        assert payload_nbytes(2.5) == 8
        assert payload_nbytes(True) == 8
        assert payload_nbytes(np.float64(1.0)) == 8

    def test_ndarray(self):
        assert payload_nbytes(np.zeros(10)) == 80

    def test_sparse_matrix_counts_r_bytes(self):
        # exactly r = 24 bytes per nonzero, the paper's accounting —
        # no dense indptr term (hypersparse tiles ship nnz-proportionally)
        m = random_sparse(10, 10, nnz=15, seed=0)
        assert payload_nbytes(m) == 15 * BYTES_PER_NONZERO

    def test_containers(self):
        assert payload_nbytes([1, 2.0]) == 16
        assert payload_nbytes((np.zeros(2), None)) == 16
        assert payload_nbytes({"k": 1}) == 9

    def test_strings_bytes(self):
        assert payload_nbytes(b"abc") == 3
        assert payload_nbytes("abc") == 3

    def test_unsizeable(self):
        with pytest.raises(TypeError):
            payload_nbytes(object())


class TestCommEvent:
    def test_bcast_latency_is_tree_depth(self):
        ev = CommEvent("s", "bcast", 8, 100, 700)
        assert ev.latency_hops() == 3

    def test_alltoall_latency_is_rounds(self):
        ev = CommEvent("s", "alltoall", 4, 100, 400)
        assert ev.latency_hops() == 3

    def test_single_member_free(self):
        assert CommEvent("s", "bcast", 1, 100, 0).latency_hops() == 0


class TestTrackerAggregation:
    def test_by_step(self):
        t = CommTracker()
        t.record("A", "bcast", 4, 100)
        t.record("A", "bcast", 4, 50)
        t.record("B", "alltoall", 2, 10, total_bytes=20)
        agg = t.by_step()
        assert agg["A"]["messages"] == 2
        assert agg["A"]["nbytes"] == 150
        assert agg["B"]["total_bytes"] == 20

    def test_totals(self):
        t = CommTracker()
        t.record("A", "bcast", 4, 100)
        assert t.total_bytes() == 300
        assert t.total_bytes("A") == 300
        assert t.total_bytes("missing") == 0
        assert t.message_count() == 1

    def test_format_table(self):
        t = CommTracker()
        assert "no communication" in t.format_table()
        t.record("A", "bcast", 2, 5)
        assert "A" in t.format_table()


class TestMeteringAccuracy:
    def test_bcast_bytes_counted_once(self):
        tracker = CommTracker()
        payload = np.zeros(100)  # 800 bytes

        def prog(comm):
            comm.bcast(payload if comm.rank == 0 else None, root=0)

        run_spmd(4, prog, tracker=tracker)
        events = [e for e in tracker.events if e.op == "bcast"]
        assert len(events) == 1
        assert events[0].nbytes == 800
        assert events[0].total_bytes == 800 * 3  # three receivers

    def test_alltoall_bytes(self):
        tracker = CommTracker()

        def prog(comm):
            send = [np.zeros(10) for _ in range(comm.size)]  # 80 B each
            comm.alltoall(send)

        run_spmd(3, prog, tracker=tracker)
        ev = [e for e in tracker.events if e.op == "alltoall"][0]
        assert ev.nbytes == 240          # max per-rank send volume
        assert ev.total_bytes == 720     # aggregate

    def test_exactly_one_event_per_collective(self):
        tracker = CommTracker()

        def prog(comm):
            for _ in range(5):
                comm.barrier()

        run_spmd(4, prog, tracker=tracker)
        assert tracker.message_count() == 5
