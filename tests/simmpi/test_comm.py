"""Collective-semantics tests for the simulated MPI communicators, on
both carriers."""

import numpy as np
import pytest

from repro.errors import SpmdError
from repro.simmpi import CommTracker

from tests.simmpi.worlds import OnThreads, process_twins


class TestBarrier(OnThreads):
    def test_completes(self):
        out = self.spmd(4, lambda comm: comm.barrier() or comm.rank)
        assert out == [0, 1, 2, 3]


class TestBcast(OnThreads):
    def test_root_value_everywhere(self):
        def prog(comm):
            return comm.bcast(comm.rank * 10, root=2)

        assert self.spmd(4, prog) == [20, 20, 20, 20]

    def test_numpy_payload(self):
        def prog(comm):
            data = np.arange(5) if comm.rank == 0 else None
            return comm.bcast(data, root=0).sum()

        assert self.spmd(3, prog) == [10, 10, 10]

    def test_invalid_root(self):
        with pytest.raises(SpmdError):
            self.spmd(2, lambda comm: comm.bcast(1, root=9))


class TestAllgatherGatherScatter(OnThreads):
    def test_allgather(self):
        out = self.spmd(4, lambda comm: comm.allgather(comm.rank**2))
        assert out[0] == [0, 1, 4, 9]
        assert all(o == out[0] for o in out)

class TestAllreduce(OnThreads):
    def test_sum(self):
        assert self.spmd(4, lambda c: c.allreduce(c.rank + 1)) == [10] * 4

    def test_max_min(self):
        assert self.spmd(4, lambda c: c.allreduce(c.rank, op="max")) == [3] * 4
        assert self.spmd(4, lambda c: c.allreduce(c.rank, op="min")) == [0] * 4

    def test_ndarray_sum(self):
        def prog(comm):
            return comm.allreduce(np.full(3, comm.rank, dtype=float)).tolist()

        assert self.spmd(3, prog) == [[3.0, 3.0, 3.0]] * 3

    def test_unknown_op(self):
        with pytest.raises(SpmdError):
            self.spmd(2, lambda c: c.allreduce(1, op="xor"))

class TestAlltoall(OnThreads):
    def test_transposes_payloads(self):
        def prog(comm):
            send = [(comm.rank, dest) for dest in range(comm.size)]
            return comm.alltoall(send)

        out = self.spmd(3, prog)
        # rank r receives [(src, r) for src in ranks]
        assert out[1] == [(0, 1), (1, 1), (2, 1)]

    def test_wrong_length(self):
        with pytest.raises(SpmdError):
            self.spmd(3, lambda c: c.alltoall([1, 2]))


class TestDerive(OnThreads):
    def test_groups_talk_among_themselves(self):
        def prog(comm):
            odd = comm.rank % 2
            sub = comm.derive(odd, [r for r in range(comm.size) if r % 2 == odd])
            return sub.size, sub.rank, sub.allgather(comm.rank), sub.comm_id

        out = self.spmd(4, prog)
        assert [o[:3] for o in out[:2]] == [(2, 0, [0, 2]), (2, 0, [1, 3])]
        assert out[3][:3] == (2, 1, [1, 3])
        # one id per group, equal on its members, extending the parent's
        assert out[0][3] == out[2][3] != out[1][3] == out[3][3]
        assert out[0][3][:1] == ("world",)


class TestPointToPoint(OnThreads):
    def test_send_recv(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("hello", dest=1)
                return None
            return comm.recv(source=0)

        assert self.spmd(2, prog) == [None, "hello"]

    def test_fifo_per_source(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, dest=1)
                comm.send(2, dest=1)
                return None
            return [comm.recv(source=0), comm.recv(source=0)]

        assert self.spmd(2, prog) == [None, [1, 2]]

    def test_tags_separate_channels(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=7)
                comm.send("b", dest=1, tag=9)
                return None
            # receive in reverse tag order
            return [comm.recv(source=0, tag=9), comm.recv(source=0, tag=7)]

        assert self.spmd(2, prog) == [None, ["b", "a"]]


class TestFailureSemantics(OnThreads):
    def test_peer_failure_propagates(self):
        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("rank 0 exploded")
            comm.barrier()

        with pytest.raises(SpmdError) as exc_info:
            self.spmd(3, prog, timeout=10)
        assert 0 in exc_info.value.failures
        assert isinstance(exc_info.value.failures[0], RuntimeError)

    def test_mismatched_collectives_timeout(self):
        def prog(comm):
            if comm.rank == 0:
                comm.barrier()
            # rank 1 never joins

        with pytest.raises(SpmdError):
            self.spmd(2, prog, timeout=1.0)

    def test_single_rank_fast_path(self):
        assert self.spmd(1, lambda c: c.allreduce(5)) == [5]

    def test_invalid_nprocs(self):
        with pytest.raises(ValueError):
            self.spmd(0, lambda c: None)


class TestDeterminism(OnThreads):
    def test_float_reduction_deterministic(self):
        def prog(comm):
            return comm.allreduce(0.1 * (comm.rank + 1))

        runs = [self.spmd(8, prog)[0] for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]


class TestStepLabels(OnThreads):
    def test_labels_flow_to_tracker(self):
        tracker = CommTracker()

        def prog(comm):
            with comm.step("phase-x"):
                comm.barrier()
            comm.barrier()

        self.spmd(2, prog, tracker=tracker)
        steps = {e.step for e in tracker.events}
        assert steps == {"phase-x", ""}

    def test_nested_labels_restore(self):
        tracker = CommTracker()

        def prog(comm):
            with comm.step("outer"):
                with comm.step("inner"):
                    comm.barrier()
                comm.barrier()

        self.spmd(2, prog, tracker=tracker)
        assert [e.step for e in tracker.events] == ["inner", "outer"]


class TestNonblocking(OnThreads):
    def test_isend_completes_immediately(self):
        def prog(comm):
            if comm.rank == 0:
                # buffered: complete before the receiver posts its receive
                done = comm.isend(42, dest=1).wait()
                comm.barrier()
                return done
            comm.barrier()
            return comm.recv(source=0)

        assert self.spmd(2, prog) == [None, 42]

    def test_irecv_wait(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("payload", dest=1)
                return None
            return comm.irecv(source=0).wait()

        assert self.spmd(2, prog) == [None, "payload"]

    def test_overlap_pattern(self):
        """Compute while a message is in flight, then collect it."""
        def prog(comm):
            if comm.rank == 0:
                comm.isend([1, 2, 3], dest=1)
                return None
            req = comm.irecv(source=0)
            local = sum(range(100))  # the overlapped computation
            data = req.wait()
            return local + sum(data)

        assert self.spmd(2, prog) == [None, 4956]


globals().update(process_twins(
    TestBarrier,
    TestBcast,
    TestAllgatherGatherScatter,
    TestAllreduce,
    TestAlltoall,
    TestDerive,
    TestPointToPoint,
    TestFailureSemantics,
    TestDeterminism,
    TestStepLabels,
    TestNonblocking,
))
