"""Collective-semantics tests for the simulated MPI communicators."""

import numpy as np
import pytest

from repro.errors import SpmdError
from repro.simmpi import CommTracker, run_spmd


class TestBarrier:
    def test_completes(self):
        out = run_spmd(4, lambda comm: comm.barrier() or comm.rank)
        assert out == [0, 1, 2, 3]


class TestBcast:
    def test_root_value_everywhere(self):
        def prog(comm):
            return comm.bcast(comm.rank * 10, root=2)

        assert run_spmd(4, prog) == [20, 20, 20, 20]

    def test_numpy_payload(self):
        def prog(comm):
            data = np.arange(5) if comm.rank == 0 else None
            return comm.bcast(data, root=0).sum()

        assert run_spmd(3, prog) == [10, 10, 10]

    def test_invalid_root(self):
        with pytest.raises(SpmdError):
            run_spmd(2, lambda comm: comm.bcast(1, root=9))


class TestAllgatherGatherScatter:
    def test_allgather(self):
        out = run_spmd(4, lambda comm: comm.allgather(comm.rank**2))
        assert out[0] == [0, 1, 4, 9]
        assert all(o == out[0] for o in out)

class TestAllreduce:
    def test_sum(self):
        assert run_spmd(4, lambda c: c.allreduce(c.rank + 1)) == [10] * 4

    def test_max_min(self):
        assert run_spmd(4, lambda c: c.allreduce(c.rank, op="max")) == [3] * 4
        assert run_spmd(4, lambda c: c.allreduce(c.rank, op="min")) == [0] * 4

    def test_ndarray_sum(self):
        def prog(comm):
            return comm.allreduce(np.full(3, comm.rank, dtype=float)).tolist()

        assert run_spmd(3, prog) == [[3.0, 3.0, 3.0]] * 3

    def test_unknown_op(self):
        with pytest.raises(SpmdError):
            run_spmd(2, lambda c: c.allreduce(1, op="xor"))

class TestAlltoall:
    def test_transposes_payloads(self):
        def prog(comm):
            send = [(comm.rank, dest) for dest in range(comm.size)]
            return comm.alltoall(send)

        out = run_spmd(3, prog)
        # rank r receives [(src, r) for src in ranks]
        assert out[1] == [(0, 1), (1, 1), (2, 1)]

    def test_wrong_length(self):
        with pytest.raises(SpmdError):
            run_spmd(3, lambda c: c.alltoall([1, 2]))


class TestSplit:
    def test_groups_by_color(self):
        def prog(comm):
            sub = comm.split(color=comm.rank % 2, key=comm.rank)
            return (sub.size, sub.rank, sub.allgather(comm.rank))

        out = run_spmd(4, prog)
        assert out[0] == (2, 0, [0, 2])
        assert out[3] == (2, 1, [1, 3])

    def test_key_orders_members(self):
        def prog(comm):
            # reversed key: highest old rank becomes local 0
            sub = comm.split(color=0, key=comm.size - comm.rank)
            return sub.allgather(comm.rank)

        out = run_spmd(3, prog)
        assert out[0] == [2, 1, 0]

    def test_nested_split(self):
        def prog(comm):
            half = comm.split(color=comm.rank // 2)
            quarter = half.split(color=half.rank % 2)
            return quarter.size

        assert run_spmd(4, prog) == [1, 1, 1, 1]

class TestPointToPoint:
    def test_send_recv(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("hello", dest=1)
                return None
            return comm.recv(source=0)

        assert run_spmd(2, prog) == [None, "hello"]

    def test_fifo_per_source(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, dest=1)
                comm.send(2, dest=1)
                return None
            return [comm.recv(source=0), comm.recv(source=0)]

        assert run_spmd(2, prog) == [None, [1, 2]]

    def test_tags_separate_channels(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=7)
                comm.send("b", dest=1, tag=9)
                return None
            # receive in reverse tag order
            return [comm.recv(source=0, tag=9), comm.recv(source=0, tag=7)]

        assert run_spmd(2, prog) == [None, ["b", "a"]]


class TestFailureSemantics:
    def test_peer_failure_propagates(self):
        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("rank 0 exploded")
            comm.barrier()

        with pytest.raises(SpmdError) as exc_info:
            run_spmd(3, prog, timeout=10)
        assert 0 in exc_info.value.failures
        assert isinstance(exc_info.value.failures[0], RuntimeError)

    def test_mismatched_collectives_timeout(self):
        def prog(comm):
            if comm.rank == 0:
                comm.barrier()
            # rank 1 never joins

        with pytest.raises(SpmdError):
            run_spmd(2, prog, timeout=1.0)

    def test_single_rank_fast_path(self):
        assert run_spmd(1, lambda c: c.allreduce(5)) == [5]

    def test_invalid_nprocs(self):
        with pytest.raises(ValueError):
            run_spmd(0, lambda c: None)


class TestDeterminism:
    def test_float_reduction_deterministic(self):
        def prog(comm):
            return comm.allreduce(0.1 * (comm.rank + 1))

        runs = [run_spmd(8, prog)[0] for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]


class TestStepLabels:
    def test_labels_flow_to_tracker(self):
        tracker = CommTracker()

        def prog(comm):
            with comm.step("phase-x"):
                comm.barrier()
            comm.barrier()

        run_spmd(2, prog, tracker=tracker)
        steps = {e.step for e in tracker.events}
        assert steps == {"phase-x", ""}

    def test_nested_labels_restore(self):
        tracker = CommTracker()

        def prog(comm):
            with comm.step("outer"):
                with comm.step("inner"):
                    comm.barrier()
                comm.barrier()

        run_spmd(2, prog, tracker=tracker)
        assert [e.step for e in tracker.events] == ["inner", "outer"]


class TestNonblocking:
    def test_isend_completes_immediately(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.isend(42, dest=1)
                done, _ = req.test()
                assert done
                return req.wait()
            return comm.recv(source=0)

        assert run_spmd(2, prog) == [None, 42]

    def test_irecv_wait(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("payload", dest=1)
                return None
            return comm.irecv(source=0).wait()

        assert run_spmd(2, prog) == [None, "payload"]

    def test_irecv_test_polls_to_completion(self):
        import time

        def prog(comm):
            if comm.rank == 0:
                time.sleep(0.05)
                comm.send("late", dest=1)
                return None
            req = comm.irecv(source=0)
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                done, value = req.test()
                if done:
                    return value
                time.sleep(0.005)
            return "timed-out"

        assert run_spmd(2, prog) == [None, "late"]

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

        assert run_spmd(2, prog) == [None, 4956]

    def test_test_idempotent_after_completion(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(7, dest=1)
                return None
            req = comm.irecv(source=0)
            assert req.wait() == 7
            assert req.test() == (True, 7)
            assert req.test() == (True, 7)
            return True

        assert run_spmd(2, prog) == [None, True]


class TestIbcast:
    def test_root_born_complete_with_value(self):
        def prog(comm):
            if comm.rank == 1:
                req = comm.ibcast("payload", root=1)
                done, value = req.test()
                assert done
                return value
            return comm.ibcast(None, root=1).wait()

        assert run_spmd(4, prog) == ["payload"] * 4

    def test_numpy_payload(self):
        def prog(comm):
            data = np.arange(6) if comm.rank == 0 else None
            return comm.ibcast(data, root=0).wait().sum()

        assert run_spmd(3, prog) == [15, 15, 15]

    def test_invalid_root(self):
        with pytest.raises(SpmdError):
            run_spmd(2, lambda comm: comm.ibcast(1, root=5))

    def test_tag_separation(self):
        """Two in-flight broadcasts from different roots must not
        cross-match — the property stage-tagged prefetching relies on."""
        def prog(comm):
            r0 = comm.ibcast("from0" if comm.rank == 0 else None,
                             root=0, tag=0)
            r1 = comm.ibcast("from1" if comm.rank == 1 else None,
                             root=1, tag=1)
            return (r0.wait(), r1.wait())

        assert run_spmd(3, prog) == [("from0", "from1")] * 3

    def test_byte_total_matches_bcast(self):
        """ibcast meters (size-1) point-to-point sends whose bytes sum to
        exactly what one blocking bcast records — the executors' byte
        parity rests on this."""
        payload = np.arange(100)

        def blocking(comm):
            comm.bcast(payload if comm.rank == 0 else None, root=0)

        def nonblocking(comm):
            comm.ibcast(payload if comm.rank == 0 else None, root=0).wait()

        t_block, t_nonblock = CommTracker(), CommTracker()
        run_spmd(4, blocking, tracker=t_block)
        run_spmd(4, nonblocking, tracker=t_nonblock)
        assert t_block.total_bytes() == t_nonblock.total_bytes()

    def test_overlap_pattern(self):
        """Compute between issue and wait — the prefetch shape."""
        def prog(comm):
            req = comm.ibcast([1, 2, 3] if comm.rank == 0 else None, root=0)
            local = sum(range(50))
            return local + sum(req.wait())

        assert run_spmd(4, prog) == [1231] * 4
