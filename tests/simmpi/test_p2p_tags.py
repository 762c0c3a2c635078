"""Point-to-point tag matching and variable-size alltoallv semantics, on
both carriers.

Regression tests for the p2p rework: messages between the same (src, dst)
pair share one non-overtaking queue, but a receive must match *its* tag —
posting receives in a different order than the sends must still deliver
each message to the receive carrying its tag.
"""

import pytest

from repro.errors import SpmdError
from repro.simmpi import CommTracker

from tests.simmpi.worlds import OnThreads, process_twins


class TestTagMatching(OnThreads):
    def test_out_of_order_tags(self):
        # rank 0 sends tag 1 then tag 2; rank 1 receives tag 2 FIRST.
        def prog(comm):
            if comm.rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
                return None
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        assert self.spmd(2, prog)[1] == ("first", "second")

    def test_fifo_within_tag(self):
        # same tag: delivery order must follow send order (non-overtaking)
        def prog(comm):
            if comm.rank == 0:
                for i in range(4):
                    comm.send(i, dest=1, tag=7)
                return None
            return [comm.recv(source=0, tag=7) for _ in range(4)]

        assert self.spmd(2, prog)[1] == [0, 1, 2, 3]

    def test_interleaved_tags_from_isend(self):
        def prog(comm):
            if comm.rank == 0:
                reqs = [comm.isend(10 * t, dest=1, tag=t) for t in (3, 1, 2)]
                for r in reqs:
                    r.wait()
                return None
            return [comm.recv(source=0, tag=t) for t in (1, 2, 3)]

        assert self.spmd(2, prog)[1] == [10, 20, 30]

    def test_distinct_pairs_do_not_interfere(self):
        def prog(comm):
            if comm.rank in (0, 1):
                comm.send(f"from-{comm.rank}", dest=2, tag=5)
                return None
            b = comm.recv(source=1, tag=5)
            a = comm.recv(source=0, tag=5)
            return (a, b)

        assert self.spmd(3, prog)[2] == ("from-0", "from-1")


class TestRequestTest(OnThreads):
    def test_test_claims_atomically(self):
        # two irecvs on the same tag: one message satisfies exactly one
        def prog(comm):
            if comm.rank == 0:
                comm.send("only", dest=1, tag=4)
                comm.send("late", dest=1, tag=4)
                return None
            r1 = comm.irecv(source=0, tag=4)
            r2 = comm.irecv(source=0, tag=4)
            return sorted([r1.wait(), r2.wait()])

        assert self.spmd(2, prog)[1] == ["late", "only"]


class TestAlltoallv(OnThreads):
    def test_per_dest_lists(self):
        def prog(comm):
            send = [f"{comm.rank}->{d}" for d in range(comm.size)]
            return comm.alltoallv(send)

        out = self.spmd(3, prog)
        assert out[1] == ["0->1", "1->1", "2->1"]

    def test_metered_as_alltoallv(self):
        tracker = CommTracker()

        def prog(comm):
            return comm.alltoallv([[comm.rank]] * comm.size)

        self.spmd(4, prog, tracker=tracker)
        ops = {e.op for e in tracker.events}
        assert "alltoallv" in ops

    def test_wrong_length(self):
        with pytest.raises(SpmdError, match="alltoallv needs 2 payloads"):
            self.spmd(2, lambda c: c.alltoallv([1, 2, 3]))


globals().update(process_twins(
    TestTagMatching,
    TestRequestTest,
    TestAlltoallv,
))
