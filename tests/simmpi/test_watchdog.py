"""Hang watchdog: the wait-for graph must distinguish a provable hang
(cyclic deadlock, a peer that exited) from a rank that is merely slow.

The seed's flat timeout treated every stall the same way — wait the full
budget, then blame whoever happened to be blocked.  The watchdog keeps a
wait-for graph of blocked ranks and classifies: a cycle observed on two
consecutive sweeps is a deadlock (raised *fast*, long before the flat
timeout); a pending peer whose thread already returned can never arrive
(peer-exited); anything else is slow progress and must NOT trip it.

Every test runs on both carriers: the thread world's watchdog runs in
the blocked ranks, the process world's in the parent, and both give the
same kinds, cycles and dump records.
"""

import time

import pytest

from repro.errors import HangError, SpmdError

from tests.simmpi.worlds import OnThreads, process_twins

# Small flat timeout so the backstop tests stay fast; the watchdog
# interval derives from it (timeout / 20, clamped to [0.05, 1.0]).
TIMEOUT = 12.0

#: what every wait record of a dump names (a worker's also its ``pid``)
DUMP_KEYS = {"rank", "op", "comm", "tag", "op_id", "pending", "blocked_s",
             "heartbeat"}


def _hang_failures(excinfo) -> dict:
    failures = excinfo.value.failures
    hangs = {r: e for r, e in failures.items() if isinstance(e, HangError)}
    assert hangs, f"no HangError among failures: {failures!r}"
    return hangs


class TestDeadlockDetection(OnThreads):
    def test_two_rank_recv_cycle_is_classified_fast(self):
        """rank 0 recvs from 1 while 1 recvs from 0: a provable cycle,
        raised well before the flat timeout and naming both ranks."""

        def prog(comm):
            if comm.rank == 0:
                return comm.recv(source=1, tag=7)
            if comm.rank == 1:
                return comm.recv(source=0, tag=7)
            return None

        t0 = time.monotonic()
        with pytest.raises(SpmdError) as info:
            self.spmd(2, prog, timeout=TIMEOUT)
        elapsed = time.monotonic() - t0
        assert elapsed < TIMEOUT * 0.75, "deadlock should beat the flat timeout"
        hangs = _hang_failures(info)
        err = next(iter(hangs.values()))
        assert err.kind == "deadlock"
        assert set(err.cycle) == {0, 1}
        assert "wait-for cycle" in str(err)
        assert err.context["kind"] == "deadlock"
        assert set(err.context["cycle"]) == {0, 1}

    def test_three_rank_cycle_names_all_ranks(self):
        def prog(comm):
            nxt = (comm.rank + 1) % 3
            return comm.recv(source=nxt, tag=0)

        with pytest.raises(SpmdError) as info:
            self.spmd(3, prog, timeout=TIMEOUT)
        err = next(iter(_hang_failures(info).values()))
        assert err.kind == "deadlock"
        assert set(err.cycle) == {0, 1, 2}

    def test_dump_names_op_peers_and_tag(self):
        def prog(comm):
            if comm.rank == 0:
                return comm.recv(source=1, tag=42)
            if comm.rank == 1:
                return comm.recv(source=0, tag=42)
            return None

        with pytest.raises(SpmdError) as info:
            self.spmd(2, prog, timeout=TIMEOUT)
        err = next(iter(_hang_failures(info).values()))
        assert err.dump, "HangError must carry a per-rank dump"
        for record in err.dump.values():
            assert set(record) == DUMP_KEYS | (
                {"pid"} if self.world == "processes" else set()
            )
            assert record["op"] == "recv"
            assert record["tag"] == 42
            assert "pending" in record and "blocked_s" in record
        assert err.context["op"] == "recv"
        assert err.context["tag"] == 42
        assert err.context["peers"]


class TestPeerExited(OnThreads):
    def test_collective_after_peer_returned(self):
        """A rank that returns without joining the barrier can never
        arrive — classified immediately, not after the flat timeout."""

        def prog(comm):
            if comm.rank == 1:
                return "left early"
            comm.barrier()
            return "never"

        t0 = time.monotonic()
        with pytest.raises(SpmdError) as info:
            self.spmd(3, prog, timeout=TIMEOUT)
        assert time.monotonic() - t0 < TIMEOUT * 0.75
        err = next(iter(_hang_failures(info).values()))
        assert err.kind == "peer-exited"
        assert 1 in err.cycle
        assert "already returned" in str(err)


class TestSlowIsNotHung(OnThreads):
    def test_slow_rank_does_not_trip_watchdog(self):
        """A rank computing past several watchdog sweeps is slow, not
        hung: it holds no wait record, so no cycle can pass through it
        and the collective completes normally once it arrives."""

        def prog(comm):
            if comm.rank == 0:
                time.sleep(2.5)  # several watchdog intervals at TIMEOUT=12
            comm.barrier()
            return comm.allreduce(comm.rank)

        results = self.spmd(3, prog, timeout=TIMEOUT)
        assert results == [3, 3, 3]

    def test_slow_p2p_sender_does_not_trip_watchdog(self):
        def prog(comm):
            if comm.rank == 0:
                time.sleep(2.5)
                comm.send(123, dest=1, tag=5)
                return None
            return comm.recv(source=0, tag=5)

        assert self.spmd(2, prog, timeout=TIMEOUT) == [None, 123]


class TestFlatTimeoutBackstop(OnThreads):
    def test_unclassifiable_stall_still_times_out(self):
        """A stall with no cycle and no exited peer (the stuck rank never
        returns) falls back to the flat timeout with kind='timeout'."""

        def prog(comm):
            if comm.rank == 0:
                time.sleep(4.0)  # far past the flat timeout
                return None
            comm.barrier()
            return None

        with pytest.raises(SpmdError) as info:
            self.spmd(2, prog, timeout=1.5)
        err = next(iter(_hang_failures(info).values()))
        assert err.kind == "timeout"
        assert "timed out" in str(err)


globals().update(process_twins(
    TestDeadlockDetection,
    TestPeerExited,
    TestSlowIsNotHung,
    TestFlatTimeoutBackstop,
))
