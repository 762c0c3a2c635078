"""Stress and determinism tests for the SPMD engine at larger rank counts."""

import numpy as np

from repro.simmpi import CommTracker, run_spmd
from repro.summa.verify import verify_installation


class TestEngineStress:
    def test_many_ranks_many_collectives(self):
        """36 ranks x 30 mixed collectives: no deadlock, right answers."""
        def prog(comm):
            total = 0
            for round_ in range(10):
                total += comm.allreduce(comm.rank)
                gathered = comm.allgather(round_)
                assert gathered == [round_] * comm.size
                comm.barrier()
            return total

        p = 36
        expected = 10 * (p * (p - 1) // 2)
        assert run_spmd(p, prog, timeout=60) == [expected] * p

    def test_interleaved_subcommunicators(self):
        """Collectives on parent and child communicators interleave without
        cross-talk."""
        def prog(comm):
            i, j = divmod(comm.rank, 4)
            row = comm.derive(i, [4 * i + c for c in range(4)])
            col = comm.derive(j, [4 * r + j for r in range(4)])
            results = []
            for _ in range(5):
                results.append(row.allreduce(1))
                results.append(comm.allreduce(1))
                results.append(col.allreduce(1))
            return results

        out = run_spmd(16, prog, timeout=60)
        assert all(o == [4, 16, 4] * 5 for o in out)

    def test_heavy_alltoall_payloads(self):
        def prog(comm):
            send = [np.full(1000, comm.rank, dtype=float)
                    for _ in range(comm.size)]
            received = comm.alltoall(send)
            return [float(r[0]) for r in received]

        out = run_spmd(9, prog, timeout=60)
        assert out[4] == [float(s) for s in range(9)]

    def test_run_to_run_determinism_under_stress(self):
        def prog(comm):
            acc = 0.0
            for i in range(8):
                acc = comm.allreduce(acc + 0.1 * (comm.rank + 1) * (i + 1))
            return acc

        runs = [tuple(run_spmd(12, prog, timeout=60)) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_point_to_point_ring_pipeline(self):
        """A token circulates the full ring twice."""
        def prog(comm):
            nxt = (comm.rank + 1) % comm.size
            prev = (comm.rank - 1) % comm.size
            token = comm.rank
            for _ in range(2 * comm.size):
                comm.send(token, dest=nxt)
                token = comm.recv(source=prev)
            return token

        out = run_spmd(8, prog, timeout=60)
        assert out == list(range(8))  # back to the origin after 2 laps

    def test_tracker_thread_safety(self):
        tracker = CommTracker()

        def prog(comm):
            for _ in range(20):
                comm.barrier()

        run_spmd(16, prog, tracker=tracker, timeout=60)
        assert tracker.message_count() == 20


class TestDoctor:
    def test_verify_installation_all_green(self):
        report = verify_installation(nprocs=4)
        assert report.ok, report.summary()
        assert len(report.passed) >= 12

    def test_report_summary_format(self):
        report = verify_installation(nprocs=1)
        text = report.summary()
        assert "checks passed" in text
        assert "FAIL" not in text

    def test_failures_reported_not_raised(self):
        from repro.summa.verify import CheckReport

        report = CheckReport()
        report.record("boom", lambda: (_ for _ in ()).throw(ValueError("x")))
        report.record("fine", lambda: None)
        assert not report.ok
        assert "boom" in report.failed
        assert "fine" in report.passed
        assert "FAIL boom" in report.summary()
