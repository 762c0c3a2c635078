"""Randomised-program validation of the simulated MPI runtime.

Hypothesis generates random sequences of collectives; every rank executes
the same program (the SPMD contract), and each collective's result is
checked against its mathematical definition.  This explores interleavings
and operation mixes far beyond the hand-written unit tests.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi import run_spmd

OPS = ("barrier", "bcast", "allreduce_sum", "allreduce_max", "allgather",
       "alltoall")


@st.composite
def programs(draw):
    length = draw(st.integers(1, 12))
    return [
        (draw(st.sampled_from(OPS)), draw(st.integers(0, 3)))
        for _ in range(length)
    ]


class TestRandomPrograms:
    @settings(max_examples=30, deadline=None)
    @given(programs(), st.integers(2, 6))
    def test_random_collective_sequences(self, program, nprocs):
        def prog(comm):
            trace = []
            for op, arg in program:
                root = arg % comm.size
                if op == "barrier":
                    comm.barrier()
                    trace.append("b")
                elif op == "bcast":
                    value = comm.bcast(comm.rank * 100 + arg, root=root)
                    assert value == root * 100 + arg
                    trace.append(value)
                elif op == "allreduce_sum":
                    total = comm.allreduce(comm.rank + arg)
                    expected = sum(range(comm.size)) + arg * comm.size
                    assert total == expected
                    trace.append(total)
                elif op == "allreduce_max":
                    mx = comm.allreduce(comm.rank * arg, op="max")
                    assert mx == (comm.size - 1) * arg
                    trace.append(mx)
                elif op == "allgather":
                    gathered = comm.allgather(comm.rank + arg)
                    assert gathered == [r + arg for r in range(comm.size)]
                    trace.append(tuple(gathered))
                elif op == "alltoall":
                    received = comm.alltoall(
                        [(comm.rank, dest, arg) for dest in range(comm.size)]
                    )
                    assert received == [
                        (src, comm.rank, arg) for src in range(comm.size)
                    ]
                    trace.append(len(received))
            return tuple(trace)

        results = run_spmd(nprocs, prog, timeout=60)
        assert len(results) == nprocs

    @settings(max_examples=15, deadline=None)
    @given(programs())
    def test_programs_deterministic(self, program):
        def prog(comm):
            acc = 0.0
            for op, arg in program:
                if op == "barrier":
                    comm.barrier()
                else:
                    acc = comm.allreduce(acc + 0.31 * (comm.rank + arg + 1))
            return acc

        first = run_spmd(5, prog, timeout=60)
        second = run_spmd(5, prog, timeout=60)
        assert first == second
