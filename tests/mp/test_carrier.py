"""The process carrier has no helpers: a rank posts without a feeder
thread (what does not fit in a peer's pipe waits in the rank's own
backlog, written from its own waits) and owns its segments without the
resource tracker (a killed parent's names are swept by the next world;
a segment an aborted creator unlinked reads as the abort).
"""

import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import SpmdError
from repro.mp.shm import leaked_segments
from repro.simmpi import run_spmd
from tests.mp.test_resident_world import wait_gone

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                   os.pardir, "src"))


def _python(script: str, **kwargs):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen([sys.executable, "-c", script], env=env,
                            text=True, **kwargs)


def _naive_alltoall(comm):
    piece = 2**20 // 8  # 1 MiB of float64 per destination
    got = comm.alltoall([np.full(piece, 8.0 * comm.rank + dst)
                         for dst in range(comm.size)])
    return all(arr.shape == (piece,) and arr[0] == arr[-1] == 8.0 * src + comm.rank
               for src, arr in enumerate(got))


def test_naive_alltoall_of_mib_pieces_at_p8_completes():
    """Seven 1 MiB pickles per rank fill every pipe at once: a rank that
    blocked writing one would never read the pipes filling up towards
    it.  Posting goes to a backlog instead, written from the waits."""
    out = run_spmd(8, _naive_alltoall, world="processes", transport="naive",
                   timeout=15)
    assert out == [True] * 8


def _late_receiver(comm):
    got = None
    if comm.rank == 1:
        time.sleep(0.3)  # rank 0 aborts and unlinks its broadcast first
    if comm.rank != 3:
        got = comm.bcast(np.arange(50_000.0) if comm.rank == 0 else None)
    if comm.rank == 3:
        raise RuntimeError("boom before the broadcast")
    comm.barrier()
    return got


def test_a_segment_an_aborted_root_unlinked_reads_as_the_abort():
    """The root of a broadcast that aborts unlinks its segment; a
    receiver mapping it later is a cascade of the abort, not a failure
    of its own."""
    with pytest.raises(SpmdError) as info:
        run_spmd(4, _late_receiver, world="processes", transport="shm",
                 timeout=10)
    assert set(info.value.failures) == {3}


def _threads_after_traffic(comm):
    comm.bcast(np.arange(50_000.0) if comm.rank == 0 else None)
    comm.alltoall([np.full(1000, float(comm.rank)) for _ in range(comm.size)])
    comm.send(comm.rank, dest=(comm.rank + 1) % comm.size)
    comm.recv(source=(comm.rank - 1) % comm.size)
    comm.barrier()
    return threading.active_count()


def test_ranks_start_no_thread():
    for transport in ("naive", "shm", "auto"):
        out = run_spmd(4, _threads_after_traffic, world="processes",
                       transport=transport)
        assert out == [1] * 4, transport


_NO_TRACKER = """
import numpy as np
from multiprocessing import resource_tracker
from repro.simmpi import run_spmd

def prog(comm):
    got = comm.bcast(np.arange(50_000.0) if comm.rank == 0 else None)
    return resource_tracker._resource_tracker._pid, got
out = run_spmd(4, prog, world="processes", transport="shm")
assert all(got.sum() == 50_000 * 49_999 / 2 for _, got in out)
print(resource_tracker._resource_tracker._pid, *(pid for pid, _ in out))
"""


def test_a_shm_world_starts_no_resource_tracker():
    """Segments are created, mapped and unlinked by name, so neither the
    parent nor a rank ever registers one with the tracker daemon."""
    proc = _python(_NO_TRACKER, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert out.split() == ["None"] * 5


_KILLED = """
import os
import numpy as np
from repro.mp import DriverCallback
from repro.simmpi import run_spmd

def started(rank, pid):
    print(rank, pid, flush=True)

def prog(comm, started):
    if comm.rank == 0:
        # a segment handed over to rank 1, which never adopts it
        comm.bcast(np.arange(100_000.0))
    started(comm.rank, os.getpid())
    comm.recv(source=1 - comm.rank)  # nobody sends: both block

run_spmd(2, prog, DriverCallback(started), world="processes",
         transport="shm", timeout=60)
"""


def test_a_killed_parents_segments_go_with_the_next_world():
    """Killed mid-region, a parent runs no sweep and its ranks cannot
    unlink a segment they handed over; the next world start removes the
    names of a run whose parent is gone."""
    proc = _python(_KILLED, stdout=subprocess.PIPE)
    dead, pids = f"repro-{proc.pid}-", []
    try:
        pids = [int(proc.stdout.readline().split()[1]) for _ in range(2)]
        assert leaked_segments(dead)  # the subprocess's names, not ours
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        proc.stdout.close()
    assert run_spmd(2, lambda comm: comm.rank, world="processes") == [0, 1]
    assert not leaked_segments(dead)
    # the orphaned ranks notice their parent is gone and leave
    assert wait_gone(pids, 5.0)
