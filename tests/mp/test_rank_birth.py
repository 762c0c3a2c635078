"""What a rank does at birth, and what it meters.

A forked rank inherits its caller's heap, free chunks included.  Under
an allocator that never returns freed memory (the benchmark harness
runs glibc with ``MALLOC_MMAP_MAX_=0`` and a 4 GB trim threshold) those
free pages stay resident in the caller, and a rank that allocated on
them would pay a copy-on-write copy of each.  A rank calls
``malloc_trim(0)`` before it builds its carrier, which drops them from
its own copy of the address space only.  Each rank also reports its
``getrusage`` deltas over a region, summed into the world info.
"""

import json
import os
import subprocess
import sys

import numpy as np

from repro.mp import engine
from repro.plan import ExecSpec
from repro.simmpi import run_spmd
from repro.sparse import multiply, random_sparse
from repro.summa import run_plan
from tests.conftest import shm_names

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                   os.pardir, "src"))
# benchmarks/e2e/run.py's allocator settings: freed heap is never returned
ALLOCATOR_ENV = {
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": "4294967296",
    "MALLOC_TOP_PAD_": "268435456",
}
MIB = 2**20

_FREED_HEAP = """
import json, os
import numpy as np
from repro.simmpi import run_spmd

def rss():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

def body(comm):
    return rss()

arrays = [np.ones(2**20 // 8) for _ in range(64)]
pin = np.ones(16)  # a live array above them keeps the heap top up
del arrays
parent = rss()
print(json.dumps({"parent": parent, "ranks": run_spmd(2, body, world="processes")}))
"""


def test_a_rank_does_not_keep_the_free_heap_it_inherited():
    """The parent frees 64 MiB it keeps resident; its ranks drop them.
    Without the trim each rank's RSS reads within a few MiB of the
    parent's (99 vs 88 MiB on x86-64, glibc 2.36); with it, 24 MiB."""
    env = dict(os.environ, PYTHONPATH=SRC, **ALLOCATOR_ENV)
    out = subprocess.run([sys.executable, "-c", _FREED_HEAP], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.splitlines()[-1])
    assert len(got["ranks"]) == 2
    for rank_rss in got["ranks"]:
        assert rank_rss <= got["parent"] - 48 * MIB, got


def _fresh_array(comm):
    block = np.empty(8 * MIB // 8)
    block[:] = comm.rank  # every page written once
    return float(block[-1])


def test_ranks_report_their_faults_and_cpu_time():
    info: dict = {}
    assert run_spmd(2, _fresh_array, world="processes",
                    world_info=info) == [0.0, 1.0]
    assert info["rank_minflt"] > 0
    assert info["rank_user_s"] + info["rank_sys_s"] > 0


def test_a_c_library_without_malloc_trim_still_starts_a_world(monkeypatch):
    monkeypatch.setattr(engine, "_malloc_trim", None)
    before = shm_names()
    a = random_sparse(120, 120, density=0.05, seed=3)
    result = run_plan(a, a, ExecSpec(nprocs=4, world="processes"))
    expected = multiply(a, a)
    assert np.array_equal(result.matrix.indptr, expected.indptr)
    assert np.array_equal(result.matrix.rowidx, expected.rowidx)
    assert result.matrix.allclose(expected)
    assert shm_names() <= before
