"""The way home: what a rank returns, and what it hands a driver
callback, is a message like any other.  Under ``shm`` / ``auto`` its
large arrays ride one segment the driver adopts and only the descriptor
crosses the results pipe; ``naive`` still pickles everything; and on
every way out of a region — success, a raising rank, a killed rank, a
raising driver callback — ``/dev/shm`` and the process table are clean.
"""

import gc
import hashlib
import os
import pickle
import signal
import subprocess
import time
from collections import namedtuple

import numpy as np
import pytest

import repro.summa.batched as batched
from repro.errors import RankCrashError, SpmdError
from repro.mp.bridge import DriverCallback
from repro.mp.engine import ProcessWorld
from repro.mp.shm import SHM_DIR
from repro.mp.transport import AUTO_THRESHOLD
from repro.simmpi.engine import run_spmd
from repro.sparse import SparseMatrix
from repro.summa import batched_summa3d

#: float64s in 1 MB
BIG = 1 << 17

Pair = namedtuple("Pair", "rank data")


def left_behind(seconds: float = 2.0):
    """``(segments, rank workers)`` still around after a short grace."""
    deadline = time.monotonic() + seconds
    while True:
        names = sorted(n for n in os.listdir(SHM_DIR) if n.startswith("repro"))
        workers = subprocess.run(
            ["pgrep", "repro-mp-rank"], capture_output=True, text=True,
        ).stdout.split()
        if not (names or workers) or time.monotonic() >= deadline:
            return names, workers
        time.sleep(0.05)


@pytest.fixture(autouse=True)
def nothing_left_behind():
    gc.collect()  # a context an earlier test dropped stops its world now
    assert left_behind() == ([], [])
    yield
    assert left_behind() == ([], [])


@pytest.fixture
def pipe(monkeypatch):
    """Pickled size of every shipped value that arrives on a results
    pipe: ``[(kind, nbytes), ...]``."""
    seen = []
    real = ProcessWorld._handle

    def recording(self, msg):
        if msg[0] in ("done", "cb"):
            seen.append((msg[0], len(pickle.dumps(msg[2 if msg[0] == "done" else 3]))))
        return real(self, msg)

    monkeypatch.setattr(ProcessWorld, "_handle", recording)
    return seen


def lattice(n: int, per_row: int) -> SparseMatrix:
    """Integer-built input whose values are small multiples of 1/8:
    every product and every sum is exact, so the product's bits do not
    depend on platform, summation order or random-number streams."""
    i = np.repeat(np.arange(n), per_row)
    k = np.tile(np.arange(per_row), n)
    j = (i * i * 31 + 7 * k * k + k) % n
    v = ((i * 13 + k * 7) % 17 + 1) / 8.0
    return SparseMatrix.from_coo(n, n, i, j, v)


def digest(m: SparseMatrix) -> str:
    h = hashlib.sha256()
    for arr in (m.indptr, m.rowidx, m.values):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------- #
# rank bodies
# ---------------------------------------------------------------------- #

def _big(comm):
    data = np.full(BIG, float(comm.rank))
    return {"rank": comm.rank, "data": data, "small": np.arange(8),
            "pair": Pair(comm.rank, data[:4])}


def _late_failure(comm, how):
    """Ranks 1.. post a 1 MB result at once; rank 0 fails after they did."""
    if comm.rank != 0:
        return np.full(BIG, float(comm.rank))
    time.sleep(0.4)
    if how == "raise":
        raise RuntimeError("boom after the peers reported")
    os.kill(os.getpid(), signal.SIGKILL)


def _calls_back(comm, sink):
    sink(comm.rank, np.full(BIG, float(comm.rank)))
    return np.full(BIG, -1.0)


# ---------------------------------------------------------------------- #
# what crosses the pipe
# ---------------------------------------------------------------------- #

class TestWhatCrossesThePipe:
    @pytest.mark.parametrize("transport", ["shm", "auto"])
    def test_large_arrays_ride_a_segment(self, transport, pipe):
        info = {}
        out = run_spmd(4, _big, world="processes", transport=transport,
                       world_info=info)
        assert [kind for kind, _ in pipe] == ["done"] * 4
        assert max(nbytes for _, nbytes in pipe) < AUTO_THRESHOLD
        # the result bytes are shm traffic, one segment per result
        assert info["shm_segments"] == 4
        assert info["shm_bytes"] >= 4 * BIG * 8
        assert info["naive_bytes"] < AUTO_THRESHOLD
        assert info["swept_segments"] == 0
        for rank, value in enumerate(out):
            assert value["rank"] == rank
            assert np.array_equal(value["data"], np.full(BIG, float(rank)))
            # the received-payload rule: read-only views
            assert not value["data"].flags.writeable
            with pytest.raises(ValueError):
                value["data"][0] = 1.0
            # under the floor a value stays inline, typed as it was sent
            assert np.array_equal(value["small"], np.arange(8))
            assert isinstance(value["pair"], Pair)
            assert value["pair"].rank == rank
            assert value["pair"].data.tolist() == [float(rank)] * 4

    def test_a_small_report_creates_no_segment(self, pipe):
        info = {}
        out = run_spmd(4, lambda comm: np.arange(comm.rank + 1.0),
                       world="processes", transport="shm", world_info=info)
        assert info["shm_segments"] == 0 and info["shm_bytes"] == 0
        assert [v.tolist() for v in out] == [[0.0], [0.0, 1.0],
                                             [0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0]]

    def test_naive_stays_naive(self, pipe):
        info = {}
        out = run_spmd(4, _big, world="processes", transport="naive",
                       world_info=info)
        assert info["shm_segments"] == 0 and info["shm_bytes"] == 0
        assert min(nbytes for _, nbytes in pipe) >= BIG * 8
        for rank, value in enumerate(out):
            assert np.array_equal(value["data"], np.full(BIG, float(rank)))
            assert value["data"].flags.writeable  # a pickled copy, as ever
            assert isinstance(value["pair"], Pair)

    def test_views_outlive_the_world(self):
        out = run_spmd(2, _big, world="processes", transport="shm")
        data = [value["data"] for value in out]
        del out
        assert left_behind() == ([], [])
        assert [float(d.sum()) for d in data] == [0.0, float(BIG)]

    def test_an_unpicklable_return_fails_at_the_call_site(self):
        def body(comm):
            return {"data": np.zeros(BIG), "bad": (lambda: None)}

        # the rank's own error, not a silent feeder thread's; the
        # segment it had packed goes with the region's sweep
        with pytest.raises(SpmdError) as err:
            run_spmd(2, body, world="processes", transport="shm")
        assert set(err.value.failures) == {0, 1}


# ---------------------------------------------------------------------- #
# every way out leaves nothing behind (the autouse fixture looks)
# ---------------------------------------------------------------------- #

class TestEveryWayOut:
    @pytest.mark.parametrize("transport", ["shm", "auto"])
    def test_a_rank_raising_after_its_peers_reported(self, transport):
        info = {}
        with pytest.raises(SpmdError) as err:
            run_spmd(4, _late_failure, "raise", world="processes",
                     transport=transport, world_info=info)
        assert isinstance(err.value.failures[0], RuntimeError)
        # the peers' result segments were reaped, not swept up
        assert info["ranks_reporting"] == 3
        assert info["swept_segments"] == 0

    def test_a_rank_killed_while_peers_results_are_posted(self):
        with pytest.raises(SpmdError) as err:
            run_spmd(4, _late_failure, "kill", world="processes",
                     transport="shm")
        crash = err.value.failures[0]
        assert isinstance(crash, RankCrashError)
        assert crash.context["signal"] == "SIGKILL"

    def test_a_driver_callback_raising_mid_region(self):
        got = []

        def sink(rank, data):
            got.append((rank, data))
            if len(got) == 2:
                raise ValueError("boom in the driver")

        with pytest.raises(ValueError, match="boom in the driver"):
            run_spmd(4, _calls_back, DriverCallback(sink),
                     world="processes", transport="shm")
        assert len(got) == 2

    def test_callback_arguments_ride_a_segment(self, pipe):
        got = {}

        def sink(rank, data):
            got[rank] = data

        info = {}
        run_spmd(4, _calls_back, DriverCallback(sink), world="processes",
                 transport="auto", world_info=info)
        assert sorted(kind for kind, _ in pipe) == ["cb"] * 4 + ["done"] * 4
        assert max(nbytes for _, nbytes in pipe) < AUTO_THRESHOLD
        assert info["shm_segments"] == 8
        for rank in range(4):
            assert not got[rank].flags.writeable
            assert np.array_equal(got[rank], np.full(BIG, float(rank)))

    def test_a_megabyte_piece_under_checkpointing(self, tmp_path, pipe,
                                                  monkeypatch):
        a = lattice(2048, 16)
        pieces = []
        real = batched._BatchPieceCollector.sink

        def sink(self, batch, r0, c0, tile):
            pieces.append(tile)
            return real(self, batch, r0, c0, tile)

        monkeypatch.setattr(batched._BatchPieceCollector, "sink", sink)
        want = batched_summa3d(a, a, nprocs=4, batches=2)
        pieces.clear()
        got = batched_summa3d(
            a, a, nprocs=4, batches=2, world="processes", transport="shm",
            checkpoint_dir=str(tmp_path),
        )
        assert digest(got.matrix) == digest(want.matrix)
        assert len(pieces) == 8 and max(t.nbytes for t in pieces) >= 1 << 20
        assert not any(t.values.flags.writeable for t in pieces)
        assert max(nbytes for kind, nbytes in pipe if kind == "cb") < AUTO_THRESHOLD
        assert got.info["world"]["shm_bytes"] >= got.matrix.nnz * 16
        assert got.info["world"]["swept_segments"] == 0


# ---------------------------------------------------------------------- #
# the bits did not move
# ---------------------------------------------------------------------- #

#: sha256 over (indptr, rowidx, values) of ``lattice(384, 12)`` squared,
#: as the parent commit (e40552b: pickled results, sorted gather) returns
#: it from every configuration below
PARENT_COMMIT_BITS = (
    "dd82699961365e9c112f598448a26c85ea8ee44693338d612c855300b282c07b"
)


class TestSameBits:
    @pytest.fixture(scope="class")
    def a(self):
        return lattice(384, 12)

    @pytest.mark.parametrize("grid", [
        dict(nprocs=1, batches=1), dict(nprocs=4, layers=1, batches=1),
        dict(nprocs=8, layers=2, batches=2),
    ], ids=lambda g: "p{nprocs}b{batches}".format(**g))
    def test_threads_match_the_parent_commit(self, a, grid):
        assert digest(batched_summa3d(a, a, **grid).matrix) == PARENT_COMMIT_BITS

    @pytest.mark.parametrize("overlap", ["off", "depth1"])
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("transport", ["naive", "shm", "auto"])
    def test_processes_match_the_parent_commit(self, a, transport, backend,
                                               overlap):
        got = batched_summa3d(
            a, a, nprocs=4, layers=1, batches=1, world="processes",
            transport=transport, comm_backend=backend, overlap=overlap,
        )
        assert digest(got.matrix) == PARENT_COMMIT_BITS
        if transport != "naive":
            # every piece (8.5k nonzeros) went home through a segment
            assert got.info["world"]["shm_bytes"] >= got.matrix.nnz * 16
