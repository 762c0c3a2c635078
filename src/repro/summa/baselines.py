"""Related-work baselines: 1D SpGEMM and Cannon's algorithm.

The paper positions SUMMA-based 2D/3D algorithms against two families
(Sec. II-C): **1D distributions**, whose communication does not scale
(every process ends up needing all of B), and **Cannon's algorithm** [33],
a 2D shift-based scheme used by DBCSR [9].  Both are implemented on the
same simulated runtime so their metered communication can be compared
head-to-head with SUMMA — the classic motivation for 2D/3D algorithms
becomes a measurable fact (see ``bench_ablation_baselines``).
"""

from __future__ import annotations

import math
import time

from ..errors import GridError, ShapeError
from ..grid.distribution import gather_tiles
from ..simmpi.comm import DEFAULT_TIMEOUT, SimComm
from ..simmpi.engine import run_spmd
from ..simmpi.tracker import CommTracker
from ..sparse.matrix import SparseMatrix
from ..sparse.merge import merge_partials
from ..sparse.ops import split_bounds, submatrix
from ..sparse.semiring import get_semiring
from ..sparse.spgemm.suite import get_suite
from ..utils.timing import StepTimes
from .result import SummaResult


# --------------------------------------------------------------------- #
# 1D row-distributed SpGEMM
# --------------------------------------------------------------------- #

def _spmd_1d(comm: SimComm, a, b, suite, semiring):
    suite = get_suite(suite)
    semiring = get_semiring(semiring)
    p, rank = comm.size, comm.rank
    row_bounds = split_bounds(a.nrows, p)
    inner_bounds = split_bounds(a.ncols, p)
    a_rows = submatrix(a, int(row_bounds[rank]), int(row_bounds[rank + 1]),
                       0, a.ncols)
    b_rows = submatrix(b, int(inner_bounds[rank]), int(inner_bounds[rank + 1]),
                       0, b.ncols)
    times = StepTimes()

    # the 1D algorithm's downfall: every process must assemble ALL of B
    t0 = time.perf_counter()
    with comm.step("B-Allgather"):
        b_pieces = comm.allgather(b_rows)
    times.add("B-Allgather", time.perf_counter() - t0)
    full_b = gather_tiles(
        b.nrows, b.ncols,
        ((int(inner_bounds[r]), 0, piece) for r, piece in enumerate(b_pieces)),
    )

    t0 = time.perf_counter()
    c_rows = suite.local_multiply(a_rows, full_b, semiring)
    times.add("Local-Multiply", time.perf_counter() - t0)
    return {
        "piece": (int(row_bounds[rank]), 0, c_rows.sort_indices()),
        "times": times,
    }


def spgemm_1d(
    a: SparseMatrix,
    b: SparseMatrix,
    nprocs: int = 4,
    *,
    suite="esc",
    semiring="plus_times",
    tracker: CommTracker | None = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> SummaResult:
    """1D row-distributed SpGEMM baseline.

    Process ``i`` owns row block ``i`` of A and of B; forming its C rows
    requires *all* of B, assembled with one allgather whose aggregate
    volume is ``p * nnz(B)`` — the non-scaling communication the paper's
    Sec. II-C attributes to 1D distributions.
    """
    if a.ncols != b.nrows:
        raise ShapeError(
            f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}"
        )
    if tracker is None:
        tracker = CommTracker()
    per_rank = run_spmd(
        nprocs, _spmd_1d, a, b, suite, semiring,
        tracker=tracker, timeout=timeout,
    )
    matrix = gather_tiles(a.nrows, b.ncols, (r["piece"] for r in per_rank))
    from ..grid.grid3d import ProcGrid3D

    return SummaResult(
        matrix=matrix,
        grid=ProcGrid3D(1, 1),  # placeholder geometry: 1D has no 2D grid
        batches=1,
        step_times=StepTimes.critical_path(r["times"] for r in per_rank),
        per_rank_times=[r["times"] for r in per_rank],
        tracker=tracker,
        max_local_bytes=0,
        info={"algorithm": "1d-row", "nprocs": nprocs},
    )


# --------------------------------------------------------------------- #
# Cannon's algorithm
# --------------------------------------------------------------------- #

def _spmd_cannon(comm: SimComm, a, b, suite, semiring):
    suite = get_suite(suite)
    semiring = get_semiring(semiring)
    q = math.isqrt(comm.size)
    i, j = divmod(comm.rank, q)
    row_bounds = split_bounds(a.nrows, q)
    inner_bounds = split_bounds(a.ncols, q)
    col_bounds = split_bounds(b.ncols, q)

    def a_tile(bi, bj):
        return submatrix(a, int(row_bounds[bi]), int(row_bounds[bi + 1]),
                         int(inner_bounds[bj]), int(inner_bounds[bj + 1]))

    def b_tile(bi, bj):
        return submatrix(b, int(inner_bounds[bi]), int(inner_bounds[bi + 1]),
                         int(col_bounds[bj]), int(col_bounds[bj + 1]))

    # initial skew: row i of A shifted left by i, column j of B up by j
    cur_a = a_tile(i, (j + i) % q)
    cur_b = b_tile((i + j) % q, j)
    times = StepTimes()
    partials = []
    for step in range(q):
        t0 = time.perf_counter()
        partials.append(suite.local_multiply(cur_a, cur_b, semiring))
        times.add("Local-Multiply", time.perf_counter() - t0)
        if step == q - 1:
            break
        # shift A left one position in the row, B up one in the column
        t0 = time.perf_counter()
        with comm.step("Shift"):
            left = i * q + (j - 1) % q
            right = i * q + (j + 1) % q
            up = ((i - 1) % q) * q + j
            down = ((i + 1) % q) * q + j
            comm.send(cur_a, dest=left, tag=1)
            comm.send(cur_b, dest=up, tag=2)
            cur_a = comm.recv(source=right, tag=1)
            cur_b = comm.recv(source=down, tag=2)
        times.add("Shift", time.perf_counter() - t0)
    t0 = time.perf_counter()
    c_local = merge_partials(partials, method="grouped", semiring=semiring)
    times.add("Merge", time.perf_counter() - t0)
    return {
        "piece": (int(row_bounds[i]), int(col_bounds[j]), c_local.sort_indices()),
        "times": times,
    }


def cannon2d(
    a: SparseMatrix,
    b: SparseMatrix,
    nprocs: int = 4,
    *,
    suite="esc",
    semiring="plus_times",
    tracker: CommTracker | None = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> SummaResult:
    """Cannon's algorithm on a square 2D grid (the DBCSR baseline [9, 33]).

    After an initial skew, ``sqrt(p)`` rounds of multiply-and-shift move
    each A tile left and each B tile up by one position; communication is
    nearest-neighbour point-to-point rather than broadcasts.
    """
    if a.ncols != b.nrows:
        raise ShapeError(
            f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}"
        )
    q = math.isqrt(nprocs)
    if q * q != nprocs:
        raise GridError(f"Cannon needs a square process count, got {nprocs}")
    if tracker is None:
        tracker = CommTracker()
    per_rank = run_spmd(
        nprocs, _spmd_cannon, a, b, suite, semiring,
        tracker=tracker, timeout=timeout,
    )
    matrix = gather_tiles(a.nrows, b.ncols, (r["piece"] for r in per_rank))
    from ..grid.grid3d import ProcGrid3D

    return SummaResult(
        matrix=matrix,
        grid=ProcGrid3D(nprocs, 1),
        batches=1,
        step_times=StepTimes.critical_path(r["times"] for r in per_rank),
        per_rank_times=[r["times"] for r in per_rank],
        tracker=tracker,
        max_local_bytes=0,
        info={"algorithm": "cannon", "nprocs": nprocs},
    )
