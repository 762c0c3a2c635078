"""Overlap equivalence matrix.

The contract of :mod:`repro.summa.exec`: ``overlap="depth1"`` runs the
*same* rank program as ``overlap="off"`` with stage ``s+1``'s operand
delivery issued early, so every cell of the (backend x merge policy x
layers) matrix must be **bit-identical** between the two — same
indptr/rowidx/values — and must move exactly the same number of bytes per
:class:`CommTracker`.  (That the program itself is Alg. 4, step for step,
is ``test_program_order.py``.)
"""

from collections import Counter

import numpy as np
import pytest

from repro.data.generators import erdos_renyi, rmat
from repro.plan import ExecSpec
from repro.simmpi import CommTracker
from repro.sparse import SparseMatrix
from repro.summa import batched_summa3d
from repro.summa.exec import OVERLAP_MODES
from tests.conftest import to_scipy


def _ones(m: SparseMatrix) -> SparseMatrix:
    """Integer-valued copy: bit-identity then holds regardless of the
    floating-point accumulation order."""
    c = m.canonical()
    coo = to_scipy(c).tocoo()
    return SparseMatrix.from_coo(
        c.nrows, c.ncols, coo.row, coo.col, np.ones(coo.nnz)
    )


@pytest.fixture(scope="module")
def er_pair():
    a = _ones(erdos_renyi(40, avg_degree=4.0, seed=11))
    b = _ones(erdos_renyi(40, avg_degree=4.0, seed=12))
    return a, b, (to_scipy(a) @ to_scipy(b)).toarray()


@pytest.fixture(scope="module")
def rmat_pair():
    a = rmat(5, edge_factor=4, seed=21)  # values="ones" by default
    b = rmat(5, edge_factor=4, seed=22)
    return a, b, (to_scipy(a) @ to_scipy(b)).toarray()


def _identical(x: SparseMatrix, y: SparseMatrix) -> bool:
    x, y = x.canonical(), y.canonical()
    return (
        x.shape == y.shape
        and np.array_equal(x.indptr, y.indptr)
        and np.array_equal(x.rowidx, y.rowidx)
        and np.array_equal(x.values, y.values)
    )


def _run_cell(a, b, expected, *, layers, backend, policy):
    nprocs = 16
    results, trackers = {}, {}
    for overlap in OVERLAP_MODES:
        trackers[overlap] = CommTracker()
        results[overlap] = batched_summa3d(
            a, b, nprocs=nprocs, layers=layers, batches=2,
            comm_backend=backend, merge_policy=policy,
            overlap=overlap, tracker=trackers[overlap],
        )
        assert results[overlap].info["overlap"] == overlap
    off, depth1 = results["off"], results["depth1"]
    assert np.array_equal(off.matrix.to_dense(), expected)
    assert _identical(off.matrix, depth1.matrix)
    # same bytes on the wire: ibcast/isend prefetching re-routes the
    # delivery but never changes what is delivered
    assert (
        trackers["off"].total_bytes() == trackers["depth1"].total_bytes()
    )
    if backend == "sparse":
        # one masked fan-out serves both modes: a blocking stage waits on
        # it at once, a prefetched one later — the same messages either way
        moved = {
            overlap: Counter((e.step, e.op, e.nbytes) for e in t.events)
            for overlap, t in trackers.items()
        }
        assert moved["off"] == moved["depth1"]


@pytest.mark.parametrize("layers", [1, 4])
@pytest.mark.parametrize("policy", ["deferred", "incremental"])
@pytest.mark.parametrize("backend", ["dense", "sparse"])
class TestEquivalenceMatrix:
    def test_er(self, er_pair, backend, policy, layers):
        a, b, expected = er_pair
        _run_cell(a, b, expected, layers=layers, backend=backend,
                  policy=policy)

    def test_rmat(self, rmat_pair, backend, policy, layers):
        a, b, expected = rmat_pair
        _run_cell(a, b, expected, layers=layers, backend=backend,
                  policy=policy)


class TestExecutorRegistry:
    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            ExecSpec(overlap="depth2").validate()

    def test_driver_rejects_unknown_mode(self, er_pair):
        a, b, _ = er_pair
        with pytest.raises(ValueError):
            batched_summa3d(a, b, nprocs=4, overlap="speculative")
