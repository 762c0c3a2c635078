"""Shared fixtures and oracles for the test suite.

``scipy.sparse`` serves as the independent oracle everywhere: the library
itself never imports it.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, settings

from repro.mp.shm import SHM_DIR
from repro.sparse import SparseMatrix, random_sparse
from repro.sparse.spgemm import esc, symbolic

# SPMD tests spawn threads per example; keep hypothesis example counts sane
settings.register_profile(
    "repro",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


#: ``(esc._TABLE_SUM, esc._TABLE_SEEN, symbolic._BITSET_WORDS)`` that
#: force one accumulate tier whatever a chunk's density or an operand's
#: shape is — the dense table and the bitset count, or the sort and the
#: ESC count — beside the shipped triple (read here, before any option
#: overrides it)
TIER_THRESHOLDS = {
    "table": (1 << 62, 1 << 62, 1 << 62),
    "sort": (-1, -1, -1),
    "default": (esc._TABLE_SUM, esc._TABLE_SEEN, symbolic._BITSET_WORDS),
}


def set_tier(setattr_, name):
    """Put every kernel on tier ``name``, through ``setattr_`` (the
    builtin, or a ``monkeypatch.setattr``)."""
    table_sum, table_seen, bitset_words = TIER_THRESHOLDS[name]
    setattr_(esc, "_TABLE_SUM", table_sum)
    setattr_(esc, "_TABLE_SEEN", table_seen)
    setattr_(symbolic, "_BITSET_WORDS", bitset_words)


def pytest_addoption(parser):
    parser.addoption(
        "--chunk-products", type=int, default=None, metavar="N",
        help="run with the ESC kernels' private column-chunk target set to "
             "N partial products, so that the suite's small matrices span "
             "many chunks (the library itself reads no option)",
    )
    parser.addoption(
        "--accumulate-tier", choices=("table", "sort"), default=None,
        help="force every ESC chunk, Symbolic count and mask filter onto "
             "the dense-table tier (where the semiring's add allows it; "
             "the bitset count for Symbolic) or the sort tier (the ESC "
             "count), by setting the kernels' private density thresholds "
             "(the library itself reads no option)",
    )


def pytest_configure(config):
    target = config.getoption("--chunk-products")
    if target is not None:
        if target < 1:
            raise pytest.UsageError("--chunk-products must be >= 1")
        # set before any rank process forks: workers inherit it
        esc._CHUNK_PRODUCTS = target
    tier = config.getoption("--accumulate-tier")
    if tier is not None:
        set_tier(setattr, tier)


def to_scipy(m: SparseMatrix) -> sp.csc_matrix:
    """Convert to scipy CSC (sorting first; scipy requires sorted indices)."""
    s = m.sort_indices()
    return sp.csc_matrix(
        (s.values, s.rowidx, s.indptr), shape=s.shape
    )


def from_scipy(s) -> SparseMatrix:
    c = sp.csc_matrix(s)
    c.sort_indices()
    c.sum_duplicates()
    return SparseMatrix(
        c.shape[0], c.shape[1], c.indptr.astype(np.int64),
        c.indices.astype(np.int64), c.data.astype(np.float64),
    )


def dense_equal(m: SparseMatrix, dense: np.ndarray, **kw) -> bool:
    return np.allclose(m.to_dense(), dense, **kw)


def shm_names() -> set[str]:
    """The ``/dev/shm`` segment names this process's worlds own.

    Every segment of a process world carries its parent's run prefix
    ``repro-<pid>-`` (``repro.mp.engine._fresh_run_id``), so a world
    another process runs beside the suite is not this suite's leak.  A
    world whose parent is a subprocess is checked by its own run id
    (``repro.mp.shm.leaked_segments``).
    """
    prefix = f"repro-{os.getpid()}-"
    names = os.listdir(SHM_DIR) if os.path.isdir(SHM_DIR) else []
    return {n for n in names if n.startswith(prefix)}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_pair():
    """A compatible (A, B) pair with a non-trivial product."""
    a = random_sparse(40, 30, nnz=160, seed=11)
    b = random_sparse(30, 35, nnz=140, seed=12)
    return a, b


@pytest.fixture
def square_matrix():
    return random_sparse(64, 64, nnz=512, seed=21)


@pytest.fixture
def empty_matrix():
    return SparseMatrix.empty(10, 12)
