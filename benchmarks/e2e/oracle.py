"""Independent oracle and failure accounting.

Every product the benchmark sees is compared with SciPy, which shares no
code with ``repro``: the cold op fully (identical pattern, values to
``rtol=1e-9``), timed ops by a digest taken after the timed window closes.
A violation — exception, timeout, mismatch, leaked ``/dev/shm`` segment —
is returned as a string and counted as a failed op; nothing here raises
out of the caller.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import zlib

import numpy as np
import scipy.sparse as sp

RTOL = 1e-9
OP_TIMEOUT_S = 60.0
SHM_DIR = "/dev/shm"


def to_scipy(m) -> sp.csc_matrix:
    """A ``repro`` CSC matrix as a SciPy one (arrays copied, so the oracle
    cannot be changed by whatever the program does to its operands)."""
    return sp.csc_matrix(
        (m.values.copy(), m.rowidx.copy(), m.indptr.copy()), shape=m.shape
    )


def canonical(x):
    """Oracle-side canonical form: CSC, duplicates summed, rows sorted."""
    if isinstance(x, np.ndarray):
        return x
    x = sp.csc_matrix(x)
    x.sum_duplicates()
    x.sort_indices()
    return x


def _parts(x):
    """(indptr, rowidx, values) of a ``repro`` or SciPy CSC matrix."""
    if sp.issparse(x):
        return x.indptr, x.indices, x.data
    return x.indptr, x.rowidx, x.values


def digest(x) -> tuple:
    """Cheap identity of a product: exact over the pattern (CRC of the
    index arrays), first and second moment of the values."""
    if isinstance(x, np.ndarray):
        return ("dense", x.shape, float(x.sum()), float(np.square(x).sum()))
    indptr, rowidx, values = _parts(x)
    return (
        "sparse",
        int(rowidx.shape[0]),
        zlib.crc32(np.ascontiguousarray(indptr, dtype=np.int64)),
        zlib.crc32(np.ascontiguousarray(rowidx, dtype=np.int64)),
        float(values.sum()),
        float(np.dot(values, values)),
    )


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b), 1e-300)


def check_digest(got: tuple, want: tuple) -> str | None:
    """Compare a product's digest with the oracle's."""
    if got[0] != want[0]:
        return f"kind {got[0]} != {want[0]}"
    exact = 2 if got[0] == "dense" else 4
    if got[1:exact] != want[1:exact]:
        return f"pattern digest {got[1:exact]} != oracle {want[1:exact]}"
    if not all(_close(g, w) for g, w in zip(got[exact:], want[exact:])):
        return f"value digest {got[exact:]} != oracle {want[exact:]}"
    return None


def check_full(product, expected) -> str | None:
    """Compare ``product`` with the oracle element by element."""
    if product is None:
        return "no product returned"
    if isinstance(expected, np.ndarray):
        if not isinstance(product, np.ndarray) or product.shape != expected.shape:
            return "dense result has the wrong type or shape"
        if not np.allclose(product, expected, rtol=RTOL, atol=0.0):
            return "dense values differ from the oracle"
        return None
    if tuple(product.shape) != tuple(expected.shape):
        return f"shape {product.shape} != oracle {expected.shape}"
    indptr, rowidx, values = _parts(product)
    if not np.array_equal(indptr, expected.indptr):
        return "column pointers differ from the oracle"
    if not np.array_equal(rowidx, expected.indices):
        return "row indices differ from the oracle"
    if not np.allclose(values, expected.data, rtol=RTOL, atol=0.0):
        return "values differ from the oracle"
    return None


def shm_listing() -> frozenset:
    try:
        return frozenset(os.listdir(SHM_DIR))
    except OSError:
        return frozenset()


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S:.0f} s")


def attempt(fn, *, watch_shm: bool = False, timeout_s: float = OP_TIMEOUT_S):
    """Run one op.  Returns ``(outputs, error, t0, t1)``; ``error`` is
    ``None`` or a one-line reason.  The alarm can only be armed on the
    main thread; the service's callers bound their wait through
    ``JobHandle.result(timeout=)`` instead."""
    on_main = threading.current_thread() is threading.main_thread()
    before = shm_listing() if watch_shm else None
    outputs, error = None, None
    if on_main:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
    t0 = time.perf_counter()
    try:
        outputs = fn()
        t1 = time.perf_counter()
    except OpTimeout as exc:
        t1 = time.perf_counter()
        error = f"timeout: {exc}"
    except Exception as exc:  # boundary: a failed op is counted, not raised
        t1 = time.perf_counter()
        error = f"{type(exc).__name__}: {exc}".splitlines()[0][:300]
    finally:
        if on_main:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    if watch_shm and error is None:
        leaked = sorted(shm_listing() - before)
        if leaked:
            error = f"left {len(leaked)} /dev/shm segment(s): {leaked[:3]}"
    return outputs, error, t0, t1
