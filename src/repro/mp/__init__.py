"""Process-backed execution world (``world="processes"``).

One OS process per rank — forked once per world and parked between
regions (:class:`ProcessWorld`: ``start → submit(region)* → stop``) —
pipes for control traffic, shared-memory segments for bulk payloads.  The threaded simulator in
:mod:`repro.simmpi` stays the deterministic reference; this package is
the performance world — the same :class:`~repro.simmpi.comm.SimComm`
ops over another carrier (:class:`MpWorld`), bit-identical products,
real multicore speedup.
"""

from .bridge import DriverCallback, set_runtime
from .comm import MpWorld
from .engine import ProcessWorld
from .shm import leaked_segments, sweep_segments
from .transport import AUTO_THRESHOLD, TRANSPORTS, get_transport

__all__ = [
    "AUTO_THRESHOLD",
    "TRANSPORTS",
    "DriverCallback",
    "MpWorld",
    "ProcessWorld",
    "get_transport",
    "leaked_segments",
    "set_runtime",
    "sweep_segments",
]
