"""Driver-side callbacks that survive the process boundary.

Drivers like :func:`repro.summa.batched_summa3d` hand the SPMD body
callables that must run *in the driver* — the piece collector's sink,
the checkpoint writer.  Under the threaded world these are ordinary
closures; under the process world a worker cannot call into the parent
directly, so the driver wraps each one in a :class:`DriverCallback`
before launch.  The wrapper is inherited by the forked worker, where
:func:`set_runtime` has installed the worker's :class:`MpWorld`; calling
it there ships the arguments up the rank's report pipe the way a
region's return value travels (:meth:`repro.mp.transport.Transport.ship`:
large arrays in a segment the parent adopts, the rest pickled), and the
parent engine invokes the real function on arrival — on read-only views.

Ordering guarantee: a worker's callback messages and its final
``("done", ...)`` message travel the same pipe, so the parent has
executed every callback a rank issued before it accepts that rank's
return value.  Callback *return values* are not shipped back — a
``DriverCallback`` is fire-and-forget from the worker's point of view
(all current driver sinks return ``None``).
"""

from __future__ import annotations

#: the current worker's MpWorld; None in the parent / threaded world.
_RUNTIME = None


def set_runtime(rt) -> None:
    """Install (or clear, with ``None``) the calling process's world."""
    global _RUNTIME
    _RUNTIME = rt


class DriverCallback:
    """Wrap a driver-side callable so SPMD bodies can call it anywhere.

    In the parent (or the threaded world) it is a plain
    pass-through.  Inside a worker process it ships the arguments and
    writes them to the parent inline, so an argument that cannot be
    pickled is an error at the call site.
    """

    __slots__ = ("fn", "index")

    def __init__(self, fn) -> None:
        self.fn = fn
        #: assigned by the engine's pre-launch scan.
        self.index: int | None = None

    def __call__(self, *args):
        rt = _RUNTIME
        if rt is None:
            return self.fn(*args)
        rt.report("cb", rt.rank, self.index, rt.transport.ship(args))
        return None
