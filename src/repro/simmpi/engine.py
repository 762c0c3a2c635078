"""SPMD execution engine: run the same function on ``p`` simulated ranks.

Each rank runs in its own thread with its own :class:`SimComm` on the
world communicator.  NumPy releases the GIL inside its C kernels, so local
multiplies overlap; the collectives serialise through condition variables
exactly where real MPI would synchronise.

Failure semantics (:func:`settle`, shared with the process world): if any
rank raises, the world is aborted (all blocked collectives wake and raise
:class:`~repro.errors.CommError`) and the engine raises
:class:`~repro.errors.SpmdError` carrying the *original* per-rank
exceptions — cascade errors caused by the abort are filtered out when at
least one genuine failure exists.  A rank death is such a failure
(:class:`~repro.errors.RankCrashError`); recovering from it is up to the
caller that submitted the region.

Both worlds share one lifecycle — ``start → submit(region)* → stop``
(:func:`open_world`): the body is fixed when the world opens, every
``submit`` runs it once on all ranks, and each rank's
``comm.world.store`` persists in between.  The process world parks its
workers between regions (:class:`repro.mp.engine.ProcessWorld`); threads
start in well under a millisecond, so :class:`ThreadWorld` keeps nothing
resident but the stores.  :func:`run_spmd` is ``start; submit; stop``.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from typing import Any

from ..errors import CommError, SpmdError
from .comm import DEFAULT_TIMEOUT, SimComm, World
from .faults import FaultInjector, FaultPlan
from .tracker import CommTracker

#: available execution worlds: ``threads`` is the deterministic
#: reference simulator, ``processes`` the multicore performance world.
WORLDS = ("threads", "processes")


def as_injector(faults) -> FaultInjector | None:
    """A region's fault injector from what a caller may pass for
    ``faults``: an injector, a :class:`FaultPlan`, a list of specs or
    CLI spec strings, or nothing."""
    if faults is None or isinstance(faults, FaultInjector):
        return faults
    return FaultInjector(
        faults if isinstance(faults, FaultPlan) else FaultPlan(faults)
    )


class PerRank(list):
    """A ``submit`` keyword argument whose ``i``-th element goes to rank
    ``i`` only (a scatter from the driver)."""

    @staticmethod
    def pick(submitted: dict, rank: int) -> dict:
        """``submitted`` as rank ``rank`` receives it."""
        return {
            k: v[rank] if isinstance(v, PerRank) else v
            for k, v in submitted.items()
        }


def settle(results: list, failures: dict[int, BaseException]) -> list:
    """How a region ends in either world: its per-rank values, or
    :class:`SpmdError` over what failed — the abort's own
    :class:`CommError` cascade dropped when a genuine failure exists."""
    if failures:
        genuine = {
            r: e for r, e in failures.items() if not isinstance(e, CommError)
        }
        raise SpmdError(genuine or failures)
    return results


def open_world(nprocs: int, fn: Callable[..., Any], *args,
               world: str = "threads", transport: str = "auto", **kwargs):
    """Start a world whose every region runs ``fn(comm, *args, **kwargs,
    **submitted)``: returns an object with ``submit(**submitted)`` (one
    region; ``tracker`` / ``timeout`` / ``faults`` / ``checksums`` /
    ``world_info`` as in :func:`run_spmd`) and ``stop()``.  The process
    world's fork inherits the body; only what is *submitted* must pickle."""
    if nprocs <= 0:
        raise ValueError(f"nprocs must be positive, got {nprocs}")
    if world not in WORLDS:
        raise ValueError(f"unknown world {world!r}; expected one of {WORLDS}")
    if world == "processes":
        from ..mp.engine import ProcessWorld

        return ProcessWorld(nprocs, fn, args, kwargs, transport=transport).start()
    return ThreadWorld(nprocs, fn, args, kwargs)


def run_spmd(
    nprocs: int,
    fn: Callable[..., Any],
    *args,
    tracker: CommTracker | None = None,
    timeout: float = DEFAULT_TIMEOUT,
    faults=None,
    checksums: bool | None = None,
    world: str = "threads",
    transport: str = "auto",
    world_info: dict | None = None,
    **kwargs,
) -> list:
    """Execute ``fn(comm, *args, **kwargs)`` on ``nprocs`` ranks.

    Parameters
    ----------
    nprocs:
        Number of simulated processes.
    fn:
        The SPMD program.  Its first argument is the rank's
        :class:`SimComm`; remaining arguments are shared (by reference —
        treat them as read-only, like remotely-resident input data).
    tracker:
        Optional :class:`CommTracker` that will receive one event per
        collective.  Pass one in whenever metering is needed; without it a
        private tracker is created and discarded.
    timeout:
        Deadlock guard for collectives, in seconds.
    faults:
        Optional :class:`~repro.simmpi.faults.FaultPlan` or
        :class:`~repro.simmpi.faults.FaultInjector` to run the program
        under deterministic fault injection.
    checksums:
        Force per-message envelope checksums on/off; ``None`` enables
        them exactly when faults are injected.
    world:
        ``"threads"`` (default) runs ranks as threads in this process —
        the deterministic reference.  ``"processes"`` runs one worker
        process per rank (:class:`repro.mp.engine.ProcessWorld`) for
        real multicore speedup, with the same fault/watchdog matrix
        (injected crashes SIGKILL the worker for real) and products
        bit-identical to the threaded world.
    transport:
        Payload wire format for ``world="processes"`` (one of
        :data:`repro.mp.transport.TRANSPORTS`); ignored by the threaded
        world, which shares payloads by reference.
    world_info:
        Optional dict that receives world/transport statistics (shm
        bytes, naive-pickle traffic, swept segments) after the run.

    Returns
    -------
    list
        Per-rank return values of ``fn``, indexed by rank.
    """
    opened = open_world(
        nprocs, fn, *args, world=world, transport=transport, **kwargs,
    )
    try:
        return opened.submit(
            tracker=tracker, timeout=timeout, faults=faults,
            checksums=checksums, world_info=world_info,
        )
    finally:
        opened.stop()


class ThreadWorld:
    """The thread carrier of the world lifecycle: each :meth:`submit`
    starts one thread per rank and joins them; only the rank stores
    outlive a region."""

    def __init__(self, nprocs: int, fn, args, kwargs) -> None:
        self.nprocs, self.fn, self.args, self.kwargs = nprocs, fn, args, kwargs
        self.stores: list[dict] = [{} for _ in range(nprocs)]

    @property
    def alive(self) -> bool:
        return bool(self.stores)

    def stop(self) -> int:
        self.stores = []
        return 0

    def submit(self, *, tracker: CommTracker | None = None,
               timeout: float = DEFAULT_TIMEOUT, faults=None,
               checksums: bool | None = None, world_info: dict | None = None,
               **submitted) -> list:
        """One region on fresh rank threads (see :func:`run_spmd`)."""
        if isinstance(world_info, dict):
            world_info.update({"world": "threads", "transport": None})
        world = World(
            self.nprocs, tracker=tracker, timeout=timeout,
            injector=as_injector(faults), checksums=checksums,
        )
        # one slot per rank, each written by that rank's thread only
        results: list[Any] = [None] * self.nprocs
        failed: list[BaseException | None] = [None] * self.nprocs
        if self.nprocs == 1:  # fast path: no thread needed for a single rank
            self._run_rank(world, 0, submitted, results, failed)
        else:
            threads = [
                threading.Thread(
                    target=self._run_rank, name=f"simmpi-rank-{rank}",
                    args=(world, rank, submitted, results, failed),
                )
                for rank in range(self.nprocs)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        return settle(
            results, {r: e for r, e in enumerate(failed) if e is not None}
        )

    def _run_rank(self, world: World, rank: int, submitted: dict,
                  results: list, failed: list) -> None:
        """One rank's part of a region: run the body, file what it
        returned or raised."""
        try:
            comm = SimComm(world, ("world",), tuple(range(self.nprocs)), rank)
            world.store = self.stores[rank]
            results[rank] = self.fn(
                comm, *self.args, **self.kwargs,
                **PerRank.pick(submitted, rank),
            )
            # only a rank that *returned* can be waited on in vain
            # ("peer-exited"); one that raised aborts the world instead
            world.mark_finished(rank)
        except BaseException as exc:  # noqa: BLE001 — reported via SpmdError
            failed[rank] = exc
            world.abort()
