"""SPMD execution engine: run the same function on ``p`` simulated ranks.

Each rank runs in its own thread with its own :class:`SimComm` on the
world communicator.  NumPy releases the GIL inside its C kernels, so local
multiplies overlap; the collectives serialise through condition variables
exactly where real MPI would synchronise.

Failure semantics: if any rank raises, the world is aborted (all blocked
collectives wake and raise :class:`~repro.errors.CommError`) and the
engine raises :class:`~repro.errors.SpmdError` carrying the *original*
per-rank exceptions — cascade errors caused by the abort are filtered out
when at least one genuine failure exists.

With ``heal=`` (a :class:`~repro.resilience.heal.HealContext`) a rank
crash does **not** abort the world: the death is reported to the world's
:class:`~repro.simmpi.membership.Membership`, survivors agree on a repair
(promoting one of ``world_spares`` parked spare ranks, or respawning the
dead grid position oversubscribed onto a survivor host) and the run
continues in place.  Only unhealable failures reach :class:`SpmdError`.

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

from ..errors import CommError, RankCrashError, SpmdError
from .comm import DEFAULT_TIMEOUT, SimComm, World
from .faults import FaultInjector, FaultPlan
from .membership import Membership
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


def open_world(nprocs: int, fn: Callable[..., Any], *args,
               world: str = "threads", transport: str = "auto", heal=None,
               world_spares: int = 0, **kwargs):
    """Start a world whose every region runs ``fn(comm, *args, **kwargs,
    **submitted)``: returns an object with ``submit(**submitted)`` (one
    region; ``tracker`` / ``timeout`` / ``faults`` / ``checksums`` /
    ``world_info`` as in :func:`run_spmd`) and ``stop()``.  The process
    world's fork inherits the body; only what is *submitted* must pickle."""
    if nprocs <= 0:
        raise ValueError(f"nprocs must be positive, got {nprocs}")
    if world_spares < 0:
        raise ValueError(f"world_spares must be >= 0, got {world_spares}")
    if world not in WORLDS:
        raise ValueError(f"unknown world {world!r}; expected one of {WORLDS}")
    if world == "processes":
        from ..mp.engine import ProcessWorld

        return ProcessWorld(
            nprocs, fn, args, kwargs, transport=transport, heal=heal,
            world_spares=world_spares,
        ).start()
    return ThreadWorld(nprocs, fn, args, kwargs, heal, world_spares)


def run_spmd(
    nprocs: int,
    fn: Callable[..., Any],
    *args,
    tracker: CommTracker | None = None,
    timeout: float = DEFAULT_TIMEOUT,
    faults=None,
    checksums: bool | None = None,
    world_spares: int = 0,
    heal=None,
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
    world_spares:
        Number of pre-allocated spare ranks parked outside the grid,
        promotable by the heal layer (``heal`` with mode ``"spare"``).
    heal:
        Optional :class:`~repro.resilience.heal.HealContext`.  When set,
        ``fn`` must be a healing body (it registers itself with the
        world's membership so spares/respawns can run it too) and rank
        crashes are repaired online instead of aborting.
    world:
        ``"threads"`` (default) runs ranks as threads in this process —
        the deterministic reference.  ``"processes"`` runs one worker
        process per rank (:class:`repro.mp.engine.ProcessWorld`) for
        real multicore speedup, with the same fault/heal/watchdog
        matrix: injected crashes SIGKILL the worker for real, healing
        re-enters from the checkpointed batch boundary, and products —
        healed or not — stay bit-identical to the threaded world.
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
        Per-rank return values of ``fn``, indexed by rank (grid
        position — under healing, a repaired position's value comes from
        whichever rank finally held it).
    """
    opened = open_world(
        nprocs, fn, *args, world=world, transport=transport, heal=heal,
        world_spares=world_spares, **kwargs,
    )
    try:
        return opened.submit(
            tracker=tracker, timeout=timeout, faults=faults,
            checksums=checksums, world_info=world_info, last=True,
        )
    finally:
        opened.stop()


class ThreadWorld:
    """The thread carrier of the world lifecycle: each :meth:`submit`
    starts one thread per rank and joins them; only the rank stores
    outlive a region."""

    def __init__(self, nprocs: int, fn, args, kwargs, heal=None,
                 world_spares: int = 0) -> None:
        self.nprocs, self.fn, self.args, self.kwargs = nprocs, fn, args, kwargs
        self.heal, self.world_spares = heal, world_spares
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
               last: bool = False, **submitted) -> list:
        """One region on fresh rank threads (see :func:`run_spmd`;
        ``last`` only matters to a world with workers to reap)."""
        nprocs, fn, args, kwargs = self.nprocs, self.fn, self.args, self.kwargs
        heal, world_spares, stores = self.heal, self.world_spares, self.stores
        if isinstance(world_info, dict):
            world_info.update({"world": "threads", "transport": None})
        injector = as_injector(faults)
        world = World(
            nprocs, tracker=tracker, timeout=timeout,
            injector=injector, checksums=checksums,
        )
        membership = None
        if heal is not None:
            membership = Membership(
                world, nprocs, heal.mode, heal, first_batch=heal.first_batch,
                max_rounds=heal.max_rounds,
            )
            membership._next_rank = nprocs + world_spares
            world.membership = membership
        results: list[Any] = [None] * nprocs
        failures: dict[int, BaseException] = {}
        failures_lock = threading.Lock()
        threads: list[threading.Thread] = []
        threads_lock = threading.Lock()

        def record_failure(position: int, exc: BaseException) -> None:
            with failures_lock:
                failures[position] = exc
            world.abort()

        def run_body(position: int, global_rank: int) -> None:
            """Run the SPMD body for one grid position (any holder)."""
            try:
                if global_rank < nprocs and global_rank == position:
                    comm = SimComm(world, ("world",), tuple(range(nprocs)), position)
                    world.store = stores[position]
                    results[position] = fn(
                        comm, *args, **kwargs,
                        **PerRank.pick(submitted, position),
                    )
                else:
                    # promoted spare / respawn: enter through the healing body
                    results[position] = membership.body.run(world, position, global_rank)
            except RankCrashError as exc:
                if membership is not None:
                    membership.declare_dead(global_rank, exc)
                else:
                    record_failure(position, exc)
            except BaseException as exc:  # noqa: BLE001 — reported via SpmdError
                record_failure(position, exc)
            finally:
                world.mark_finished(global_rank)
                if membership is not None:
                    membership.worker_done()

        def spare_runner(global_rank: int) -> None:
            decision = membership.park(global_rank)
            if decision is None:
                return  # never promoted
            run_body(decision.promoted[global_rank], global_rank)

        def spawn_respawn(global_rank: int, position: int) -> None:
            t = threading.Thread(
                target=run_body, args=(position, global_rank),
                name=f"simmpi-respawn-{global_rank}",
            )
            with threads_lock:
                threads.append(t)
            t.start()

        if membership is not None:
            membership.spawn = spawn_respawn

        if nprocs == 1 and membership is None and world_spares == 0:
            run_body(0, 0)  # fast path: no threads needed for a single rank
        else:
            if membership is not None:
                membership.worker_started(nprocs)
            with threads_lock:
                for rank in range(nprocs):
                    threads.append(threading.Thread(
                        target=run_body, args=(rank, rank),
                        name=f"simmpi-rank-{rank}",
                    ))
                for spare in range(nprocs, nprocs + world_spares):
                    threads.append(threading.Thread(
                        target=spare_runner, args=(spare,),
                        name=f"simmpi-spare-{spare}",
                    ))
                to_start = list(threads)
            for t in to_start:
                t.start()
            if membership is not None:
                # Respawns may add threads while we join: wait for all worker
                # bodies to finish first, then release parked spares.
                membership.wait_idle()
                membership.finish()
            joined = 0
            while True:
                with threads_lock:
                    batch = threads[joined:]
                if not batch:
                    break
                for t in batch:
                    t.join()
                joined += len(batch)

        if membership is not None:
            # Deaths the heal layer could not repair (failed agreement, crash
            # with no survivors, ...) must surface with their original cause.
            with failures_lock:
                for position, exc in membership.healed.items():
                    if results[position] is None:
                        failures.setdefault(position, exc)
        if failures:
            genuine = {
                r: e for r, e in failures.items() if not isinstance(e, CommError)
            }
            raise SpmdError(genuine or failures)
        return results
