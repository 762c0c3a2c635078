"""Process-backed SPMD engine: one OS process per rank, forked once.

A :class:`ProcessWorld` has a lifecycle — ``start → submit(region)* →
stop``.  ``start`` forks one worker per rank; the SPMD body
``fn(comm, *args, **kwargs)`` and its arguments are inherited
copy-on-write, so closures, lambdas and
:class:`~repro.mp.bridge.DriverCallback` wrappers need not pickle.
Workers then park on their inbox.  Each ``submit`` is one SPMD region on
the parked workers: it ships a deadline, the fault injector and a few
*picklable* keyword arguments (through the world's transport, so arrays
ride shared memory); every rank calls the inherited body with them and
reports its return value, tracker events and transport statistics,
pickled, through its results queue.  Region ``n`` runs on epoch-``n``
communicators, so what an aborted region left on the wire is stale to
the next one and is reaped, never decoded.  One-shot
:func:`repro.simmpi.engine.run_spmd` is exactly ``start; submit; stop``
— same per-rank return list, same :class:`~repro.errors.SpmdError` with
cascade filtering as the threaded world.

A region in which ranks **raise** (any exception, a collective
:class:`~repro.errors.ReplanSignal`, a classified
:class:`~repro.errors.HangError`) fails alone: the error surfaces, the
world's segments are swept, the workers park for the next submit.  A
rank **process that dies** (``SIGKILL``, an injected ``crash`` —
:func:`FaultInjector.crash_action` kills the worker for real —, the
parent deadline) takes what it held with it: the world is stopped
(terminate, join, sweep) and the death surfaces as a
:class:`~repro.errors.RankCrashError` with uniform ``err.context`` (pid,
exit code, signal name, last traced op, epoch).

The parent is the resilience coordinator of a region:

* **healing** (``heal=``; one-shot worlds only — spares and the
  shrink-mode respawn pool are forked at ``start`` and parked, because
  queues cannot be created after the fork): a death becomes an epoch
  revocation.  The parent ships ``("ctl", "revoke", epoch)`` to the
  survivors, collects their votes, sweeps the dead rank's leftover
  segments (only after every survivor has voted — nothing can attach
  them any more), computes the
  :class:`~repro.simmpi.membership.HealDecision` with the threaded
  world's :func:`~repro.simmpi.membership.compute_decision`, publishes it;
* **cross-process watchdog**: blocked workers ship their wait records
  after a grace period; the parent assembles the wait-for graph,
  confirms a deadlock cycle over two sweeps (or a peer that already left
  the region, when no heal layer could replace it) and notifies the
  classified rank, which raises the :class:`HangError` kinds the
  threaded watchdog produces.  A flat parent deadline slightly above the
  region's timeout remains the last backstop.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import queue as _queue
import signal
import sys
import time
from collections.abc import Callable
from multiprocessing import resource_tracker
from multiprocessing.connection import wait as _wait_any
from types import SimpleNamespace
from typing import Any

from ..errors import CommError, HangError, RankCrashError, SpmdError
from ..simmpi.comm import DEFAULT_TIMEOUT, World
from ..simmpi.engine import PerRank, as_injector
from ..simmpi.membership import HealDecision, compute_decision, world_comm_id
from ..simmpi.tracker import CommTracker
from . import bridge
from .bridge import DriverCallback
from .comm import MpComm, MpMembership, MpWorld, _HealProxy
from .shm import SegmentRegistry, sweep_segments
from .transport import get_transport

_RUN_COUNTER = itertools.count(1)


def _fresh_run_id() -> str:
    return f"repro-{os.getpid()}-{next(_RUN_COUNTER)}-{os.urandom(3).hex()}"


def _scan_callbacks(fn, args, kwargs) -> list[DriverCallback]:
    """Find DriverCallback wrappers in the launch arguments (shallow,
    plus any the body advertises via ``fn.driver_callbacks`` — healing
    bodies close over their arguments, so scanning ``args`` alone would
    miss them) and assign each its wire index."""
    found: list[DriverCallback] = []
    for value in (*getattr(fn, "driver_callbacks", ()), *args,
                  *kwargs.values()):
        if isinstance(value, DriverCallback) and value not in found:
            value.index = len(found)
            found.append(value)
    return found


def _pickle_exc(rank: int, exc: BaseException) -> bytes:
    try:
        return pickle.dumps(exc)
    except Exception:
        return pickle.dumps(
            RuntimeError(f"rank {rank}: {type(exc).__name__}: {exc!r}")
        )


def _install_crash_action(rt: MpWorld, injector, rank: int) -> None:
    """Make injected ``crash`` faults kill the worker process for real.

    The action ships the fault log to the parent (so the driver's
    injector still reports the event), flushes the results queue and
    abandons the inboxes — a SIGKILL mid-``Queue.put`` would corrupt the
    pipe for everyone — then raises SIGKILL against itself.  The parent
    sees exit code ``-SIGKILL``, exactly what a segfaulted or OOM-killed
    rank looks like."""

    def crash_action(spec, event) -> None:
        op = event.op
        if op is None and event.batch is not None:
            # plan-level crash: its coordinates are (batch, stage)
            op = f"batch {event.batch}" + (
                f" stage {event.stage}" if event.stage is not None else ""
            )
        try:
            rt.results.put(("fault", rank, pickle.dumps(injector.snapshot()),
                            op, event.step))
            rt.results.close()
            rt.results.join_thread()
        except Exception:
            pass
        for q in rt.inboxes:
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass
        os.kill(os.getpid(), signal.SIGKILL)

    injector.crash_action = crash_action


def _park(rt: MpWorld, rank: int):
    """Spare/respawn-pool loop of a healing region: pump the inbox until
    promoted (returns ``(position, decision)``) or released (``None``)."""
    deadline = time.monotonic() + rt.timeout * 1.25 + 15.0
    while True:
        if rt.finish_flag or rt.failed.is_set():
            return None
        assigned = rt.membership.assignment(rank)
        if assigned is not None:
            return assigned
        if not rt.pump(rt._tick) and time.monotonic() >= deadline:
            return None


def _run_region(world: ProcessWorld, rt: MpWorld, region: int,
                timeout: float, blob: bytes) -> int:
    """One submitted region on one worker: call the inherited body with
    the shipped keyword arguments, report, return the worker's exit code
    (nonzero only for a crash under healing, which must look like a
    death to the parent's revocation path)."""
    rank, results = rt.rank, rt.results
    wire, injector, checksums = pickle.loads(blob)
    rt.begin_region(region, timeout, checksums, injector)
    if injector is not None:
        _install_crash_action(rt, injector, rank)
    if world.heal is not None:
        rt.membership = MpMembership(
            rt, world.nprocs, world.heal.first_batch, world.heal.mode
        )
        rt.heal_proxy = _HealProxy(rt)
        rt.transport.segments.track_transfers = True

    def fault_blob():
        return None if injector is None else pickle.dumps(injector.snapshot())

    position = None
    try:
        if rank >= world.nprocs:
            promotion = _park(rt, rank)
            if promotion is None:
                results.put(("idle", rank))
                return 0
            position = promotion[0]
            value = world.fn.run(rt, position, rank)
        else:
            position = rank
            comm = MpComm(rt, world_comm_id(region),
                          tuple(range(world.nprocs)), rank, epoch=region)
            value = world.fn(comm, *world.args, **world.kwargs,
                             **rt.transport.decode(wire))
        vblob = pickle.dumps(value)
        rt.finish()
        results.put((
            "done", rank, position, vblob, pickle.dumps(rt.tracker.events),
            rt.transport.stats(), fault_blob(),
        ))
    except BaseException as exc:  # noqa: BLE001 — reported via SpmdError
        rt.abandon()
        if isinstance(exc, RankCrashError) and rt.membership is not None:
            # injected crashes normally die by SIGKILL inside crash_action;
            # a *raised* one under healing is still one rank's death, not
            # a region-wide abort: report it and exit nonzero so the
            # parent runs the same revocation path
            results.put(("crashed", rank, _pickle_exc(rank, exc)))
            return 1
        rt.failed.set()
        results.put(("err", rank, position, _pickle_exc(rank, exc),
                     fault_blob()))
    return 0


def _worker_main(world: ProcessWorld, rank: int) -> None:
    """A rank process: park, run each submitted region, park again —
    until the world is stopped or the parent is gone."""
    try:  # the task name `pgrep repro-mp-rank` matches (Linux)
        with open("/proc/self/comm", "w") as comm_file:
            comm_file.write(f"repro-mp-rank-{rank}")
    except OSError:
        pass
    rt = MpWorld(rank, world.nprocs, world.inboxes, world.failed,
                 transport=world.transport, run_id=world.run_id)
    rt.results = world.results[rank]
    # keep only this rank's end of the job pipes: with no stray copies a
    # vanished parent reads as end-of-file, a vanished rank as EPIPE
    for grank, (reader, writer) in enumerate(world.jobs):
        writer.close()
        if grank == rank:
            rt.jobs = reader
        else:
            reader.close()
    bridge.set_runtime(rt)
    code = 1
    try:
        for job in iter(lambda: rt.next_job(world.parent_pid), None):
            if _run_region(world, rt, *job):
                break
        else:
            code = 0
    finally:
        # orphaned or stopped mid-region: whatever this rank still owns
        # in /dev/shm goes with it; a report already queued must flush,
        # peer inboxes may never be drained again and are abandoned
        rt.abandon()
        try:
            rt.results.close()
            rt.results.join_thread()
        except Exception:
            pass
        for q in world.inboxes:
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass
        sys.stdout.flush()
        sys.stderr.flush()
        # skip interpreter teardown: arbitrary destruction order would
        # spray harmless SharedMemory.__del__ BufferErrors over stderr
        # when a handle dies before its views
        os._exit(code)


class ProcessWorld:
    """``nprocs`` forked rank workers running ``fn(comm, *args,
    **kwargs, **submitted)`` once per :meth:`submit` (lifecycle and
    failure semantics: module docstring).  ``transport`` is one of
    :data:`~repro.mp.transport.TRANSPORTS`; ``heal`` the driver's
    :class:`~repro.resilience.heal.HealContext` — a healing world forks
    ``world_spares`` spares as well and serves exactly one region."""

    def __init__(self, nprocs: int, fn: Callable[..., Any], args=(),
                 kwargs=None, *, transport: str = "auto", heal=None,
                 world_spares: int = 0) -> None:
        self.nprocs = int(nprocs)
        self.fn, self.args, self.kwargs = fn, tuple(args), dict(kwargs or {})
        self.transport = transport
        self.heal = heal
        # Queues cannot be created after the fork, so the whole pool —
        # primaries, parked spares, the shrink-mode respawn pool — is
        # laid out up front, one inbox per global rank.  Numbering
        # matches the threaded engine: spares at nprocs..+spares,
        # respawns from nprocs + spares upward.
        spares = int(world_spares) if heal is not None else 0
        respawns = (
            int(heal.max_rounds)
            if heal is not None and heal.mode == "shrink" else 0
        )
        self._spares = list(range(nprocs, nprocs + spares))
        self._respawns = list(
            range(nprocs + spares, nprocs + spares + respawns)
        )
        self.total = nprocs + spares + respawns
        self.run_id = _fresh_run_id()
        #: the parent's own encoder (an unknown transport is refused
        #: here): submitted arguments — scattered tiles, a mask — reach
        #: the ranks the way rank traffic does
        self._encoder = get_transport(transport)(
            SegmentRegistry(self.run_id, self.total)
        )
        self.parent_pid = os.getpid()
        self.region = -1
        #: live worker processes by global rank; ``None`` before
        #: :meth:`start` and after :meth:`stop`
        self.pending: dict[int, Any] | None = None

    @property
    def alive(self) -> bool:
        return self.pending is not None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> ProcessWorld:
        """Fork the workers; they park until the first :meth:`submit`."""
        ctx = multiprocessing.get_context("fork")
        # Start the resource-tracker daemon *before* forking: all workers
        # then share one tracker, so a segment registered at creation in
        # one rank and unregistered at unlink time in another balances
        # out instead of each rank's private tracker warning of "leaks".
        resource_tracker.ensure_running()
        self.inboxes = [ctx.Queue() for _ in range(self.total)]
        # one results queue per worker, not one for all: a queue's write
        # lock is shared by its writers, and a rank killed while holding
        # it would silence every other rank for good
        self.results = [ctx.Queue() for _ in range(self.total)]
        # regions are submitted over one plain pipe per worker, written
        # inline: a ``Queue.put`` would start a feeder thread per inbox
        # in the parent of every world
        self.jobs = [ctx.Pipe(duplex=False) for _ in range(self.total)]
        self.failed = ctx.Event()
        self.callbacks = _scan_callbacks(self.fn, self.args, self.kwargs)
        self.procs = {
            grank: ctx.Process(
                target=_worker_main, args=(self, grank), daemon=True,
                name=f"repro-mp-rank-{grank}",
            )
            for grank in range(self.total)
        }
        for proc in self.procs.values():
            proc.start()
        for reader, _writer in self.jobs:
            reader.close()
        self.pending = dict(self.procs)
        return self

    def stop(self) -> int:
        """Reap every worker, sweep this world's shm segments, close the
        queues; returns the number of segments swept (0 when healthy).
        Idempotent, and on *every* way out of a world — a parent-side
        exception in a driver callback or the heal protocol included."""
        if self.pending is None:
            return 0
        pending, self.pending = self.pending, None
        self.failed.set()  # ranks still inside a region abort their waits
        for grank in pending:  # read once the rank is parked
            self._submit_job(grank, None)
        grace = time.monotonic() + 2.0
        for proc in pending.values():
            proc.join(timeout=max(grace - time.monotonic(), 0.0))
        for proc in pending.values():
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        # every worker joined (or was killed): nothing can attach now
        swept = sweep_segments(self.run_id)
        for q in (*self.inboxes, *self.results):
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass
        for _reader, writer in self.jobs:
            writer.close()
        return swept

    def submit(self, *, tracker: CommTracker | None = None,
               timeout: float = DEFAULT_TIMEOUT, world_info: dict | None = None,
               faults=None, checksums: bool | None = None, last: bool = False,
               **kwargs) -> list:
        """Run one region: every rank calls the body with ``kwargs``
        added (a :class:`~repro.simmpi.engine.PerRank` value hands rank
        ``i`` its ``i``-th element only).  The other arguments and the
        contract — the per-rank return list, or :class:`SpmdError` — are
        :func:`~repro.simmpi.engine.run_spmd`'s; the fault injector is
        shipped to the workers and its activity absorbed back.  ``last``
        says the caller is done with the world once a region succeeds:
        the workers are then reaped *before* the results are unpickled —
        into pages no longer shared with live forks (copy-on-write made
        16 MB of results cost 14 ms instead of 1.4 ms)."""
        if self.pending is None:
            raise RuntimeError("this process world is not running")
        if self.heal is not None and self.region >= 0:
            raise RuntimeError("a healing world serves exactly one region")
        self._begin(float(timeout), as_injector(faults), checksums, kwargs)
        try:
            self._supervise()
        except BaseException:
            self.stop()  # workers are mid-region: nothing to come back to
            raise
        return self._collect(tracker, world_info, last)

    # ------------------------------------------------------------------ #
    # one region: begin, supervise, collect
    # ------------------------------------------------------------------ #

    def _begin(self, timeout: float, injector, checksums, kwargs) -> None:
        """Reset the coordinator's per-region state and post the job."""
        checksums = (injector is not None) if checksums is None else bool(checksums)
        jobs = []
        for grank in self.pending:
            mine = PerRank.pick(kwargs, grank) if grank < self.nprocs else {}
            # pickled here, not in a queue feeder thread: an argument
            # that cannot cross surfaces at the call site, before any
            # rank has been told anything
            jobs.append((grank, pickle.dumps(
                (self._encoder.encode(mine, receivers=1), injector, checksums)
            )))
        self.region += 1
        self.timeout = timeout
        self.injector = injector
        self.reported: set[int] = set()    # granks done with the region
        self.done: dict[int, tuple] = {}   # position -> (vblob, evblob, stats)
        self.failures: dict[int, BaseException] = {}
        self.crash_causes: dict[int, BaseException] = {}
        self.fault_reports: dict[int, tuple] = {}
        self.waits: dict[int, dict] = {}   # grank -> shipped wait record
        self.votes: dict[int, set[int]] = {}
        heal = self.heal
        self.decision = (
            HealDecision(0, tuple(range(self.nprocs)), heal.first_batch,
                         "initial", hosts={p: p for p in range(self.nprocs)})
            if heal is not None else None
        )
        self.healed: dict[int, BaseException] = {}  # position -> crash exc
        self.dead: set[int] = set()
        self.swept_dead: set[int] = set()
        self.heal_swept = 0
        self.epoch = self.region
        self.parked_pool = list(self._spares)
        self.respawn_pool = list(self._respawns)
        self.hang_sent: tuple | None = None  # (grank, since) of live notice
        self.finish_sent = False
        self.prev_cycle_sig = None
        self.failed.clear()
        for grank, blob in jobs:
            self._submit_job(grank, (self.region, timeout, blob))

    def _supervise(self) -> None:
        """Serve the region until every live worker has reported."""
        self.deadline_s = self.timeout * 1.25 + 15.0
        deadline = time.monotonic() + self.deadline_s
        watch_interval = max(0.25, min(1.0, self.timeout / 10.0))
        next_watch = time.monotonic() + watch_interval
        while not set(self.pending) <= self.reported:
            # Sleep until a message arrives or a worker exits, with the
            # tick as the idle timeout that paces the watchdog and the
            # deadline.  An exited worker's sentinel stays ready, but it
            # is reaped (and leaves the wait set) below, so nothing
            # spins on it.  `_reader` is a queue's read end;
            # multiprocessing has no public name for it.
            _wait_any(
                [*(self.results[g]._reader for g in self.pending),
                 *(w.sentinel for w in self.pending.values())],
                timeout=0.05,
            )
            self._drain()
            for grank, proc in list(self.pending.items()):
                if not proc.is_alive():
                    proc.join()
                    del self.pending[grank]
                    self._on_exit(grank, proc)
            now = time.monotonic()
            # the queue was drained at this instant: safe points for the
            # heal decision (stale callbacks consumed) and the watchdog
            self._maybe_decide()
            if now >= next_watch:
                self._watchdog_sweep()
                next_watch = now + watch_interval
            if self.heal is not None and not self.finish_sent and (
                self.failed.is_set()
                or (len(self.done) >= self.nprocs
                    and self.epoch == self.decision.epoch)
            ):
                self._release_pools()
            if now >= deadline:
                self.failed.set()
                break
        self._drain()

    def _collect(self, tracker, world_info, last: bool) -> list:
        """Settle the region: sweep, classify positions that never
        reported, merge meters, and return the values or raise."""
        failures, done = self.failures, self.done
        # a worker that died took its tiles along, one that blew the
        # parent deadline is not coming back: either way the world ends
        # — as it does when the caller's last region has succeeded
        over = (
            len(self.pending) < self.total
            or not set(self.pending) <= self.reported
            or (last and not failures and len(done) == self.nprocs)
        )
        swept = self.heal_swept + (
            self.stop() if over else sweep_segments(self.run_id)
        )
        # positions that died and never healed surface their crash error
        for position, exc in self.healed.items():
            if position not in done:
                failures.setdefault(position, exc)
        for position in range(self.nprocs):
            if position in done or position in failures:
                continue
            holder = (self.decision.members[position]
                      if self.heal is not None else position)
            proc = self.procs[holder]
            if proc.exitcode not in (0, None):
                failures[position] = self._crash_error(holder, proc)
                continue
            failures[position] = HangError(
                f"rank {position}: worker process (pid {proc.pid}) produced "
                f"no result within the parent deadline "
                f"({self.deadline_s:.1f}s) and was terminated",
                kind="timeout",
                dump={position: {
                    "rank": position, "pid": proc.pid, "op": "(outside comm)",
                    "tag": None, "pending": [],
                    "blocked_s": round(self.deadline_s, 3),
                }},
            ).with_context(rank=position, pid=proc.pid)

        results: list[Any] = [None] * self.nprocs
        stats_rows = [self._encoder.stats()]
        self._encoder.reset_stats()
        for position in sorted(done):
            vblob, evblob, stats = done[position]
            if position not in failures:
                results[position] = pickle.loads(vblob)
            if tracker is not None:
                tracker.extend(pickle.loads(evblob))
            stats_rows.append(stats)
        if isinstance(world_info, dict):
            world_info.update({
                "world": "processes",
                "transport": self.transport,
                "run_id": self.run_id,
                "region": self.region,
                "pids": [self.procs[g].pid for g in range(self.nprocs)],
                "ranks_reporting": len(done),
                **{key: sum(s[key] for s in stats_rows)
                   for key in ("shm_segments", "shm_bytes", "naive_msgs",
                               "naive_bytes")},
                "swept_segments": swept,
            })
            if self.heal is not None:
                world_info["heal_epochs"] = self.decision.epoch
                world_info["heal_swept_segments"] = self.heal_swept
        if failures:
            genuine = {
                r: e for r, e in failures.items() if not isinstance(e, CommError)
            }
            raise SpmdError(genuine or failures)
        return results

    # ------------------------------------------------------------------ #
    # coordinator: messages and worker exits
    # ------------------------------------------------------------------ #

    def _submit_job(self, grank: int, job) -> None:
        # never write to a dead rank's pipe (a large job would block on
        # it); the supervisor reaps and classifies the death
        if self.procs[grank].is_alive():
            try:
                self.jobs[grank][1].send_bytes(pickle.dumps(job))
            except OSError:
                pass

    def _post(self, grank: int, item: tuple) -> None:
        try:
            self.inboxes[grank].put(item)
        except Exception:
            pass

    def _drain(self) -> None:
        for q in self.results:
            while True:
                try:
                    msg = q.get_nowait()
                except _queue.Empty:
                    break
                self._handle(msg)

    def _absorb(self, fault_blob) -> None:
        if fault_blob is not None and self.injector is not None:
            self.injector.absorb(*pickle.loads(fault_blob))

    def _handle(self, msg) -> None:
        kind = msg[0]
        if kind == "cb":
            self.callbacks[msg[2]].fn(*pickle.loads(msg[3]))
        elif kind == "done":
            _, grank, position, vblob, evblob, stats, fault_blob = msg
            self.done[position] = (vblob, evblob, stats)
            self.reported.add(grank)
            self.waits.pop(grank, None)
            self._absorb(fault_blob)
        elif kind == "err":
            _, grank, position, blob, fault_blob = msg
            key = grank if position is None else position
            try:
                self.failures[key] = pickle.loads(blob)
            except Exception as exc:
                self.failures[key] = RuntimeError(
                    f"rank {key}: worker failed (exception did not "
                    f"unpickle: {exc!r})"
                )
            self.reported.add(grank)
            self.waits.pop(grank, None)
            self._absorb(fault_blob)
        elif kind == "crashed":
            _, grank, blob = msg
            try:
                self.crash_causes[grank] = pickle.loads(blob)
            except Exception:
                pass
            self.waits.pop(grank, None)
        elif kind == "idle":
            self.reported.add(msg[1])
        elif kind == "vote":
            self.votes.setdefault(int(msg[2]), set()).add(int(msg[1]))
        elif kind == "wait":
            self.waits[msg[1]] = msg[2]
        elif kind == "endwait":
            self.waits.pop(msg[1], None)
        elif kind == "heal":
            if self.heal is not None:
                add = (self.heal.add_bytes if msg[1] == "bytes"
                       else self.heal.add_latency)
                add(msg[2], msg[3])
        elif kind == "fault":
            _, grank, blob, op, step = msg
            self.fault_reports[grank] = (op, step)
            self._absorb(blob)

    def _crash_error(self, grank: int, proc) -> BaseException:
        """Uniform-context RankCrashError for one real worker death."""
        exitcode = proc.exitcode
        signame = None
        if isinstance(exitcode, int) and exitcode < 0:
            try:
                signame = signal.Signals(-exitcode).name
            except ValueError:
                signame = f"signal {-exitcode}"
        last_op = None
        if grank in self.fault_reports:
            op, step = self.fault_reports[grank]
            last_op = f"{op} @ {step}" if step else op
        elif grank in self.waits:
            last_op = self.waits[grank].get("op")
        cause = self.crash_causes.get(grank)
        if cause is not None:
            message = str(cause)
        else:
            how = f"on {signame}" if signame else f"with exit code {exitcode}"
            message = (
                f"rank {grank}: worker process (pid {proc.pid}) died "
                f"{how}" + (f" during {last_op}" if last_op else "")
                + " before reporting a result"
            )
        exc = (cause if isinstance(cause, RankCrashError)
               else RankCrashError(message))
        return exc.with_context(
            rank=grank, pid=proc.pid, exitcode=exitcode, signal=signame,
            last_op=last_op, epoch=self.epoch,
        )

    def _on_exit(self, grank: int, proc) -> None:
        """One worker process ended: under healing a revocation, else
        the end of the world (a parked rank does not exit)."""
        self._drain()  # its flushed messages happened-before the exit
        if grank in self.reported and grank not in self.crash_causes:
            return  # its part of the region stands; the world does not
        exc = self._crash_error(grank, proc)
        self.waits.pop(grank, None)
        decision = self.decision
        if (
            self.heal is not None
            and decision.mode != "failed"
            and grank in decision.members
            and grank not in self.dead
        ):
            self.healed[decision.members.index(grank)] = exc
            self.dead.add(grank)
            self.epoch += 1
            for m in decision.members:
                if m not in self.dead and m in self.pending:
                    self._post(m, ("ctl", "revoke", self.epoch))
            return
        for pool in (self.parked_pool, self.respawn_pool):
            if grank in pool:
                pool.remove(grank)
                return
        self.failures.setdefault(grank, exc)
        self.failed.set()

    # ------------------------------------------------------------------ #
    # coordinator: healing
    # ------------------------------------------------------------------ #

    def _release_pools(self) -> None:
        for g in self.parked_pool + self.respawn_pool:
            if g in self.pending:
                self._post(g, ("ctl", "finish"))
        self.finish_sent = True

    def _maybe_decide(self) -> None:
        """Publish the heal decision once every survivor has voted.

        Runs only when the results queue is drained: every stale driver
        callback a survivor (or the flushed dead rank) posted before
        voting has then been consumed, so ``on_decision``'s
        ``drop_pending`` cannot race half-batch pieces arriving late.
        """
        heal, decision, epoch = self.heal, self.decision, self.epoch
        if heal is None or decision.mode == "failed" or epoch <= decision.epoch:
            return
        if self.failed.is_set():
            # a non-crash failure already aborted the run; don't heal it
            return
        dead = self.dead
        alive = [m for m in decision.members if m not in dead]
        if not set(alive) <= self.votes.get(epoch, set()):
            return
        # every survivor voted == every survivor abandoned the revoked
        # epoch's ops: the dead ranks' leftover segments are orphans now
        for g in sorted(dead - self.swept_dead):
            self.heal_swept += sweep_segments(self.run_id, rank=g)
            self.swept_dead.add(g)
        need = sum(1 for m in decision.members if m in dead)
        if heal.mode == "shrink" and len(self.respawn_pool) < need:
            new = HealDecision(
                epoch, decision.members, decision.restart_batch, "failed",
                reason=(
                    f"respawn pool exhausted: {need} position(s) to refill,"
                    f" {len(self.respawn_pool)} pre-forked worker(s) left"
                ),
            )
        else:
            new, _respawns = compute_decision(
                epoch, decision, dead, heal.mode, heal.restart_point(),
                parked=[g for g in self.parked_pool if g in self.pending],
                alloc_rank=lambda: self.respawn_pool.pop(0),
                max_rounds=heal.max_rounds,
            )
            # compute_decision popped promotions from the live view;
            # mirror that on the authoritative pool
            self.parked_pool = [
                g for g in self.parked_pool if g not in new.promoted
            ]
        heal.on_decision(new)
        self.decision = new
        for m in new.members:
            if m not in dead and m in self.pending:
                self._post(m, ("ctl", "decision", new))
        if new.mode == "failed":
            self._release_pools()

    # ------------------------------------------------------------------ #
    # coordinator: cross-process watchdog
    # ------------------------------------------------------------------ #

    def _notify_hang(self, grank: int, kind: str, nodes) -> None:
        """Ship a classified hang to one blocked worker, which raises
        the :class:`HangError` (same kinds as the threaded watchdog)."""
        waits = self.waits
        now = time.monotonic()
        dump = {}
        lines = []
        for r in sorted({grank, *nodes} & set(waits)):
            rec = waits[r]
            blocked = round(max(now - rec["since"], 0.0), 3)
            dump[r] = {
                "rank": r, "pid": rec["pid"], "op": rec["op"],
                "comm": rec["comm"], "tag": rec["tag"], "op_id": None,
                "pending": list(rec["pending"]), "blocked_s": blocked,
                "heartbeat": rec.get("heartbeat", 0),
            }
            lines.append(
                f"  rank {r}: {rec['op']} on {rec['comm']}"
                + (f" tag {rec['tag']}" if rec["tag"] is not None else "")
                + f" waiting on {list(rec['pending'])} for {blocked}s"
                f" in pid {rec['pid']}"
            )
        rec = waits[grank]
        if kind == "deadlock":
            head = (
                f"deadlock: cyclic wait among ranks "
                f"{' -> '.join(str(r) for r in nodes)} -> {nodes[0]} "
                "(cross-process wait-for graph, confirmed on two sweeps)"
            )
        else:
            head = (
                f"rank {grank} (worker process pid {rec['pid']}): "
                f"{rec['op']} waits on rank(s) "
                f"{', '.join(str(p) for p in nodes)} whose worker "
                "already left the region; no heal layer can replace them"
            )
        self._post(grank, ("ctl", "hang", kind, tuple(nodes), dump,
                           "\n".join([head, *lines]), rec["since"]))
        self.hang_sent = (grank, rec["since"])

    def _watchdog_sweep(self) -> None:
        """Cross-process deadlock / peer-exited classification."""
        waits = self.waits
        if self.hang_sent is not None:
            # an outstanding notice is bound to one specific wait; if
            # that wait resolved anyway (the data raced in), the worker
            # dropped the stale notice and the watchdog re-arms
            g, s = self.hang_sent
            if g in waits and waits[g]["since"] == s:
                return
            self.hang_sent = None
        if self.failed.is_set() or not waits:
            self.prev_cycle_sig = None
            return
        if self.heal is None:
            for g in sorted(waits):
                gone = tuple(
                    p for p in waits[g]["pending"]
                    if p in self.reported or p in self.dead
                )
                if gone:
                    self._notify_hang(g, "peer-exited", gone)
                    return
        # the ``.pending`` surface World._find_cycle walks
        nodes = {g: SimpleNamespace(pending=tuple(rec["pending"]))
                 for g, rec in waits.items()}
        for g in sorted(nodes):
            cycle = World._find_cycle(nodes, g)
            if cycle:
                sig = tuple((r, waits[r]["since"]) for r in cycle)
                if sig == self.prev_cycle_sig:
                    self._notify_hang(cycle[0], "deadlock", tuple(cycle))
                else:
                    self.prev_cycle_sig = sig
                return
        self.prev_cycle_sig = None
