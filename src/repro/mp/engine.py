"""Process-backed SPMD engine: one OS process per rank, forked once.

A :class:`ProcessWorld` has a lifecycle — ``start → submit(region)* →
stop``.  ``start`` forks one worker per rank; the SPMD body
``fn(comm, *args, **kwargs)`` and its arguments are inherited
copy-on-write, so closures, lambdas and
:class:`~repro.mp.bridge.DriverCallback` wrappers need not pickle.
Workers then park on their job pipe.  Each ``submit`` is one SPMD region on
the parked workers: it ships a deadline, the fault injector and a few
*picklable* keyword arguments (through the world's transport, so arrays
ride shared memory); every rank calls the inherited body with them and
reports its return value — or the exception it raised — with its
tracker events, transport statistics and resource usage (page faults,
CPU time) through its report pipe.  The
return value is a message like any other (:meth:`Transport.ship
<repro.mp.transport.Transport.ship>`): its large arrays ride one segment
the driver adopts, only the descriptor is pickled into the pipe, and the
caller gets read-only views.  Region ``n`` runs on epoch-``n``
communicators, so what an aborted region left on the wire is stale to
the next one and is reaped, never decoded.  One-shot
:func:`repro.simmpi.engine.run_spmd` is exactly ``start; submit; stop``
— same per-rank return list, same :class:`~repro.errors.SpmdError` with
cascade filtering as the threaded world.

A region in which ranks **raise** (any exception, an injected
:class:`~repro.errors.MemoryPressureError`, a classified
:class:`~repro.errors.HangError`) fails alone: the error surfaces, the
world's segments are swept, the workers park for the next submit.  A
rank **process that dies** (``SIGKILL``, an injected ``crash`` —
:func:`FaultInjector.crash_action` kills the worker for real —, the
parent deadline) takes what it held with it: the world is stopped
(terminate, join, sweep) and the death surfaces as a
:class:`~repro.errors.RankCrashError` with uniform ``err.context`` (pid,
exit code, signal name, last traced op, epoch).

The parent runs the region's **cross-process watchdog**: blocked workers
ship their wait records after a grace period; the parent assembles the
wait-for graph, confirms a deadlock cycle over two sweeps (or a peer
that already left the region) and notifies the classified rank, which
raises the :class:`HangError` kinds the threaded watchdog produces.  A
flat parent deadline slightly above the region's timeout remains the
last backstop.
"""

from __future__ import annotations

import ctypes
import itertools
import multiprocessing
import os
import pickle
import queue as _queue
import resource
import signal
import sys
import threading
import time
from collections.abc import Callable
from multiprocessing.connection import wait as _wait_any
from typing import Any

from ..errors import RankCrashError
from ..simmpi.carrier import WaitRecord, diagnose, hang_error
from ..simmpi.comm import DEFAULT_TIMEOUT, SimComm
from ..simmpi.engine import PerRank, as_injector, settle
from ..simmpi.tracker import CommTracker
from . import bridge
from .bridge import DriverCallback
from .comm import MpWorld, world_comm_id
from .shm import SegmentRegistry, sweep_dead_runs, sweep_segments
from .transport import get_transport, reap_wire, receive

_RUN_COUNTER = itertools.count(1)
# glibc's malloc_trim, or None where the C library has none
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)


def _fresh_run_id() -> str:
    return f"repro-{os.getpid()}-{next(_RUN_COUNTER)}-{os.urandom(3).hex()}"


def _scan_callbacks(fn, args, kwargs) -> list[DriverCallback]:
    """Find DriverCallback wrappers in the launch arguments (shallow)
    and assign each its wire index."""
    found: list[DriverCallback] = []
    for value in (*args, *kwargs.values()):
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

    The action reports the fault log to the parent (so the driver's
    injector still reports the event), then raises SIGKILL against
    itself.  The parent sees exit code ``-SIGKILL``, exactly what a
    segfaulted or OOM-killed rank looks like; an item the rank left
    half-written in a peer's pipe dies with it."""

    def crash_action(spec, event) -> None:
        op = event.op
        if op is None and event.batch is not None:
            # plan-level crash: its coordinates are (batch, stage)
            op = f"batch {event.batch}" + (
                f" stage {event.stage}" if event.stage is not None else ""
            )
        rt.report("fault", rank, pickle.dumps(injector.snapshot()), op,
                  event.step)
        os.kill(os.getpid(), signal.SIGKILL)

    injector.crash_action = crash_action


def _run_region(world: ProcessWorld, rt: MpWorld, region: int,
                timeout: float, blob: bytes) -> None:
    """One submitted region on one worker: call the inherited body with
    the shipped keyword arguments and report — the value or the
    exception, and either way what the rank metered."""
    rank = rt.rank
    born = resource.getrusage(resource.RUSAGE_SELF)
    wire, injector = pickle.loads(blob)
    rt.begin_region(region, timeout, injector)
    if injector is not None:
        _install_crash_action(rt, injector, rank)

    def meters():
        now = resource.getrusage(resource.RUSAGE_SELF)
        return (
            pickle.dumps(rt.tracker.events), {
                **rt.transport.stats(),
                "rank_minflt": now.ru_minflt - born.ru_minflt,
                "rank_user_s": now.ru_utime - born.ru_utime,
                "rank_sys_s": now.ru_stime - born.ru_stime,
            },
            None if injector is None else pickle.dumps(injector.snapshot()),
        )

    try:
        comm = SimComm(rt, world_comm_id(region),
                       tuple(range(world.nprocs)), rank)
        value = world.fn(comm, *world.args, **world.kwargs,
                         **rt.transport.decode(wire))
        shipped = rt.transport.ship(value)
        rt.finish()
        rt.report("done", rank, shipped, *meters())
    except BaseException as exc:  # noqa: BLE001 — reported via SpmdError
        # the abort is visible before any segment goes: a receiver that
        # finds one gone reads it as the abort (MpWorld._await)
        rt.failed.set()
        rt.abandon()
        rt.report("err", rank, _pickle_exc(rank, exc), *meters())


def _worker_main(world: ProcessWorld, rank: int, links: dict) -> None:
    """A rank process: park, run each submitted region, park again —
    until the world is stopped or the parent is gone."""
    try:  # the task name `pgrep repro-mp-rank` matches (Linux)
        with open("/proc/self/comm", "w") as comm_file:
            comm_file.write(f"repro-mp-rank-{rank}")
    except OSError:
        pass
    # keep only this rank's ends of the parent's pipes: with no stray
    # copies a vanished parent reads as end-of-file, a vanished rank as
    # EPIPE (MpWorld does the same with the rank-pair pipes)
    for grank in range(world.nprocs):
        world.jobs[grank][1].close()
        world.results[grank][0].close()
        if grank != rank:
            world.jobs[grank][0].close()
            world.results[grank][1].close()
    # the caller's free heap came along with the fork: drop it from this
    # copy of the address space, so that new arrays take zero-filled
    # pages instead of copy-on-write copies of pages nobody needs
    if _malloc_trim is not None:
        _malloc_trim(0)
    rt = MpWorld(rank, links, world.jobs[rank][0],
                 world.results[rank][1], world.failed,
                 transport=world.transport, run_id=world.run_id)
    bridge.set_runtime(rt)
    code = 1
    try:
        for job in iter(lambda: rt.next_job(world.parent_pid), None):
            _run_region(world, rt, *job)
        code = 0
    finally:
        # orphaned or stopped mid-region: whatever this rank still owns
        # in /dev/shm goes with it
        rt.abandon()
        # the last thing this rank tells the parent: from here on it
        # holds nothing shared, only its own teardown is left
        rt.report("bye", rank)
        sys.stdout.flush()
        sys.stderr.flush()
        # skip interpreter teardown: nothing is left to flush, and the
        # parent's state this process inherited is not its to finalize
        os._exit(code)


class _Reaper:
    """One daemon thread that joins worker processes which already said
    bye: all that is left of them is the kernel's teardown of their copy
    of the parent's address space, which nobody needs to wait for.
    Started on first use and again in a forked child (threads do not
    survive a fork)."""

    def __init__(self) -> None:
        self.thread: threading.Thread | None = None
        self.todo: _queue.SimpleQueue = _queue.SimpleQueue()

    def reap(self, procs) -> None:
        if self.thread is None or not self.thread.is_alive():
            self.todo = _queue.SimpleQueue()
            self.thread = threading.Thread(
                target=self._run, args=(self.todo,),
                name="repro-mp-reaper", daemon=True,
            )
            self.thread.start()
        self.todo.put(procs)

    @staticmethod
    def _run(todo) -> None:
        while True:
            for proc in todo.get():
                proc.join()


_reaper = _Reaper()


class ProcessWorld:
    """``nprocs`` forked rank workers running ``fn(comm, *args,
    **kwargs, **submitted)`` once per :meth:`submit` (lifecycle and
    failure semantics: module docstring).  ``transport`` is one of
    :data:`~repro.mp.transport.TRANSPORTS`."""

    def __init__(self, nprocs: int, fn: Callable[..., Any], args=(),
                 kwargs=None, *, transport: str = "auto") -> None:
        self.nprocs = int(nprocs)
        self.fn, self.args, self.kwargs = fn, tuple(args), dict(kwargs or {})
        self.transport = transport
        self.run_id = _fresh_run_id()
        #: the parent's own encoder (an unknown transport is refused
        #: here): submitted arguments — scattered tiles, a mask — reach
        #: the ranks the way rank traffic does
        self._encoder = get_transport(transport)(
            SegmentRegistry(self.run_id, self.nprocs)
        )
        self.parent_pid = os.getpid()
        self.region = -1
        #: live worker processes by rank; ``None`` before
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
        # a parent killed mid-region left its segments behind
        sweep_dead_runs()
        # every pipe has one writer, written inline — no lock, no feeder
        # thread — and is read only by its owner: one per ordered rank
        # pair for rank traffic, one per rank each way to the parent
        # (regions and ctl items down, reports up)
        nprocs = self.nprocs
        links = {(src, dst): os.pipe() for src in range(nprocs)
                 for dst in range(nprocs) if src != dst}
        self.results = [ctx.Pipe(duplex=False) for _ in range(nprocs)]
        self.jobs = [ctx.Pipe(duplex=False) for _ in range(nprocs)]
        self.failed = ctx.Event()
        self.callbacks = _scan_callbacks(self.fn, self.args, self.kwargs)
        self.procs = {
            grank: ctx.Process(
                target=_worker_main, args=(self, grank, links), daemon=True,
                name=f"repro-mp-rank-{grank}",
            )
            for grank in range(nprocs)
        }
        for proc in self.procs.values():
            proc.start()
        for grank in range(nprocs):
            self.jobs[grank][0].close()
            self.results[grank][1].close()
        for fds in links.values():
            for fd in fds:
                os.close(fd)
        self.pending = dict(self.procs)
        return self

    def stop(self) -> int:
        """Let every worker go, sweep this world's shm segments, close the
        pipes; returns the number of segments swept (0 on a clean world).
        A worker that said bye is reaped in the background, the others
        (dead, or terminated after a grace period) before returning.
        Idempotent, and on *every* way out of a world — a parent-side
        exception in a driver callback included."""
        if self.pending is None:
            return 0
        pending, self.pending = self.pending, None
        self.failed.set()  # ranks still inside a region abort their waits
        for grank in pending:  # read once the rank is parked
            self._send(grank, None)
        byes = self._await_byes(pending, time.monotonic() + 2.0)
        for grank, proc in pending.items():
            if grank in byes:
                continue
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
        # a rank that said bye holds nothing any more: only the kernel's
        # teardown of its copy of our address space is left (milliseconds
        # per rank under a big parent), waited out off the caller's path
        if byes:
            _reaper.reap([pending[grank] for grank in byes])
        # every worker said bye, was joined or was killed: nothing can
        # attach now
        swept = sweep_segments(self.run_id)
        for grank in range(self.nprocs):
            self.results[grank][0].close()
            self.jobs[grank][1].close()
        return swept

    def _await_byes(self, pending: dict, grace: float) -> set:
        """Wait until every rank in ``pending`` said bye (its last
        message) or died, at most until ``grace``; returns the ranks that
        said bye.  What else a stopped rank still reports is dropped."""
        byes: set = set()
        left = dict(pending)
        while left:
            for grank in list(left):
                if self._said_bye(grank):
                    byes.add(grank)
                    del left[grank]
                elif not left[grank].is_alive():
                    del left[grank]
            timeout = grace - time.monotonic()
            if not left or timeout <= 0:
                break
            _wait_any([*(self.results[g][0] for g in left),
                       *(p.sentinel for p in left.values())], timeout=timeout)
        return byes

    def _said_bye(self, grank: int) -> bool:
        reports = self.results[grank][0]
        while True:
            try:
                if not reports.poll():
                    return False
                msg = pickle.loads(reports.recv_bytes())
            except (OSError, EOFError):
                return False
            except Exception:  # a late report that does not unpickle
                continue
            if msg[0] == "bye":
                return True

    def submit(self, *, tracker: CommTracker | None = None,
               timeout: float = DEFAULT_TIMEOUT, world_info: dict | None = None,
               faults=None, **kwargs) -> list:
        """Run one region: every rank calls the body with ``kwargs``
        added (a :class:`~repro.simmpi.engine.PerRank` value hands rank
        ``i`` its ``i``-th element only).  The other arguments and the
        contract — the per-rank return list, or :class:`SpmdError` — are
        :func:`~repro.simmpi.engine.run_spmd`'s; the fault injector is
        shipped to the workers and its activity absorbed back."""
        if self.pending is None:
            raise RuntimeError("this process world is not running")
        self._begin(float(timeout), as_injector(faults), kwargs)
        try:
            self._supervise()
        except BaseException:
            self.stop()  # workers are mid-region: nothing to come back to
            raise
        return self._collect(tracker, world_info)

    # ------------------------------------------------------------------ #
    # one region: begin, supervise, collect
    # ------------------------------------------------------------------ #

    def _begin(self, timeout: float, injector, kwargs) -> None:
        """Reset the coordinator's per-region state and post the job."""
        jobs = []
        for grank in self.pending:
            mine = PerRank.pick(kwargs, grank)
            # pickled before any job is written: an argument that
            # cannot cross surfaces at the call site, before any rank
            # has been told anything
            jobs.append((grank, pickle.dumps(
                (self._encoder.encode(mine, receivers=1), injector)
            )))
        self.region += 1
        self.timeout = timeout
        self.injector = injector
        self.done: dict[int, tuple] = {}   # rank -> shipped return value
        self.failures: dict[int, BaseException] = {}
        #: rank -> (events blob, transport stats) of every rank that
        #: reported, whether it returned or raised
        self.meters: dict[int, tuple] = {}
        self.fault_reports: dict[int, tuple] = {}
        self.waits: dict[int, dict] = {}   # rank -> shipped wait record
        self.hang_sent: tuple | None = None  # (rank, since) of live notice
        self.prev_cycle_sig = None
        self.failed.clear()
        for grank, blob in jobs:
            self._send(grank, (self.region, timeout, blob))

    def _supervise(self) -> None:
        """Serve the region until every live worker has reported."""
        self.deadline_s = self.timeout * 1.25 + 15.0
        deadline = time.monotonic() + self.deadline_s
        watch_interval = max(0.25, min(1.0, self.timeout / 10.0))
        next_watch = time.monotonic() + watch_interval
        while not set(self.pending) <= self.meters.keys():
            # Sleep until a message arrives or a worker exits, with the
            # tick as the idle timeout that paces the watchdog and the
            # deadline.  An exited worker's sentinel stays ready, but it
            # is reaped (and leaves the wait set) below, so nothing
            # spins on it.
            _wait_any(
                [*(self.results[g][0] for g in self.pending),
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
            if now >= next_watch:
                self._watchdog_sweep()
                next_watch = now + watch_interval
            if now >= deadline:
                self.failed.set()
                break
        self._drain()

    def _collect(self, tracker, world_info) -> list:
        """Settle the region: take over what the ranks returned, sweep,
        classify ranks that never reported, merge the meters of those
        that did — the region need not have succeeded for its traffic to
        have happened — and return the values or raise."""
        failures, done = self.failures, self.done
        # result segments change hands before anything sweeps /dev/shm:
        # adopted when the region stands, reaped undecoded when it fell
        values = []
        if not failures and len(done) == self.nprocs:
            values = [receive(done[r]) for r in range(self.nprocs)]
        else:
            for wire in done.values():
                reap_wire(wire)
        # a worker that died took its tiles along, one that blew the
        # parent deadline is not coming back: either way the world ends
        over = (
            len(self.pending) < self.nprocs
            or not set(self.pending) <= self.meters.keys()
        )
        swept = self.stop() if over else sweep_segments(self.run_id)
        for rank in range(self.nprocs):
            if rank in done or rank in failures:
                continue
            proc = self.procs[rank]
            if proc.exitcode not in (0, None):
                failures[rank] = self._crash_error(rank, proc)
                continue
            me = WaitRecord(rank, "(outside comm)", "?", None, None, (),
                            time.monotonic() - self.deadline_s, 0, proc.pid)
            failures[rank] = hang_error("timeout", me, {}, head=(
                f"rank {rank}: worker process (pid {proc.pid}) produced "
                f"no result within the parent deadline "
                f"({self.deadline_s:.1f}s) and was terminated"
            ))

        stats_rows = [self._encoder.stats()]
        self._encoder.reset_stats()
        for rank in sorted(self.meters):
            evblob, stats = self.meters[rank]
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
                **{key: sum(s[key] for s in stats_rows[1:])  # ranks only
                   for key in ("rank_minflt", "rank_user_s", "rank_sys_s")},
                "swept_segments": swept,
            })
        return settle(values, failures)

    # ------------------------------------------------------------------ #
    # coordinator: messages and worker exits
    # ------------------------------------------------------------------ #

    def _send(self, grank: int, item) -> None:
        """A job (``None``: stop) or a ``ctl`` item down the job pipe.
        Never to a dead rank (a large job would block on its pipe); the
        supervisor reaps and classifies the death."""
        if self.procs[grank].is_alive():
            try:
                self.jobs[grank][1].send_bytes(pickle.dumps(item))
            except OSError:
                pass

    def _drain(self) -> None:
        for reports, _writer in self.results:
            while True:
                try:
                    if not reports.poll():
                        break
                    blob = reports.recv_bytes()
                except EOFError:  # its writer is gone
                    break
                self._handle(pickle.loads(blob))

    def _absorb(self, fault_blob) -> None:
        if fault_blob is not None and self.injector is not None:
            self.injector.absorb(*pickle.loads(fault_blob))

    def _handle(self, msg) -> None:
        kind = msg[0]
        if kind == "cb":
            self.callbacks[msg[2]].fn(*receive(msg[3]))
        elif kind in ("done", "err"):
            _, grank, blob, evblob, stats, fault_blob = msg
            if kind == "done":
                self.done[grank] = blob
            else:
                try:
                    self.failures[grank] = pickle.loads(blob)
                except Exception as exc:
                    self.failures[grank] = RuntimeError(
                        f"rank {grank}: worker failed (exception did not "
                        f"unpickle: {exc!r})"
                    )
            self.meters[grank] = (evblob, stats)
            self.waits.pop(grank, None)
            self._absorb(fault_blob)
        elif kind == "wait":
            self.waits[msg[1]] = msg[2]
        elif kind == "endwait":
            self.waits.pop(msg[1], None)
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
            last_op = self.waits[grank].op
        how = f"on {signame}" if signame else f"with exit code {exitcode}"
        return RankCrashError(
            f"rank {grank}: worker process (pid {proc.pid}) died "
            f"{how}" + (f" during {last_op}" if last_op else "")
            + " before reporting a result"
        ).with_context(
            rank=grank, pid=proc.pid, exitcode=exitcode, signal=signame,
            last_op=last_op, epoch=self.region,
        )

    def _on_exit(self, grank: int, proc) -> None:
        """One worker process ended mid-world (a parked rank does not
        exit): unless it had reported, the region is over."""
        self._drain()  # its flushed messages happened-before the exit
        if grank in self.meters:
            return  # its part of the region stands; the world does not
        self.waits.pop(grank, None)
        self.failures.setdefault(grank, self._crash_error(grank, proc))
        self.failed.set()
        # ranks blocked in a wait look at ``failed`` when the pump
        # returns: wake them now, not a tick (up to 0.2 s) from now
        for peer in self.pending:
            self._send(peer, ("ctl", "abort"))

    # ------------------------------------------------------------------ #
    # coordinator: cross-process watchdog
    # ------------------------------------------------------------------ #

    def _notify_hang(self, grank: int, kind: str, nodes) -> None:
        """Ship a classified hang to one blocked worker, which raises the
        :class:`HangError` with the wait records of the ranks involved."""
        waits = self.waits
        since = waits[grank].since
        records = {r: waits[r] for r in {grank, *nodes} if r in waits}
        self._send(grank, ("ctl", "hang", kind, tuple(nodes), records, since))
        self.hang_sent = (grank, since)

    def _watchdog_sweep(self) -> None:
        """Cross-process deadlock / peer-exited classification: the
        thread watchdog's :func:`diagnose` over the shipped wait records,
        with the ranks that reported as the ones that left."""
        waits = self.waits
        if self.hang_sent is not None:
            # an outstanding notice is bound to one specific wait; if
            # that wait resolved anyway (the data raced in), the worker
            # dropped the stale notice and the watchdog re-arms
            g, s = self.hang_sent
            if g in waits and waits[g].since == s:
                return
            self.hang_sent = None
        verdicts = [] if self.failed.is_set() else [
            (g, v) for g in sorted(waits)
            if (v := diagnose(waits, self.meters, g)) is not None
        ]
        for g, (kind, nodes, _) in verdicts:
            if kind == "peer-exited":
                self._notify_hang(g, kind, nodes)
                return
        sig = verdicts[0][1][2] if verdicts else None
        if sig is not None and sig == self.prev_cycle_sig:
            cycle = verdicts[0][1][1]
            self._notify_hang(cycle[0], "deadlock", cycle)
        self.prev_cycle_sig = sig
