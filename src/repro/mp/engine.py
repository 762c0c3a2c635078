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
reports its return value — or the exception it raised — with its
tracker events and transport statistics through its results queue.  The
return value is a message like any other (:meth:`Transport.ship
<repro.mp.transport.Transport.ship>`): its large arrays ride one segment
the driver adopts, only the descriptor is pickled into the pipe, and the
caller gets read-only views.  Region ``n`` runs on epoch-``n``
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

The parent runs the region's **cross-process watchdog**: blocked workers
ship their wait records after a grace period; the parent assembles the
wait-for graph, confirms a deadlock cycle over two sweeps (or a peer
that already left the region) and notifies the classified rank, which
raises the :class:`HangError` kinds the threaded watchdog produces.  A
flat parent deadline slightly above the region's timeout remains the
last backstop.
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

from ..errors import HangError, RankCrashError
from ..simmpi.comm import DEFAULT_TIMEOUT, World
from ..simmpi.engine import PerRank, as_injector, settle
from ..simmpi.tracker import CommTracker
from . import bridge
from .bridge import DriverCallback
from .comm import MpComm, MpWorld, world_comm_id
from .shm import SegmentRegistry, sweep_segments
from .transport import get_transport, reap_wire, receive

_RUN_COUNTER = itertools.count(1)


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


def _run_region(world: ProcessWorld, rt: MpWorld, region: int,
                timeout: float, blob: bytes) -> None:
    """One submitted region on one worker: call the inherited body with
    the shipped keyword arguments and report — the value or the
    exception, and either way what the rank metered."""
    rank, results = rt.rank, rt.results
    wire, injector, checksums = pickle.loads(blob)
    rt.begin_region(region, timeout, checksums, injector)
    if injector is not None:
        _install_crash_action(rt, injector, rank)

    def meters():
        return (
            pickle.dumps(rt.tracker.events), rt.transport.stats(),
            None if injector is None else pickle.dumps(injector.snapshot()),
        )

    try:
        comm = MpComm(rt, world_comm_id(region),
                      tuple(range(world.nprocs)), rank)
        value = world.fn(comm, *world.args, **world.kwargs,
                         **rt.transport.decode(wire))
        shipped = rt.transport.ship(value)
        rt.finish()
        results.put(("done", rank, shipped, *meters()))
    except BaseException as exc:  # noqa: BLE001 — reported via SpmdError
        rt.abandon()
        rt.failed.set()
        results.put(("err", rank, _pickle_exc(rank, exc), *meters()))


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
            _run_region(world, rt, *job)
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
        # Start the resource-tracker daemon *before* forking: all workers
        # then share one tracker, so a segment registered at creation in
        # one rank and unregistered at unlink time in another balances
        # out instead of each rank's private tracker warning of "leaks".
        resource_tracker.ensure_running()
        self.inboxes = [ctx.Queue() for _ in range(self.nprocs)]
        # one results queue per worker, not one for all: a queue's write
        # lock is shared by its writers, and a rank killed while holding
        # it would silence every other rank for good
        self.results = [ctx.Queue() for _ in range(self.nprocs)]
        # regions are submitted over one plain pipe per worker, written
        # inline: a ``Queue.put`` would start a feeder thread per inbox
        # in the parent of every world
        self.jobs = [ctx.Pipe(duplex=False) for _ in range(self.nprocs)]
        self.failed = ctx.Event()
        self.callbacks = _scan_callbacks(self.fn, self.args, self.kwargs)
        self.procs = {
            grank: ctx.Process(
                target=_worker_main, args=(self, grank), daemon=True,
                name=f"repro-mp-rank-{grank}",
            )
            for grank in range(self.nprocs)
        }
        for proc in self.procs.values():
            proc.start()
        for reader, _writer in self.jobs:
            reader.close()
        self.pending = dict(self.procs)
        return self

    def stop(self) -> int:
        """Reap every worker, sweep this world's shm segments, close the
        queues; returns the number of segments swept (0 on a clean world).
        Idempotent, and on *every* way out of a world — a parent-side
        exception in a driver callback included."""
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
               faults=None, checksums: bool | None = None, **kwargs) -> list:
        """Run one region: every rank calls the body with ``kwargs``
        added (a :class:`~repro.simmpi.engine.PerRank` value hands rank
        ``i`` its ``i``-th element only).  The other arguments and the
        contract — the per-rank return list, or :class:`SpmdError` — are
        :func:`~repro.simmpi.engine.run_spmd`'s; the fault injector is
        shipped to the workers and its activity absorbed back."""
        if self.pending is None:
            raise RuntimeError("this process world is not running")
        self._begin(float(timeout), as_injector(faults), checksums, kwargs)
        try:
            self._supervise()
        except BaseException:
            self.stop()  # workers are mid-region: nothing to come back to
            raise
        return self._collect(tracker, world_info)

    # ------------------------------------------------------------------ #
    # one region: begin, supervise, collect
    # ------------------------------------------------------------------ #

    def _begin(self, timeout: float, injector, checksums, kwargs) -> None:
        """Reset the coordinator's per-region state and post the job."""
        checksums = (injector is not None) if checksums is None else bool(checksums)
        jobs = []
        for grank in self.pending:
            mine = PerRank.pick(kwargs, grank)
            # pickled here, not in a queue feeder thread: an argument
            # that cannot cross surfaces at the call site, before any
            # rank has been told anything
            jobs.append((grank, pickle.dumps(
                (self._encoder.encode(mine, receivers=1), injector, checksums)
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
            self._submit_job(grank, (self.region, timeout, blob))

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
            failures[rank] = HangError(
                f"rank {rank}: worker process (pid {proc.pid}) produced "
                f"no result within the parent deadline "
                f"({self.deadline_s:.1f}s) and was terminated",
                kind="timeout",
                dump={rank: {
                    "rank": rank, "pid": proc.pid, "op": "(outside comm)",
                    "tag": None, "pending": [],
                    "blocked_s": round(self.deadline_s, 3),
                }},
            ).with_context(rank=rank, pid=proc.pid)

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
                "swept_segments": swept,
            })
        return settle(values, failures)

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
            last_op = self.waits[grank].get("op")
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
        # ranks blocked on their inbox look at ``failed`` when the pump
        # returns: wake them now, not a tick (up to 0.2 s) from now
        for peer in self.pending:
            self._post(peer, ("ctl", "abort"))

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
                "already left the region and can never arrive"
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
        for g in sorted(waits):
            gone = tuple(p for p in waits[g]["pending"] if p in self.meters)
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
