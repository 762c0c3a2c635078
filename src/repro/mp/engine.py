"""Process-backed SPMD engine: one OS process per rank.

Mirrors :func:`repro.simmpi.engine.run_spmd` — same body signature
``fn(comm, *args, **kwargs)``, same per-rank return-value list, same
:class:`~repro.errors.SpmdError` failure semantics with cascade
filtering — but each rank is a forked worker with a real interpreter, so
local SpGEMM kernels run on separate cores instead of time-slicing one
GIL.

Workers are started with the ``fork`` method: the SPMD body, its
arguments, the :class:`~repro.simmpi.faults.FaultInjector` and any
:class:`~repro.mp.bridge.DriverCallback` wrappers are inherited
copy-on-write, so nothing outbound needs to be picklable.  Inbound
traffic (return values, tracker events, exceptions, callback arguments,
heal votes and meters, watchdog wait records) is pickled explicitly in
the worker — errors surface at the call site, not in a queue feeder
thread.

The parent is the resilience coordinator:

* **real crash faults** — an injected ``crash`` fires
  :func:`FaultInjector.crash_action` inside the worker, which ships the
  fault log up, flushes its queues and ``SIGKILL``\\ s itself; the parent
  observes the ``-SIGKILL`` exit code, never a Python traceback, and
  synthesises a :class:`~repro.errors.RankCrashError` with uniform
  ``err.context`` (pid, exit code, signal name, last traced op, epoch);
* **healing** — with ``heal=`` the death becomes an epoch revocation:
  the parent ships ``("ctl", "revoke", epoch)`` to the survivors,
  collects their votes, sweeps the dead rank's leftover shared-memory
  segments (only after every survivor has voted — nothing can attach
  them any more), computes the
  :class:`~repro.simmpi.membership.HealDecision` with the same
  :func:`~repro.simmpi.membership.compute_decision` the threaded world
  uses, and publishes it.  Spare ranks and the shrink-mode respawn pool
  are forked *up front* and parked (queues cannot be created after the
  fork), then promoted by decision;
* **cross-process watchdog** — blocked workers ship their wait records
  after a grace period; the parent assembles the wait-for graph,
  confirms a deadlock cycle over two sweeps (or an exited peer, when no
  heal layer could replace it) and notifies the classified rank, which
  raises the same :class:`~repro.errors.HangError` kinds the threaded
  watchdog produces.  A flat parent deadline slightly above the world
  timeout remains the last backstop.

After all workers are joined, :func:`~repro.mp.shm.sweep_segments`
removes any shared-memory segment a crashed worker left behind.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as _queue
import signal
import sys
import time
from collections.abc import Callable
from multiprocessing.connection import wait as _wait_any
from typing import Any

from ..errors import CommError, HangError, RankCrashError, SpmdError
from ..simmpi.comm import DEFAULT_TIMEOUT, World
from ..simmpi.membership import HealDecision, compute_decision
from ..simmpi.tracker import CommTracker
from . import bridge
from .bridge import DriverCallback
from .comm import MpComm, MpMembership, MpWorld, _HealProxy
from .shm import sweep_segments
from .transport import TRANSPORTS

_RUN_COUNTER = 0


def _fresh_run_id() -> str:
    global _RUN_COUNTER
    _RUN_COUNTER += 1
    return f"repro-{os.getpid()}-{_RUN_COUNTER}-{os.urandom(3).hex()}"


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
            events, fired = injector.snapshot()
            rt.results.put(("fault", rank, pickle.dumps((events, fired)),
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
    """Spare/respawn-pool main loop: pump the inbox until promoted
    (returns ``(position, decision)``) or released (returns ``None``)."""
    deadline = time.monotonic() + rt.timeout * 1.25 + 15.0
    while True:
        if rt.finish_flag or rt.failed.is_set():
            return None
        assigned = rt.membership.assignment(rank)
        if assigned is not None:
            return assigned
        try:
            item = rt.inbox.get(timeout=rt._tick)
        except _queue.Empty:
            item = None
        if item is not None:
            rt._demux(item)
        elif time.monotonic() >= deadline:
            return None


def _worker_main(rank, nprocs, inboxes, results, failed, fn, args, kwargs,
                 timeout, checksums, transport, run_id, injector,
                 heal_info, parked) -> None:
    rt = MpWorld(
        rank, nprocs, inboxes, failed,
        timeout=timeout, checksums=bool(checksums),
        transport=transport, run_id=run_id,
    )
    rt.results = results
    bridge.set_runtime(rt)
    rt.injector = injector
    if injector is not None:
        _install_crash_action(rt, injector, rank)
    if heal_info is not None:
        rt.membership = MpMembership(
            rt, nprocs, heal_info["first_batch"], heal_info["mode"]
        )
        rt.heal_proxy = _HealProxy(rt)
        rt.transport.segments.track_transfers = True
    ok = False
    position = None
    try:
        if parked:
            promotion = _park(rt, rank)
            if promotion is None:
                results.put(("idle", rank))
                ok = True
                return
            position = promotion[0]
            value = fn.run(rt, position, rank)
        else:
            position = rank
            comm = MpComm(rt, ("world",), tuple(range(nprocs)), rank)
            value = fn(comm, *args, **kwargs)
        blob = pickle.dumps(value)
        rt.finish()
        fault_blob = (
            pickle.dumps(injector.snapshot()) if injector is not None
            else None
        )
        results.put((
            "done", rank, position, blob,
            pickle.dumps(rt.tracker.events), rt.transport.stats(),
            fault_blob,
        ))
        ok = True
    except RankCrashError as exc:
        # injected crashes normally die by SIGKILL inside crash_action;
        # a *raised* RankCrashError under healing is still one rank's
        # death, not a run-wide abort — report it and exit nonzero so
        # the parent runs the same revocation path
        rt.abandon()
        if rt.membership is not None:
            results.put(("crashed", rank, _pickle_exc(rank, exc)))
        else:
            failed.set()
            results.put(("err", rank, position, _pickle_exc(rank, exc)))
    except BaseException as exc:  # noqa: BLE001 — reported via SpmdError
        failed.set()
        rt.abandon()
        results.put(("err", rank, position, _pickle_exc(rank, exc)))
    finally:
        # the results queue must always flush — on the failure path the
        # ("err", ...) blob is exactly what the parent is waiting for;
        # peer inboxes may never be drained after a failure, so those
        # are abandoned rather than waited on
        try:
            results.close()
            results.join_thread()
        except Exception:
            pass
        for q in inboxes:
            try:
                q.close()
                if ok:
                    q.join_thread()
                else:
                    q.cancel_join_thread()
            except Exception:
                pass
        sys.stdout.flush()
        sys.stderr.flush()
        # skip interpreter teardown: every segment name is already
        # unlinked (or swept by the parent), and arbitrary destruction
        # order would otherwise spray harmless SharedMemory.__del__
        # BufferErrors over stderr when a handle dies before its views
        os._exit(0 if ok else 1)


class _WaitNode:
    """Adapter giving parent-side wait records the ``.pending`` surface
    :meth:`World._find_cycle` walks."""

    __slots__ = ("pending",)

    def __init__(self, pending) -> None:
        self.pending = tuple(pending)


def run_spmd_processes(
    nprocs: int,
    fn: Callable[..., Any],
    *args,
    tracker: CommTracker | None = None,
    timeout: float = DEFAULT_TIMEOUT,
    checksums: bool | None = None,
    transport: str = "auto",
    world_info: dict | None = None,
    faults=None,
    heal=None,
    world_spares: int = 0,
    **kwargs,
) -> list:
    """Execute ``fn(comm, *args, **kwargs)`` on ``nprocs`` worker
    processes; same contract as the threaded
    :func:`~repro.simmpi.engine.run_spmd`.

    ``transport`` picks the payload wire format (one of
    :data:`~repro.mp.transport.TRANSPORTS`); ``world_info``, when a
    dict, receives run statistics (transport traffic, swept segments)
    merged across ranks.  ``faults`` is the run's
    :class:`~repro.simmpi.faults.FaultInjector` (already normalised by
    :func:`~repro.simmpi.engine.run_spmd`); ``checksums=None`` means
    "on exactly when faults are injected", as in the threaded world.
    ``heal`` is the driver's
    :class:`~repro.resilience.heal.HealContext`; with it the parent
    coordinates revocation, survivor agreement and spare-park/shrink
    healing as described in the module docstring.
    """
    if nprocs <= 0:
        raise ValueError(f"nprocs must be positive, got {nprocs}")
    if transport not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
        )
    injector = faults
    checksums = (injector is not None) if checksums is None else bool(checksums)
    ctx = multiprocessing.get_context("fork")
    # Start the resource-tracker daemon *before* forking: all workers
    # then share one tracker, so a segment registered at creation in one
    # rank and unregistered at unlink time in another balances out
    # instead of each rank's private tracker warning about "leaks".
    from multiprocessing import resource_tracker
    resource_tracker.ensure_running()
    run_id = _fresh_run_id()
    if isinstance(world_info, dict):
        # published *before* any worker forks: a resident caller (the
        # DistContext pool) can sweep this run's segments even if the
        # parent dies mid-protocol and never reaches the final update
        world_info["run_id"] = run_id

    # Queues cannot be created after the fork, so the whole worker pool
    # — primaries, parked spares, and the shrink-mode respawn pool — is
    # laid out and forked up front, one inbox per global rank.  Rank
    # numbering matches the threaded engine: spares at nprocs..+spares,
    # respawns from nprocs + spares upward.
    spares = int(world_spares) if heal is not None else 0
    max_rounds = int(heal.max_rounds) if heal is not None else 0
    spare_granks = list(range(nprocs, nprocs + spares))
    respawn_granks = (
        list(range(nprocs + spares, nprocs + spares + max_rounds))
        if heal is not None and heal.mode == "shrink" else []
    )
    total = nprocs + len(spare_granks) + len(respawn_granks)
    heal_info = (
        {"first_batch": heal.first_batch, "mode": heal.mode}
        if heal is not None else None
    )

    inboxes = [ctx.Queue() for _ in range(total)]
    results_q = ctx.Queue()
    failed = ctx.Event()
    callbacks = _scan_callbacks(fn, args, kwargs)

    workers: dict[int, Any] = {}
    for grank in range(total):
        workers[grank] = ctx.Process(
            target=_worker_main,
            args=(grank, nprocs, inboxes, results_q, failed, fn, args,
                  kwargs, float(timeout), checksums, transport, run_id,
                  injector, heal_info, grank >= nprocs),
            name=f"repro-mp-rank-{grank}",
        )
    for w in workers.values():
        w.start()

    # ---------------- parent-side coordinator state ---------------- #
    pending = dict(workers)            # grank -> proc not yet finished
    reported: set[int] = set()         # granks that completed their protocol
    done: dict[int, tuple] = {}        # position -> (vblob, evblob, stats)
    failures: dict[int, BaseException] = {}
    crash_causes: dict[int, BaseException] = {}
    fault_reports: dict[int, tuple] = {}
    waits: dict[int, dict] = {}        # grank -> shipped wait record
    votes: dict[int, set[int]] = {}
    decision = (
        HealDecision(0, tuple(range(nprocs)), heal.first_batch, "initial",
                     hosts={p: p for p in range(nprocs)})
        if heal is not None else None
    )
    healed: dict[int, BaseException] = {}     # position -> crash exc
    dead: set[int] = set()
    swept_dead: set[int] = set()
    heal_swept = 0
    epoch = 0
    parked_pool = list(spare_granks)
    respawn_pool = list(respawn_granks)
    hang_sent: tuple | None = None     # (grank, since) of the live notice
    finish_sent = False
    prev_cycle_sig = None
    parent_deadline_s = float(timeout) * 1.25 + 15.0
    deadline = time.monotonic() + parent_deadline_s
    watch_interval = max(0.25, min(1.0, float(timeout) / 10.0))
    next_watch = time.monotonic() + watch_interval

    def post_ctl(grank: int, item: tuple) -> None:
        try:
            inboxes[grank].put(item)
        except Exception:
            pass

    def handle(msg) -> None:
        nonlocal epoch
        kind = msg[0]
        if kind == "cb":
            callbacks[msg[2]].fn(*pickle.loads(msg[3]))
        elif kind == "done":
            _, grank, position, vblob, evblob, stats, fault_blob = msg
            done[position] = (vblob, evblob, stats)
            reported.add(grank)
            waits.pop(grank, None)
            if fault_blob is not None and injector is not None:
                events, fired = pickle.loads(fault_blob)
                injector.absorb(events, fired)
        elif kind == "err":
            _, grank, position, blob = msg
            key = grank if position is None else position
            try:
                failures[key] = pickle.loads(blob)
            except Exception as exc:
                failures[key] = RuntimeError(
                    f"rank {key}: worker failed (exception did not "
                    f"unpickle: {exc!r})"
                )
            reported.add(grank)
            waits.pop(grank, None)
        elif kind == "crashed":
            _, grank, blob = msg
            try:
                crash_causes[grank] = pickle.loads(blob)
            except Exception:
                pass
            waits.pop(grank, None)
        elif kind == "idle":
            reported.add(msg[1])
        elif kind == "vote":
            votes.setdefault(int(msg[2]), set()).add(int(msg[1]))
        elif kind == "wait":
            waits[msg[1]] = msg[2]
        elif kind == "endwait":
            waits.pop(msg[1], None)
        elif kind == "heal":
            if heal is not None:
                if msg[1] == "bytes":
                    heal.add_bytes(msg[2], msg[3])
                else:
                    heal.add_latency(msg[2], msg[3])
        elif kind == "fault":
            _, grank, blob, op, step = msg
            fault_reports[grank] = (op, step)
            if injector is not None:
                events, fired = pickle.loads(blob)
                injector.absorb(events, fired)

    def drain_now() -> None:
        while True:
            try:
                msg = results_q.get_nowait()
            except _queue.Empty:
                return
            handle(msg)

    def crash_error(grank: int, proc) -> BaseException:
        """Uniform-context RankCrashError for one real worker death."""
        exitcode = proc.exitcode
        signame = None
        if isinstance(exitcode, int) and exitcode < 0:
            try:
                signame = signal.Signals(-exitcode).name
            except ValueError:
                signame = f"signal {-exitcode}"
        last_op = None
        fr = fault_reports.get(grank)
        if fr is not None:
            op, step = fr
            last_op = f"{op} @ {step}" if step else op
        elif grank in waits:
            last_op = waits[grank].get("op")
        cause = crash_causes.get(grank)
        if cause is not None:
            message = str(cause)
        else:
            how = (f"on {signame}" if signame
                   else f"with exit code {exitcode}")
            message = (
                f"rank {grank}: worker process (pid {proc.pid}) died "
                f"{how}" + (f" during {last_op}" if last_op else "")
                + " before reporting a result"
            )
        exc = (cause if isinstance(cause, RankCrashError)
               else RankCrashError(message))
        return exc.with_context(
            rank=grank, pid=proc.pid, exitcode=exitcode, signal=signame,
            last_op=last_op, epoch=epoch,
        )

    def on_exit(grank: int, proc) -> None:
        """One worker process ended: clean completion or a real death."""
        nonlocal epoch
        drain_now()   # its flushed messages happened-before the exit
        if grank in reported and grank not in crash_causes:
            return
        exc = crash_error(grank, proc)
        waits.pop(grank, None)
        if (
            heal is not None
            and decision.mode != "failed"
            and grank in decision.members
            and grank not in dead
        ):
            position = decision.members.index(grank)
            healed[position] = exc
            dead.add(grank)
            epoch += 1
            for m in decision.members:
                if m not in dead and m in pending:
                    post_ctl(m, ("ctl", "revoke", epoch))
            return
        if grank in parked_pool:
            parked_pool.remove(grank)
            return
        if grank in respawn_pool:
            respawn_pool.remove(grank)
            return
        failures.setdefault(grank, exc)
        failed.set()

    def maybe_decide() -> None:
        """Publish the heal decision once every survivor has voted.

        Runs only when the results queue is drained: every stale driver
        callback a survivor (or the flushed dead rank) posted before
        voting has then been consumed, so ``on_decision``'s
        ``drop_pending`` cannot race half-batch pieces arriving late.
        """
        nonlocal decision, heal_swept, finish_sent
        if heal is None or decision.mode == "failed" or epoch <= decision.epoch:
            return
        if failed.is_set():
            # a non-crash failure already aborted the run; don't heal it
            return
        alive = [m for m in decision.members if m not in dead]
        if not set(alive) <= votes.get(epoch, set()):
            return
        # every survivor voted == every survivor abandoned the revoked
        # epoch's ops: the dead ranks' leftover segments are orphans now
        for g in sorted(dead - swept_dead):
            heal_swept += sweep_segments(run_id, rank=g)
            swept_dead.add(g)
        live_parked = [g for g in parked_pool if g in pending]
        need = sum(1 for m in decision.members if m in dead)
        if heal.mode == "shrink" and len(respawn_pool) < need:
            new_decision = HealDecision(
                epoch, decision.members, decision.restart_batch, "failed",
                reason=(
                    f"respawn pool exhausted: {need} position(s) to refill,"
                    f" {len(respawn_pool)} pre-forked worker(s) left"
                ),
            )
        else:
            new_decision, _respawns = compute_decision(
                epoch, decision, dead, heal.mode, heal.restart_point(),
                parked=live_parked,
                alloc_rank=lambda: respawn_pool.pop(0),
                max_rounds=heal.max_rounds,
            )
            # compute_decision popped promotions from the live view;
            # mirror that on the authoritative pool
            for g in list(parked_pool):
                if g in new_decision.promoted:
                    parked_pool.remove(g)
        heal.on_decision(new_decision)
        decision = new_decision
        if decision.mode == "failed":
            for m in decision.members:
                if m not in dead and m in pending:
                    post_ctl(m, ("ctl", "decision", decision))
            for g in parked_pool + respawn_pool:
                if g in pending:
                    post_ctl(g, ("ctl", "finish"))
            finish_sent = True
            return
        for m in decision.members:
            if m not in dead and m in pending:
                post_ctl(m, ("ctl", "decision", decision))

    def notify_hang(grank: int, kind: str, nodes) -> None:
        """Ship a classified hang to one blocked worker, which raises
        the :class:`HangError` (same kinds as the threaded watchdog)."""
        nonlocal hang_sent
        now = time.monotonic()
        involved = sorted({grank, *nodes} & set(waits))
        dump = {}
        lines = []
        for r in involved:
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
        if kind == "deadlock":
            head = (
                f"deadlock: cyclic wait among ranks "
                f"{' -> '.join(str(r) for r in nodes)} -> {nodes[0]} "
                "(cross-process wait-for graph, confirmed on two sweeps)"
            )
        else:
            rec = waits[grank]
            head = (
                f"rank {grank} (worker process pid {rec['pid']}): "
                f"{rec['op']} waits on rank(s) "
                f"{', '.join(str(p) for p in nodes)} whose worker "
                "process already exited; no heal layer can replace them"
            )
        message = "\n".join([head, *lines])
        target_since = waits[grank]["since"]
        post_ctl(grank, ("ctl", "hang", kind, tuple(nodes), dump, message,
                         target_since))
        hang_sent = (grank, target_since)

    def watchdog_sweep() -> None:
        """Cross-process deadlock / peer-exited classification."""
        nonlocal prev_cycle_sig, hang_sent
        if hang_sent is not None:
            # an outstanding notice is bound to one specific wait; if
            # that wait resolved anyway (the data raced in), the worker
            # dropped the stale notice and the watchdog re-arms
            g, s = hang_sent
            rec = waits.get(g)
            if rec is not None and rec["since"] == s:
                return
            hang_sent = None
        if failed.is_set() or not waits:
            prev_cycle_sig = None
            return
        if heal is None:
            for g in sorted(waits):
                gone = tuple(
                    p for p in waits[g]["pending"]
                    if p in reported or p in dead
                )
                if gone:
                    notify_hang(g, "peer-exited", gone)
                    return
        nodes = {g: _WaitNode(rec["pending"]) for g, rec in waits.items()}
        for g in sorted(nodes):
            cycle = World._find_cycle(nodes, g)
            if cycle:
                sig = tuple((r, waits[r]["since"]) for r in cycle)
                if sig == prev_cycle_sig:
                    notify_hang(cycle[0], "deadlock", tuple(cycle))
                else:
                    prev_cycle_sig = sig
                return
        prev_cycle_sig = None

    # --------------- teardown (every exit path, once) --------------- #
    torn_down: dict = {"swept": None}

    def _teardown() -> int:
        """Reap every worker, sweep this run's shm segments, close the
        queues.  Idempotent, and runs on *every* exit path — including a
        parent-side exception in a driver callback or the heal protocol —
        so a long-lived caller reusing one grid (the serve pool) can
        never accumulate `/dev/shm` debris from failed runs."""
        if torn_down["swept"] is not None:
            return torn_down["swept"]
        if any(w.is_alive() for w in pending.values()):
            failed.set()
        for w in pending.values():
            w.join(timeout=2.0)
        for w in pending.values():
            if w.is_alive():
                w.terminate()
                w.join(timeout=5.0)
        # every worker joined (or was killed): nothing can attach now
        swept = sweep_segments(run_id)
        for q in (*inboxes, results_q):
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass
        torn_down["swept"] = swept
        return swept

    # ------------------------ supervisor loop ----------------------- #
    try:
        while pending:
            # Sleep until a message arrives or a worker exits — not for a
            # full tick after the last "done" — with the tick as the idle
            # timeout that paces the watchdog and the deadline.  An exited
            # worker's sentinel stays ready, but it is reaped (and leaves
            # the wait set) below, so nothing spins on it.  `_reader` is
            # the queue's read end; multiprocessing has no public name for it.
            _wait_any(
                [results_q._reader, *(w.sentinel for w in pending.values())],
                timeout=0.05,
            )
            drain_now()
            for grank, proc in list(pending.items()):
                if proc.is_alive():
                    continue
                proc.join()
                del pending[grank]
                on_exit(grank, proc)
            now = time.monotonic()
            # the queue was drained at this instant: safe points for the
            # heal decision (stale callbacks consumed) and the watchdog
            maybe_decide()
            if now >= next_watch:
                watchdog_sweep()
                next_watch = now + watch_interval
            if (
                heal is not None
                and not finish_sent
                and len(done) >= nprocs
                and epoch == decision.epoch
            ):
                for g in parked_pool + respawn_pool:
                    if g in pending:
                        post_ctl(g, ("ctl", "finish"))
                finish_sent = True
            if failed.is_set() and heal is not None and not finish_sent:
                for g in parked_pool + respawn_pool:
                    if g in pending:
                        post_ctl(g, ("ctl", "finish"))
                finish_sent = True
            if now >= deadline:
                failed.set()
                break

        drain_now()
    finally:
        swept_clean = _teardown()

    # positions that died and never healed surface their crash error
    for position, exc in healed.items():
        if position not in done:
            failures.setdefault(position, exc)

    for position in range(nprocs):
        if position in done or position in failures:
            continue
        holder = decision.members[position] if heal is not None else position
        w = workers[holder]
        if w.exitcode not in (0, None):
            failures[position] = crash_error(holder, w)
        else:
            failures[position] = HangError(
                f"rank {position}: worker process (pid {w.pid}) produced "
                f"no result within the parent deadline "
                f"({parent_deadline_s:.1f}s) and was terminated",
                kind="timeout",
                dump={position: {
                    "rank": position, "pid": w.pid, "op": "(outside comm)",
                    "tag": None, "pending": [],
                    "blocked_s": round(parent_deadline_s, 3),
                }},
            ).with_context(rank=position, pid=w.pid)

    swept = heal_swept + swept_clean

    results: list[Any] = [None] * nprocs
    stats_rows = []
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
            "transport": transport,
            "ranks_reporting": len(stats_rows),
            "shm_segments": sum(s["shm_segments"] for s in stats_rows),
            "shm_bytes": sum(s["shm_bytes"] for s in stats_rows),
            "naive_msgs": sum(s["naive_msgs"] for s in stats_rows),
            "naive_bytes": sum(s["naive_bytes"] for s in stats_rows),
            "swept_segments": swept,
        })
        if heal is not None:
            world_info["heal_epochs"] = decision.epoch
            world_info["heal_swept_segments"] = heal_swept

    if failures:
        genuine = {
            r: e for r, e in failures.items() if not isinstance(e, CommError)
        }
        raise SpmdError(genuine or failures)
    return results
