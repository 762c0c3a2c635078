"""`SpgemmService` — the long-lived scheduler over a resident grid pool.

One instance owns

* a :class:`~repro.serve.pool.GridPool` of resident execution slots
  (threads or real forked process worlds);
* a :class:`~repro.serve.queue.FairQueue` of admitted jobs (bounded
  per-tenant, deficit-round-robin dispatch);
* an :class:`~repro.serve.admission.AdmissionController` that plans
  every arrival through the :class:`~repro.serve.plan_cache.PlanCache`
  and rejects with classified errors;
* one worker thread per slot that pops jobs, executes them on its slot,
  and feeds the slot's :class:`~repro.serve.breaker.CircuitBreaker`.

Robustness contracts (the tested ones):

* **crash transparency** — with ``heal=True, checkpoint_root=...``
  every ``multiply`` job runs under ``heal=True`` in its own checkpoint
  directory, so a job that loses a rank re-enters from its last
  completed batch and the client receives the bit-identical product
  with the event recorded in ``result.info["resilience"]["heal"]`` —
  never an error;
* **deadlines** — a job's remaining deadline is installed as the
  execution world's watchdog timeout, so an overrun surfaces as a
  classified hang that the service converts to
  :class:`~repro.errors.DeadlineExceededError` (phase ``"running"``);
  jobs whose deadline lapses while queued expire without running;
* **overload** — submits beyond the backlog shed limit fail fast with
  :class:`~repro.errors.AdmissionRejected`; accepted work is bounded, so
  accepted-job latency stays within a fixed multiple of the single-job
  baseline (asserted by ``benchmarks/bench_serve.py --smoke``);
* **hygiene** — quarantined slots drain and re-fork, and
  :meth:`shutdown` closes every resident context, which sweeps
  `/dev/shm` even when the last job raised (the satellite-1
  ``DistContext.close`` contract).
"""

from __future__ import annotations

import os
import shutil
import threading
import time

from ..errors import (
    AdmissionRejected,
    DeadlineExceededError,
    HangError,
    JobCancelledError,
    ReproError,
    SpmdError,
)
from ..kernels import get_kernel
from ..resilience.checkpoint import run_key
from ..summa.batched import run_plan
from .admission import KIND_KERNELS, AdmissionController
from .breaker import QUARANTINED, CircuitBreaker
from .job import (
    CANCELLED,
    EXPIRED,
    QUEUED,
    RUNNING,
    Job,
    JobHandle,
    JobResult,
    JobSpec,
)
from .plan_cache import PlanCache
from .pool import GridPool, GridSlot
from .queue import FairQueue

#: floor on the watchdog timeout installed for a nearly-expired job —
#: below this the run would be killed by setup cost, not real overrun
_MIN_RUN_TIMEOUT_S = 0.5


class SpgemmService:
    """Multi-tenant SpGEMM serving over resident grids.

    >>> with SpgemmService(grids=2, nprocs=4) as svc:
    ...     h = svc.submit(tenant="alice", a=matrix)
    ...     product = h.result(timeout=30).matrix
    """

    def __init__(
        self,
        *,
        grids: int = 1,
        nprocs: int = 4,
        layers: int = 1,
        world: str = "threads",
        transport: str = "auto",
        timeout: float = 30.0,
        memory_budget: int | None = None,
        machine=None,
        backend: str = "dense",
        overlap: str = "off",
        queue_capacity: int = 16,
        quantum_s: float = 0.05,
        max_backlog_s: float = 60.0,
        default_deadline_s: float | None = None,
        heal: bool = False,
        checkpoint_root=None,
        checkpoint_keep_last: int | None = 2,
        plan_cache_capacity: int = 128,
        degrade_after: float = 2.0,
        quarantine_after: float = 4.0,
        auto_start: bool = True,
    ) -> None:
        if heal and checkpoint_root is None:
            raise ValueError(
                "heal=True needs checkpoint_root= (a healed job re-enters "
                "from the last completed batch, so jobs must checkpoint)"
            )
        self.world = world
        self.overlap = overlap
        self.heal = heal
        self.checkpoint_root = (
            None if checkpoint_root is None else os.fspath(checkpoint_root)
        )
        self.checkpoint_keep_last = checkpoint_keep_last
        self.pool = GridPool([
            GridSlot(
                i, nprocs=nprocs, layers=layers, world=world,
                transport=transport, timeout=timeout,
                breaker=CircuitBreaker(
                    degrade_after=degrade_after,
                    quarantine_after=quarantine_after,
                ),
            )
            for i in range(max(1, int(grids)))
        ])
        self.plan_cache = PlanCache(capacity=plan_cache_capacity)
        self.queue = FairQueue(capacity=queue_capacity, quantum_s=quantum_s)
        self.admission = AdmissionController(
            queue=self.queue,
            plan_cache=self.plan_cache,
            nprocs=nprocs,
            grids=len(self.pool),
            memory_budget=memory_budget,
            machine=machine,
            backend=backend,
            overlap=overlap,
            max_backlog_s=max_backlog_s,
            default_deadline_s=default_deadline_s,
        )
        #: when False, workers only run after an explicit ``start()`` —
        #: jobs submitted before that simply wait in the queue
        self.auto_start = bool(auto_start)
        self._lock = threading.Lock()
        self._shutdown = False
        self._started = False
        self._workers: list[threading.Thread] = []
        self._latencies: list[float] = []
        self._counters = {
            "submitted": 0, "accepted": 0, "completed": 0, "failed": 0,
            "expired": 0, "cancelled": 0, "heals": 0, "reforks": 0,
        }
        self._started_at: float | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "SpgemmService":
        with self._lock:
            if self._started:
                return self
            self._started = True
            self._started_at = time.monotonic()
        for slot in self.pool:
            t = threading.Thread(
                target=self._worker, args=(slot,),
                name=f"serve-slot-{slot.slot_id}", daemon=True,
            )
            self._workers.append(t)
            t.start()
        return self

    def shutdown(self, wait: bool = True, timeout: float = 60.0) -> None:
        """Stop admitting, cancel queued jobs, join workers, close every
        resident grid (sweeping `/dev/shm`)."""
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        self.queue.close()
        for job in self.queue.drain():
            self._finish_failed(
                job,
                JobCancelledError(
                    f"{job.name} cancelled: service shut down"
                ).with_context(tenant=job.spec.tenant, job=job.name),
                state=CANCELLED,
            )
        if wait:
            deadline = time.monotonic() + timeout
            for t in self._workers:
                t.join(max(0.0, deadline - time.monotonic()))
        self.pool.close()

    def __enter__(self) -> "SpgemmService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ #
    # client surface
    # ------------------------------------------------------------------ #

    def register_tenant(self, name: str, *,
                        memory_budget: int | None = None,
                        queue_capacity: int | None = None):
        """Declare a tenant up front (budgets and queue bounds;
        unregistered tenants get service defaults on first submit)."""
        if queue_capacity is not None:
            self.queue.set_capacity(name, queue_capacity)
        return self.admission.register_tenant(
            name, memory_budget=memory_budget
        )

    def submit(self, spec: JobSpec | None = None, /, **kwargs) -> JobHandle:
        """Admit one job (or raise :class:`~repro.errors.AdmissionRejected`
        synchronously) and return its :class:`~repro.serve.job.JobHandle`.

        Accepts either a prebuilt :class:`~repro.serve.job.JobSpec` or its
        keyword fields (``tenant=``, ``a=``, ``kind=``, ...).
        """
        if spec is None:
            spec = JobSpec(**kwargs)
        elif kwargs:
            raise ValueError("pass a JobSpec or keyword fields, not both")
        with self._lock:
            self._counters["submitted"] += 1
            shutting_down = self._shutdown
        job = self.admission.admit(spec, shutting_down=shutting_down)
        if not self.queue.push(job):
            # raced with a burst (gate passed, queue filled) or shutdown
            self.admission.release(job, outcome="rejected")
            reason = "shutdown" if self._shutdown else "queue-full"
            raise AdmissionRejected(
                f"tenant {spec.tenant!r} queue refused {job.name}",
                reason=reason, tenant=spec.tenant, job=job.name,
            )
        with self._lock:
            self._counters["accepted"] += 1
        if self.auto_start and not self._started:
            self.start()
        return JobHandle(job, self)

    def _cancel(self, job: Job) -> bool:
        with job._lock:
            if job.state != QUEUED:
                return False
            job.state = CANCELLED
            job.error = JobCancelledError(
                f"{job.name} cancelled by client"
            ).with_context(tenant=job.spec.tenant, job=job.name)
            job.finished_at = time.monotonic()
        job._done.set()
        self.queue.remove(job)
        self.admission.release(job, outcome="cancelled")
        with self._lock:
            self._counters["cancelled"] += 1
        return True

    # ------------------------------------------------------------------ #
    # worker loop
    # ------------------------------------------------------------------ #

    def _worker(self, slot: GridSlot) -> None:
        while True:
            job = self.queue.pop(timeout=0.1)
            if job is None:
                if self._shutdown:
                    return
                continue
            remaining = job.remaining_deadline()
            if remaining is not None and remaining <= 0:
                self._finish_failed(
                    job,
                    DeadlineExceededError(
                        f"{job.name} deadline passed after "
                        f"{job.spec.deadline_s:.3g}s in queue",
                        phase="queued", tenant=job.spec.tenant,
                        job=job.name, deadline_s=job.spec.deadline_s,
                    ),
                    state=EXPIRED,
                )
                continue
            if not job.transition(RUNNING):
                continue  # cancelled in the pop window
            job.slot = slot.slot_id
            self._run_on_slot(slot, job)
            if slot.breaker.state == QUARANTINED:
                slot.refork()
                with self._lock:
                    self._counters["reforks"] += 1
            if self._shutdown and not len(self.queue):
                return

    def _run_on_slot(self, slot: GridSlot, job: Job) -> None:
        t0 = time.monotonic()
        ckpt_dir = None
        try:
            matrix, info, ckpt_dir = self._execute(slot, job)
        except ReproError as exc:
            self._classify_failure(slot, job, exc)
            return
        except Exception as exc:  # noqa: BLE001 - must never kill a worker
            err = SpmdError({0: exc})
            err.with_context(tenant=job.spec.tenant, job=job.name)
            self._classify_failure(slot, job, err)
            return
        wall = time.monotonic() - t0
        heal_info = (info.get("resilience") or {}).get("heal") or {}
        heals = int(heal_info.get("heals", 0))
        swept = int((info.get("world") or {}).get("swept_segments", 0))
        if heals:
            slot.breaker.record_heal(heals)
        if swept:
            # segments the run itself failed to release: hygiene drift
            slot.breaker.record_shm_leak(swept)
        elif not heals:
            slot.breaker.record_success()
        slot.jobs_done += 1
        self.admission.observe(job.cost_s, wall)
        self.admission.release(job, outcome="done")
        if ckpt_dir is not None:
            shutil.rmtree(ckpt_dir, ignore_errors=True)
        result = JobResult(
            matrix=matrix,
            info=info,
            # the resolved plan the run actually executed (verbatim from
            # the result), falling back to the admission plan for job
            # kinds whose info carries no plan record
            plan=info.get("plan") or job.plan.to_dict(),
            latency_s=time.monotonic() - job.submitted_at,
            queued_s=(job.started_at or t0) - job.submitted_at,
            heals=heals,
            cache_hit=job.cache_hit,
            slot=slot.slot_id,
        )
        job.finish(result)
        with self._lock:
            self._counters["completed"] += 1
            self._counters["heals"] += heals
            self._latencies.append(result.latency_s)

    # ------------------------------------------------------------------ #
    # execution per job kind
    # ------------------------------------------------------------------ #

    def _job_timeout(self, slot: GridSlot, job: Job) -> float:
        remaining = job.remaining_deadline()
        if remaining is None:
            return slot.timeout
        return min(slot.timeout, max(remaining, _MIN_RUN_TIMEOUT_S))

    def _execute(self, slot: GridSlot, job: Job):
        spec, plan = job.spec, job.plan
        kernel = KIND_KERNELS[spec.kind]
        timeout = self._job_timeout(slot, job)
        if spec.kind == "square_chain":
            return self._execute_chain(slot, job, timeout)
        # the admission plan becomes the executed plan: slot-owned knobs
        # (grid size, world, timeout) are grafted onto its spec, keeping a
        # single conversion point between service config and the run
        run = plan.with_spec(
            nprocs=slot.nprocs,
            semiring=spec.semiring,
            kernel=kernel,
            overlap=self.overlap,
            timeout=timeout,
            world=slot.world,
            transport=slot.transport,
        )
        ckpt_dir = None
        if self.heal and get_kernel(kernel).checkpointable:
            # crash transparency: per-job checkpoint subdir + heal=True.
            # The job id joins the key so two concurrent identical jobs
            # can never adopt each other's manifests.
            from ..resilience.checkpoint import CheckpointManager

            key = run_key(
                spec.a, spec.b, kernel=kernel, batches=plan.batches,
                layers=plan.layers, nprocs=slot.nprocs, job=job.id,
            )
            ckpt_dir = CheckpointManager.run_dir(self.checkpoint_root, key)
            run = run.with_spec(
                heal=True,
                checkpoint_dir=ckpt_dir,
                checkpoint_keep_last=self.checkpoint_keep_last,
            )
        result = run_plan(
            spec.a, spec.b, run, tracker=slot.tracker, faults=spec.faults,
            mask=spec.mask if spec.kind == "masked_spgemm" else None,
        )
        return result.matrix, result.info, ckpt_dir

    def _execute_chain(self, slot: GridSlot, job: Job, timeout: float):
        """Iterated squaring (HipMCL's access pattern) on the *resident*
        context: distribute once, multiply/redistribute per round, gather
        at the end, and always free the handles — resident grids must not
        accumulate tiles across jobs."""
        spec, plan = job.spec, job.plan
        ctx = slot.context()
        prev_timeout, ctx.timeout = ctx.timeout, timeout
        handles = []
        try:
            ha = ctx.distribute(spec.a, layout="A")
            hb = ctx.distribute(spec.a, layout="B")
            handles += [ha, hb]
            info: dict = {}
            hc = ha
            for _ in range(int(spec.rounds)):
                hc, result = ctx.multiply(
                    ha, hb, batches=plan.batches, semiring=spec.semiring,
                )
                handles.append(hc)
                info = result.info
                ha = ctx.redistribute(hc, "A")
                hb = ctx.redistribute(hc, "B")
                handles += [ha, hb]
            matrix = ctx.gather(hc)
            return matrix, info, None
        finally:
            ctx.timeout = prev_timeout
            for h in handles:
                ctx.free(h)

    # ------------------------------------------------------------------ #
    # failure classification
    # ------------------------------------------------------------------ #

    def _classify_failure(self, slot: GridSlot, job: Job,
                          exc: ReproError) -> None:
        exc.with_context(tenant=job.spec.tenant, job=job.name,
                         slot=slot.slot_id)
        hang = isinstance(exc, HangError)
        if isinstance(exc, SpmdError):
            hang = any(
                isinstance(e, HangError) for e in exc.failures.values()
            )
        remaining = job.remaining_deadline()
        if hang and remaining is not None and remaining <= 0.05:
            # the watchdog fired because the job's remaining deadline was
            # installed as the region timeout and has now passed: that is
            # the deadline mechanism, not a service defect
            err = DeadlineExceededError(
                f"{job.name} exceeded its {job.spec.deadline_s:.3g}s "
                "deadline while running",
                phase="running", tenant=job.spec.tenant, job=job.name,
                deadline_s=job.spec.deadline_s,
            )
            err.__cause__ = exc
            self._finish_failed(job, err, state=EXPIRED)
            # a deadline kill still wedged/restarted the grid's region:
            # count it against the slot like a failure
            slot.breaker.record_failure()
            return
        slot.breaker.record_failure()
        self._finish_failed(job, exc)

    def _finish_failed(self, job: Job, exc: BaseException,
                       state: str = "failed") -> None:
        if not job.fail(exc, state=state):
            return
        self.admission.release(job, outcome=state)
        with self._lock:
            if state == EXPIRED:
                self._counters["expired"] += 1
            elif state == CANCELLED:
                self._counters["cancelled"] += 1
            else:
                self._counters["failed"] += 1

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    @staticmethod
    def _percentile(values: list[float], q: float) -> float | None:
        if not values:
            return None
        ordered = sorted(values)
        idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[idx]

    def stats(self) -> dict:
        with self._lock:
            counters = dict(self._counters)
            lats = list(self._latencies)
            uptime = (
                None if self._started_at is None
                else time.monotonic() - self._started_at
            )
        return {
            "uptime_s": uptime,
            "counters": counters,
            "throughput_jobs_per_s": (
                counters["completed"] / uptime if uptime else None
            ),
            "latency_s": {
                "p50": self._percentile(lats, 0.50),
                "p99": self._percentile(lats, 0.99),
                "max": max(lats) if lats else None,
                "n": len(lats),
            },
            "queue": {
                "depth": len(self.queue),
                "backlog_s": self.queue.backlog_seconds(),
            },
            "plan_cache": self.plan_cache.stats(),
            "admission": self.admission.stats(),
            "slots": self.pool.stats(),
        }
