"""Admission control: the paper's cost models as a gate, not a report.

``predict_makespan`` and Table III's ``predict_memory`` were built to
answer "does this run fit, and how long will it take" *before* the run
starts — which is exactly an admission predicate.  Every submitted job is
planned (through the :class:`~repro.serve.plan_cache.PlanCache`) and then
walked through an ordered series of gates; the first one that fails
raises :class:`~repro.errors.AdmissionRejected` with a classified
``reason`` + uniform ``err.context``.  Rejection at the door is the
design: an overloaded service answers every submit immediately — accept
or classified refusal — instead of letting queues collapse into timeouts.

Gate order (cheapest first, and each later gate assumes the earlier
ones passed):

1. ``shutdown`` — the service is draining;
2. ``unsupported`` — job kind / kernel combination not served;
3. ``queue-full`` — the tenant's bounded queue is at capacity;
4. ``overload`` — total queued modelled work exceeds the shed limit;
5. ``memory`` — the planner finds no (layers, batches) that fits the
   grid budget (:class:`~repro.errors.PlannerError` → classified);
6. ``tenant-budget`` — the job's predicted bytes would push the
   tenant's in-flight :class:`~repro.mem.MemoryLedger` past its budget;
7. ``deadline`` — predicted wait + predicted run time already exceed
   the job's deadline (admitting it could only burn capacity).

Wall-clock predictions calibrate online: modelled seconds are scaled by
an EWMA of observed (wall / modelled) ratios the service feeds back
after each completion, so the deadline gate sharpens as traffic flows
instead of trusting the α–β machine constants to be wall-accurate.
"""

from __future__ import annotations

import threading

from ..errors import AdmissionRejected, PlannerError
from ..mem import MemoryLedger
from .job import Job, JobSpec
from .plan_cache import PlanCache

#: the classified rejection taxonomy (``AdmissionRejected.reason``)
REJECT_REASONS = (
    "queue-full",
    "overload",
    "deadline",
    "tenant-budget",
    "memory",
    "unsupported",
    "shutdown",
)

#: job kind → local kernel planned/executed for it
KIND_KERNELS = {
    "multiply": "spgemm",
    "masked_spgemm": "masked_spgemm",
    "spmm": "spmm",
    "square_chain": "spgemm",
}


class TenantState:
    """Per-tenant accounting: an in-flight memory ledger plus counters."""

    def __init__(self, name: str, *, memory_budget: int | None = None) -> None:
        self.name = str(name)
        self.memory_budget = memory_budget
        #: charged with each in-flight job's predicted Table III bytes
        #: (per-category), released at completion — ``enforce="off"``
        #: because admission itself is the enforcement point (it raises
        #: the *classified* error, not the ledger's).
        self.ledger = MemoryLedger(
            rank=f"tenant:{name}", budget=memory_budget, enforce="off"
        )
        self.submitted = 0
        self.accepted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0

    def in_flight_bytes(self) -> int:
        return int(self.ledger.current_total)


class AdmissionController:
    """Plan + gate each arriving :class:`~repro.serve.job.JobSpec`."""

    def __init__(
        self,
        *,
        queue,
        plan_cache: PlanCache,
        nprocs: int,
        grids: int = 1,
        memory_budget: int | None = None,
        machine=None,
        backend: str = "dense",
        overlap: str = "off",
        max_backlog_s: float = 60.0,
        default_deadline_s: float | None = None,
    ) -> None:
        self.queue = queue
        self.plan_cache = plan_cache
        self.nprocs = int(nprocs)
        self.grids = max(1, int(grids))
        self.memory_budget = memory_budget
        self.machine = machine
        self.backend = backend
        self.overlap = overlap
        #: load-shedding threshold: queued modelled seconds beyond which
        #: new work is refused outright (keeps accepted-job latency
        #: bounded by construction)
        self.max_backlog_s = float(max_backlog_s)
        self.default_deadline_s = default_deadline_s
        self._lock = threading.Lock()
        self._tenants: dict[str, TenantState] = {}
        #: EWMA of wall_seconds / modelled_seconds; None until the first
        #: completion calibrates it
        self._wall_ratio: float | None = None
        self.rejections: dict[str, int] = dict.fromkeys(REJECT_REASONS, 0)

    # ------------------------------------------------------------------ #
    # tenants
    # ------------------------------------------------------------------ #

    def tenant(self, name: str) -> TenantState:
        with self._lock:
            state = self._tenants.get(name)
            if state is None:
                state = self._tenants[name] = TenantState(name)
            return state

    def register_tenant(self, name: str, *,
                        memory_budget: int | None = None) -> TenantState:
        with self._lock:
            state = self._tenants.get(name)
            if state is None or state.memory_budget != memory_budget:
                state = TenantState(name, memory_budget=memory_budget)
                self._tenants[name] = state
            return state

    def tenants(self) -> dict[str, TenantState]:
        with self._lock:
            return dict(self._tenants)

    # ------------------------------------------------------------------ #
    # calibration feedback (service calls this on every completion)
    # ------------------------------------------------------------------ #

    def observe(self, modelled_s: float, wall_s: float) -> None:
        if modelled_s <= 0 or wall_s <= 0:
            return
        ratio = wall_s / modelled_s
        with self._lock:
            if self._wall_ratio is None:
                self._wall_ratio = ratio
            else:
                self._wall_ratio = 0.7 * self._wall_ratio + 0.3 * ratio

    def wall_estimate(self, modelled_s: float) -> float | None:
        """Modelled seconds → calibrated wall seconds (``None`` before
        the first completion calibrates the ratio)."""
        with self._lock:
            if self._wall_ratio is None:
                return None
            return modelled_s * self._wall_ratio

    # ------------------------------------------------------------------ #
    # the gate
    # ------------------------------------------------------------------ #

    def _reject(self, reason: str, spec: JobSpec, message: str,
                **extra) -> AdmissionRejected:
        state = self.tenant(spec.tenant)
        state.rejected += 1
        with self._lock:
            self.rejections[reason] = self.rejections.get(reason, 0) + 1
        err = AdmissionRejected(
            message, reason=reason, tenant=spec.tenant,
            job=spec.label or spec.kind,
        )
        return err.with_context(**extra) if extra else err

    def admit(self, spec: JobSpec, *, shutting_down: bool = False) -> Job:
        """Run every gate; returns a planned, tenant-charged
        :class:`~repro.serve.job.Job` ready to enqueue, or raises
        :class:`~repro.errors.AdmissionRejected`."""
        state = self.tenant(spec.tenant)
        state.submitted += 1
        if shutting_down:
            raise self._reject(
                "shutdown", spec, "service is draining; not accepting jobs"
            )
        kernel = KIND_KERNELS.get(spec.kind)
        if kernel is None:
            raise self._reject(
                "unsupported", spec,
                f"job kind {spec.kind!r} is not served", kind=spec.kind,
            )

        # 3. per-tenant bounded queue
        depth = self.queue.depth(spec.tenant)
        cap = self.queue.capacity_of(spec.tenant)
        if depth >= cap:
            raise self._reject(
                "queue-full", spec,
                f"tenant {spec.tenant!r} already has {depth} queued jobs "
                f"(capacity {cap})", depth=depth, capacity=cap,
            )

        # 4. service-wide load shedding on modelled backlog
        backlog_s = self.queue.backlog_seconds() / self.grids
        if backlog_s > self.max_backlog_s:
            raise self._reject(
                "overload", spec,
                f"predicted backlog {backlog_s:.3g}s per grid exceeds the "
                f"shed limit {self.max_backlog_s:.3g}s",
                backlog_s=backlog_s, max_backlog_s=self.max_backlog_s,
            )

        # 5. feasibility: the Alg. 3 memory test via the plan cache
        budget = spec.memory_budget or self.memory_budget
        try:
            plan, hit = self.plan_cache.plan(
                spec.a, spec.b,
                nprocs=self.nprocs,
                memory_budget=budget,
                kernel=kernel,
                backend=self.backend,
                overlap=self.overlap,
                mask=spec.mask,
                machine=self.machine,
            )
        except (PlannerError, ValueError) as exc:
            raise self._reject(
                "memory", spec,
                f"no feasible (layers, batches) configuration: {exc}",
                memory_budget=budget, nprocs=self.nprocs,
            ) from exc

        cost_s = float(plan.predicted_seconds)
        if spec.kind == "square_chain":
            cost_s *= max(1, int(spec.rounds))

        # 6. tenant in-flight memory budget (aggregate bytes over the grid)
        job_bytes = self._job_bytes(spec, plan)
        if state.memory_budget is not None:
            in_flight = state.in_flight_bytes()
            if in_flight + job_bytes > state.memory_budget:
                raise self._reject(
                    "tenant-budget", spec,
                    f"job needs ~{job_bytes} B with {in_flight} B already "
                    f"in flight; tenant budget is {state.memory_budget} B",
                    job_bytes=job_bytes, in_flight_bytes=in_flight,
                    tenant_budget=state.memory_budget,
                )

        # 7. deadline feasibility under the calibrated wall model
        deadline = spec.deadline_s
        if deadline is None:
            deadline = self.default_deadline_s
            if deadline is not None:
                spec.deadline_s = deadline
        if deadline is not None:
            predicted_wall = self.wall_estimate(backlog_s + cost_s)
            if predicted_wall is not None and predicted_wall > deadline:
                raise self._reject(
                    "deadline", spec,
                    f"predicted wait+run {predicted_wall:.3g}s exceeds the "
                    f"{deadline:.3g}s deadline",
                    predicted_s=predicted_wall, deadline_s=deadline,
                )

        charge = self._charge(state, spec, plan, job_bytes)
        state.accepted += 1
        return Job(spec, plan=plan, cache_hit=hit, cost_s=cost_s, charge=charge)

    # ------------------------------------------------------------------ #

    def _job_bytes(self, spec: JobSpec, plan) -> int:
        """Aggregate bytes this job is predicted to hold in flight:
        Table III's per-process high water × nprocs when the plan carried
        a memory prediction, else the operands' own footprint."""
        pm = getattr(plan, "predicted_memory", None)
        if pm and pm.get("high_water_total"):
            return int(pm["high_water_total"]) * self.nprocs
        total = int(getattr(spec.a, "nbytes", 0))
        b = spec.b
        if b is not None and b is not spec.a:
            nb = getattr(b, "nbytes", None)
            total += int(nb if nb is not None else 0)
        return total

    def _charge(self, state: TenantState, spec: JobSpec, plan,
                job_bytes: int):
        """Charge the tenant ledger for the job's predicted footprint.

        Uses the plan's per-category Table III breakdown (aggregate =
        per-process × nprocs) so tenant reports read in the same
        categories as every ``info["memory"]`` block; falls back to one
        ``output_batch`` charge when the plan carried no prediction."""
        pm = getattr(plan, "predicted_memory", None)
        allocs = []
        label = spec.label or spec.kind
        if pm and pm.get("categories"):
            for cat, val in pm["categories"].items():
                nbytes = int(val["high_water"] if isinstance(val, dict) else val)
                if nbytes > 0:
                    allocs.append(state.ledger.acquire(
                        cat, nbytes * self.nprocs, label=label
                    ))
        if not allocs:
            allocs.append(
                state.ledger.acquire("output_batch", job_bytes, label=label)
            )
        return allocs

    def release(self, job: Job, *, outcome: str) -> None:
        """Return the tenant's in-flight charge when a job terminates."""
        state = self.tenant(job.spec.tenant)
        for alloc in job.charge or ():
            state.ledger.release(alloc)
        job.charge = None
        if outcome == "done":
            state.completed += 1
        else:
            state.failed += 1

    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        with self._lock:
            tenants = dict(self._tenants)
            ratio = self._wall_ratio
            rejections = dict(self.rejections)
        return {
            "wall_ratio": ratio,
            "max_backlog_s": self.max_backlog_s,
            "rejections": rejections,
            "tenants": {
                name: {
                    "submitted": st.submitted,
                    "accepted": st.accepted,
                    "rejected": st.rejected,
                    "completed": st.completed,
                    "failed": st.failed,
                    "in_flight_bytes": st.in_flight_bytes(),
                    "memory_budget": st.memory_budget,
                }
                for name, st in tenants.items()
            },
        }
