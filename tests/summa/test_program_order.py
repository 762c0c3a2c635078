"""The rank program is Alg. 4: same steps, same order, on every rank.

``repro.summa.exec.run_batches`` is compared against ``alg4`` below — the
paper's three-deep loop (batches → SUMMA stages → fiber exchange) written
out a second time, from the text, with literal labels — on the two
streams a rank leaves behind: the plan-level fault hook's
``(kind, batch, stage)`` calls and the tracer's ``(op, batch, stage,
timed)`` spans.
"""

import itertools

import pytest

from repro.comm import DenseCollective
from repro.data.generators import erdos_renyi
from repro.errors import SpmdError
from repro.grid import ProcGrid3D
from repro.plan import ExecSpec
from repro.simmpi import run_spmd
from repro.simmpi.faults import FaultInjector, FaultPlan
from repro.summa import STEP_KINDS
from repro.summa import exec as rank_program
from repro.summa.core import spmd_batched_summa3d

BATCHES = 3


def alg4(*, stages, layers, incremental, postprocess, barrier, start_batch):
    """``(kind, span label, batch, stage, timed)`` in program order."""
    for batch in range(start_batch, BATCHES):
        yield "col-split", "ColSplit", batch, None, False
        yield "comm-plan", "Comm-Plan", batch, None, True
        for s in range(stages):                        # Alg. 1
            yield "bcast-a", "A-Broadcast", batch, s, True
            yield "bcast-b", "B-Broadcast", batch, s, True
            yield "multiply", "Local-Multiply", batch, s, True
            if incremental and s > 0:
                yield "merge-stage", "Merge-Layer", batch, s, True
            else:
                yield "accumulate", "Accumulate", batch, s, False
        yield "merge-layer", "Merge-Layer", batch, None, True
        if layers > 1:                                 # Alg. 2
            yield "fiber-split", "FiberSplit", batch, None, False
            yield "fiber-exchange", "AllToAll-Fiber", batch, None, True
            yield "merge-fiber", "Merge-Fiber", batch, None, True
        else:
            yield "sort-output", "SortOutput", batch, None, False
        yield "c-range", "CRange", batch, None, False
        if postprocess:
            yield "postprocess", "Batch-Postprocess", batch, None, True
        yield "finalize", "Finalize", batch, None, False
        if barrier:
            yield "batch-barrier", "Batch-Barrier", batch, None, False


class RecordingInjector(FaultInjector):
    """Logs every fault-hook call per rank, and the call during which
    each planned fault was logged."""

    def __init__(self, plan=None):
        super().__init__(plan)
        self.calls = {}
        self.fired_in = []

    def on_plan_op(self, rank, kind, batch, stage, *, batches=None):
        self.calls.setdefault(rank, []).append((kind, batch, stage))
        logged = len(self.events)
        try:
            super().on_plan_op(rank, kind, batch, stage, batches=batches)
        finally:
            if len(self.events) > logged:
                self.fired_in.append((rank, kind, batch, stage))


class RecordingBackend(DenseCollective):
    """Logs, per rank, which stages were delivered blocking and which
    were prefetched (one instance per rank: the body instantiates it)."""

    log = None  # set per test: {rank: [("bcast-a" | "prefetch", stage)]}

    def bcast_a(self, comms, a_tile, stage):
        self.log.setdefault(comms.world.rank, []).append(("bcast-a", stage))
        return super().bcast_a(comms, a_tile, stage)

    def prefetch_stage(self, comms, a_tile, b_batch, stage):
        self.log.setdefault(comms.world.rank, []).append(("prefetch", stage))
        return super().prefetch_stage(comms, a_tile, b_batch, stage)


def _identity(batch, c0, c1, block):
    return block


@pytest.fixture(scope="module")
def operand():
    return erdos_renyi(36, avg_degree=4.0, seed=5)


def _run(operand, nprocs, layers, *, injector=None, merge_policy="deferred",
         overlap="off", **runtime):
    injector = injector or RecordingInjector()
    per_rank = run_spmd(
        nprocs, spmd_batched_summa3d, operand, operand,
        ProcGrid3D(nprocs, layers),
        ExecSpec(merge_policy=merge_policy, overlap=overlap),
        kernel="spgemm", batches=BATCHES, faults=injector,
        piece_sink=lambda *piece: None, **runtime,
    )
    return injector, per_rank


@pytest.mark.parametrize("layers", [1, 4])
@pytest.mark.parametrize("policy", ["deferred", "incremental"])
@pytest.mark.parametrize("overlap", ["off", "depth1"])
def test_every_rank_runs_alg4(operand, monkeypatch, layers, policy, overlap):
    nprocs = 4 * layers
    stages = ProcGrid3D(nprocs, layers).stages
    RecordingBackend.log = deliveries = {}
    batch_ends = []
    finalize = rank_program.finalize

    def spy(state, batch):
        batch_ends.append(dict(state.prefetched))
        finalize(state, batch)

    monkeypatch.setattr(rank_program, "finalize", spy)
    for postprocess, barrier, start_batch in itertools.product(
        (False, True), (False, True), (0, 1)
    ):
        deliveries.clear()
        injector, per_rank = _run(
            operand, nprocs, layers, merge_policy=policy, overlap=overlap,
            comm_backend=RecordingBackend, start_batch=start_batch,
            postprocess=_identity if postprocess else None,
            batch_barrier=barrier,
        )
        expected = list(alg4(
            stages=stages, layers=layers, incremental=policy == "incremental",
            postprocess=postprocess, barrier=barrier, start_batch=start_batch,
        ))
        hooks = [(kind, batch, s) for kind, _, batch, s, _ in expected]
        spans = [(op, batch, s, timed) for _, op, batch, s, timed in expected]
        ran = BATCHES - start_batch
        for rank in range(nprocs):
            assert injector.calls[rank] == hooks
            assert [
                (sp.op, sp.batch, sp.stage, sp.timed)
                for sp in per_rank[rank]["trace"].spans
            ] == spans
            # stage 0 is delivered blocking, right after the Comm-Plan it
            # must not overtake; under depth1 every later stage is a
            # prefetch that its broadcast steps consume
            later = "prefetch" if overlap == "depth1" else "bcast-a"
            assert deliveries[rank] == ran * [
                ("bcast-a", 0), *((later, s) for s in range(1, stages))
            ]
        # what the IR's own tests pinned, now read off the recorded run
        kinds = [kind for kind, _, _ in hooks]
        assert set(kinds) <= set(STEP_KINDS)
        assert kinds.count("multiply") == ran * stages
        assert [s for kind, _, s in hooks if kind == "merge-stage"] == (
            ran * list(range(1, stages)) if policy == "incremental" else []
        )
    assert batch_ends and not any(batch_ends)


def test_a_three_stage_grid_merges_at_stages_one_and_two(operand):
    """``merge-stage`` at exactly the stages ≥ 1 under ``incremental``,
    never under ``deferred``."""
    for policy, later in (
        ("deferred", "accumulate"), ("incremental", "merge-stage")
    ):
        injector, _ = _run(operand, 9, 1, merge_policy=policy)
        assert [
            (kind, s) for kind, _, s in injector.calls[0]
            if kind in ("accumulate", "merge-stage")
        ] == BATCHES * [("accumulate", 0), (later, 1), (later, 2)]


@pytest.mark.parametrize("overlap", ["off", "depth1"])
@pytest.mark.parametrize("fault, step", [
    ("crash:rank=2,batch=1", (2, "col-split", 1, None)),
    ("mem-pressure:rank=0,batch=1,stage=0", (0, "bcast-a", 1, 0)),
    ("crash:rank=1,batch=0,stage=0,kind_op=multiply", (1, "multiply", 0, 0)),
], ids=["crash-col-split", "mem-pressure-bcast-a", "crash-multiply"])
def test_plan_level_faults_fire_inside_the_named_step(
    operand, fault, step, overlap
):
    injector = RecordingInjector(FaultPlan.parse(fault))
    RecordingBackend.log = deliveries = {}
    with pytest.raises(SpmdError):
        _run(operand, 4, 1, injector=injector, overlap=overlap,
             comm_backend=RecordingBackend)
    assert injector.fired_in == [step]
    rank, kind = step[:2]
    assert injector.calls[rank][-1] == step[1:]  # and the rank stopped there
    if kind == "multiply":
        # its fault point comes before the prefetch it would have issued
        assert deliveries[rank] == [("bcast-a", 0)]
