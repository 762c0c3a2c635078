"""Resident ≡ global: ``DistContext.multiply`` / ``spmm`` run through the
same driver as ``run_plan``, so under the same spec they must produce the
bit-identical product and the same report — and every spec field handed
to them is either honoured or refused before any region is launched.
"""

import numpy as np
import pytest

from repro.data import rmat
from repro.dist import DistContext
from repro.errors import DistributionError
from repro.plan import ExecSpec
from repro.sparse import random_sparse
from repro.summa import run_plan

NPROCS, LAYERS = 8, 2


@pytest.fixture(scope="module")
def operands():
    a = random_sparse(48, 48, nnz=420, seed=71)
    b = random_sparse(48, 48, nnz=420, seed=72)
    mask = random_sparse(48, 48, nnz=700, seed=73)
    return a, b, mask


def bit_identical(x, y):
    return (
        np.array_equal(x.indptr, y.indptr)
        and np.array_equal(x.rowidx, y.rowidx)
        and np.array_equal(x.values, y.values)
    )


def assert_same_report(resident, ref):
    """Same top-level report, rank traces included, and a recorded plan
    that agrees with what the ranks say they ran."""
    assert resident.info["resident"] is True
    assert set(resident.info) - {"resident"} == set(ref.info)
    assert len(resident.trace) == NPROCS
    assert all(tracer.spans for tracer in resident.trace)
    for result in (resident, ref):
        info, spec = result.info, result.info["plan"]["spec"]
        assert spec["overlap"] == info["overlap"]
        assert spec["comm_backend"] == info["comm_backend"]
        assert spec["kernel"] == info["kernel"]
    assert resident.info["plan"]["spec"] == ref.info["plan"]["spec"]


def both_ways(ctx, a, b, spec, **runtime):
    ha, hb = ctx.distribute(a, "A"), ctx.distribute(b, "B")
    hc, resident = ctx.multiply(ha, hb, plan=spec, **runtime)
    ref = run_plan(
        a, b,
        spec.amended(nprocs=NPROCS, layers=LAYERS, world=ctx.world),
        **runtime,
    )
    return hc.to_global(), resident, ref


@pytest.mark.parametrize("overlap", ["off", "depth1"])
@pytest.mark.parametrize("backend", ["dense", "sparse"])
@pytest.mark.parametrize("world", ["threads", "processes"])
@pytest.mark.parametrize(
    "kernel", ["spgemm", "masked_spgemm", "spgemm:sorted-heap"]
)
def test_multiply_matches_run_plan(operands, kernel, world, backend, overlap):
    a, b, mask = operands
    spec = ExecSpec(
        batches=2, kernel=kernel, comm_backend=backend, overlap=overlap,
    )
    runtime = {"mask": mask} if kernel == "masked_spgemm" else {}
    with DistContext(NPROCS, LAYERS, world=world) as ctx:
        product, resident, ref = both_ways(ctx, a, b, spec, **runtime)
    assert bit_identical(product, ref.matrix)
    assert resident.info["comm_backend"] == backend
    assert resident.info["overlap"] == overlap
    assert_same_report(resident, ref)


@pytest.mark.parametrize("overlap", ["off", "depth1"])
@pytest.mark.parametrize("backend", ["dense", "sparse"])
@pytest.mark.parametrize("world", ["threads", "processes"])
def test_spmm_matches_run_plan(operands, world, backend, overlap):
    a = operands[0]
    x = np.random.default_rng(7).standard_normal((48, 5))
    spec = ExecSpec(batches=2, comm_backend=backend, overlap=overlap)
    with DistContext(NPROCS, LAYERS, world=world) as ctx:
        y, resident = ctx.spmm(ctx.distribute(a, "A"), x, plan=spec)
    ref = run_plan(a, x, spec.amended(
        nprocs=NPROCS, layers=LAYERS, world=world, kernel="spmm",
    ))
    assert np.array_equal(y, ref.matrix)
    assert_same_report(resident, ref)
    # the kernel's memory model reads tile sizes off the resident tiles:
    # the exact number the global run computes, not an estimate
    assert resident.info["memory"]["model"] == ref.info["memory"]["model"]


def test_plan_fields_reach_the_run():
    """The drift probe (R-MAT scale 8, p=4): the old resident driver ran
    dense/off whatever the plan said, and recorded the plan it ignored."""
    a = rmat(8, seed=3)
    with DistContext(nprocs=4) as ctx:
        hc, result = ctx.multiply(
            ctx.distribute(a, "A"), ctx.distribute(a, "B"),
            plan=ExecSpec(overlap="depth1", comm_backend="sparse"),
        )
    info = result.info
    assert (info["overlap"], info["comm_backend"]) == ("depth1", "sparse")
    assert info["plan"]["spec"]["overlap"] == "depth1"
    assert info["plan"]["backend"] == "sparse"
    assert result.trace and "model" not in info["memory"]


def test_merge_policy_and_amendments_honoured(operands):
    a, b, _mask = operands
    spec = ExecSpec(batches=2, merge_policy="incremental")
    with DistContext(NPROCS, LAYERS) as ctx:
        product, resident, ref = both_ways(
            ctx, a, b, spec, faults=["mem-pressure:rank=0,batch=1"],
        )
    assert bit_identical(product, ref.matrix)
    assert resident.batches == ref.batches == 4
    assert resident.info["merge_policy"] == "incremental"
    assert resident.info["resilience"]["rebatched"] == [{"from": 2, "to": 4}]
    assert resident.info["plan"]["batches"] == 4


def test_block_scheme_honoured_on_a_flat_grid(operands):
    """Contiguous ("block") batches give each rank one contiguous tile
    only without layers; with layers the field is refused (below)."""
    a, b, _mask = operands
    spec = ExecSpec(batches=3, batch_scheme="block")
    with DistContext(nprocs=4) as ctx:
        hc, resident = ctx.multiply(
            ctx.distribute(a, "A"), ctx.distribute(b, "B"), plan=spec
        )
        product = hc.to_global()
    assert resident.info["batch_scheme"] == "block"
    assert bit_identical(product, run_plan(a, b, spec).matrix)


def test_strict_budget_rebatches_resident_run(operands):
    a, b, _mask = operands
    loose = run_plan(a, b, ExecSpec(nprocs=NPROCS, layers=LAYERS, batches=1))
    spec = ExecSpec(
        batches=1, enforce="strict",
        memory_budget=NPROCS * int(loose.max_local_bytes * 0.8),
    )
    with DistContext(NPROCS, LAYERS) as ctx:
        product, resident, ref = both_ways(ctx, a, b, spec)
    assert bit_identical(product, ref.matrix)
    assert resident.batches == ref.batches > 1
    assert resident.info["resilience"]["rebatched"] == \
        ref.info["resilience"]["rebatched"]


def test_mask_on_plain_spgemm_is_the_postprocess_filter(operands):
    a, b, mask = operands
    with DistContext(NPROCS, LAYERS) as ctx:
        product, _resident, ref = both_ways(
            ctx, a, b, ExecSpec(batches=2), mask=mask
        )
    assert bit_identical(product, ref.matrix)
    assert ref.matrix.nnz < run_plan(
        a, b, ExecSpec(nprocs=NPROCS, layers=LAYERS)
    ).matrix.nnz


@pytest.mark.parametrize("changes", [
    {"checkpoint_dir": "unused"},
    {"checkpoint_dir": "unused", "resume": True},
    {"checkpoint_dir": "unused", "heal": True},
    {"keep_output": False},
    {"comm_backend": "auto"},
    {"batch_scheme": "block"},
])
def test_fields_the_run_cannot_honour_are_refused_before_launch(
    operands, monkeypatch, changes
):
    a, b, _mask = operands
    ctx = DistContext(NPROCS, LAYERS)
    ha, hb = ctx.distribute(a, "A"), ctx.distribute(b, "B")
    monkeypatch.setattr(ctx, "_submit", lambda *args, **kw: pytest.fail(
        "a region was launched before the refusal"
    ))
    with pytest.raises(DistributionError, match="resident operands"):
        ctx.multiply(ha, hb, plan=ExecSpec(**changes))
