"""The kernel × feature composition table: every combination the drivers
cannot run is refused with its documented exception type in the prepare
phase, off the kernel's declared capabilities — never deep in a run.
``run_spmd`` / ``open_world`` are patched to fail the test if any region
is launched.
"""

import sys

import numpy as np
import pytest

from repro.dist import DistContext
from repro.errors import DistributionError
from repro.kernels import available_kernels, get_kernel
from repro.simmpi.faults import FaultSpec
from repro.sparse import random_sparse
from repro.summa import batched_summa3d, batched_summa3d_rows

N = 12
SPARSE = random_sparse(N, N, nnz=40, seed=5)
DENSE = np.random.default_rng(5).standard_normal((N, N))


class Launched(Exception):
    """Stand-in for "a region would have been launched"."""


@pytest.fixture(autouse=True)
def no_launch(monkeypatch):
    def refuse(*args, **kwargs):
        raise Launched

    # by module name: ``repro.summa.symbolic3d`` the attribute is the
    # function of that name, not the module
    for name in ("summa.batched", "summa.symbolic3d"):
        module = sys.modules[f"repro.{name}"]
        for launcher in ("run_spmd", "open_world"):
            if hasattr(module, launcher):
                monkeypatch.setattr(module, launcher, refuse)
    return refuse


def operands(kernel):
    """Well-formed operands (and required aux) for ``kernel``."""
    kern = get_kernel(kernel)
    a = SPARSE if kern.a_kind == "sparse" else DENSE
    b = SPARSE if kern.b_kind == "sparse" else DENSE
    runtime = {"sample": SPARSE} if kern.aux_mode == "required" else {}
    return a, b, runtime


def hook(*args):
    raise AssertionError("hooks never run in this module")


def outcome(call):
    try:
        call()
    except Launched:
        return None  # composition accepted: the run got as far as launching
    except Exception as err:  # noqa: BLE001 - the type is what we tabulate
        return type(err)
    raise AssertionError("neither refused nor launched")


#: feature -> (driver kwargs, refusal when the kernel lacks the capability,
#: predicate on the kernel saying it *has* the capability)
FEATURES = {
    "checkpoint_dir": (
        lambda tmp: {"checkpoint_dir": tmp},
        NotImplementedError, lambda k: k.checkpointable,
    ),
    "resume": (
        lambda tmp: {"checkpoint_dir": tmp, "resume": True, "batches": 2},
        NotImplementedError, lambda k: k.checkpointable,
    ),
    "heal": (
        lambda tmp: {"checkpoint_dir": tmp, "heal": "shrink"},
        NotImplementedError, lambda k: k.checkpointable,
    ),
    "mask": (
        lambda tmp: {"mask": SPARSE},
        ValueError, lambda k: k.postprocess_mask or k.aux_mode == "optional",
    ),
    "postprocess": (
        lambda tmp: {"postprocess": hook},
        ValueError, lambda k: k.output_kind == "sparse",
    ),
    "on_batch": (
        lambda tmp: {"on_batch": hook},
        ValueError, lambda k: k.output_kind == "sparse",
    ),
}


@pytest.mark.parametrize("feature", sorted(FEATURES))
@pytest.mark.parametrize("kernel", available_kernels())
def test_column_driver(kernel, feature, tmp_path):
    knobs, refusal, capable = FEATURES[feature]
    a, b, runtime = operands(kernel)
    got = outcome(lambda: batched_summa3d(
        a, b, 4, kernel=kernel, **runtime, **knobs(str(tmp_path))
    ))
    assert got is (None if capable(get_kernel(kernel)) else refusal)


@pytest.mark.parametrize("typo", [
    {"merge_policy": "bogus"},
    {"batch_scheme": "bogus"},
    {"faults": ["crash:rank=0,batch=0,kind_op=multipy"]},
    {"faults": [FaultSpec("crash", 0, batch=0, kind_op="meter")]},
], ids=["merge_policy", "batch_scheme", "kind_op-cli", "kind_op-spec"])
def test_a_misspelt_name_never_reaches_a_launch(typo):
    """Found by validation, not by the ranks (nor, as an unknown
    ``kind_op`` was, by nobody: the fault silently never fired)."""
    assert outcome(
        lambda: batched_summa3d(SPARSE, SPARSE, 4, batches=2, **typo)
    ) is ValueError


@pytest.mark.parametrize("kernel", available_kernels())
def test_sample_is_sddmm_only(kernel):
    a, b, _runtime = operands(kernel)
    required = get_kernel(kernel).aux_mode == "required"

    def run(**kw):
        return batched_summa3d(a, b, 4, kernel=kernel, **kw)

    assert outcome(lambda: run(sample=SPARSE)) is (
        None if required else ValueError
    )
    assert outcome(run) is (ValueError if required else None)


@pytest.mark.parametrize("kernel", available_kernels())
def test_row_driver(kernel):
    a, b, runtime = operands(kernel)
    got = outcome(lambda: batched_summa3d_rows(
        a, b, 4, kernel=kernel, **runtime
    ))
    if runtime:  # sample= is a column-batched hook: refused even earlier
        assert got is ValueError
    else:
        assert got is (
            None if get_kernel(kernel).row_batchable else NotImplementedError
        )


@pytest.mark.parametrize("hook_name", ["mask", "sample", "postprocess"])
def test_row_driver_refuses_column_hooks(hook_name):
    with pytest.raises(ValueError, match="column-batched drivers only"):
        batched_summa3d_rows(SPARSE, SPARSE, 4, **{hook_name: SPARSE})


@pytest.mark.parametrize("kernel", available_kernels())
def test_resident_multiply(kernel, no_launch, monkeypatch):
    kern = get_kernel(kernel)
    ctx = DistContext(nprocs=4)
    ha, hb = ctx.distribute(SPARSE, "A"), ctx.distribute(SPARSE, "B")
    # a context's regions all go through its one submit seam
    monkeypatch.setattr(ctx, "_submit", no_launch)
    got = outcome(lambda: ctx.multiply(ha, hb, kernel=kernel))
    sparse_operands = (kern.a_kind, kern.b_kind) == ("sparse", "sparse")
    # handles hold sparse tiles; an aux operand cannot be synthesised
    # from tiles, so it must be passed
    assert got is (
        None if sparse_operands and not kern.uses_aux else DistributionError
    )
    if sparse_operands and kern.uses_aux:
        assert outcome(
            lambda: ctx.multiply(ha, hb, kernel=kernel, mask=SPARSE)
        ) is None
