"""Driver-surface parity: ``batched_summa3d`` and ``batched_summa3d_rows``
must expose the identical signature, and every knob either driver accepts
must be an :class:`~repro.plan.ExecSpec` field.

This is the regression fence for the historical kwarg drift between the
column- and row-batched drivers: both now funnel ``**knobs`` through
``ExecSpec.from_kwargs`` (the single conversion point), so this module
fails the moment either surface diverges again.
"""

from __future__ import annotations

import inspect

import pytest

from repro.plan.spec import SPEC_FIELDS, ExecSpec
from repro.sparse import random_sparse
from repro.summa import (
    batched_summa3d,
    batched_summa3d_rows,
    run_plan,
    summa2d,
    summa3d,
)


def _tiny():
    a = random_sparse(8, 8, nnz=20, seed=11)
    b = random_sparse(8, 8, nnz=20, seed=12)
    return a, b


class TestSignatureParity:
    def test_signatures_identical(self):
        assert (
            inspect.signature(batched_summa3d)
            == inspect.signature(batched_summa3d_rows)
        )

    def test_knobs_are_exactly_spec_fields(self):
        # the **knobs surface is the spec's field set, nothing else:
        # every field constructs, every non-field raises.
        defaults = {f: getattr(ExecSpec(), f) for f in SPEC_FIELDS}
        assert ExecSpec.from_kwargs(**defaults) == ExecSpec()

    def test_runtime_only_args_stay_out_of_spec(self):
        # mask/sample/postprocess/on_batch/tracker/faults are explicit
        # parameters (runtime objects), never spec knobs.
        sig = inspect.signature(batched_summa3d)
        for name in ("mask", "sample", "postprocess", "on_batch",
                     "tracker", "faults", "plan"):
            assert name in sig.parameters
            assert name not in SPEC_FIELDS


class TestPinnedShims:
    """``summa2d`` / ``summa3d`` are ``**knobs`` pass-throughs: they take
    every ``batched_summa3d`` argument except the ones they pin."""

    SHIMS = {summa2d: {"layers": 1, "batches": 1}, summa3d: {"batches": 1}}

    @pytest.mark.parametrize("shim", SHIMS, ids=lambda f: f.__name__)
    def test_every_unpinned_knob_passes_through(self, shim, monkeypatch):
        import repro.summa.batched as driver

        seen = {}
        monkeypatch.setattr(
            driver, "batched_summa3d", lambda a, b, **kw: seen.update(kw)
        )
        pinned = self.SHIMS[shim]
        runtime = [
            p for p in inspect.signature(batched_summa3d).parameters
            if p not in ("a", "b", "nprocs", "layers", "knobs")
        ]
        passed = {
            name: object() for name in (*SPEC_FIELDS, *runtime)
            if name not in pinned and name != "nprocs"
        }
        shim("A", "B", **passed)
        for name, value in passed.items():
            assert seen[name] is value
        for name, value in pinned.items():
            assert seen[name] == value

    @pytest.mark.parametrize("shim", SHIMS, ids=lambda f: f.__name__)
    def test_pinned_knobs_raise_type_error(self, shim):
        a, b = _tiny()
        for name in self.SHIMS[shim]:
            with pytest.raises(TypeError, match=name):
                shim(a, b, **{name: 2})


class TestUnknownKnobParity:
    def test_both_drivers_reject_unknown_knob_identically(self):
        a, b = _tiny()
        errors = []
        for driver in (batched_summa3d, batched_summa3d_rows):
            with pytest.raises(TypeError, match="no_such_knob") as exc:
                driver(a, b, 4, not_a_knob=1, no_such_knob=2)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]

    def test_plan_and_loose_knobs_are_mutually_exclusive(self):
        a, b = _tiny()
        spec = ExecSpec.from_kwargs(nprocs=4)
        for driver in (batched_summa3d, batched_summa3d_rows):
            with pytest.raises(TypeError, match="batches"):
                driver(a, b, plan=spec, batches=2)


class TestPlanEntryPoints:
    def test_wrapper_and_run_plan_agree(self):
        a, b = _tiny()
        via_kwargs = batched_summa3d(a, b, 4, batches=2)
        spec = ExecSpec.from_kwargs(nprocs=4, batches=2)
        via_plan = run_plan(a, b, spec)
        via_dict = run_plan(a, b, spec.to_dict())
        for r in (via_plan, via_dict):
            assert r.matrix.allclose(via_kwargs.matrix)
            assert r.info["plan"]["batches"] == 2

    def test_rows_driver_accepts_plan(self):
        a, b = _tiny()
        spec = ExecSpec.from_kwargs(nprocs=4, batches=2)
        r = batched_summa3d_rows(a, b, plan=spec)
        assert r.info["batch_axis"] == "rows"
        assert r.matrix.allclose(batched_summa3d(a, b, 4, batches=2).matrix)


class TestCliSurface:
    """``repro multiply`` is the third surface derived from the spec: one
    flag per field, generated with the field's default, help and value
    set, so neither can differ between the two."""

    @staticmethod
    def _multiply():
        import argparse

        from repro.cli import build_parser

        (sub,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        return sub.choices["multiply"]

    def test_every_field_has_exactly_one_flag(self):
        actions = self._multiply()._actions
        for name in SPEC_FIELDS:
            (flag,) = [a for a in actions if a.dest == name]
            assert "--" + name.replace("_", "-") in flag.option_strings
            assert flag.help

    def test_no_flags_parse_to_the_spec_defaults(self):
        from repro.cli import _multiply_spec

        args = self._multiply().parse_args(["a.npz"])
        assert _multiply_spec(args) == ExecSpec()

    def test_flags_reach_their_fields(self):
        from repro.cli import _multiply_spec

        args = self._multiply().parse_args([
            "a.npz", "--batches", "3", "--timeout", "7.5", "--enforce",
            "warn", "--memory-budget", "1000", "--no-keep-output", "--heal",
            "--checkpoint-dir", "ck", "--merge-policy", "incremental",
        ])
        assert _multiply_spec(args) == ExecSpec(
            batches=3, timeout=7.5, enforce="warn", memory_budget=1000,
            keep_output=False, heal=True, checkpoint_dir="ck",
            merge_policy="incremental",
        )
        # --output always keeps the product
        args = self._multiply().parse_args(
            ["a.npz", "--no-keep-output", "--output", "c.npz"]
        )
        assert _multiply_spec(args).keep_output is True

    def test_a_value_set_is_the_tuple_validate_checks(self):
        from repro.comm.backend import COMM_BACKENDS
        from repro.grid.distribution import BATCH_SCHEMES
        from repro.mem import ENFORCE_MODES
        from repro.mp.transport import TRANSPORTS
        from repro.simmpi.engine import WORLDS
        from repro.summa import MERGE_POLICIES, OVERLAP_MODES

        owners = {
            "enforce": ENFORCE_MODES, "batch_scheme": BATCH_SCHEMES,
            "merge_policy": MERGE_POLICIES, "overlap": OVERLAP_MODES,
            "world": WORLDS, "transport": TRANSPORTS,
            "comm_backend": COMM_BACKENDS,
        }
        flags = {a.dest: a for a in self._multiply()._actions}
        for name in SPEC_FIELDS:
            assert flags[name].choices is owners.get(name), name
        for name, known in owners.items():
            for value in known:
                ExecSpec(**{name: value, "memory_budget": 1}).validate()
            with pytest.raises(ValueError, match=name.replace("_", " ")):
                ExecSpec(**{name: "bogus"}).validate()
