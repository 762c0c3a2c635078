"""ExecSpec / ExecPlan: serialisation round-trips, forward compatibility,
the single-conversion-point contract, and the amendment transition."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.plan import ExecPlan, ExecSpec
from repro.plan.spec import _REMOVED, SPEC_FIELDS

# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #

# every knob with a pool of realistic values; the round-trip property
# samples an arbitrary subset, so any field combination is exercised.
_KNOBS = {
    "nprocs": st.sampled_from([1, 2, 4, 8, 16]),
    "layers": st.sampled_from([1, 2, 4]),
    "batches": st.none() | st.integers(1, 32),
    "memory_budget": st.none() | st.integers(1 << 10, 1 << 30),
    "enforce": st.sampled_from(["off", "warn", "strict"]),
    "semiring": st.sampled_from(["plus_times", "min_plus"]),
    "kernel": st.sampled_from(
        ["spgemm", "spmm", "masked_spgemm", "spgemm:sorted-heap"]
    ),
    "keep_output": st.booleans(),
    "batch_scheme": st.sampled_from(["block-cyclic", "contiguous"]),
    "merge_policy": st.sampled_from(["deferred", "eager"]),
    "comm_backend": st.sampled_from(["dense", "sparse"]),
    "overlap": st.sampled_from(["off", "depth1"]),
    "timeout": st.sampled_from([5.0, 30.0, 120.0]),
    "checksums": st.none() | st.booleans(),
    "max_retries": st.none() | st.integers(0, 5),
    "checkpoint_dir": st.none() | st.just("/tmp/ckpt"),
    "resume": st.booleans(),
    "checkpoint_keep_last": st.none() | st.integers(1, 4),
    "heal": st.none() | st.sampled_from(["shrink", "spare"]),
    "world_spares": st.integers(0, 2),
    "world": st.sampled_from(["threads", "processes"]),
    "transport": st.sampled_from(["auto", "pickle", "shm"]),
    "replan": st.sampled_from(["off", "auto"]),
    "max_replans": st.integers(0, 3),
    "replan_force": st.sampled_from(
        [(), ((1, {"batches": 2}),), ((0, {"comm_backend": "sparse"}),)]
    ),
}
assert set(_KNOBS) == set(SPEC_FIELDS), (
    "knob strategy drifted from ExecSpec fields: "
    f"{set(_KNOBS) ^ set(SPEC_FIELDS)}"
)

knob_dicts = st.fixed_dictionaries({}, optional=_KNOBS)

# unknown keys a future writer might add; values restricted to JSON-safe
# scalars (that is all a manifest would carry).
future_keys = st.dictionaries(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=3, max_size=12
    ).filter(
        lambda k: k not in SPEC_FIELDS + tuple(_REMOVED) and k != "spec_version"
    ),
    st.none() | st.booleans() | st.integers(-10, 10) | st.text(max_size=8),
    max_size=3,
)


# ---------------------------------------------------------------------- #
# ExecSpec round-trip (satellite 2)
# ---------------------------------------------------------------------- #

class TestExecSpecRoundTrip:
    @given(knobs=knob_dicts)
    def test_to_dict_from_dict_identity(self, knobs):
        spec = ExecSpec.from_kwargs(**knobs)
        assert ExecSpec.from_dict(spec.to_dict()) == spec

    @given(knobs=knob_dicts)
    def test_dict_form_is_stable(self, knobs):
        d = ExecSpec.from_kwargs(**knobs).to_dict()
        assert ExecSpec.from_dict(d).to_dict() == d

    @given(knobs=knob_dicts, future=future_keys)
    def test_unknown_keys_survive_round_trip(self, knobs, future):
        # a newer writer's dict (extra keys) must load under this reader
        # and re-serialise losslessly — checkpoint manifests rely on it.
        d = ExecSpec.from_kwargs(**knobs).to_dict()
        d.update(future)
        spec = ExecSpec.from_dict(d)
        assert spec.extra == future
        again = spec.to_dict()
        for key, value in future.items():
            assert again[key] == value
        assert ExecSpec.from_dict(again) == spec

    def test_registry_objects_normalise_to_names(self):
        from repro.kernels import get_kernel

        spec = ExecSpec.from_kwargs(kernel=get_kernel("spgemm"))
        assert spec.to_dict()["kernel"] == "spgemm"

    def test_a_kernel_tier_round_trips_through_its_name(self):
        from repro.kernels import SpgemmKernel, get_kernel

        d = ExecSpec.from_kwargs(kernel=SpgemmKernel("sorted-heap")).to_dict()
        assert d["kernel"] == "spgemm:sorted-heap"
        kern = get_kernel(ExecSpec.from_dict(d).kernel)
        assert type(kern) is SpgemmKernel and kern.suite.name == "sorted-heap"
        assert get_kernel("spgemm").suite.name == "esc"

    def test_replan_force_canonicalised(self):
        spec = ExecSpec.from_kwargs(replan_force=[[1, {"batches": 2}]])
        assert spec.replan_force == ((1, {"batches": 2}),)
        assert ExecSpec.from_dict(spec.to_dict()) == spec

    def test_older_dict_with_the_one_r_loads_without_the_key(self):
        # a manifest from before bytes_per_nonzero stopped being a knob
        old = dict(ExecSpec.from_kwargs(batches=3).to_dict(), bytes_per_nonzero=24)
        spec = ExecSpec.from_dict(old)
        assert spec == ExecSpec.from_kwargs(batches=3)
        assert "bytes_per_nonzero" not in spec.extra
        assert "bytes_per_nonzero" not in spec.to_dict()

    def test_older_dict_with_another_r_is_refused_not_parked(self):
        old = dict(ExecSpec().to_dict(), bytes_per_nonzero=12)
        with pytest.raises(ValueError, match="bytes_per_nonzero=12"):
            ExecSpec.from_dict(old)

    #: what a dict written at the parent held for the six knobs since removed
    OLD_DEFAULTS = {
        "memory_budget_per_rank": None, "mask_complement": False,
        "spill_dir": None, "replan_threshold": 0.15, "replan_min_batches": 1,
        "suite": "esc",
    }

    def test_removed_knobs_at_their_old_defaults_are_dropped(self):
        old = dict(ExecSpec.from_kwargs(batches=3).to_dict(), **self.OLD_DEFAULTS)
        spec = ExecSpec.from_dict(old)
        assert spec == ExecSpec.from_kwargs(batches=3)
        assert not set(self.OLD_DEFAULTS) & (set(spec.extra) | set(spec.to_dict()))

    def test_a_stored_suite_tier_becomes_the_kernel_spelling(self):
        old = {**ExecSpec().to_dict(), **self.OLD_DEFAULTS, "suite": "sorted-heap"}
        assert ExecSpec.from_dict(old) == ExecSpec(kernel="spgemm:sorted-heap")

    @pytest.mark.parametrize("stored, names", [
        ({"memory_budget_per_rank": 10**6}, "memory_budget = per_rank × nprocs"),
        ({"spill_dir": "/tmp/spill"}, "on_batch="),
        ({"mask_complement": True}, "postprocess="),
        ({"replan_threshold": 0.5}, "repro.plan.replan"),
        ({"replan_min_batches": 2}, "repro.plan.replan"),
        ({"suite": "spa", "kernel": "masked_spgemm"}, "spgemm:<tier>"),
    ])
    def test_any_other_value_of_a_removed_knob_is_refused(self, stored, names):
        key = next(iter(stored))
        with pytest.raises(ValueError, match=f"{key}=.*{names}"):
            ExecSpec.from_dict(dict(ExecSpec().to_dict(), **stored))


class TestExecSpecConversionPoint:
    def test_unknown_knob_raises_with_name(self):
        with pytest.raises(TypeError, match="definitely_not_a_knob"):
            ExecSpec.from_kwargs(definitely_not_a_knob=1)

    @pytest.mark.parametrize("knob", [{"suite": "esc"}, {"spill_dir": "/tmp/x"}])
    def test_a_removed_knob_is_an_unknown_knob(self, knob):
        with pytest.raises(TypeError, match=f"unknown execution knob.*{next(iter(knob))}"):
            ExecSpec.from_kwargs(**knob)

    def test_all_spec_fields_accepted(self):
        defaults = {f: getattr(ExecSpec(), f) for f in SPEC_FIELDS}
        assert ExecSpec.from_kwargs(**defaults) == ExecSpec()

    def test_validate_rejects_bad_batches(self):
        with pytest.raises(ShapeError, match="batches"):
            ExecSpec.from_kwargs(batches=0).validate()

    def test_validate_rejects_bad_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            ExecSpec.from_kwargs(overlap="sometimes").validate()

    @pytest.mark.parametrize("knob", ["merge_policy", "batch_scheme"])
    def test_validate_rejects_a_misspelt_policy_or_scheme(self, knob):
        with pytest.raises(ValueError, match=knob.replace("_", " ")):
            ExecSpec.from_kwargs(**{knob: "bogus"}).validate()

    def test_validate_rejects_bad_replan_mode(self):
        with pytest.raises(ValueError, match="replan"):
            ExecSpec.from_kwargs(replan="maybe").validate()

    def test_validate_accepts_replan_with_heal(self):
        # both are amendments of the driver's one re-entry loop: there is
        # no second protocol for a replan to conflict with
        spec = ExecSpec.from_kwargs(
            replan="auto", heal="shrink", checkpoint_dir="/tmp/ckpt"
        )
        assert spec.validate() is spec

    def test_validate_rejects_a_budget_that_is_not_positive(self):
        with pytest.raises(ValueError, match="memory_budget must be > 0"):
            ExecSpec.from_kwargs(memory_budget=0).validate()


# ---------------------------------------------------------------------- #
# ExecPlan
# ---------------------------------------------------------------------- #

class TestExecPlanRoundTrip:
    @given(knobs=knob_dicts, future=future_keys)
    def test_round_trip_with_embedded_spec(self, knobs, future):
        plan = ExecPlan(
            layers=4,
            batches=8,
            predicted_seconds=1.25,
            candidates=((1, 2.0), (4, 1.25)),
            backend="sparse",
            predicted_memory={"per_rank": 1024},
            spec=ExecSpec.from_kwargs(**knobs),
            provenance={"mode": "auto", "machine": "cori-knl"},
            revision=1,
        )
        d = plan.to_dict()
        d.update(future)
        back = ExecPlan.from_dict(d)
        assert back.spec == plan.spec
        assert back.extra == future
        assert back.to_dict() == d

    def test_round_trip_without_spec(self):
        plan = ExecPlan(layers=2, batches=4, backend="dense")
        assert ExecPlan.from_dict(plan.to_dict()) == plan


class TestExecPlanAmend:
    def test_with_spec_grafts_runtime_knobs(self):
        plan = ExecPlan(batches=4, spec=ExecSpec.from_kwargs(batches=4))
        run = plan.with_spec(world="processes", timeout=9.0)
        assert run.spec.world == "processes"
        assert run.spec.timeout == 9.0
        assert run.spec.batches == 4      # chosen configuration untouched
        assert run.batches == 4
