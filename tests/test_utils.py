"""Tests for utility modules (rng, timing)."""

import numpy as np

from repro.utils import StepTimes, as_rng


class TestRng:
    def test_as_rng_from_int(self):
        a, b = as_rng(5), as_rng(5)
        assert a.random() == b.random()

    def test_as_rng_passthrough(self):
        g = np.random.default_rng(1)
        assert as_rng(g) is g

    def test_as_rng_none(self):
        assert isinstance(as_rng(None), np.random.Generator)


class TestStepTimes:
    def test_add_accumulates(self):
        st = StepTimes()
        st.add("x", 1.0)
        st.add("x", 2.0)
        assert st.get("x") == 3.0
        assert st.get("missing") == 0.0

    def test_total(self):
        st = StepTimes({"a": 1.0, "b": 2.5})
        assert st.total() == 3.5

    def test_critical_path(self):
        ranks = [StepTimes({"x": 1.0, "y": 5.0}), StepTimes({"x": 3.0})]
        cp = StepTimes.critical_path(ranks)
        assert cp.get("x") == 3.0 and cp.get("y") == 5.0

    def test_format_table(self):
        out = StepTimes({"step": 1.0}).format_table("title")
        assert "title" in out and "TOTAL" in out
