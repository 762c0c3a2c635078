"""Unit tests for repro.mem — the MemoryLedger and its helpers."""

import numpy as np
import pytest

from repro.errors import MemoryBudgetExceededError, MemoryPressureError
from repro.mem import (
    CATEGORIES,
    ENFORCE_MODES,
    MemoryLedger,
    nbytes_of,
)
from repro.sparse import random_sparse


class TestNbytesOf:
    def test_none_is_free(self):
        assert nbytes_of(None) == 0

    def test_sparse_matrix_at_r_per_nonzero(self):
        a = random_sparse(16, 16, nnz=40, seed=1)
        assert nbytes_of(a) == a.nbytes == 40 * 24

    def test_numpy_array(self):
        arr = np.zeros(10, dtype=np.float64)
        assert nbytes_of(arr) == 80

    def test_sequences_sum(self):
        a = random_sparse(8, 8, nnz=10, seed=3)
        assert nbytes_of([a, a, None]) == 2 * a.nbytes
        assert nbytes_of((a,)) == a.nbytes

    def test_unknown_objects_are_free(self):
        assert nbytes_of(object()) == 0


class TestLedgerAccounting:
    def test_acquire_release_moves_current(self):
        led = MemoryLedger()
        h = led.acquire("a_piece", 100)
        assert led.current("a_piece") == 100
        assert led.current_total == 100
        led.release(h)
        assert led.current_total == 0
        assert led.high_water_total == 100  # marks are monotone

    def test_release_is_idempotent_and_none_safe(self):
        led = MemoryLedger()
        h = led.acquire("recv_buffer", 50)
        led.release(h)
        led.release(h)  # double release: no-op, no negative charge
        led.release(None)
        assert led.current_total == 0

    def test_unknown_category_rejected(self):
        led = MemoryLedger()
        with pytest.raises(ValueError, match="unknown ledger category"):
            led.acquire("bogus", 10)
        with pytest.raises(ValueError, match="unknown ledger category"):
            led.touch("bogus", 10)

    def test_per_category_high_water_independent(self):
        led = MemoryLedger()
        a = led.acquire("a_piece", 100)
        led.release(a)
        led.acquire("b_piece", 60)
        assert led.high_water("a_piece") == 100
        assert led.high_water("b_piece") == 60
        assert led.high_water_total == 100

    def test_scope_releases_on_exception(self):
        led = MemoryLedger()
        with pytest.raises(RuntimeError):
            with led.scope("checkpoint", 500):
                assert led.current("checkpoint") == 500
                raise RuntimeError("boom")
        assert led.current("checkpoint") == 0
        assert led.high_water("checkpoint") == 500

    def test_touch_moves_marks_not_current(self):
        led = MemoryLedger()
        led.touch("recv_buffer", 300)
        assert led.current_total == 0
        assert led.high_water("recv_buffer") == 300
        assert led.high_water_total == 300

    def test_resize_adjusts_live_allocation(self):
        led = MemoryLedger()
        h = led.acquire("output_batch", 100)
        led.resize(h, 40)
        assert led.current("output_batch") == 40
        assert led.high_water("output_batch") == 100
        led.release(h)
        assert led.current_total == 0
        with pytest.raises(ValueError, match="released"):
            led.resize(h, 10)

    def test_overrelease_is_an_accounting_bug(self):
        led = MemoryLedger()
        h = led.acquire("merge_scratch", 10)
        h.nbytes = 20  # corrupt the handle to force a negative balance
        with pytest.raises(ValueError, match="negative"):
            led.release(h)

    def test_batch_peaks(self):
        led = MemoryLedger()
        led.enter_batch(0)
        h0 = led.acquire("merge_scratch", 100)
        led.release(h0)
        led.enter_batch(1)
        led.acquire("merge_scratch", 30)
        peaks = led.report()["batch_peaks"]
        assert peaks[0] == 100
        assert peaks[1] == 30


class TestEnforcement:
    def test_off_never_raises(self):
        led = MemoryLedger(budget=10, enforce="off")
        led.acquire("a_piece", 100)
        led.check(batch=0, stage=0)

    def test_strict_raises_deterministically(self):
        led = MemoryLedger(rank=3, budget=50, enforce="strict", batches=2)
        led.acquire("a_piece", 60)
        with pytest.raises(MemoryBudgetExceededError) as exc_info:
            led.check(batch=1, stage=0)
        err = exc_info.value
        assert isinstance(err, MemoryPressureError)  # degradation path
        assert err.batches == 2
        assert err.context["rank"] == 3
        assert err.context["high_water_total"] == 60
        assert err.context["budget_per_rank"] == 50

    def test_strict_under_budget_passes(self):
        led = MemoryLedger(budget=100, enforce="strict")
        led.acquire("a_piece", 100)
        led.check(batch=0, stage=0)

    def test_warn_records_once(self):
        led = MemoryLedger(rank=1, budget=50, enforce="warn")
        led.acquire("a_piece", 60)
        led.check(batch=0, stage=0)
        led.check(batch=0, stage=1)
        warnings = led.report()["warnings"]
        assert len(warnings) == 1
        assert warnings[0]["rank"] == 1

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="enforce"):
            MemoryLedger(enforce="shout")
        assert set(ENFORCE_MODES) == {"off", "warn", "strict"}


class TestReports:
    def test_report_shape(self):
        led = MemoryLedger(rank=0, budget=1000, enforce="warn")
        led.acquire("a_piece", 10)
        rep = led.report()
        assert rep["rank"] == 0
        assert rep["budget_per_rank"] == 1000
        assert rep["enforce"] == "warn"
        assert rep["categories"] == {"a_piece": {"high_water": 10, "current": 10}}
        # untouched categories are omitted from the report
        assert "recv_buffer" not in rep["categories"]

    def test_merge_takes_maxima(self):
        reports = []
        for rank, (a_bytes, r_bytes) in enumerate([(100, 30), (80, 70)]):
            led = MemoryLedger(rank=rank)
            led.enter_batch(0)
            led.acquire("a_piece", a_bytes)
            led.touch("recv_buffer", r_bytes)
            reports.append(led.report())
        merged = MemoryLedger.merge_reports(reports)
        assert merged["high_water_total"] == 150  # rank 1: 80 + 70
        assert merged["per_rank_high_water"] == [130, 150]
        assert merged["categories"]["a_piece"]["high_water"] == 100
        assert merged["categories"]["recv_buffer"]["high_water"] == 70
        assert merged["batch_peaks"][0] == 150

    def test_merge_empty(self):
        merged = MemoryLedger.merge_reports([])
        assert merged["high_water_total"] == 0
        assert merged["categories"] == {}

    def test_all_categories_known(self):
        assert CATEGORIES == (
            "a_piece", "b_piece", "recv_buffer", "merge_scratch",
            "output_batch", "checkpoint",
        )
