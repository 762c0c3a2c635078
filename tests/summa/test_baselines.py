"""Tests for the related-work baselines (1D SpGEMM, Cannon's algorithm)."""

import numpy as np
import pytest

from repro.errors import GridError, ShapeError
from repro.simmpi import CommTracker
from repro.sparse import eye, random_sparse
from repro.summa.baselines import cannon2d, spgemm_1d
from tests.conftest import to_scipy


@pytest.fixture(scope="module")
def operands():
    a = random_sparse(42, 35, nnz=400, seed=61)
    b = random_sparse(35, 51, nnz=380, seed=62)
    return a, b, (to_scipy(a) @ to_scipy(b)).toarray()


class TestSpgemm1D:
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 7])
    def test_matches_scipy(self, operands, nprocs):
        a, b, expected = operands
        r = spgemm_1d(a, b, nprocs=nprocs)
        assert np.allclose(r.matrix.to_dense(), expected)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            spgemm_1d(eye(3), eye(4))

    def test_allgather_volume_is_p_times_nnz_b(self, operands):
        """The 1D algorithm's non-scaling communication: aggregate volume
        grows linearly with p (Sec. II-C's argument against 1D)."""
        a, b, _ = operands
        volumes = {}
        for nprocs in (2, 4, 8):
            tracker = CommTracker()
            spgemm_1d(a, b, nprocs=nprocs, tracker=tracker)
            volumes[nprocs] = tracker.total_bytes("B-Allgather")
        # each process receives ~all of B: volume ~ (p-1) * nnz(B) * r
        assert volumes[4] > 2.5 * volumes[2]
        assert volumes[8] > 2.0 * volumes[4]

    def test_step_times_present(self, operands):
        a, b, _ = operands
        r = spgemm_1d(a, b, nprocs=4)
        assert "B-Allgather" in r.step_times.seconds
        assert "Local-Multiply" in r.step_times.seconds


class TestCannon:
    @pytest.mark.parametrize("nprocs", [1, 4, 9, 16])
    def test_matches_scipy(self, operands, nprocs):
        a, b, expected = operands
        r = cannon2d(a, b, nprocs=nprocs)
        assert np.allclose(r.matrix.to_dense(), expected)

    def test_square_grid_required(self, operands):
        a, b, _ = operands
        with pytest.raises(GridError):
            cannon2d(a, b, nprocs=6)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            cannon2d(eye(3), eye(4))

    def test_uses_point_to_point(self, operands):
        a, b, _ = operands
        tracker = CommTracker()
        cannon2d(a, b, nprocs=9, tracker=tracker)
        ops = {e.op for e in tracker.events}
        assert "send" in ops
        assert "bcast" not in ops  # no broadcasts: Cannon is all shifts

    def test_shift_count(self, operands):
        """q-1 shift rounds, each rank sends one A and one B tile."""
        a, b, _ = operands
        tracker = CommTracker()
        cannon2d(a, b, nprocs=9, tracker=tracker)
        sends = [e for e in tracker.events if e.op == "send"]
        assert len(sends) == 9 * 2 * 2  # p ranks x 2 tiles x (q-1) rounds

    def test_semiring(self, operands):
        from repro.sparse import multiply
        from repro.sparse.semiring import MIN_PLUS

        a, b, _ = operands
        r = cannon2d(a, b, nprocs=4, semiring=MIN_PLUS)
        assert r.matrix.allclose(multiply(a, b, semiring=MIN_PLUS))


class TestBaselineVsSumma:
    def test_all_algorithms_agree(self, operands):
        from repro.summa import summa2d

        a, b, expected = operands
        r1 = spgemm_1d(a, b, nprocs=4)
        rc = cannon2d(a, b, nprocs=4)
        rs = summa2d(a, b, nprocs=4)
        assert r1.matrix.allclose(rs.matrix)
        assert rc.matrix.allclose(rs.matrix)

    def test_summa_beats_1d_on_volume(self, operands):
        """At equal p, SUMMA's broadcast volume is ~1/sqrt(p) of what the
        1D allgather moves — the fundamental 2D-vs-1D advantage."""
        a, b, _ = operands
        t1 = CommTracker()
        spgemm_1d(a, b, nprocs=16, tracker=t1)
        ts = CommTracker()
        from repro.summa import summa2d

        summa2d(a, b, nprocs=16, tracker=ts)
        vol_1d = t1.total_bytes()
        vol_2d = ts.total_bytes()
        assert vol_2d < vol_1d
