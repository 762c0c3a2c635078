"""Serving-layer chaos and overload acceptance (ISSUE 9).

Chaos: a seeded rank crash in the middle of a service job running on the
process world heals by re-entry (``heal=True``) and completes bit-identical
to the fault-free reference *at the job's planned configuration*, the
heal is visible in the job result, and ``/dev/shm`` is clean after the
pool shuts down.

Overload: sustained traffic past capacity from several tenants sheds
load only through classified errors, and fair-share keeps every tenant's
throughput above zero even while chaos jobs are failing on the same
grids.
"""

import threading

import numpy as np
import pytest

from repro.errors import (
    AdmissionRejected,
    DeadlineExceededError,
    ReproError,
    SpmdError,
)
from repro.serve import QUARANTINED, SpgemmService
from repro.simmpi.faults import FaultPlan
from repro.sparse import random_sparse
from repro.summa import batched_summa3d
from tests.conftest import shm_names


def assert_bit_identical(m, ref):
    assert m is not None and ref is not None
    assert np.array_equal(m.indptr, ref.indptr)
    assert np.array_equal(m.rowidx, ref.rowidx)
    assert np.array_equal(m.values, ref.values)


@pytest.fixture(scope="module")
def a():
    return random_sparse(36, 36, nnz=400, seed=81)


class TestChaosAcceptance:
    def test_crash_mid_job_heals_bit_identical_shm_clean(self, tmp_path, a):
        """The issue's chaos acceptance: seeded crash mid-run under
        ``world="processes"`` → the job completes bit-identical, the
        result records the heal, and no shared memory leaks past
        shutdown."""
        before = shm_names()
        with SpgemmService(
            grids=1, nprocs=4, world="processes", timeout=60.0,
            heal=True, checkpoint_root=tmp_path / "ck",
        ) as svc:
            h = svc.submit(
                tenant="chaos", a=a,
                faults=FaultPlan(["crash:rank=1,op=bcast,nth=2"]),
            )
            r = h.result(timeout=120)
            assert r.heals >= 1
            heal = r.info["resilience"]["heal"]
            assert heal["heals"] == r.heals == len(heal["events"])
            assert r.info["world"]["world"] == "processes"
            # fault-free reference at the job's own planned config — the
            # contract is faulted ≡ unfaulted at the same configuration
            ref = batched_summa3d(
                a, a, nprocs=4, layers=r.plan["layers"],
                batches=r.plan["batches"], comm_backend=r.plan["backend"],
            )
            assert_bit_identical(r.matrix, ref.matrix)
            assert svc.stats()["counters"]["heals"] >= 1
        assert shm_names() <= before

    def test_unhealed_crash_is_classified_and_breaker_reforks(
        self, a
    ):
        """Without a heal layer a crashing job fails *classified*; two
        such incidents quarantine the slot's breaker and the service
        re-forks the grid, after which clean traffic flows again."""
        before = shm_names()
        with SpgemmService(
            grids=1, nprocs=4, world="processes", timeout=60.0,
            degrade_after=2.0, quarantine_after=4.0,
        ) as svc:
            for _ in range(2):
                h = svc.submit(
                    tenant="chaos", a=a,
                    faults=FaultPlan(["crash:rank=1,op=bcast,nth=2"]),
                )
                with pytest.raises(SpmdError) as info:
                    h.result(timeout=120)
                assert all(
                    isinstance(e, ReproError)
                    for e in info.value.failures.values()
                )
            r = svc.submit(tenant="chaos", a=a).result(timeout=120)
            assert r.matrix is not None
            stats = svc.stats()
            assert stats["counters"]["reforks"] >= 1
            assert stats["slots"][0]["breaker"]["trips"] >= 1
            assert stats["slots"][0]["breaker"]["state"] != QUARANTINED
        assert shm_names() <= before


class TestChaosUnderLoad:
    def test_mixed_tenants_with_crashes_all_keep_flowing(self, tmp_path, a):
        """Three tenants flood a small process-world pool while one of
        them injects crashes; every refusal is classified, every tenant
        completes work, healed jobs stay bit-identical, and the pool
        shuts down shm-clean."""
        before = shm_names()
        completed = {"alice": 0, "bob": 0, "mallory": 0}
        unclassified = []
        lock = threading.Lock()
        with SpgemmService(
            grids=2, nprocs=4, world="processes", timeout=60.0,
            queue_capacity=2, max_backlog_s=1e9,
            heal=True, checkpoint_root=tmp_path / "ck",
        ) as svc:
            ref = {}

            def flood(tenant, faulty):
                for i in range(4):
                    faults = (
                        FaultPlan(["crash:rank=1,op=bcast,nth=2"])
                        if faulty and i % 2 == 0 else None
                    )
                    try:
                        r = svc.submit(
                            tenant=tenant, a=a, faults=faults,
                        ).result(timeout=180)
                        key = (r.plan["layers"], r.plan["batches"])
                        if key not in ref:
                            ref[key] = batched_summa3d(
                                a, a, nprocs=4, layers=key[0],
                                batches=key[1],
                                comm_backend=r.plan["backend"],
                            )
                        assert_bit_identical(r.matrix, ref[key].matrix)
                        with lock:
                            completed[tenant] += 1
                    except (AdmissionRejected, DeadlineExceededError):
                        pass  # classified shedding — expected at 2x load
                    except Exception as exc:  # noqa: BLE001
                        with lock:
                            unclassified.append(exc)

            threads = [
                threading.Thread(target=flood, args=(t, t == "mallory"))
                for t in completed
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(300)
            stats = svc.stats()
        assert not unclassified, unclassified
        assert all(n > 0 for n in completed.values()), completed
        assert stats["counters"]["heals"] >= 1
        assert shm_names() <= before
