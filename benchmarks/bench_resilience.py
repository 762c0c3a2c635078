"""Resilience study — what fault tolerance costs, fault-free and faulty.

Two questions, both answered in the tracker's deterministic byte/message
currency (wall clock in a threaded simulator says nothing about a real
network):

1. **Fault-free overhead** — what do checksums and checkpointing cost a
   healthy run?  Checksums (on under any fault plan, an empty
   ``FaultPlan()`` included) must price at exactly
   ``CHECKSUM_NBYTES`` per enveloped message (metadata-only, nothing
   payload-proportional); checkpointing adds only the batch-boundary
   barriers (zero payload bytes) plus driver-side disk writes outside
   the communication path.

2. **Recovery cost** — a crash at batch ``i`` of ``b``, then
   ``resume=True``: the recomputed communication volume must scale with
   the ``b - i`` lost batches, not with the whole run.  The later the
   crash, the cheaper the recovery — the curve the bench prints.
"""

import shutil
import tempfile

import pytest

from _helpers import print_series
from repro.data.generators import erdos_renyi
from repro.errors import SpmdError
from repro.simmpi import CommTracker, FaultPlan
from repro.simmpi.serialization import CHECKSUM_NBYTES
from repro.summa import batched_summa3d

NPROCS, BATCHES = 4, 4


@pytest.fixture(scope="module")
def operands():
    a = erdos_renyi(96, avg_degree=6.0, seed=11)
    return a, a


def _run(a, b, **kwargs):
    tracker = CommTracker()
    result = batched_summa3d(
        a, b, nprocs=NPROCS, batches=BATCHES, tracker=tracker,
        timeout=30, **kwargs,
    )
    return tracker, result


def test_fault_free_overhead_is_metadata_only(operands, benchmark):
    a, b = operands
    plain_tracker, plain = _run(a, b)
    sum_tracker, summed = benchmark(lambda: _run(a, b, faults=FaultPlan()))
    ckpt_dir = tempfile.mkdtemp()
    try:
        ck_tracker, ck = _run(a, b, checkpoint_dir=ckpt_dir)
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)

    plain_bytes = plain_tracker.total_bytes()
    sum_bytes = sum_tracker.total_bytes()
    ck_bytes = ck_tracker.total_bytes()
    print_series(
        "Fault-free overhead (bytes on the wire)",
        ["mode", "total bytes", "messages", "overhead"],
        [
            ["baseline", plain_bytes, plain_tracker.message_count(), "-"],
            ["checksums", sum_bytes, sum_tracker.message_count(),
             f"+{sum_bytes - plain_bytes}"],
            ["checkpointing", ck_bytes, ck_tracker.message_count(),
             f"+{ck_bytes - plain_bytes}"],
        ],
    )
    # products identical in every mode
    assert summed.matrix.allclose(plain.matrix)
    assert ck.matrix.allclose(plain.matrix)
    # checksums: per-message metadata, nothing payload-proportional
    overhead = sum_bytes - plain_bytes
    assert 0 < overhead < 0.05 * plain_bytes
    assert overhead % CHECKSUM_NBYTES == 0
    # checkpointing moves no extra payload bytes at all (barriers are
    # zero-byte); durability is bought with disk writes, not bandwidth
    assert ck_bytes == plain_bytes


def test_recovery_cost_scales_with_lost_batches(operands):
    a, b = operands
    full_tracker, base = _run(a, b)
    full_bytes = full_tracker.total_bytes()

    rows = [["full run", "-", full_bytes, "1.00"]]
    resumed_bytes = []
    for crash_batch in range(1, BATCHES):
        ckpt_dir = tempfile.mkdtemp()
        try:
            with pytest.raises(SpmdError):
                _run(a, b, checkpoint_dir=ckpt_dir,
                     faults=FaultPlan([f"crash:rank=1,batch={crash_batch}"]))
            tracker = CommTracker()
            result = batched_summa3d(
                a, b, nprocs=NPROCS, tracker=tracker, timeout=30,
                checkpoint_dir=ckpt_dir, resume=True,
            )
        finally:
            shutil.rmtree(ckpt_dir, ignore_errors=True)
        assert result.matrix.allclose(base.matrix)
        assert result.info["resilience"]["resumed_from_batch"] == crash_batch
        nbytes = tracker.total_bytes()
        resumed_bytes.append(nbytes)
        rows.append([
            f"resume after crash@{crash_batch}", BATCHES - crash_batch,
            nbytes, f"{nbytes / full_bytes:.2f}",
        ])
    print_series(
        "Recovery cost vs crash point",
        ["run", "batches recomputed", "comm bytes", "vs full"],
        rows,
    )
    # the later the crash, the cheaper the recovery — strictly
    assert all(x > y for x, y in zip(resumed_bytes, resumed_bytes[1:]))
    # and every recovery is cheaper than recomputing from scratch
    assert all(x < full_bytes for x in resumed_bytes)
