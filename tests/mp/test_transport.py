"""Unit tests for the process-world wire formats (``repro.mp.transport``).

Everything here runs in one process: a single :class:`SegmentRegistry`
plays both sender and receiver, which exercises the exact encode / map /
ack lifecycle the workers run, minus the queue hop.  Whether a segment
is still mapped is read from ``/proc/self/maps``.
"""

import gc

import numpy as np
import pytest

from repro.mp.shm import SHM_DIR, SegmentRegistry, leaked_segments
from repro.mp.transport import (
    AUTO_THRESHOLD,
    AutoTransport,
    NaiveTransport,
    ShmTransport,
    get_transport,
)
from repro.simmpi.serialization import payload_checksum, wrap_payload
from repro.sparse import random_sparse


@pytest.fixture
def registry(request):
    run_id = f"repro-test-{abs(hash(request.node.name)) % 10**8}"
    reg = SegmentRegistry(run_id, rank=0)
    yield reg
    # every test must leave /dev/shm clean for its run prefix
    gc.collect()
    reg.abandon()
    assert leaked_segments(run_id) == []


def mapped(name):
    """Whether this process still maps the segment ``name`` (the sixth
    column of a maps line is the mapped path)."""
    with open("/proc/self/maps") as maps:
        return any(line.split()[5:6] == [f"{SHM_DIR}/{name}"] for line in maps)


def roundtrip(transport, obj, receivers=1):
    wire = transport.encode(obj, receivers=receivers)
    return wire, transport.decode(wire)


PAYLOADS = [
    None,
    7,
    3.5,
    "stage-label",
    {"batch": 2, "sizes": [1, 2, 3]},
    (1, None, [True, "x"]),
]


class TestNaive:
    @pytest.mark.parametrize("obj", PAYLOADS)
    def test_python_payloads_pass_through(self, registry, obj):
        wire, out = roundtrip(NaiveTransport(registry), obj)
        assert wire[0] == "py"
        assert out == obj or (obj is None and out is None)

    def test_arrays_stay_inline(self, registry):
        arr = np.arange(10_000, dtype=np.float64)
        wire, out = roundtrip(NaiveTransport(registry), arr)
        assert wire[0] == "py"
        assert out is arr
        assert registry.segments == 0

    def test_stats_count_naive_traffic(self, registry):
        t = NaiveTransport(registry)
        t.encode(np.arange(8, dtype=np.float64))
        stats = t.stats()
        assert stats["naive_msgs"] == 1
        assert stats["naive_bytes"] == 64
        assert stats["shm_segments"] == 0


class TestShm:
    def test_ndarray_roundtrip_is_exact_and_readonly(self, registry):
        arr = np.arange(4096, dtype=np.int64).reshape(64, 64)
        wire, out = roundtrip(ShmTransport(registry), arr)
        assert wire[0] == "shm"
        assert out.dtype == arr.dtype and out.shape == arr.shape
        assert np.array_equal(out, arr)
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0, 0] = -1

    def test_sparse_matrix_roundtrip(self, registry):
        m = random_sparse(80, 60, nnz=500, seed=3)
        _, out = roundtrip(ShmTransport(registry), m)
        assert out.nrows == m.nrows and out.ncols == m.ncols
        assert np.array_equal(out.indptr, m.indptr)
        assert np.array_equal(out.rowidx, m.rowidx)
        assert np.array_equal(out.values, m.values)

    def test_envelope_crc_survives_the_segment(self, registry):
        env = wrap_payload(random_sparse(50, 50, nnz=300, seed=4))
        _, out = roundtrip(ShmTransport(registry), env)
        assert out.crc == env.crc
        assert payload_checksum(out.payload) == out.crc

    def test_nested_containers_share_one_segment(self, registry):
        obj = {
            "a": np.arange(100, dtype=np.float64),
            "b": [np.ones(50), (np.zeros(25), "tag")],
            "n": None,
        }
        before = registry.segments
        _, out = roundtrip(ShmTransport(registry), obj)
        assert registry.segments == before + 1
        assert np.array_equal(out["a"], obj["a"])
        assert np.array_equal(out["b"][0], obj["b"][0])
        assert np.array_equal(out["b"][1][0], obj["b"][1][0])
        assert out["b"][1][1] == "tag"
        assert out["n"] is None

    def test_views_are_zero_copy(self, registry):
        arr = np.arange(1000, dtype=np.float64)
        wire, out = roundtrip(ShmTransport(registry), arr)
        # the decoded array views the mapped segment, not a copy: the
        # creator closed its handle on send, so the one mapping left is
        # the receiver's, and the array is its only holder
        name = wire[1]
        assert out.base is not None
        assert mapped(name)
        assert leaked_segments(registry.run_id) == []  # receiver unlinked

    def test_mapping_closes_when_last_view_dies(self, registry):
        wire, out = roundtrip(
            ShmTransport(registry), np.arange(1000, dtype=np.float64)
        )
        view = out[10:20]
        del out
        gc.collect()
        assert mapped(wire[1])  # a slice still holds the mapping
        assert np.array_equal(view, np.arange(10, 20, dtype=np.float64))
        del view
        gc.collect()
        assert not mapped(wire[1])

    def test_receivers_read_after_the_last_ack_unlinks(self, registry):
        acks = []
        t = ShmTransport(registry, post_ack=lambda creator, name:
                         acks.append(name))
        m = random_sparse(60, 40, nnz=400, seed=5)
        wire = t.encode(m, receivers=2)
        first, second = t.decode(wire), t.decode(wire)
        registry.ack(acks)
        # the creator unlinked the name and closed its handle...
        assert registry.pending == {}
        assert leaked_segments(registry.run_id) == []
        # ...and both receivers' mappings still read the payload
        for out in (first, second):
            assert np.array_equal(out.indptr, m.indptr)
            assert np.array_equal(out.rowidx, m.rowidx)
            assert np.array_equal(out.values, m.values)
        assert mapped(wire[1])
        del first, second, out
        gc.collect()
        assert not mapped(wire[1])

    def test_multi_receiver_acks_drain_ownership(self, registry):
        acks = []
        t = ShmTransport(registry, post_ack=lambda creator, name:
                         acks.append((creator, name)))
        wire = t.encode(np.arange(512, dtype=np.float64), receivers=2)
        name = wire[1]
        assert registry.pending == {name: 2}
        # two receivers decode (same process here) and ack
        t.decode(wire)
        t.decode(wire)
        assert acks == [(0, name)] * 2
        registry.ack([name for _, name in acks])
        assert registry.pending == {}
        assert registry.outstanding() == 0

    def test_empty_and_object_arrays_fall_back_to_pickle(self, registry):
        t = ShmTransport(registry)
        assert t.encode(np.empty(0, dtype=np.float64))[0] == "py"
        assert t.encode(np.array([{"k": 1}], dtype=object))[0] == "py"


class TestAuto:
    def test_threshold_splits_small_from_large(self, registry):
        t = AutoTransport(registry)
        small = np.zeros(AUTO_THRESHOLD // 8 - 1, dtype=np.float64)
        large = np.zeros(AUTO_THRESHOLD // 8, dtype=np.float64)
        assert t.encode(small)[0] == "py"
        wire = t.encode(large)
        assert wire[0] == "shm"
        t.decode(wire)  # complete the ownership handoff (unlinks)

    def test_mixed_payload_packs_only_large_buffers(self, registry):
        t = AutoTransport(registry)
        obj = [np.zeros(AUTO_THRESHOLD, dtype=np.uint8), np.zeros(4)]
        wire = t.encode(obj)
        assert wire[0] == "shm"
        out = t.decode(wire)
        assert np.array_equal(out[0], obj[0])
        assert np.array_equal(out[1], obj[1])
        # the small array rides in the spec, not the segment
        assert out[1].flags.writeable


def test_registry_resolves_names():
    assert get_transport("naive") is NaiveTransport
    assert get_transport("shm") is ShmTransport
    assert get_transport("auto") is AutoTransport
    with pytest.raises(ValueError, match="unknown transport"):
        get_transport("rdma")
