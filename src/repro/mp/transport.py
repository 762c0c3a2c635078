"""Transport registry for the process-backed world (ChainerMN-style).

A transport decides how one payload crosses a process boundary:

``naive``
    Pickle everything into the pipe to the receiving rank — simple,
    correct, one full copy per hop.
``shm``
    Every ndarray buffer (including the three arrays of a
    :class:`~repro.sparse.SparseMatrix` and anything inside an
    :class:`~repro.simmpi.serialization.Envelope`) is packed into one
    shared-memory segment; only a small descriptor travels through the
    pipe, and the receiver maps the segment zero-copy.
``auto``
    ``shm`` for buffers of at least :data:`AUTO_THRESHOLD` bytes,
    ``naive`` inline for anything smaller — the payload-size heuristic
    real communicators use to trade mapping overhead against copies.

Transports are symmetric: every rank of a run uses the same one, chosen
by the ``transport=`` knob on :func:`repro.simmpi.engine.run_spmd`.
Decoded arrays are **read-only** views of the segment — the process
world enforces the "received payloads are read-only" contract the
threaded world can only document.
"""

from __future__ import annotations

import pickle

import numpy as np

from ..simmpi.serialization import Envelope, payload_nbytes
from ..sparse.matrix import SparseMatrix
from .shm import ALIGN, SegmentRegistry, adopt_mapping, reap_segment

#: registered transport names, in documentation order.
TRANSPORTS = ("naive", "shm", "auto")

#: ``auto``: buffers at least this large travel via shared memory.
AUTO_THRESHOLD = 32 * 1024


def reap_wire(wire) -> bool:
    """Reap the segment behind an undecoded wire item, if any.

    A rank that drops a stale-epoch message without decoding it must
    still remove the shared-memory segment the wire points at — nobody
    else will (a single-receiver creator already closed its handle; a
    multi-receiver creator may be dead).
    Safe against double-reaps and non-shm wires.  Returns ``True`` when
    a segment was actually removed."""
    if (
        isinstance(wire, tuple)
        and len(wire) == 6
        and wire[0] == "shm"
        and isinstance(wire[1], str)
    ):
        return reap_segment(wire[1])
    return False


def _safe_nbytes(obj) -> int:
    try:
        return payload_nbytes(obj)
    except TypeError:
        return 0


class Transport:
    """Base transport: wire encode/decode plus traffic statistics."""

    name = "?"
    #: minimum array nbytes for shared-memory packing; None = never.
    threshold: int | None = None

    def __init__(self, registry: SegmentRegistry, post_ack=None) -> None:
        self.segments = registry
        #: ``post_ack(creator_rank, name)`` — installed by the world.
        self.post_ack = post_ack
        self.naive_msgs = 0
        self.naive_bytes = 0

    def stats(self) -> dict:
        return {
            "transport": self.name,
            "shm_segments": self.segments.segments,
            "shm_bytes": self.segments.shm_bytes,
            "naive_msgs": self.naive_msgs,
            "naive_bytes": self.naive_bytes,
        }

    def reset_stats(self) -> None:
        """Start a region's traffic count from zero."""
        self.naive_msgs = self.naive_bytes = 0
        self.segments.segments = self.segments.shm_bytes = 0

    # -------------------------------------------------------------- #
    # encode
    # -------------------------------------------------------------- #

    def encode(self, obj, receivers: int = 1, floor: int = 0):
        """Build the wire form of ``obj`` for ``receivers`` recipients;
        arrays under ``floor`` bytes stay inline whatever the transport."""
        bufs: list[np.ndarray] = []
        spec = (None if self.threshold is None  # naive: nothing to pack
                else self._spec(obj, bufs, max(self.threshold, floor)))
        if not bufs:
            self.naive_msgs += 1
            self.naive_bytes += _safe_nbytes(obj)
            return ("py", obj)
        offsets, total = _layout(bufs)
        name = self.segments.create(total, [
            (off, np.ascontiguousarray(arr).reshape(-1).view(np.uint8))
            for arr, off in zip(bufs, offsets)
        ])
        self.segments.sent(name, receivers)
        return ("shm", name, self.segments.rank, receivers > 1,
                tuple(offsets), spec)

    def _spec(self, obj, bufs: list, threshold: int):
        if (
            isinstance(obj, np.ndarray)
            and not obj.dtype.hasobject
            and obj.size > 0
            and obj.nbytes >= threshold
        ):
            idx = len(bufs)
            bufs.append(obj)
            return ("nd", idx, obj.dtype.str, obj.shape)
        if isinstance(obj, SparseMatrix):
            return (
                "sm", obj.nrows, obj.ncols, bool(obj.sorted_within_columns),
                self._spec(obj.indptr, bufs, threshold),
                self._spec(obj.rowidx, bufs, threshold),
                self._spec(obj.values, bufs, threshold),
            )
        if isinstance(obj, Envelope):
            return ("env", obj.crc, self._spec(obj.payload, bufs, threshold))
        # exact types: a subclass (a namedtuple) would arrive as its base
        if type(obj) is list:
            return ("L", [self._spec(x, bufs, threshold) for x in obj])
        if type(obj) is tuple:
            return ("T", [self._spec(x, bufs, threshold) for x in obj])
        if type(obj) is dict:
            return ("D", [(k, self._spec(v, bufs, threshold))
                          for k, v in obj.items()])
        return ("o", obj)

    def ship(self, obj) -> tuple:
        """What a rank hands the driver (a region's return value, a
        driver callback's arguments; the driver's end is :func:`receive`)
        as a single-receiver wire: arrays ride a segment from
        :data:`AUTO_THRESHOLD` up — under ``shm`` too, so a small report
        creates none — and the rest is pickled here, at the call site,
        where an object that cannot cross is the caller's error."""
        wire = self.encode(obj, receivers=1, floor=AUTO_THRESHOLD)
        return (*wire[:-1], pickle.dumps(wire[-1]))

    # -------------------------------------------------------------- #
    # decode
    # -------------------------------------------------------------- #

    def decode(self, wire):
        kind = wire[0]
        if kind == "py":
            return wire[1]
        _, name, creator, ack_needed, offsets, spec = wire
        buf = adopt_mapping(name, owned=not ack_needed)
        if ack_needed and self.post_ack is not None:
            self.post_ack(creator, name)
        return _build(spec, buf, offsets)


def receive(wire: tuple):
    """The driver's end of :meth:`Transport.ship`: the segment changes
    hands (attach + unlink) and its mapping is the base of the read-only
    arrays built on it, so it closes with the last of them.  A shipped
    wire nobody will read goes to :func:`reap_wire` instead, unpickled."""
    if wire[0] == "py":
        return pickle.loads(wire[1])
    _, name, _creator, _ack_needed, offsets, spec = wire
    return _build(pickle.loads(spec), adopt_mapping(name), offsets)


def _build(spec, buf, offsets):
    """The object ``spec`` describes; its arrays are read-only views of
    ``buf``."""
    tag = spec[0]
    if tag == "o":
        return spec[1]
    if tag == "nd":
        _, idx, dstr, shape = spec
        dtype = np.dtype(dstr)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        arr = np.frombuffer(buf, dtype=dtype, count=count, offset=offsets[idx])
        if tuple(shape) != (count,):
            arr = arr.reshape(shape)
        arr.flags.writeable = False
        return arr
    if tag == "sm":
        _, nrows, ncols, swc, *arrays = spec
        return SparseMatrix(
            nrows, ncols, *(_build(s, buf, offsets) for s in arrays),
            sorted_within_columns=swc, validate=False,
        )
    if tag == "env":
        _, crc, sub = spec
        return Envelope(_build(sub, buf, offsets), crc)
    if tag == "L":
        return [_build(s, buf, offsets) for s in spec[1]]
    if tag == "T":
        return tuple(_build(s, buf, offsets) for s in spec[1])
    if tag == "D":
        return {k: _build(s, buf, offsets) for k, s in spec[1]}
    raise ValueError(f"unknown wire spec tag {tag!r}")


class NaiveTransport(Transport):
    name = "naive"
    threshold = None


class ShmTransport(Transport):
    name = "shm"
    threshold = 1


class AutoTransport(Transport):
    name = "auto"
    threshold = AUTO_THRESHOLD


_REGISTRY = {
    "naive": NaiveTransport,
    "shm": ShmTransport,
    "auto": AutoTransport,
}


def get_transport(name: str) -> type[Transport]:
    """Resolve a transport class by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown transport {name!r}; expected one of {TRANSPORTS}"
        ) from None


def _layout(bufs: list) -> tuple[list[int], int]:
    """Aligned packing offsets for a list of array buffers."""
    offsets: list[int] = []
    pos = 0
    for arr in bufs:
        pos = (pos + ALIGN - 1) // ALIGN * ALIGN
        offsets.append(pos)
        pos += int(arr.nbytes)
    return offsets, max(pos, 1)
