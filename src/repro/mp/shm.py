"""Shared-memory segments with refcounted ownership handoff.

One segment per message: every qualifying ndarray buffer in a payload is
written (64-byte aligned) into a single file under :data:`SHM_DIR` —
created ``O_EXCL``, sized with ``ftruncate`` and filled with ``pwrite``,
so the sender never maps it — and the wire carries only the segment
name plus per-buffer offsets.  Receivers map the file read-only
(:func:`adopt_mapping`, the one way a segment is mapped) and build
zero-copy, read-only array views on the mapping, which closes with the
last of them; the received bytes are charged once, to the receiver's
ledger ``recv_buffer`` category, at the normal delivery chokepoint
(:meth:`SimComm._deliver`) — never on the sender.

Ownership discipline (SpComm3D-style explicit handoff):

* single-receiver message — ownership transfers with the message: the
  receiver unlinks the name immediately after attaching (POSIX keeps
  the mapping alive until the views die), so no rendezvous with the
  creator is needed;
* multi-receiver message (a broadcast fan-out, a collective result) —
  the creator keeps the name and a refcount of outstanding receivers;
  each receiver posts a tiny ack after attaching and the creator
  unlinks when the count drains (:meth:`SegmentRegistry.ack`).

No resource tracker repeats that bookkeeping.  What a crashed worker
leaves behind the parent engine's :func:`sweep_segments` removes (every
name bearing the run prefix) once its workers are joined or parked; what
a killed parent leaves behind the next world start removes
(:func:`sweep_dead_runs`).
"""

from __future__ import annotations

import mmap
import os

#: byte alignment of each packed buffer inside a segment.
ALIGN = 64

#: where POSIX shared memory surfaces as files (the leak-check location).
SHM_DIR = "/dev/shm"


def reap_segment(name: str) -> bool:
    """Unlink one segment by name; ``False`` when it was already gone
    (racing with another reaper is fine)."""
    try:
        os.unlink(os.path.join(SHM_DIR, name))
    except FileNotFoundError:
        return False
    return True


class SegmentRegistry:
    """Per-process bookkeeping of the segments this process created.

    ``run_id`` prefixes every segment name, so one run's segments are
    sweepable as a unit; ``rank`` disambiguates creators.  Transports
    post the acks; the registry just counts them.
    """

    def __init__(self, run_id: str, rank: int) -> None:
        self.run_id = run_id
        self.rank = int(rank)
        self._counter = 0
        #: created, not yet sent (error-path cleanup unlinks these).
        self._fresh: set[str] = set()
        #: sent to several receivers: name -> outstanding acks.
        self.pending: dict[str, int] = {}
        self.shm_bytes = 0
        self.segments = 0

    def create(self, nbytes: int, chunks) -> str:
        """A new segment of ``nbytes`` holding each ``(offset, bytes)``
        chunk; returns its name."""
        name = f"{self.run_id}.{self.rank}.{self._counter}"
        self._counter += 1
        fd = os.open(os.path.join(SHM_DIR, name),
                     os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
        self._fresh.add(name)
        try:
            os.ftruncate(fd, max(int(nbytes), 1))
            for offset, data in chunks:
                view = memoryview(data)
                while view:
                    done = os.pwrite(fd, view, offset)
                    view, offset = view[done:], offset + done
        finally:
            os.close(fd)
        self.shm_bytes += int(nbytes)
        self.segments += 1
        return name

    def sent(self, name: str, receivers: int) -> None:
        """The segment's message was posted to ``receivers`` ranks; with
        one, ownership went with it (the receiver unlinks on attach)."""
        self._fresh.discard(name)
        if receivers > 1:
            # ack mode: keep the name until every receiver attached
            self.pending[name] = int(receivers)

    def ack(self, names) -> None:
        """Process receiver acks; unlink when a refcount drains."""
        for name in names:
            left = self.pending.get(name)
            if left is None:
                continue
            if left <= 1:
                del self.pending[name]
                reap_segment(name)
            else:
                self.pending[name] = left - 1

    def outstanding(self) -> int:
        """Messages whose receivers have not acked yet."""
        return len(self.pending)

    def abandon(self) -> None:
        """Error-path cleanup, and the first thing a new region does to
        what an aborted one left: unlink whatever this process still owns.
        Received mappings close with their last view; the parent sweep
        removes any name a peer never released."""
        for name in (*self._fresh, *self.pending):
            reap_segment(name)
        self._fresh.clear()
        self.pending.clear()


def adopt_mapping(name: str, owned: bool = True) -> mmap.mmap:
    """Map a received segment read-only.  An ``owned`` segment
    (single-receiver handoff) is unlinked at once — the mapping outlives
    the name; a shared one keeps its name until the creator's last ack.
    Arrays built on the mapping keep it open and close it with the last
    of them."""
    path = os.path.join(SHM_DIR, name)
    fd = os.open(path, os.O_RDONLY)
    try:
        if owned:
            os.unlink(path)
        return mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
    finally:
        os.close(fd)


def _names() -> list[str]:
    return os.listdir(SHM_DIR) if os.path.isdir(SHM_DIR) else []


def sweep_segments(run_id: str) -> int:
    """Parent-side backstop: remove every leftover segment bearing the
    run prefix (workers joined, or parked between regions).  Returns the
    number of names removed — 0 on a clean run.
    """
    return sum(reap_segment(n) for n in _names() if n.startswith(run_id))


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:
        pass
    return False


def sweep_dead_runs() -> int:
    """World-start backstop for a parent killed mid-region: remove every
    ``repro-<pid>-*`` name whose creating parent ``pid`` no longer
    exists in this process's pid namespace.  Returns the number of
    names removed."""
    removed = 0
    for name in _names():
        prefix, _, rest = name.partition("-")
        pid = rest.partition("-")[0]
        if prefix == "repro" and pid.isdigit() and _gone(int(pid)):
            removed += reap_segment(name)
    return removed


def leaked_segments(run_id: str) -> list[str]:
    """Names under :data:`SHM_DIR` still bearing ``run_id`` (tests)."""
    return sorted(n for n in _names() if n.startswith(run_id))
