"""Shared-memory segments with refcounted ownership handoff.

One segment per message: every qualifying ndarray buffer in a payload is
packed (64-byte aligned) into a single
:class:`multiprocessing.shared_memory.SharedMemory` block, and the wire
carries only the segment name plus per-buffer offsets.  Receivers map
the block and build zero-copy, read-only array views; the received bytes
are charged once, to the receiver's ledger ``recv_buffer`` category, at
the normal delivery chokepoint (:meth:`SimComm._deliver`) — never on the
sender.

Ownership discipline (SpComm3D-style explicit handoff):

* single-receiver message — ownership transfers with the message: the
  receiver unlinks the name immediately after attaching (POSIX keeps
  the mapping alive until the views die), so no rendezvous with the
  creator is needed;
* multi-receiver message (a broadcast fan-out, a collective result) —
  the creator keeps the name and a refcount of outstanding receivers;
  each receiver posts a tiny ack after attaching and the creator
  unlinks when the count drains (:meth:`SegmentRegistry.ack`).

Python 3.11 registers *every* attach with the (fork-shared) resource
tracker under the same name, so exactly one ``unlink()`` balances the
books.  A crashed worker leaves its names behind; the parent engine's
:func:`sweep_segments` backstop removes anything bearing the run prefix
after all workers have been joined.
"""

from __future__ import annotations

import mmap
import os
import weakref
from multiprocessing import resource_tracker, shared_memory

#: byte alignment of each packed buffer inside a segment.
ALIGN = 64

#: where POSIX shared memory surfaces as files (the leak-check location).
SHM_DIR = "/dev/shm"


def _untrack(name: str) -> None:
    """Best-effort resource-tracker unregistration by segment name."""
    try:
        resource_tracker.unregister("/" + name, "shared_memory")
    except Exception:
        pass


class _Adopted:
    """A segment attached on the receive side, kept alive by refcount.

    ``refs`` counts the decoded arrays still viewing the mapping; each
    carries a :func:`weakref.finalize` that releases one reference, and
    the registry closes the local handle when the last view dies.
    """

    __slots__ = ("shm", "refs")

    def __init__(self, shm: shared_memory.SharedMemory) -> None:
        self.shm = shm
        self.refs = 0


class SegmentRegistry:
    """Per-process bookkeeping of created and adopted segments.

    ``run_id`` prefixes every segment name, so one run's segments are
    sweepable as a unit; ``rank`` disambiguates creators.  ``post`` is
    the world's enqueue function (used here only indirectly — transports
    post the acks; the registry just counts them).
    """

    def __init__(self, run_id: str, rank: int) -> None:
        self.run_id = run_id
        self.rank = int(rank)
        self._counter = 0
        #: created, not yet sent (error-path cleanup unlinks these).
        self._fresh: dict[str, shared_memory.SharedMemory] = {}
        #: sent to multiple receivers; name -> (handle, outstanding acks).
        self._owned: dict[str, shared_memory.SharedMemory] = {}
        self.pending: dict[str, int] = {}
        #: attached on receive; name -> _Adopted.
        self.adopted: dict[str, _Adopted] = {}
        #: handles whose close() was refused because a buffer export was
        #: still live — typically the *dying* view whose finalizer asked
        #: for the close (finalizers run before the view's dealloc
        #: releases its export).  Retried by :meth:`reap`.
        self._zombies: list[shared_memory.SharedMemory] = []
        self.shm_bytes = 0
        self.segments = 0

    def _try_close(self, shm: shared_memory.SharedMemory) -> None:
        try:
            shm.close()
        except BufferError:
            self._zombies.append(shm)

    def reap(self) -> None:
        """Retry closing handles a live buffer export blocked earlier."""
        if not self._zombies:
            return
        still: list[shared_memory.SharedMemory] = []
        for shm in self._zombies:
            try:
                shm.close()
            except BufferError:
                still.append(shm)
        self._zombies = still

    # -------------------------------------------------------------- #
    # create side
    # -------------------------------------------------------------- #

    def create(self, nbytes: int) -> shared_memory.SharedMemory:
        self.reap()
        name = f"{self.run_id}.{self.rank}.{self._counter}"
        self._counter += 1
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(int(nbytes), 1)
        )
        self._fresh[shm.name] = shm
        self.shm_bytes += int(nbytes)
        self.segments += 1
        return shm

    def sent(self, name: str, receivers: int) -> None:
        """The segment's message was enqueued to ``receivers`` ranks."""
        shm = self._fresh.pop(name)
        if receivers > 1:
            # ack mode: keep the name until every receiver attached
            self._owned[name] = shm
            self.pending[name] = int(receivers)
        else:
            # ownership transferred: the receiver unlinks after attach
            shm.close()

    def ack(self, names) -> None:
        """Process receiver acks; unlink when a refcount drains."""
        for name in names:
            left = self.pending.get(name)
            if left is None:
                continue
            if left <= 1:
                del self.pending[name]
                shm = self._owned.pop(name)
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass
                self._try_close(shm)
            else:
                self.pending[name] = left - 1

    # -------------------------------------------------------------- #
    # receive side
    # -------------------------------------------------------------- #

    def adopt(self, name: str, owned: bool) -> _Adopted:
        """Attach a received segment; unlink immediately when ``owned``
        (single-receiver handoff — the mapping outlives the name)."""
        self.reap()
        rec = self.adopted.get(name)
        if rec is not None:
            return rec
        shm = shared_memory.SharedMemory(name=name)
        if owned:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        rec = _Adopted(shm)
        self.adopted[name] = rec
        return rec

    def view(self, rec_name: str, array):
        """Register one decoded array view of an adopted segment."""
        rec = self.adopted[rec_name]
        rec.refs += 1
        weakref.finalize(array, self.release, rec_name)

    def release(self, name: str) -> None:
        rec = self.adopted.get(name)
        if rec is None:
            return
        rec.refs -= 1
        if rec.refs <= 0:
            del self.adopted[name]
            # usually refused here — the finalizer that got us called
            # belongs to a view that hasn't released its export yet —
            # and completed by the next reap()
            self._try_close(rec.shm)

    # -------------------------------------------------------------- #
    # teardown
    # -------------------------------------------------------------- #

    def outstanding(self) -> int:
        """Messages whose receivers have not acked yet."""
        return len(self.pending)

    def abandon(self) -> None:
        """Error-path cleanup, and the first thing a new region does to
        what an aborted one left: unlink whatever this process still owns.
        Adopted mappings are left to process exit (views may be live);
        the parent sweep removes any name a peer never released."""
        for store in (self._fresh, self._owned):
            for name, shm in list(store.items()):
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass
                self._try_close(shm)
            store.clear()
        self.pending.clear()


def adopt_mapping(name: str) -> mmap.mmap:
    """Single-receiver handoff without a handle: attach, unlink, and map
    the segment read-only.  Arrays built on the mapping keep it open and
    close it with the last of them — a ``SharedMemory`` that dies before
    its views prints a ``BufferError`` from ``__del__`` instead."""
    shm = shared_memory.SharedMemory(name=name)
    try:
        shm.unlink()
        # SharedMemory has no public name for its descriptor
        return mmap.mmap(shm._fd, shm.size, access=mmap.ACCESS_READ)
    finally:
        shm.close()


def reap_segment(name: str) -> bool:
    """Unlink one segment by name, in-process and tracker-balanced.

    Used for stale-epoch wires a rank drops without decoding: the
    attach registers with the resource tracker and the unlink
    unregisters, so the books stay balanced.  Returns ``True`` when the
    name existed (racing with another reaper is fine)."""
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    try:
        shm.unlink()
    except FileNotFoundError:
        # lost the race after attaching: balance the attach registration
        _untrack(name)
    shm.close()
    return True


def sweep_segments(run_id: str) -> int:
    """Parent-side backstop: remove every leftover segment bearing the
    run prefix (workers joined, or parked between regions).  Returns the
    number of names removed — 0 on a clean run.
    """
    if not os.path.isdir(SHM_DIR):
        return 0
    removed = 0
    for fname in os.listdir(SHM_DIR):
        if not fname.startswith(run_id):
            continue
        try:
            os.unlink(os.path.join(SHM_DIR, fname))
        except OSError:
            continue
        _untrack(fname)
        removed += 1
    return removed


def leaked_segments(run_id: str) -> list[str]:
    """Names under :data:`SHM_DIR` still bearing ``run_id`` (tests)."""
    if not os.path.isdir(SHM_DIR):
        return []
    return sorted(f for f in os.listdir(SHM_DIR) if f.startswith(run_id))
