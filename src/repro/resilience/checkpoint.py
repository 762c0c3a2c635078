"""Manifest-backed batch-granular checkpointing for BatchedSUMMA3D.

The batched algorithm's natural unit of durable progress is the batch:
once every rank has finished batch ``i``'s Finalize, the batch's column
block of ``C`` is complete and never revisited.  A
:class:`CheckpointManager` owns a directory holding

* ``manifest.json`` — ``{"version", "run_key", "batches", "completed":
  {"<batch>": {"file", "spans", "nnz"}}}``;
* one ``batch_<i>.npz`` per completed batch (written via the atomic
  :func:`~repro.sparse.io.save_matrix`).

Write ordering makes crashes safe at any instant: the batch file is
replaced atomically *first*, then the manifest (also an atomic
``os.replace``).  A manifest entry therefore always points at a fully
written file, and a run killed mid-batch leaves the previous batches
intact and trusted.

``run_key`` fingerprints the multiplication (operand contents + the
configuration that determines batch geometry), so a resume against
different inputs or a different grid is rejected instead of silently
mixing incompatible column blocks.  The batch count is deliberately
*outside* the key: ``resume=True`` with ``batches=None`` adopts the
manifest's count, and memory-pressure re-batching resets the directory
(doubling ``b`` changes the block-cyclic column geometry, so old batch
files are useless).
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import nullcontext

from ..errors import CheckpointError
from ..plan.spec import ExecSpec
from ..simmpi.serialization import payload_checksum
from ..sparse.io import load_matrix, save_matrix
from ..sparse.matrix import SparseMatrix

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1

#: execution-plan knobs that determine the batch files' column geometry —
#: a resume under a plan differing in any of these would mix incompatible
#: column blocks.  Deliberately *excludes* knobs a replan may legally
#: change between attempts (``comm_backend``) or that do not shape the
#: output (budgets, overlap, world/transport, timeouts, resilience).
PLAN_GEOMETRY_KEYS = (
    "nprocs", "layers", "kernel", "semiring", "batch_scheme", "merge_policy",
)


def run_key(a, b, **config) -> str:
    """Deterministic fingerprint of one multiplication.

    Covers the operand contents (CRC of the structural arrays) and every
    keyword given (grid shape, batch scheme, merge policy, kernel tier,
    semiring, ...).  Both operands must be global matrices — the drivers
    refuse checkpointing on resident tiles, whose contents no driver-side
    fingerprint can cover.
    """
    items = [[k, str(v)] for k, v in sorted(config.items())]
    return f"{payload_checksum([a, b, items]):08x}"


class CheckpointManager:
    """Atomic, manifest-backed checkpoint directory for one batched run.

    Thread-safe: :meth:`write_batch` is called from whichever rank thread
    happens to complete a batch's final piece.
    """

    def __init__(self, directory, keep_last: int | None = None, *,
                 ledger=None) -> None:
        if keep_last is not None and keep_last < 1:
            raise CheckpointError(
                f"keep_last must be >= 1 (got {keep_last}): the newest "
                "completed batch is the resume point and cannot be pruned"
            )
        self.directory = os.fspath(directory)
        self.keep_last = keep_last
        #: optional :class:`~repro.mem.MemoryLedger` the serialization
        #: buffer of each batch write is charged to (category
        #: ``"checkpoint"``) — driver-side memory, so the driver passes
        #: its own ledger here, never a rank's.
        self.ledger = ledger
        self._lock = threading.Lock()
        self._manifest: dict | None = None
        #: durable-write meters: batches written and matrix payload
        #: bytes serialised by this manager.  World-independent by
        #: construction — checkpoint writes always run in the driver
        #: (under ``world="processes"`` via the DriverCallback bridge),
        #: so a healthy process run writes byte-for-byte what the
        #: threaded reference writes; tests pin that parity.
        self.batches_written = 0
        self.bytes_written = 0

    # ------------------------------------------------------------------ #
    # shared-root layout (concurrent jobs)
    # ------------------------------------------------------------------ #

    @staticmethod
    def run_dir(root, key: str) -> str:
        """The per-run subdirectory for ``key`` under a shared root.

        Concurrent jobs sharing one checkpoint root (the serving pool's
        normal shape) must never share a *directory*: ``gc()`` and
        ``keep_last`` pruning are manifest-driven, and two manifests in
        one directory would collect each other's ``batch_*.npz``.  The
        key is sanitised to a filesystem-safe slug; the directory is
        created on demand.
        """
        slug = "".join(
            c if c.isalnum() or c in "-_." else "_" for c in str(key)
        ) or "run"
        path = os.path.join(os.fspath(root), f"run_{slug}")
        os.makedirs(path, exist_ok=True)
        return path

    @classmethod
    def for_run(cls, root, key: str, keep_last: int | None = None, *,
                ledger=None) -> "CheckpointManager":
        """A manager rooted at ``run_dir(root, key)`` — the safe way for
        concurrent jobs to checkpoint under one shared root."""
        return cls(cls.run_dir(root, key), keep_last, ledger=ledger)

    # ------------------------------------------------------------------ #
    # manifest lifecycle
    # ------------------------------------------------------------------ #

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    def _batch_path(self, batch: int) -> str:
        return os.path.join(self.directory, f"batch_{int(batch)}.npz")

    def load_manifest(self) -> dict | None:
        """Read and adopt the on-disk manifest; ``None`` when absent."""
        if not os.path.exists(self.manifest_path):
            return None
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"unreadable checkpoint manifest {self.manifest_path!r}: {exc}"
            ) from exc
        if (
            not isinstance(manifest, dict)
            or manifest.get("version") != MANIFEST_VERSION
            or "run_key" not in manifest
            or "batches" not in manifest
            or not isinstance(manifest.get("completed"), dict)
        ):
            raise CheckpointError(
                f"malformed checkpoint manifest {self.manifest_path!r}"
            )
        self._manifest = manifest
        return manifest

    def start_run(self, key: str, batches: int, plan: dict | None = None) -> None:
        """Begin a fresh run: write an empty manifest for ``key``.

        ``plan`` is the run's serialised execution plan
        (:meth:`repro.plan.ExecSpec.to_dict`), embedded in the manifest so
        a resumed run can *prove* it resumes under the same plan geometry
        rather than trusting the caller."""
        os.makedirs(self.directory, exist_ok=True)
        self._manifest = {
            "version": MANIFEST_VERSION,
            "run_key": str(key),
            "batches": int(batches),
            "completed": {},
        }
        if plan is not None:
            self._manifest["plan"] = dict(plan)
        self._write_manifest()

    def resume_run(
        self, key: str, batches: int | None = None, plan: dict | None = None
    ) -> tuple[int, int]:
        """Adopt an existing manifest for ``key``.

        Returns ``(batches, first_batch)`` — the run's batch count (the
        manifest's when ``batches`` is ``None``) and the first batch that
        still needs computing.  Raises :class:`~repro.errors.CheckpointError`
        when the directory belongs to a different multiplication, a
        conflicting batch count, or (when both sides carry one) a plan
        whose geometry-bearing knobs differ from the manifest's, and
        falls back to a fresh run when no manifest exists yet.
        """
        manifest = self.load_manifest()
        if manifest is None:
            if batches is None:
                raise CheckpointError(
                    f"nothing to resume in {self.directory!r} and no batch "
                    "count given (pass batches= or memory_budget=)"
                )
            self.start_run(key, batches, plan)
            return batches, 0
        if manifest["run_key"] != str(key):
            raise CheckpointError(
                f"checkpoint {self.directory!r} belongs to run_key "
                f"{manifest['run_key']!r}, not {key!r} — different operands "
                "or configuration; refusing to mix column blocks"
            )
        if batches is not None and int(batches) != int(manifest["batches"]):
            raise CheckpointError(
                f"checkpoint {self.directory!r} was written with "
                f"batches={manifest['batches']}, cannot resume with "
                f"batches={batches} (batch geometry differs)"
            )
        stored = manifest.get("plan")
        if plan is not None and stored is not None:
            # a manifest may predate today's knob set: read it as any
            # stored plan is read (a refused value cannot be resumed)
            stored = ExecSpec.from_dict(stored).to_dict()
            diffs = {
                k: (stored.get(k), plan.get(k))
                for k in PLAN_GEOMETRY_KEYS
                if stored.get(k) != plan.get(k)
            }
            if diffs:
                raise CheckpointError(
                    f"checkpoint {self.directory!r} was written under a "
                    f"different execution plan: {diffs} (stored vs resumed); "
                    "the batch files' column geometry would not match"
                )
        return int(manifest["batches"]), self.completed_prefix()

    def reset(self, key: str, batches: int, plan: dict | None = None) -> None:
        """Invalidate everything (batch geometry changed — re-batching)
        and start over with the new batch count."""
        with self._lock:
            manifest = self._manifest
            if manifest is not None:
                for entry in manifest["completed"].values():
                    try:
                        os.remove(os.path.join(self.directory, entry["file"]))
                    except OSError:
                        pass
        self.start_run(key, batches, plan)

    def _write_manifest(self) -> None:
        tmp = self.manifest_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self._manifest, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.manifest_path)

    # ------------------------------------------------------------------ #
    # batch data
    # ------------------------------------------------------------------ #

    def completed_prefix(self) -> int:
        """Number of leading batches durably completed (``0..k-1``).

        Only the contiguous prefix counts: the driver replays consumption
        in batch order, and the engine guarantees batches complete in
        order anyway (a rank cannot reach batch ``i``'s collectives before
        every rank passed batch ``i-1``).
        """
        manifest = self._require_manifest()
        k = 0
        while str(k) in manifest["completed"]:
            entry = manifest["completed"][str(k)]
            if not entry.get("pruned") and not os.path.exists(
                os.path.join(self.directory, entry["file"])
            ):
                raise CheckpointError(
                    f"manifest lists batch {k} but {entry['file']!r} is "
                    f"missing from {self.directory!r}"
                )
            k += 1
        return k

    def write_batch(self, batch: int, spans, matrix: SparseMatrix) -> None:
        """Durably record one completed batch (file first, then manifest)."""
        path = self._batch_path(batch)
        scope = (
            nullcontext()
            if self.ledger is None
            else self.ledger.scope(
                "checkpoint", matrix.nbytes, label=f"batch_{int(batch)}"
            )
        )
        with self._lock, scope:
            manifest = self._require_manifest()
            save_matrix(path, matrix)
            manifest["completed"][str(int(batch))] = {
                "file": os.path.basename(path),
                "spans": [[int(c0), int(c1)] for c0, c1 in spans],
                "nnz": int(matrix.nnz),
            }
            self.batches_written += 1
            self.bytes_written += int(matrix.nbytes)
            if self.keep_last is not None:
                self._prune_locked(self.keep_last)
            self._write_manifest()

    def io_stats(self) -> dict:
        """Durable-write meters (``{"batches_written", "bytes_written"}``)
        for checkpoint-parity assertions across execution worlds."""
        with self._lock:
            return {
                "batches_written": int(self.batches_written),
                "bytes_written": int(self.bytes_written),
            }

    def load_batch(self, batch: int) -> tuple[list, SparseMatrix]:
        """Load one completed batch back as ``(spans, matrix)``."""
        manifest = self._require_manifest()
        entry = manifest["completed"].get(str(int(batch)))
        if entry is None:
            raise CheckpointError(
                f"batch {batch} is not recorded in {self.manifest_path!r}"
            )
        if entry.get("pruned"):
            raise CheckpointError(
                f"batch {batch} was garbage-collected (keep_last pruning); "
                "its data is gone — rerun without keep_last (or with a "
                "larger value) when batch output must be reassembled"
            ).with_context(batch=int(batch), file=entry["file"])
        matrix = load_matrix(os.path.join(self.directory, entry["file"]))
        if matrix.nnz != entry["nnz"]:
            raise CheckpointError(
                f"batch {batch} file holds {matrix.nnz} nonzeros but the "
                f"manifest recorded {entry['nnz']} — truncated write?"
            )
        spans = [(int(c0), int(c1)) for c0, c1 in entry["spans"]]
        return spans, matrix

    # ------------------------------------------------------------------ #
    # garbage collection
    # ------------------------------------------------------------------ #

    def _prune_locked(self, keep_last: int) -> list[str]:
        """Prune completed-batch files beyond the newest ``keep_last``.

        Caller holds ``self._lock`` and writes the manifest afterwards.
        Entries stay in the manifest marked ``"pruned"`` so
        :meth:`completed_prefix` still counts them (resume never replays
        a pruned batch) while :meth:`load_batch` fails loudly on them.
        """
        manifest = self._require_manifest()
        done = sorted(
            (int(k) for k, e in manifest["completed"].items()
             if not e.get("pruned")),
            reverse=True,
        )
        removed = []
        for batch in done[keep_last:]:
            entry = manifest["completed"][str(batch)]
            try:
                os.remove(os.path.join(self.directory, entry["file"]))
            except OSError:
                pass
            entry["pruned"] = True
            removed.append(entry["file"])
        return removed

    def gc(self, keep_last: int | None = None) -> dict:
        """Manifest-driven garbage collection of the checkpoint directory.

        Removes every ``batch_*.npz`` / ``*.tmp`` file the active
        manifest does not reference — the debris superseded runs leave
        behind (mem-pressure re-batching writes a fresh manifest but a
        crash can strand the old geometry's files; ``reset`` only removes
        what *its* manifest listed).  With ``keep_last`` (defaulting to
        the manager's knob) additionally prunes all but the newest
        ``keep_last`` completed batches, keeping their manifest entries
        as tombstones so the resume point is unaffected.

        Returns ``{"orphans_removed": [...], "pruned": [...]}``.
        """
        if keep_last is None:
            keep_last = self.keep_last
        with self._lock:
            manifest = self._require_manifest()
            referenced = {MANIFEST_NAME}
            referenced.update(
                e["file"] for e in manifest["completed"].values()
            )
            orphans = []
            for name in sorted(os.listdir(self.directory)):
                if name in referenced:
                    continue
                path = os.path.join(self.directory, name)
                # plain files only: sibling run_<key> subdirectories
                # (other jobs under a shared root) are never this
                # manager's to collect
                if not os.path.isfile(path):
                    continue
                if name.endswith(".tmp") or (
                    name.startswith("batch_") and name.endswith(".npz")
                ):
                    try:
                        os.remove(path)
                        orphans.append(name)
                    except OSError:
                        pass
            pruned = [] if keep_last is None else self._prune_locked(keep_last)
            if pruned:
                self._write_manifest()
        return {"orphans_removed": orphans, "pruned": pruned}

    def _require_manifest(self) -> dict:
        if self._manifest is None:
            raise CheckpointError(
                "checkpoint manager has no active manifest — call "
                "start_run()/resume_run() first"
            )
        return self._manifest

    def __repr__(self) -> str:
        return f"CheckpointManager({self.directory!r})"
