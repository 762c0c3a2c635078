"""The ``LocalKernel`` seam: what happens at a SUMMA stage is pluggable.

The batched 3D SUMMA dataflow (broadcast operand panels along the row and
column communicators, compute a stage-local product, accumulate across
stages, exchange partial fibers across layers) is not SpGEMM-specific —
Bharadwaj–Buluç–Demmel show the same communication schedule carries SpMM
and SDDMM, the kernels behind GNN propagation and ALS factorisation.  A
:class:`LocalKernel` captures everything the execution plan needs to know
about one such workload:

* **operand kinds** — whether A, B, the optional third operand (``aux``:
  a mask for masked SpGEMM, the sampling pattern for SDDMM) and the
  output are sparse (:class:`~repro.sparse.SparseMatrix`) or dense
  (2-D ``numpy.ndarray``).  Kinds drive tile extraction, batch column
  selection, the fiber split, final assembly — and which communication
  path a panel takes (dense operands ride collectives even under the
  sparse backend; see :mod:`repro.comm.sparse_p2p`);
* **stage-local compute** — :meth:`stage_multiply`;
* **merge/accumulate rule** — :meth:`merge`, with
  :attr:`incremental_only` forcing per-stage accumulation for kernels
  whose natural accumulator is a dense block (holding every stage's
  dense partial would multiply the footprint by the stage count);
* **per-category memory estimate** — :meth:`predict_memory` /
  :meth:`batches_for_budget`, the kernel's analogue of the paper's
  Table III closed form.

* **driver capabilities** — what the drivers may compose the kernel
  with, asked by flag and never by name: :attr:`postprocess_mask`,
  :attr:`checkpointable`, :attr:`row_batchable`, and the
  :meth:`resolve_aux` hook that turns the drivers' ``mask=`` /
  ``sample=`` arguments into the kernel's aux operand.

The *operand protocol* also lives here: :class:`TileSource` (already
distributed per-rank tiles, the :class:`repro.dist.DistContext`
mechanism) and :func:`resolve_tile` (global-matrix extraction under the
3D distribution).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from ..errors import DistributionError, ShapeError
from ..grid.distribution import (
    Squeezed,
    a_tile_range,
    b_tile_range,
    gather_dense_tiles,
    gather_tiles,
)
from ..grid.grid3d import ProcGrid3D
from ..sparse.matrix import SparseMatrix
from ..sparse.ops import col_select, col_slice, submatrix

__all__ = [
    "OPERAND_KINDS",
    "LocalKernel",
    "TileSource",
    "available_kernels",
    "get_kernel",
    "operand_shape",
    "resolve_tile",
]

#: the two operand kinds a kernel may declare per operand.
OPERAND_KINDS = ("sparse", "dense")


class TileSource:
    """An operand whose tiles are already distributed.

    The SPMD core normally extracts each rank's tile from a global
    operand (the simulation stand-in for pre-distributed data).  A
    ``TileSource`` instead hands the core per-rank tiles directly — the
    mechanism behind :class:`repro.dist.DistContext`, where matrices
    persist across multiplications without re-extraction.  Tiles may be
    sparse or dense; the kernel's declared operand kind is authoritative.
    ``tile_nnz`` records every rank's tile nonzero count: the tiles live
    in the ranks, so whoever sizes a run (the driver, or one rank for all)
    reads the record instead of asking for a tile it does not hold.
    """

    __slots__ = ("nrows", "ncols", "_getter", "tile_nnz")

    def __init__(self, nrows: int, ncols: int, getter, tile_nnz=()) -> None:
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self._getter = getter
        self.tile_nnz = tuple(tile_nnz)

    def tile(self, rank: int):
        return self._getter(rank)


def operand_shape(operand) -> tuple[int, int]:
    """Global ``(nrows, ncols)`` of an operand in any accepted form."""
    if isinstance(operand, (TileSource, SparseMatrix, Squeezed)):
        return (operand.nrows, operand.ncols)
    shape = getattr(operand, "shape", None)
    if shape is not None and len(shape) == 2:
        return (int(shape[0]), int(shape[1]))
    raise ShapeError(
        f"operand {type(operand).__name__} is not a SparseMatrix, a 2-D "
        "ndarray, or a TileSource"
    )


def _dense_tile(operand: np.ndarray, grid: ProcGrid3D, rank: int, which: str):
    i, j, k = grid.coords(rank)
    nrows, ncols = operand.shape
    if which == "A":
        r0, r1, c0, c1 = a_tile_range(grid, nrows, ncols, i, j, k)
    else:
        r0, r1, c0, c1 = b_tile_range(grid, nrows, ncols, i, j, k)
    return np.ascontiguousarray(operand[r0:r1, c0:c1])


def resolve_tile(operand, grid: ProcGrid3D, rank: int, which: str, kind: str):
    """The operand protocol: a rank's tile of ``operand`` under the 3D
    distribution (``which`` = ``"A"`` or ``"B"``), honouring the declared
    operand ``kind``.  :class:`TileSource` operands hand out their own
    tiles; global operands, :class:`~repro.grid.distribution.Squeezed`
    ones included, are extracted."""
    if isinstance(operand, TileSource):
        return operand.tile(rank)
    if kind == "sparse":
        if not isinstance(operand, (SparseMatrix, Squeezed)):
            raise ShapeError(
                f"operand {which} must be a SparseMatrix for this kernel, "
                f"got {type(operand).__name__}"
            )
        from ..grid.distribution import extract_a_tile, extract_b_tile

        fn = extract_a_tile if which == "A" else extract_b_tile
        return fn(operand, grid, rank)
    if isinstance(operand, SparseMatrix):
        raise ShapeError(
            f"operand {which} must be a dense 2-D ndarray for this kernel, "
            "got a SparseMatrix (densify or pick a sparse kernel)"
        )
    arr = np.asarray(operand)
    if arr.ndim != 2:
        raise ShapeError(
            f"operand {which} must be a 2-D ndarray, got shape {arr.shape}"
        )
    return _dense_tile(arr, grid, rank, which)


def _select_columns(tile, local_cols):
    """The columns ``local_cols`` (ascending, distinct) of ``tile``: a
    slice when they are one contiguous range, as at every ``b = 1``,
    else a gather."""
    n = local_cols.shape[0]
    if n and local_cols[-1] - local_cols[0] == n - 1:
        local_cols = slice(int(local_cols[0]), int(local_cols[0]) + n)
    if not isinstance(tile, SparseMatrix):
        return np.ascontiguousarray(tile[:, local_cols])
    if isinstance(local_cols, slice):
        return col_slice(tile, local_cols.start, local_cols.stop)
    return col_select(tile, local_cols)


def _slice_columns(tile, start: int, stop: int):
    if isinstance(tile, SparseMatrix):
        return col_slice(tile, start, stop)
    return tile[:, start:stop]


class LocalKernel(ABC):
    """One distributed workload expressed against the SUMMA dataflow.

    Subclasses declare operand kinds as class attributes and implement
    the two compute hooks; everything geometric (tile extraction, batch
    column selection, fiber splitting, final assembly) is derived from
    the kinds by the base class.  Kernel instances hold no per-run state
    and may be shared across ranks.
    """

    #: registry key, recorded in plans and ``info["kernel"]``.
    name: str = ""
    #: operand kinds ("sparse" or "dense").
    a_kind: str = "sparse"
    b_kind: str = "sparse"
    #: kind of the optional third operand; ``None`` when the kernel has
    #: none.  The aux operand is distributed like the *output* (rows with
    #: A's row blocks, columns with the batch's column blocks).
    aux_kind: str | None = None
    output_kind: str = "sparse"
    #: ``None`` (no aux), ``"required"`` (must be passed) or
    #: ``"optional"`` (the driver may synthesise one — masked SpGEMM
    #: falls back to the symbolic pass's product pattern).
    aux_mode: str | None = None
    #: force per-stage accumulation regardless of ``merge_policy`` —
    #: kernels with dense accumulators must never hold one partial per
    #: stage (that would scale the footprint by ``sqrt(p/l)``).
    incremental_only: bool = False
    #: whether Alg. 3's sparse symbolic pass applies to this kernel's
    #: operands (requires sparse A and B).
    supports_symbolic: bool = True
    #: driver capabilities — everything below is ``False`` unless a kernel
    #: opts in.  ``postprocess_mask``: a ``mask=`` may be applied as a
    #: per-batch postprocess filter on the finished column block.
    postprocess_mask: bool = False
    #: run fingerprints and batch files cover this kernel's operands, so
    #: ``checkpoint_dir=`` / ``resume=`` / ``heal=`` (and the service's
    #: crash transparency) may be armed.
    checkpointable: bool = False
    #: the transpose identity ``C = (Bᵀ Aᵀ)ᵀ`` behind row batching holds
    #: (sparse operands on both sides, no aux operand to transpose).
    row_batchable: bool = False

    # ------------------------------------------------------------------ #
    # operand protocol
    # ------------------------------------------------------------------ #

    @property
    def uses_aux(self) -> bool:
        return self.aux_mode is not None

    def resolve_aux(self, a, b, *, mask=None, sample=None):
        """Wire the drivers' ``mask=`` / ``sample=`` arguments to this
        kernel: returns ``(aux, mask)`` — its aux operand, and the mask
        left over for the postprocess filter (only kernels declaring
        :attr:`postprocess_mask` keep one)."""
        if sample is not None:
            raise ValueError(
                f'sample= only applies to kernel="sddmm", not {self.name!r}'
            )
        if mask is not None and not self.postprocess_mask:
            raise ValueError(
                'mask= applies to kernel="spgemm" (postprocess filtering) '
                'or kernel="masked_spgemm" (in-multiply masking), '
                f"not {self.name!r}"
            )
        return None, mask

    def validate(self, a, b, aux=None) -> tuple[int, int]:
        """Check operand shapes; return the product shape ``(m, n)``."""
        am, ak = operand_shape(a)
        bk, bn = operand_shape(b)
        if ak != bk:
            raise ShapeError(
                f"cannot multiply {am}x{ak} by {bk}x{bn} (kernel {self.name})"
            )
        if self.uses_aux:
            if aux is None:
                if self.aux_mode == "required":
                    raise ValueError(
                        f"kernel {self.name!r} requires its aux operand "
                        "(the sampling pattern / mask)"
                    )
            else:
                xm, xn = operand_shape(aux)
                if (xm, xn) != (am, bn):
                    raise ShapeError(
                        f"aux shape {(xm, xn)} != product shape {(am, bn)} "
                        f"(kernel {self.name})"
                    )
        elif aux is not None:
            raise ValueError(f"kernel {self.name!r} takes no aux operand")
        return (am, bn)

    def a_tile(self, a, grid: ProcGrid3D, rank: int):
        """This rank's A tile (rows split by ``pr``; columns nested)."""
        return resolve_tile(a, grid, rank, "A", self.a_kind)

    def b_tile(self, b, grid: ProcGrid3D, rank: int):
        """This rank's B tile (rows nested; columns split by ``pc``)."""
        return resolve_tile(b, grid, rank, "B", self.b_kind)

    def prepare_tiles(self, a_tile, b_tile):
        """The input tiles as :meth:`stage_multiply` wants them, made once
        per attempt (an implementation tier that needs sorted inputs)."""
        return a_tile, b_tile

    def aux_block(self, aux, r0: int, r1: int, global_cols: np.ndarray):
        """The aux operand restricted to a rank's output block for one
        batch: rows ``[r0, r1)`` (the rank's A row block — identical at
        every stage) × the batch's global columns, in batch-local
        column order."""
        if isinstance(aux, SparseMatrix):
            block = _select_columns(aux, global_cols)
            return submatrix(block, r0, r1, 0, block.ncols)
        return _select_columns(aux[r0:r1], global_cols)

    # ------------------------------------------------------------------ #
    # geometry helpers (kind-dispatched, rarely overridden)
    # ------------------------------------------------------------------ #

    def select_columns(self, tile, local_cols):
        """A batch's column block of the B tile."""
        return _select_columns(tile, local_cols)

    def slice_columns(self, tile, start: int, stop: int):
        """A contiguous column slice of a layer result (fiber split)."""
        return _slice_columns(tile, start, stop)

    def finalize_tile(self, tile):
        """Final per-batch output canonicalisation (Sec. IV-D: only the
        *final* output needs sorting; dense blocks need contiguity for
        zero-copy shipping)."""
        if isinstance(tile, SparseMatrix):
            return tile.sort_indices()
        return np.ascontiguousarray(tile)

    def gather(self, nrows: int, ncols: int, pieces):
        """Assemble a global output from ``(r0, c0, tile)`` pieces."""
        if self.output_kind == "sparse":
            return gather_tiles(nrows, ncols, pieces)
        return gather_dense_tiles(nrows, ncols, pieces)

    # ------------------------------------------------------------------ #
    # compute hooks
    # ------------------------------------------------------------------ #

    @abstractmethod
    def stage_multiply(self, state):
        """One stage's local product from ``state.a_recv`` /
        ``state.b_recv`` (and ``state.aux_batch`` when the kernel has an
        aux operand).  Must not mutate the received operands — the
        threaded world shares broadcast payloads by reference."""

    @abstractmethod
    def merge(self, parts: list, state):
        """Combine stage partials (Merge-Layer) or fiber pieces
        (Merge-Fiber) into one block under ``state.semiring``."""

    # ------------------------------------------------------------------ #
    # memory model hooks
    # ------------------------------------------------------------------ #

    def predict_memory(
        self, a, b, aux=None, *, nprocs: int, layers: int, batches: int,
        overlap: str = "off",
    ) -> dict | None:
        """Per-category per-process footprint estimate, shaped like
        :func:`repro.model.memory.predict_memory` output.  ``None`` means
        the kernel defers to the Table III SpGEMM closed form (which
        needs symbolic statistics)."""
        return None

    def batches_for_budget(
        self, a, b, aux=None, *, nprocs: int, layers: int, memory_budget: int,
    ) -> int:
        """Smallest batch count whose predicted footprint fits the
        per-process share of the aggregate ``memory_budget``.  Default:
        doubling search over :meth:`predict_memory` (kernels without a
        model run unbatched)."""
        _, ncols = operand_shape(b)
        per_proc = memory_budget / max(nprocs, 1)
        batches = 1
        while batches < max(ncols, 1):
            predicted = self.predict_memory(
                a, b, aux, nprocs=nprocs, layers=layers, batches=batches,
            )
            if predicted is None:
                return 1
            if predicted["high_water_total"] <= per_proc:
                break
            batches = min(batches * 2, max(ncols, 1))
        return batches

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


def _max_block(bounds) -> int:
    """Largest block width of a ``split_bounds`` boundary array."""
    diffs = np.diff(np.asarray(bounds))
    return int(diffs.max()) if diffs.size else 0


def dense_tile_bytes_max(
    nrows: int, ncols: int, grid: ProcGrid3D, which: str, itemsize: int = 8,
) -> int:
    """Largest per-rank dense tile, in bytes, under the A or B layout."""
    worst = 0
    for rank in range(grid.nprocs):
        i, j, k = grid.coords(rank)
        if which == "A":
            r0, r1, c0, c1 = a_tile_range(grid, nrows, ncols, i, j, k)
        else:
            r0, r1, c0, c1 = b_tile_range(grid, nrows, ncols, i, j, k)
        worst = max(worst, (r1 - r0) * (c1 - c0))
    return worst * itemsize


def sparse_tile_nnz_max(matrix, grid: ProcGrid3D, which: str) -> int:
    """Exact max per-rank tile nonzero count under the A or B layout
    (a :class:`TileSource` has it on record)."""
    if isinstance(matrix, TileSource):
        return max(matrix.tile_nnz)
    rows = matrix.rowidx
    cols = matrix.col_indices()
    worst = 0
    for rank in range(grid.nprocs):
        i, j, k = grid.coords(rank)
        if which == "A":
            r0, r1, c0, c1 = a_tile_range(
                grid, matrix.nrows, matrix.ncols, i, j, k
            )
        else:
            r0, r1, c0, c1 = b_tile_range(
                grid, matrix.nrows, matrix.ncols, i, j, k
            )
        count = int(np.count_nonzero(
            (rows >= r0) & (rows < r1) & (cols >= c0) & (cols < c1)
        ))
        worst = max(worst, count)
    return worst


def batch_cols_max(
    ncols: int, grid: ProcGrid3D, batches: int, scheme: str = "block-cyclic",
) -> int:
    """Largest per-rank batch column-block width (all layer blocks of one
    batch within the widest column super-block)."""
    from ..grid.distribution import batch_layer_blocks
    from ..sparse.ops import split_bounds

    super_w = _max_block(split_bounds(ncols, grid.pc))
    worst = 0
    for batch in range(batches):
        blocks = batch_layer_blocks(super_w, batches, grid.layers, batch, scheme)
        worst = max(worst, sum(e - s for s, e in blocks))
    return worst


def layer_block_max(
    ncols: int, grid: ProcGrid3D, batches: int, scheme: str = "block-cyclic",
) -> int:
    """Largest single layer block width of any batch (the post-fiber
    output piece's column count)."""
    from ..grid.distribution import batch_layer_blocks
    from ..sparse.ops import split_bounds

    super_w = _max_block(split_bounds(ncols, grid.pc))
    worst = 0
    for batch in range(batches):
        blocks = batch_layer_blocks(super_w, batches, grid.layers, batch, scheme)
        worst = max(worst, max((e - s for s, e in blocks), default=0))
    return worst


def rows_block_max(nrows: int, grid: ProcGrid3D) -> int:
    """Largest A/C row block height."""
    from ..sparse.ops import split_bounds

    return _max_block(split_bounds(nrows, grid.pr))


def shape_memory_block(categories: dict, *, transient: int, params: dict) -> dict:
    """Assemble a ``predict_memory``-shaped block from per-category bytes.

    ``high_water_total`` follows the Table III worst-instant rule: the
    resident inputs plus one batch's transients (a rank holds no
    accumulated output).
    """
    total = categories.get("a_piece", 0) + categories.get("b_piece", 0) + transient
    return {
        "categories": {k: int(v) for k, v in categories.items()},
        "high_water_total": int(math.ceil(total)),
        "basis": "kernel",
        "params": params,
    }


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #

_REGISTRY: dict[str, type] | None = None


def _build_registry() -> dict[str, type]:
    from .sddmm import SddmmKernel
    from .spgemm import MaskedSpgemmKernel, SpgemmKernel
    from .spmm import SpmmKernel

    return {
        cls.name: cls
        for cls in (SpgemmKernel, SpmmKernel, SddmmKernel, MaskedSpgemmKernel)
    }


def get_kernel(name_or_kernel) -> LocalKernel:
    """Resolve a kernel by registry name, class, or instance.  A name may
    carry the kernel's implementation tier after a colon
    (``"spgemm:sorted-heap"``); an instance's ``name`` spells it back."""
    global _REGISTRY
    if isinstance(name_or_kernel, LocalKernel):
        return name_or_kernel
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    if isinstance(name_or_kernel, type) and issubclass(name_or_kernel, LocalKernel):
        return name_or_kernel()
    try:
        name, _, tier = name_or_kernel.partition(":")
        return _REGISTRY[name](tier) if tier else _REGISTRY[name]()
    except (AttributeError, KeyError, TypeError, ValueError):
        raise DistributionError(
            f"unknown local kernel {name_or_kernel!r}; "
            f"available: {sorted(_REGISTRY)}"
        ) from None


def available_kernels() -> list[str]:
    """Names of all registered local kernels."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    return sorted(_REGISTRY)
