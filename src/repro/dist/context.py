"""Distributed-matrix context: persistent tiles, layout conversion,
handle-to-handle multiplication.

Layouts (paper Fig. 1):

* ``"A"`` — rows split into ``pr`` blocks; columns into ``pc``
  super-blocks, each sliced across the ``l`` layers (tall tiles);
* ``"B"`` — rows into ``pr`` super-blocks sliced across layers; columns
  into ``pc`` blocks (wide tiles);
* ``"C"`` — the product's native layout: like ``"A"`` but with column
  boundaries induced by the batch blocks, which coincide with standard
  ``"A"`` boundaries only when the arithmetic happens to nest evenly.
  A ``"C"`` handle can be gathered or redistributed, but must be
  converted (one metered alltoall) before serving as a multiply operand.

Layouts are ranges: the name is the label a handle was born with, and a
handle *fits* every standard layout whose per-rank ranges equal its own.
An operand is accepted where it fits, and redistributing to a layout a
handle fits returns the handle and launches nothing.  On a 2D grid
(``l = 1``) ``"A"`` and ``"B"`` are the same ranges and a product always
lands in them, so iterated squaring — HipMCL's access pattern — is one
``multiply`` region per iteration; with layers a product lands in
``"C"``/``"A"`` (the paper distributes C like A) and pays at most two
redistributions per iteration, to refresh the operands.  Redistribution
is a real alltoall over the simulated runtime, metered under the
``"Redistribute"`` step label.

The tiles live **in the ranks**.  A context owns one world for its
lifetime (:func:`repro.simmpi.engine.open_world`; in the process world,
rank workers forked once and parked between regions), each rank keeps
its tiles in ``comm.world.store`` under the handle's key, and every
operation is one named region (:data:`REGIONS`) submitted to that world.
The driver side holds names and sizes only.  The store holds *owning*
arrays only: a tile received as a zero-copy view of a shared-memory
segment is copied out before the region ends and releases the segment.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import weakref

import numpy as np

from ..errors import DistributionError
from ..grid.distribution import a_tile_range, b_tile_range
from ..grid.grid3d import ProcGrid3D
from ..kernels.base import TileSource, get_kernel
from ..simmpi.comm import DEFAULT_TIMEOUT, SimComm
from ..simmpi.engine import PerRank, open_world
from ..simmpi.tracker import CommTracker
from ..sparse.matrix import SparseMatrix
from ..sparse.ops import col_concat, submatrix
from ..sparse.ops import transpose as local_transpose
from ..summa.batched import coerce_plan, drive
from ..summa.result import SummaResult

_STANDARD_LAYOUTS = {"A": a_tile_range, "B": b_tile_range}

#: handle keys are unique per process, not per context: a handle freed
#: on the wrong context can never name somebody else's tile
_KEYS = itertools.count()

#: sparse tiles are assembled the way the sparse kernels' output is
_assemble = get_kernel("spgemm").gather


def _digest(m: SparseMatrix) -> bytes:
    """Content key of a mask: shape, pattern and values."""
    h = hashlib.blake2b(repr(m.shape).encode(), digest_size=16)
    for arr in (m.indptr, m.rowidx, m.values):
        h.update(np.ascontiguousarray(arr))
    return h.digest()


def _standard_ranges(layout: str, grid: ProcGrid3D, nrows: int, ncols: int):
    fn = _STANDARD_LAYOUTS[layout]
    return [
        fn(grid, nrows, ncols, *grid.coords(rank))
        for rank in range(grid.nprocs)
    ]


# ---------------------------------------------------------------------- #
# rank side: the regions a context submits, over the rank's tile store
# ---------------------------------------------------------------------- #

def _keep(store: dict, key, tile: SparseMatrix) -> tuple[int, int]:
    """Store ``tile`` under ``key``; returns the ``(nnz, nbytes)`` the
    driver records.  The store owns its arrays: a received tile may be a
    read-only view of a shm segment this region's end releases."""
    arrays = (tile.indptr, tile.rowidx, tile.values)
    if not all(arr.flags.writeable for arr in arrays):
        tile = SparseMatrix(
            tile.nrows, tile.ncols, *(np.array(arr) for arr in arrays),
            sorted_within_columns=tile.sorted_within_columns, validate=False,
        )
    store[key] = tile
    return tile.nnz, tile.nbytes


def _scatter(comm: SimComm, store: dict, *, key, tile):
    _keep(store, key, tile)  # the driver cut the tiles; keep mine


def _gather(comm: SimComm, store: dict, *, key):
    return store[key]


def _redistribute(comm: SimComm, store: dict, *, src, key, src_ranges,
                  dst_ranges):
    """One metered alltoall: each rank intersects its tile with every
    target rank's range, sends the pieces personalised, and assembles
    what it receives."""
    rank = comm.rank
    my_tile = store[src]
    sr0, _sr1, sc0, _sc1 = src_ranges[rank]
    sendlist = []
    for dest in range(comm.size):
        dr0, dr1, dc0, dc1 = dst_ranges[dest]
        # overlap of my source tile with dest's target range, in my
        # tile's local coordinates
        lo_r = max(dr0 - sr0, 0)
        hi_r = min(dr1 - sr0, my_tile.nrows)
        lo_c = max(dc0 - sc0, 0)
        hi_c = min(dc1 - sc0, my_tile.ncols)
        if lo_r < hi_r and lo_c < hi_c:
            piece = submatrix(my_tile, lo_r, hi_r, lo_c, hi_c)
            sendlist.append((sr0 + lo_r, sc0 + lo_c, piece))
        else:
            sendlist.append(None)
    with comm.step("Redistribute"):
        received = comm.alltoall(sendlist)
    dr0, dr1, dc0, dc1 = dst_ranges[rank]
    pieces = [
        (r0 - dr0, c0 - dc0, piece)
        for item in received
        if item is not None
        for (r0, c0, piece) in [item]
    ]
    return _keep(store, key, _assemble(dr1 - dr0, dc1 - dc0, pieces))


def _transpose(comm: SimComm, store: dict, *, src, key, grid):
    """Transpose locally, swap with the grid-mirror rank."""
    i, j, k = grid.coords(comm.rank)
    mirror = grid.rank_of(j, i, k)
    received = local_transpose(store[src])
    with comm.step("Transpose"):
        if mirror != comm.rank:
            comm.send(received, dest=mirror, tag=9)
            received = comm.recv(source=mirror, tag=9)
    return _keep(store, key, received)


def _multiply(comm: SimComm, store: dict, *, body, a, b, key, aux, aux_key,
              **kwargs):
    """Run the SPMD ``body`` on resident operands (handles arrive as
    their :meth:`DistMatrixHandle.record`; a mask the ranks were sent
    before arrives as its ``aux_key`` alone).  A sparse product stays
    here: only its range and size travel back with the report."""
    a, b = (
        TileSource(x[1], x[2], lambda _rank, k=x[0]: store[k], x[3])
        if isinstance(x, tuple) else x
        for x in (a, b)
    )
    if aux_key is not None:
        if aux is not None:
            _keep(store, aux_key, aux)
        aux = store[aux_key]
    out = body(comm, a, b, aux=aux, **kwargs)
    if key is not None:
        # Each rank's batch pieces are contiguous in global column space
        # (block-cyclic blocks k*b .. (k+1)*b - 1); concatenate in global
        # order and report the realised range.
        pieces = sorted(out["pieces"], key=lambda p: p[2])  # by c0
        tile = col_concat([p[3] for p in pieces])
        _batch, r0, c0, _first = pieces[0]
        out["pieces"] = []
        out["stored"] = (
            key, (r0, r0 + tile.nrows, c0, c0 + tile.ncols),
            *_keep(store, key, tile),
        )
    return out


#: region name -> rank-side body ``fn(comm, store, **submitted)``
REGIONS = {
    "scatter": _scatter,
    "gather": _gather,
    "redistribute": _redistribute,
    "transpose": _transpose,
    "multiply": _multiply,
}


def _region(comm: SimComm, *, region: str, free=(), **submitted):
    """The one body of a context's world: drop the tiles freed since the
    last region, then run the named region over this rank's store."""
    store = comm.world.store
    for key in free:
        store.pop(key, None)
    return REGIONS[region](comm, store, **submitted)


# ---------------------------------------------------------------------- #
# driver side
# ---------------------------------------------------------------------- #

class DistMatrixHandle(TileSource):
    """The name of a matrix resident tile-per-rank inside a
    :class:`DistContext` — the :class:`~repro.kernels.TileSource` the
    shared driver multiplies.  Metadata only: ``key``, shape, ``layout``,
    per-rank ``ranges`` and recorded ``tile_nnz`` / ``tile_nbytes``.

    ``layout`` is the label the handle was made under — ``"A"`` / ``"B"``
    (standard) or ``"C"`` (product-native); whether it can serve as an
    operand is decided by ``ranges`` (module docstring).
    """

    __slots__ = ("context", "key", "layout", "ranges", "tile_nbytes")

    def __init__(self, context: DistContext, key: int, nrows: int,
                 ncols: int, layout: str, ranges, sizes) -> None:
        super().__init__(nrows, ncols, None, [s[0] for s in sizes])
        self.context = context
        self.key = key
        self.layout = layout
        self.ranges = list(ranges)  # per-rank (r0, r1, c0, c1)
        self.tile_nbytes = tuple(s[1] for s in sizes)

    def tile(self, rank: int):
        raise DistributionError(
            f"the tiles of {self!r} live in the ranks; gather() the handle"
        )

    def record(self) -> tuple:
        """What a region needs to find this operand in the rank store."""
        return (self.key, self.nrows, self.ncols, self.tile_nnz)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def live(self) -> bool:
        return self.context._live.get(self.key) is self

    @property
    def nnz(self) -> int:
        self.context._check(self)
        return sum(self.tile_nnz)

    def to_global(self) -> SparseMatrix:
        return self.context.gather(self)

    def __repr__(self) -> str:
        state = f"nnz={sum(self.tile_nnz)}" if self.live else "freed"
        return (
            f"DistMatrixHandle({self.nrows}x{self.ncols}, layout={self.layout!r}, "
            f"{state}, grid={self.context.grid!r})"
        )


class DistContext:
    """Owner of a process grid, its world, and the matrices distributed
    on it.

    >>> ctx = DistContext(nprocs=4, layers=1)
    >>> ha = ctx.distribute(A, layout="A")
    >>> hb = ctx.distribute(A, layout="B")
    >>> hc, result = ctx.multiply(ha, hb)      # C = A @ A, stays distributed
    >>> hb2 = ctx.redistribute(hc, "B")        # feed it back as B
    >>> hc2, _ = ctx.multiply(ha, hb2)         # A @ (A @ A)

    With ``world="processes"`` the rank workers are forked at the first
    operation and stay until :meth:`close` (or garbage collection); what
    a call hands them after that travels pickled, so a ``postprocess=``
    hook must pickle by reference.  A region whose ranks *raise* fails
    alone.  If a rank *process* dies its tiles are gone: the
    :class:`~repro.errors.RankCrashError` surfaces, the context closes
    itself and every handle refuses further use.
    """

    def __init__(self, nprocs: int = 4, layers: int = 1,
                 tracker: CommTracker | None = None,
                 timeout: float = DEFAULT_TIMEOUT,
                 world: str = "threads",
                 transport: str = "auto") -> None:
        self.grid = ProcGrid3D(nprocs, layers)
        self.tracker = tracker if tracker is not None else CommTracker()
        #: deadline of each region, read at submit time
        self.timeout = timeout
        #: execution world of this context's regions: "threads" or
        #: "processes"; transport applies to the process world only.
        self.world = world
        self.transport = transport
        self._world = None  # opened by the first region
        self._live: dict[int, DistMatrixHandle] = {}
        #: keys freed since the last region; the next one drops them
        self._freed: list[int] = []
        #: ``(digest, rank-store key)`` of the one mask the ranks keep: a
        #: chain's mask travels once, and again when its content changes
        self._held_aux: tuple = (None, None)
        #: set by :meth:`close`; a closed context refuses every operation
        self.closed = False
        #: ``world_info`` of the most recent region (a fresh dict each)
        self.last_world_info: dict = {}

    # ------------------------------------------------------------------ #
    # lifecycle: a DistContext is reusable across jobs and must release
    # everything it ever touched on exit, raised-through exceptions
    # included — the resident-pool contract
    # ------------------------------------------------------------------ #

    def __enter__(self) -> DistContext:
        self._ensure_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def close(self) -> int:
        """Stop the world — rank workers reaped, their tiles gone,
        `/dev/shm` swept — and forget every handle.  Idempotent; returns
        the number of segments the final sweep collected (0 when every
        region cleaned up after itself — the healthy case)."""
        if self.closed:
            return 0
        self.closed = True
        self._live.clear()
        self._freed.clear()
        if self._world is None:
            return 0
        self._finalizer.detach()
        return self._world.stop()

    def _ensure_open(self) -> None:
        if self.closed:
            raise DistributionError(
                "this DistContext is closed; create a new one "
                "(resident grids are re-forked, never resurrected)"
            )

    def _submit(self, region: str, **submitted) -> list:
        """Every region goes through here: one collective on the
        context's world, which the first region opens."""
        self._ensure_open()
        if self._world is None:
            self._world = open_world(
                self.grid.nprocs, _region, world=self.world,
                transport=self.transport,
            )
            # a context dropped without close() must not leave workers
            self._finalizer = weakref.finalize(self, self._world.stop)
        self.last_world_info = {}
        free, self._freed = self._freed, []
        try:
            return self._world.submit(
                tracker=self.tracker, timeout=self.timeout,
                world_info=self.last_world_info, region=region, free=free,
                **submitted,
            )
        except BaseException:
            self._freed[:0] = free  # dropping a key twice is harmless
            raise
        finally:
            if not self._world.alive:
                self.close()  # a rank died and took its tiles along

    # ------------------------------------------------------------------ #
    # handle management
    # ------------------------------------------------------------------ #

    def distribute(self, matrix: SparseMatrix, layout: str = "A") -> DistMatrixHandle:
        """Cut a global matrix into this grid's tiles and hand each rank
        its own (simulating data that arrives already distributed; no
        communication is metered)."""
        self._ensure_open()
        if layout not in _STANDARD_LAYOUTS:
            raise DistributionError(
                f"unknown layout {layout!r}; expected 'A' or 'B'"
            )
        ranges = _standard_ranges(layout, self.grid, matrix.nrows, matrix.ncols)
        tiles = [submatrix(matrix, *rng) for rng in ranges]
        key = next(_KEYS)
        self._submit("scatter", key=key, tile=PerRank(tiles))
        return self._register(
            key, matrix.nrows, matrix.ncols, layout, ranges,
            [(t.nnz, t.nbytes) for t in tiles],
        )

    def gather(self, handle: DistMatrixHandle) -> SparseMatrix:
        """Assemble a handle's tiles into a global matrix."""
        self._check(handle)
        tiles = self._submit("gather", key=handle.key)
        return _assemble(handle.nrows, handle.ncols, [
            (rng[0], rng[2], tile) for rng, tile in zip(handle.ranges, tiles, strict=True)
        ])

    def free(self, handle: DistMatrixHandle) -> None:
        """Release a handle's tiles (the ranks drop them at the next
        region).  Freeing twice is a no-op; a handle of another context
        is refused."""
        if handle.context is not self:
            raise DistributionError("handle does not belong to this context")
        if self._live.pop(handle.key, None) is not None:
            self._freed.append(handle.key)

    def memory_bytes(self) -> int:
        """Total bytes of all live handles' tiles: the sum of the
        ``tile_nbytes`` the ranks reported (index, pointer and value
        arrays as stored)."""
        return sum(sum(h.tile_nbytes) for h in self._live.values())

    # ------------------------------------------------------------------ #
    # layout conversion
    # ------------------------------------------------------------------ #

    def redistribute(self, handle: DistMatrixHandle, layout: str) -> DistMatrixHandle:
        """Convert a handle to a standard layout with one metered alltoall
        — the standard redistribution kernel of distributed sparse
        libraries.  Works from any source layout (including
        product-native ``"C"``).  A handle whose tiles already fit
        ``layout`` is returned as is and no region is launched — on a 2D
        grid that is every ``"A"`` / ``"B"`` handle and every product."""
        self._check(handle)
        if layout not in _STANDARD_LAYOUTS:
            raise DistributionError(
                f"unknown target layout {layout!r}; expected 'A' or 'B'"
            )
        dst_ranges = _standard_ranges(
            layout, self.grid, handle.nrows, handle.ncols
        )
        if handle.ranges == dst_ranges:
            return handle
        return self._derive(
            "redistribute", handle, handle.nrows, handle.ncols, layout,
            dst_ranges, src_ranges=handle.ranges, dst_ranges=dst_ranges,
        )

    def transpose(self, handle: DistMatrixHandle) -> DistMatrixHandle:
        """Distributed transpose: an ``"A"``-layout handle of ``M`` becomes
        a ``"B"``-layout handle of ``Mᵀ`` (and vice versa) with one
        pairwise tile exchange.

        The layouts are mirror images (Fig. 1): the A-tile of ``M`` at
        grid position ``(i, j, k)`` is exactly the transpose of the B-tile
        of ``Mᵀ`` at ``(j, i, k)``, so each rank transposes locally and
        swaps with its grid-mirror — the communication pattern CombBLAS
        uses for ``AAᵀ`` workloads.  Metered under ``"Transpose"``.
        """
        self._check(handle)
        if handle.layout not in ("A", "B"):
            raise DistributionError(
                f"transpose needs a standard layout, got {handle.layout!r} "
                "(redistribute first)"
            )
        layout = "B" if handle.layout == "A" else "A"
        return self._derive(
            "transpose", handle, handle.ncols, handle.nrows, layout,
            _standard_ranges(layout, self.grid, handle.ncols, handle.nrows),
            grid=self.grid,
        )

    def _derive(self, region, src, nrows, ncols, layout, ranges, **submitted):
        """A new handle made from ``src`` by one collective region."""
        key = next(_KEYS)
        try:
            sizes = self._submit(region, src=src.key, key=key, **submitted)
        except BaseException:
            self._freed.append(key)  # ranks that got as far as storing it
            raise
        return self._register(key, nrows, ncols, layout, ranges, sizes)

    # ------------------------------------------------------------------ #
    # multiplication
    # ------------------------------------------------------------------ #

    def multiply(
        self,
        ha: DistMatrixHandle,
        hb: DistMatrixHandle,
        *,
        plan=None,
        mask: SparseMatrix | None = None,
        postprocess=None,
        faults=None,
        **knobs,
    ) -> tuple[DistMatrixHandle, SummaResult]:
        """``C = A @ B`` between resident handles; C stays distributed.

        ``ha`` must fit standard layout ``"A"`` and ``hb`` standard
        layout ``"B"`` — by their ranges, whatever their labels (use
        :meth:`redistribute` to convert — including from a previous
        product's ``"C"`` layout; it is free where nothing moves).  Returns
        ``(handle, result)``: the handle is ``"A"`` when the batch
        boundaries happen to nest into the standard slices, else ``"C"``;
        ``result.matrix`` is ``None`` — call ``handle.to_global()`` if the
        assembled product is wanted.

        The run goes through :func:`repro.summa.batched.drive` — the
        driver behind :func:`~repro.summa.run_plan` — with the handles'
        tiles as operands, so every argument means what it means there and
        ``result`` carries the same report.  The configuration is an
        :class:`~repro.plan.ExecSpec` as everywhere: ``plan=`` (a spec or
        :class:`~repro.plan.ExecPlan`) **or** its fields as loose
        ``**knobs`` (``batches`` defaults to 1 here), with the context's
        own grid, world and timeout overriding the slot-level fields.
        ``kernel`` may be ``"spgemm"`` (a global ``mask=`` is then a
        postprocess filter) or ``"masked_spgemm"`` (``mask=`` required);
        kernels with a dense operand don't fit sparse handles — see
        :meth:`spmm`.  Every other field is honoured by the run or
        refused with :class:`~repro.errors.DistributionError` before any
        region is launched (``checkpoint_dir`` / ``resume`` / ``heal``,
        ``keep_output=False`` and ``comm_backend="auto"`` need the global
        operands).
        """
        self._operand(ha, "A", "left operand")
        self._operand(hb, "B", "right operand")
        run = self._drive(
            ha, hb, plan, knobs,
            mask=mask, postprocess=postprocess, faults=faults,
        )
        # the ranks kept their tiles of C; what came back is each one's
        # realised range and size
        stored = [r["stored"] for r in run.per_rank]
        ranges = [rng for _key, rng, _nnz, _nbytes in stored]
        standard = _standard_ranges("A", self.grid, ha.nrows, hb.ncols)
        handle = self._register(
            stored[0][0], ha.nrows, hb.ncols,
            "A" if ranges == standard else "C", ranges,
            [s[2:] for s in stored],
        )
        return handle, run.result

    def spmm(
        self, ha: DistMatrixHandle, x, *, plan=None, **knobs,
    ) -> tuple[np.ndarray, SummaResult]:
        """``Y = A @ X`` with a resident sparse ``A`` and dense feature
        panel ``X`` — the GNN-propagation primitive.

        ``ha`` must fit standard layout ``"A"``; ``x`` is a global
        dense ``(ha.ncols, f)`` array (feature panels are small relative
        to the matrix, so they travel to the ranks whole and each rank
        slices its block — dense panels ride collectives on either
        backend).  Returns ``(y, result)`` with ``y`` the assembled dense
        ``(ha.nrows, f)`` product; the panel is *not* registered as a
        handle (handles hold sparse tiles).  ``plan=`` / ``**knobs`` are
        treated as in :meth:`multiply`, with the kernel pinned to
        ``"spmm"``.
        """
        self._operand(ha, "A", "spmm left operand")
        x = np.ascontiguousarray(x)
        run = self._drive(ha, x, plan, knobs, kernel="spmm")
        pieces = [p[1:] for r in run.per_rank for p in r["pieces"]]
        return run.kern.gather(ha.nrows, x.shape[1], pieces), run.result

    def _drive(self, ha, b, plan, knobs, *, kernel=None, **runtime):
        """Run the shared driver on resident operands: its regions are
        submitted to this context's world, with this context's grid,
        world and timeout overriding the plan's slot-level fields."""
        pinned = dict(
            nprocs=self.grid.nprocs, layers=self.grid.layers,
            timeout=self.timeout, world=self.world, transport=self.transport,
        )
        if kernel is not None:
            pinned["kernel"] = kernel
        if plan is None:
            knobs.setdefault("batches", 1)
        return drive(
            ha, b, coerce_plan(plan, None, None, knobs),
            tracker=self.tracker, world=self._multiply_world, pinned=pinned,
            **runtime,
        )

    @contextlib.contextmanager
    def _multiply_world(self, run, body, a, b, grid, spec, *, aux, **fixed):
        """What :func:`~repro.summa.batched.drive` opens instead of a
        one-shot world: ``submit(**amendable)`` is a ``multiply`` region
        on the resident ranks, re-entered as often as the run amends."""
        # a sparse product stays in the ranks under a new key; a dense
        # one (spmm's panel) comes back whole
        key = next(_KEYS) if run.kern.output_kind == "sparse" else None
        a, b = (
            x.record() if isinstance(x, DistMatrixHandle) else x
            for x in (a, b)
        )
        digest = aux_key = None
        if isinstance(aux, SparseMatrix):
            digest = _digest(aux)
            held_digest, held_key = self._held_aux
            aux_key = held_key if held_digest == digest else next(_KEYS)

        def submit(**amendable):
            # until a region that carried the mask has succeeded, every
            # rank is sent it; from then on, its store key
            held = aux_key is not None and self._held_aux[1] == aux_key
            out = self._submit(
                "multiply", body=body, a=a, b=b, grid=grid, spec=spec, key=key,
                aux=None if held else aux, aux_key=aux_key,
                faults=run.injector, checksums=spec.checksums,
                **fixed, **amendable,
            )
            if aux_key is not None and not held:
                superseded = self._held_aux[1]
                if superseded is not None:
                    self._freed.append(superseded)
                self._held_aux = (digest, aux_key)
            return out

        try:
            yield submit
        except BaseException:
            # ranks that got as far as storing them drop them
            self._freed.extend(k for k in (key, aux_key) if k is not None)
            if self._held_aux[1] == aux_key:
                self._held_aux = (None, None)
            raise

    def _operand(self, handle: DistMatrixHandle, layout: str, role: str) -> None:
        """Refuse an operand whose tiles do not fit ``layout`` — fitting
        is by ranges; the label only words the refusal."""
        self._check(handle)
        if handle.ranges != _standard_ranges(
            layout, self.grid, handle.nrows, handle.ncols
        ):
            raise DistributionError(
                f"{role} must have standard layout {layout!r} "
                f"(got {handle.layout!r}; redistribute first)"
            )

    def _register(self, key, nrows, ncols, layout, ranges, sizes) -> DistMatrixHandle:
        handle = DistMatrixHandle(self, key, nrows, ncols, layout, ranges, sizes)
        self._live[key] = handle
        return handle

    def _check(self, handle: DistMatrixHandle) -> None:
        self._ensure_open()
        if handle.context is not self or not handle.live:
            raise DistributionError(
                "handle does not belong to this context (or was freed)"
            )
