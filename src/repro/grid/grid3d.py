"""3D process grids (paper Sec. III-B).

``p`` processes form a ``sqrt(p/l) x sqrt(p/l) x l`` grid: ``l`` layers,
each a square 2D grid.  A 2D grid is the ``l = 1`` special case, so one
class serves both SUMMA2D and SUMMA3D.

Rank numbering is layer-major: rank ``r`` sits at layer ``k = r // (pr*pc)``,
row ``i = (r % (pr*pc)) // pc``, column ``j = r % pc``.  Four derived
communicators drive the algorithms:

* **row**  — ``P(i, :, k)``: A-Broadcast travels here;
* **col**  — ``P(:, j, k)``: B-Broadcast travels here;
* **fiber**— ``P(i, j, :)``: AllToAll-Fiber travels here;
* **layer**— ``P(:, :, k)``: per-layer reductions in the symbolic step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import GridError
from ..simmpi.comm import SimComm


class ProcGrid3D:
    """Geometry of a ``pr x pc x l`` process grid with ``pr == pc``.

    >>> g = ProcGrid3D(8, layers=2)
    >>> g.shape
    (2, 2, 2)
    >>> g.coords(5)
    (0, 1, 1)
    >>> g.rank_of(0, 1, 1)
    5
    """

    __slots__ = ("nprocs", "layers", "pr", "pc")

    def __init__(self, nprocs: int, layers: int = 1) -> None:
        if nprocs <= 0:
            raise GridError(f"nprocs must be positive, got {nprocs}")
        if layers <= 0:
            raise GridError(f"layers must be positive, got {layers}")
        if nprocs % layers:
            raise GridError(
                f"nprocs={nprocs} not divisible into {layers} layers"
            )
        per_layer = nprocs // layers
        side = math.isqrt(per_layer)
        if side * side != per_layer:
            raise GridError(
                f"nprocs/layers = {per_layer} is not a perfect square; "
                f"the paper's grids are sqrt(p/l) x sqrt(p/l) x l"
            )
        self.nprocs = nprocs
        self.layers = layers
        self.pr = side
        self.pc = side

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.pr, self.pc, self.layers)

    @property
    def stages(self) -> int:
        """SUMMA stage count — the number of process columns per layer."""
        return self.pc

    def coords(self, rank: int) -> tuple[int, int, int]:
        """(row, col, layer) of a global rank."""
        if not 0 <= rank < self.nprocs:
            raise GridError(f"rank {rank} out of range [0, {self.nprocs})")
        per_layer = self.pr * self.pc
        k, rem = divmod(rank, per_layer)
        i, j = divmod(rem, self.pc)
        return (i, j, k)

    def rank_of(self, i: int, j: int, k: int) -> int:
        """Global rank at grid coordinates (row, col, layer)."""
        if not (0 <= i < self.pr and 0 <= j < self.pc and 0 <= k < self.layers):
            raise GridError(
                f"coords ({i}, {j}, {k}) outside grid {self.shape}"
            )
        return k * self.pr * self.pc + i * self.pc + j

    def __repr__(self) -> str:
        return f"ProcGrid3D({self.pr}x{self.pc}x{self.layers})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ProcGrid3D)
            and self.shape == other.shape
        )

    def __hash__(self) -> int:
        return hash(self.shape)


@dataclass
class GridComms:
    """One rank's communicators on a :class:`ProcGrid3D`.

    Derived, not negotiated: :meth:`build` computes the four groups from
    the grid's own arithmetic (:meth:`SimComm.derive`), so no message is
    exchanged — but every rank of the world communicator must still call
    it at the same program point, as it would a collective.
    """

    grid: ProcGrid3D
    world: SimComm
    row: SimComm
    col: SimComm
    fiber: SimComm
    layer: SimComm
    i: int
    j: int
    k: int

    @classmethod
    def build(cls, world: SimComm, grid: ProcGrid3D) -> GridComms:
        if world.size != grid.nprocs:
            raise GridError(
                f"world communicator has {world.size} ranks, grid needs {grid.nprocs}"
            )
        i, j, k = grid.coords(world.rank)
        pr, pc, layers = grid.shape
        rank_of = grid.rank_of
        # colors are unique integers per group; members are listed so that
        # local rank within each derived communicator equals the grid index
        # along the varying dimension.
        row = world.derive(k * pr + i, [rank_of(i, jj, k) for jj in range(pc)])
        col = world.derive(k * pc + j, [rank_of(ii, j, k) for ii in range(pr)])
        fiber = world.derive(
            i * pc + j, [rank_of(i, j, kk) for kk in range(layers)]
        )
        layer = world.derive(k, range(k * pr * pc, (k + 1) * pr * pc))
        return cls(grid, world, row, col, fiber, layer, i, j, k)
