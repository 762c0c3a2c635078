"""Process grids and data distribution for 2D/3D sparse SUMMA."""

from .grid3d import GridComms, ProcGrid3D
from .distribution import (
    a_tile_range,
    b_tile_range,
    batch_layer_blocks,
    c_tile_columns,
    extract_a_tile,
    extract_b_tile,
    gather_tiles,
    nested_slice,
    squeeze_inner,
)

__all__ = [
    "ProcGrid3D",
    "GridComms",
    "a_tile_range",
    "b_tile_range",
    "batch_layer_blocks",
    "c_tile_columns",
    "extract_a_tile",
    "extract_b_tile",
    "gather_tiles",
    "nested_slice",
    "squeeze_inner",
]
