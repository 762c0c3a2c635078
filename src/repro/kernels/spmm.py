"""SpMM: sparse × dense → dense (the GNN-propagation kernel).

The B operand is a dense feature panel distributed under the same
nested (row × layer, column) layout as sparse B; the output is a dense
block per rank.  Three kernel-declared deviations from SpGEMM matter:

* **dense-aware shipping** — B panels and fiber pieces are plain
  ndarrays, which both comm backends ship whole (collectives even under
  ``comm_backend="sparse"``; dense rows cannot be thinned by a nonzero
  mask) and the shm transport moves zero-copy;
* **incremental accumulation** — :attr:`incremental_only` forces
  ``merge_policy="incremental"``: a dense accumulator plus one incoming
  stage block stay resident instead of one dense partial per stage
  (deferred merging would scale the footprint by ``sqrt(p/l)``);
* **exact memory model** — dense footprints need no symbolic pass, so
  :meth:`predict_memory` computes the per-category bytes from the grid
  geometry directly (the dense analogue of Table III).

Local compute is CSC-A scatter-accumulate: for every stored ``a[i, k]``,
``out[i, :] ⊕= a[i, k] ⊗ x[k, :]`` via ``ufunc.at`` — any semiring whose
add/mul are real ufuncs works (``plus_times`` takes the fused
``np.add.at`` fast path; ``plus_pair``'s object-dtype mul does not).
"""

from __future__ import annotations

import numpy as np

from ..grid.grid3d import ProcGrid3D
from ..sparse.matrix import SparseMatrix
from ..sparse.semiring import Semiring
from .base import (
    LocalKernel,
    batch_cols_max,
    dense_tile_bytes_max,
    layer_block_max,
    operand_shape,
    rows_block_max,
    shape_memory_block,
    sparse_tile_nnz_max,
)

__all__ = ["SpmmKernel", "spmm_local"]


def spmm_local(a: SparseMatrix, x: np.ndarray, semiring: Semiring) -> np.ndarray:
    """Dense ``a ⊗ x`` for CSC ``a`` (m × k) and dense ``x`` (k × f)."""
    m = a.nrows
    f = int(x.shape[1])
    out = np.full((m, f), float(semiring.add_identity))
    if a.nnz == 0:
        return out
    cols = a.col_indices()
    if semiring.add is np.add and semiring.mul is np.multiply:
        np.add.at(out, a.rowidx, a.values[:, None] * x[cols])
    else:
        prod = np.asarray(semiring.mul(a.values[:, None], x[cols]), dtype=float)
        semiring.add.at(out, a.rowidx, prod)
    return out


class SpmmKernel(LocalKernel):
    """Sparse A × dense B → dense C under the batched 3D schedule."""

    name = "spmm"
    b_kind = "dense"
    output_kind = "dense"
    incremental_only = True
    supports_symbolic = False

    def stage_multiply(self, state):
        return spmm_local(state.a_recv, state.b_recv, state.semiring)

    def merge(self, parts, state):
        out = parts[0]
        for part in parts[1:]:
            out = state.semiring.add(out, part)
        return np.asarray(out, dtype=float)

    # ------------------------------------------------------------------ #
    # memory model: exact dense geometry, no symbolic pass needed
    # ------------------------------------------------------------------ #

    def predict_memory(
        self, a, b, aux=None, *, nprocs, layers, batches,
        keep_output=True, overlap="off",
    ):
        grid = ProcGrid3D(nprocs, layers)
        am, ak = operand_shape(a)
        bk, bn = operand_shape(b)
        bpn = 24  # r: bytes per sparse nonzero (matrix.py accounting)
        a_nnz = sparse_tile_nnz_max(a, grid, "A")
        rows_loc = rows_block_max(am, grid)
        cols_batch = batch_cols_max(bn, grid, batches)
        cols_piece = layer_block_max(bn, grid, batches)

        a_piece = bpn * a_nnz
        b_piece = dense_tile_bytes_max(bk, bn, grid, "B")
        panel = rows_block_max(bk, grid) * cols_batch * 8  # one stage's B panel
        block = rows_loc * cols_batch * 8  # one dense C accumulator block
        recv = bpn * a_nnz + panel
        if overlap == "depth1":
            recv *= 2
        if layers > 1:
            recv += rows_loc * cols_piece * 8 * max(layers - 1, 1)
        # incremental merge: accumulator + incoming stage block
        scratch = 2 * block
        held = rows_loc * cols_piece * 8 * batches
        return shape_memory_block(
            {
                "a_piece": a_piece,
                "b_piece": b_piece,
                "recv_buffer": recv,
                "merge_scratch": scratch,
                "output_batch": rows_loc * cols_piece * 8,
            },
            held=held,
            transient=recv + scratch,
            batches=batches,
            keep_output=keep_output,
            params={
                "kernel": self.name, "nprocs": nprocs, "layers": layers,
                "batches": batches, "features": bn, "overlap": overlap,
            },
        )
