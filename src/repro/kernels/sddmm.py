"""SDDMM: sampled dense-dense matrix multiplication (the ALS kernel).

``C = S ∘ (A ⊗ B)`` for dense factor panels A (m × k) and B (k × n) and
a sparse sampling pattern S — only the dot products S stores are ever
computed.  S is the aux operand, distributed like the *output* (rows
with A's row blocks, columns with each batch's column blocks), exactly
as Bharadwaj–Buluç–Demmel replicate the sparse operand along the
dataflow that already routes the output.

Stage structure: each stage holds a slice of the inner dimension, so a
stage computes the sampled partial dots over its k-block and multiplies
by S's values immediately — ``s ∘ (Σ_stages d_stage) = Σ_stages
(s ∘ d_stage)`` for any semiring whose ``mul`` distributes over ``add``
(every registered semiring except ``plus_pair``, whose pair-count
``mul`` is not distributive; see DESIGN.md).  Every stage partial then
carries the full S-block pattern, so merging is element-wise
accumulation over identical patterns — no re-hashing — and the fiber
exchange ships column slices of that same pattern.

:attr:`incremental_only` is set for the same reason as SpMM: partials
are as large as the output block, so holding one per stage under
deferred merging would multiply the footprint by the stage count.
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
    operand_shape,
    rows_block_max,
    shape_memory_block,
)

__all__ = ["SddmmKernel", "sddmm_local"]


def sddmm_local(
    s: SparseMatrix, a: np.ndarray, b: np.ndarray, semiring: Semiring
) -> SparseMatrix:
    """``s ∘ (a ⊗ b)`` on the pattern of ``s`` (a: m × k, b: k × n)."""
    if s.nnz == 0:
        return s
    rows = s.rowidx
    cols = s.col_indices()
    if a.shape[1] == 0:
        dots = np.full(s.nnz, float(semiring.add_identity))
    elif semiring.add is np.add and semiring.mul is np.multiply:
        dots = np.einsum("nk,kn->n", a[rows], b[:, cols])
    else:
        prod = np.asarray(semiring.mul(a[rows], b[:, cols].T), dtype=float)
        dots = semiring.add.reduce(prod, axis=1)
    vals = np.asarray(semiring.mul(s.values, dots), dtype=float)
    return SparseMatrix(
        s.nrows, s.ncols, s.indptr, s.rowidx, vals,
        sorted_within_columns=s.sorted_within_columns, validate=False,
    )


def _accumulate(parts: list, semiring: Semiring) -> SparseMatrix:
    """Element-wise accumulation over identical sparsity patterns."""
    base = parts[0]
    vals = base.values
    for part in parts[1:]:
        vals = semiring.add(vals, part.values)
    return SparseMatrix(
        base.nrows, base.ncols, base.indptr, base.rowidx,
        np.asarray(vals, dtype=float),
        sorted_within_columns=base.sorted_within_columns, validate=False,
    )


class SddmmKernel(LocalKernel):
    """Dense A × dense B sampled by sparse S → sparse output."""

    name = "sddmm"
    a_kind = "dense"
    b_kind = "dense"
    aux_kind = "sparse"
    aux_mode = "required"
    output_kind = "sparse"
    incremental_only = True
    supports_symbolic = False

    def resolve_aux(self, a, b, *, mask=None, sample=None):
        if sample is None:
            raise ValueError(
                'kernel="sddmm" requires sample= (the sparse sampling '
                "pattern S, shaped like the product)"
            )
        super().resolve_aux(a, b, mask=mask)  # refuses mask=
        return sample, None

    def stage_multiply(self, state):
        return sddmm_local(state.aux_batch, state.a_recv, state.b_recv, state.semiring)

    def merge(self, parts, state):
        return _accumulate(parts, state.semiring)

    # ------------------------------------------------------------------ #
    # memory model: dense panels + the sampled pattern's nonzeros
    # ------------------------------------------------------------------ #

    def predict_memory(
        self, a, b, aux=None, *, nprocs, layers, batches, overlap="off",
    ):
        grid = ProcGrid3D(nprocs, layers)
        am, ak = operand_shape(a)
        bk, bn = operand_shape(b)
        bpn = 24
        rows_loc = rows_block_max(am, grid)
        cols_batch = batch_cols_max(bn, grid, batches)
        if isinstance(aux, SparseMatrix):
            # worst per-rank-per-batch slice of S, bounded by the widest
            # row block crossed with the widest batch column block; the
            # load-imbalance allowance only applies once S is actually
            # split across ranks
            skew = 1.0 if nprocs == 1 else 1.3
            density = aux.nnz / max(am * bn, 1)
            s_nnz = int(np.ceil(skew * density * rows_loc * cols_batch)) + 1
            s_held = int(np.ceil(skew * aux.nnz / nprocs)) + 1
        else:
            s_nnz = s_held = rows_loc * cols_batch

        a_piece = dense_tile_bytes_max(am, ak, grid, "A")
        b_piece = dense_tile_bytes_max(bk, bn, grid, "B")
        panel_a = rows_loc * int(np.ceil(ak / max(grid.pc * layers, 1))) * 8
        panel_b = rows_block_max(bk, grid) * cols_batch * 8
        recv = panel_a + panel_b
        if overlap == "depth1":
            recv *= 2
        if layers > 1:
            recv += bpn * s_nnz
        scratch = 2 * bpn * s_nnz  # accumulator + incoming stage partial
        return shape_memory_block(
            {
                "a_piece": a_piece,
                "b_piece": b_piece + bpn * s_nnz,  # S block rides with inputs
                "recv_buffer": recv,
                "merge_scratch": scratch,
                "output_batch": bpn * s_held // max(batches, 1),
            },
            transient=recv + scratch,
            params={
                "kernel": self.name, "nprocs": nprocs, "layers": layers,
                "batches": batches, "inner_dim": ak, "overlap": overlap,
            },
        )
