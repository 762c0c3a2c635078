#!/usr/bin/env python
"""The full memory-constrained pipeline: symbolic plan, batched multiply,
per-batch consumption, spill to disk, and reload.

This is the paper's production scenario stitched end to end:

1. the symbolic step sizes the batch count for a budget (Alg. 3);
2. BatchedSUMMA3D computes batch by batch, each batch pruned in the
   distributed hook and *discarded* from memory;
3. batches stream to disk (the "saved to disk by the application" mode);
4. a downstream pass reloads them one at a time and aggregates a
   statistic — the full product never exists in memory at once.

Run:  python examples/memory_constrained_pipeline.py
"""

import os
import tempfile

import numpy as np

from repro.data import load_dataset
from repro.sparse import load_matrix, prune_threshold, save_matrix
from repro.sparse.matrix import BYTES_PER_NONZERO
from repro.summa import batched_summa3d, symbolic3d


def main() -> None:
    a, _ = load_dataset("isolates_small").operands(seed=0)
    print(f"A: {a.nrows}x{a.ncols}, nnz = {a.nnz}")

    budget = 7 * a.nnz * BYTES_PER_NONZERO
    print(f"aggregate budget: {budget / 1e6:.1f} MB "
          f"({budget / (4 * 1e6):.2f} MB per process)")

    # -- 1. plan -----------------------------------------------------------
    plan = symbolic3d(a, a, nprocs=4, memory_budget=budget)
    print(f"symbolic step: b = {plan.batches} batches required "
          f"(max unmerged nnz per process: {plan.max_nnz_c})")

    # -- 2+3. batched multiply, prune, spill, discard ------------------------
    def prune(batch, c0, c1, block):
        return prune_threshold(block, 0.05)

    with tempfile.TemporaryDirectory() as spill_dir:
        def spill(batch, spans, block):  # the application saves each batch
            save_matrix(os.path.join(spill_dir, f"batch_{batch}.npz"), block)

        result = batched_summa3d(
            a, a,
            nprocs=4,
            memory_budget=budget,
            keep_output=False,          # nothing retained in memory
            postprocess=prune,
            on_batch=spill,
        )
        files = sorted(os.listdir(spill_dir))
        print(f"\nran {result.batches} batches; "
              f"peak per-process memory {result.max_local_bytes / 1e6:.2f} MB")
        print(f"spilled {len(files)} batch files: {files[:4]}"
              f"{' ...' if len(files) > 4 else ''}")

        # -- 4. stream the batches back, never holding more than one -------
        total_nnz = 0
        col_max = np.zeros(a.ncols)
        for name in files:
            batch = load_matrix(os.path.join(spill_dir, name))
            total_nnz += batch.nnz
            np.maximum.at(col_max, batch.col_indices(), batch.values)
        print(f"\nstreamed aggregate: nnz(C, pruned) = {total_nnz}, "
              f"max column entry = {col_max.max():.4f}")
        print("at no point did the full product exist in memory.")


if __name__ == "__main__":
    main()
