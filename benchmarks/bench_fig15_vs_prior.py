"""Fig. 15 — BatchedSUMMA3D vs the prior SUMMA3D of [13].

The paper's head-to-head: squaring Eukarya with 4 layers and no batching,
this paper's implementation (sort-free hash kernels) against the previous
CombBLAS SUMMA3D (sorted heap kernels).  Computation is >8x faster,
communication slightly faster.  Reproduced by running the *same*
distributed algorithm with the two kernel tiers swapped — the one-line
ablation the library's KernelSuite design exists for.
"""

import time

import pytest

from _helpers import COMP_STEPS, print_series
from repro.data import load_dataset
from repro.summa import batched_summa3d


def _run(a, tier):
    t0 = time.perf_counter()
    result = batched_summa3d(
        a, a, nprocs=16, layers=4, batches=1, kernel=f"spgemm:{tier}"
    )
    wall = time.perf_counter() - t0
    comp = sum(result.step_times.get(s) for s in COMP_STEPS)
    return wall, comp, result


def test_fig15_new_kernels_beat_prior(benchmark):
    a, _ = load_dataset("eukarya").operands(seed=0)
    results = {}
    for label, tier in (
        ("prior SUMMA3D (sorted-heap)", "sorted-heap"),
        ("this paper (unsorted-hash)", "unsorted-hash"),
    ):
        best = (float("inf"), float("inf"), None)
        for _ in range(2):  # best-of-2 to tame scheduler noise
            wall, comp, res = _run(a, tier)
            if comp < best[1]:
                best = (wall, comp, res)
        results[label] = best
    rows = [
        [label, round(comp, 3), round(wall, 3)]
        for label, (wall, comp, _res) in results.items()
    ]
    print_series(
        "Fig. 15: Eukarya^2, p=16, l=4, b=1 (live simulator)",
        ["implementation", "computation (s)", "wall (s)"],
        rows,
    )
    prior_comp = results["prior SUMMA3D (sorted-heap)"][1]
    new_comp = results["this paper (unsorted-hash)"][1]
    speedup = prior_comp / new_comp
    print(f"computation speedup: {speedup:.2f}x "
          f"(paper: >8x on Cori; CPython constants differ, ordering must hold)")
    # the paper's qualitative claim: the sort-free kernels win on computation
    assert speedup > 1.2
    # and both produce the same matrix
    m_prior = results["prior SUMMA3D (sorted-heap)"][2].matrix
    m_new = results["this paper (unsorted-hash)"][2].matrix
    assert m_prior.allclose(m_new)
    benchmark(lambda: batched_summa3d(
        a, a, nprocs=4, layers=1, batches=1, kernel="spgemm:unsorted-hash"
    ))


def test_fig15_modelled_at_paper_scale(benchmark):
    """The same comparison through the machine model: Table III's heap
    factors vs the hash merge's linear cost at the paper's 256-node run."""
    from repro.data import load_dataset as _ld
    from repro.model import CORI_KNL, predict_steps

    paper = _ld("eukarya").paper
    stats = dict(nnz_a=int(paper.nnz_a), nnz_b=int(paper.nnz_a),
                 nnz_c=int(paper.nnz_c), flops=int(paper.flops))
    heap = predict_steps(CORI_KNL, nprocs=1024, layers=4, batches=1,
                         merge_kernel="heap", **stats)
    hash_ = predict_steps(CORI_KNL, nprocs=1024, layers=4, batches=1,
                          merge_kernel="hash", **stats)
    comp_heap = sum(heap.get(s) for s in COMP_STEPS)
    comp_hash = sum(hash_.get(s) for s in COMP_STEPS)
    print_series(
        "Fig. 15 (modelled, Eukarya @ 256 nodes)",
        ["kernels", "computation (s)", "total (s)"],
        [
            ["heap (prior)", round(comp_heap, 2), round(heap.total(), 2)],
            ["hash (new)", round(comp_hash, 2), round(hash_.total(), 2)],
        ],
    )
    speedup = comp_heap / comp_hash
    print(f"modelled computation speedup: {speedup:.1f}x (paper: >8x)")
    assert speedup > 2.0
    assert hash_.total() < heap.total()
    benchmark(lambda: predict_steps(
        CORI_KNL, nprocs=1024, layers=4, batches=1, merge_kernel="hash", **stats
    ))
