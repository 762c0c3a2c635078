"""Ablation — SpGEMM formulation taxonomy (Sec. II-C of the paper).

Gustavson column-wise (all our suites), the outer-product / propagation-
blocking formulation [27], and the resident-vs-broadcast distribution
strategy are compared on identical operands: identical results, different
cost structure.
"""

import time

import pytest

from _helpers import print_series
from repro.data import load_dataset, planted_partition
from repro.simmpi import CommTracker
from repro.sparse import multiply
from repro.sparse.spgemm.outer import spgemm_outer


def test_ablation_gustavson_vs_outer(benchmark):
    a, _ = load_dataset("eukarya").operands(seed=0)
    timings = {}
    reference = multiply(a, a)
    for label, fn in (
        ("gustavson/esc", lambda: multiply(a, a)),
        ("outer bs=16", lambda: spgemm_outer(a, a, block_size=16)),
        ("outer bs=256", lambda: spgemm_outer(a, a, block_size=256)),
    ):
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            out = fn()
            best = min(best, time.perf_counter() - t0)
        assert out.allclose(reference), label
        timings[label] = best
    print_series(
        "SpGEMM formulations on Eukarya^2 (seconds, best of 2)",
        ["formulation", "seconds"],
        [[k, round(v, 4)] for k, v in timings.items()],
    )
    # larger outer blocks amortise the per-round merge (the propagation-
    # blocking tradeoff): coarse blocking must not be slower than fine
    assert timings["outer bs=256"] <= timings["outer bs=16"] * 1.2
    benchmark(lambda: spgemm_outer(a, a, block_size=256))


def test_ablation_resident_vs_broadcast_mcl(benchmark):
    """Resident handles eliminate per-iteration re-distribution (the
    CombBLAS argument for persistent distributed matrices).  On a 2D grid
    the product's tiles already are the next operands' and residency costs
    nothing; with layers it pays the A -> B redistribution alltoalls."""
    from repro.apps import markov_cluster, markov_cluster_resident

    adj, _ = planted_partition(60, 4, p_in=0.65, p_out=0.02, seed=311)
    t_broadcast = CommTracker()
    std = markov_cluster(adj, nprocs=4, max_iterations=12,
                         tracker=t_broadcast)
    t_resident, t_layered = CommTracker(), CommTracker()
    res = markov_cluster_resident(adj, nprocs=4, max_iterations=12,
                                  tracker=t_resident)
    layered = markov_cluster_resident(adj, nprocs=8, layers=2,
                                      max_iterations=12, tracker=t_layered)
    rows = [
        [engine, t.total_bytes(), t.total_bytes("Redistribute")]
        for engine, t in (("broadcast p=4", t_broadcast),
                          ("resident p=4", t_resident),
                          ("resident p=8 l=2", t_layered))
    ]
    print_series(
        "MCL engines: transmitted bytes over 12 iterations",
        ["engine", "total bytes", "redistribute bytes"],
        rows,
    )
    # identical clusterings
    for other in (res, layered):
        mapping = {}
        for la, lb in zip(std.labels.tolist(), other.labels.tolist()):
            assert mapping.setdefault(la, lb) == lb
    # residency pays redistribution only where layouts differ
    assert t_broadcast.total_bytes("Redistribute") == 0
    assert t_resident.total_bytes("Redistribute") == 0
    assert t_layered.total_bytes("Redistribute") > 0
    benchmark(lambda: markov_cluster_resident(adj, nprocs=4, max_iterations=3))
