"""The paper's evaluation as one table of executable claims.

Every table, figure, ablation and Eq. 2 of the paper is one entry: its
inputs, the measured (simulated MPI, byte-exact metering) or modelled
(Tables II/III α–β at the paper's core counts) call, the series it prints,
and the claim it asserts: the *shape* of the result (who wins, which way
each step moves, where crossovers fall), not a Cray XC40's seconds.
DESIGN.md §4 indexes the entries; EXPERIMENTS.md records paper vs measured.

    PYTHONPATH=src pytest benchmarks/bench_paper.py -q          # every claim
    PYTHONPATH=src pytest benchmarks/bench_paper.py -k fig5 -s  # one entry, its series
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from _helpers import print_series
from repro.apps import markov_cluster, markov_cluster_resident
from repro.data import (
    DATASETS, erdos_renyi, load_dataset, planted_partition, protein_similarity, rmat,
)
from repro.grid import ProcGrid3D
from repro.grid.distribution import (
    a_tile_range, b_tile_range, batch_layer_blocks, extract_a_tile, extract_b_tile,
)
from repro.model import (
    CORI_HASWELL, CORI_KNL, CORI_KNL_HT, comm_complexity, comp_complexity, estimate_batches,
    parallel_efficiency, predict_steps, strong_scaling_series,
)
from repro.simmpi import CommTracker
from repro.sparse import (
    SparseMatrix, merge_grouped, merge_hash, merge_heap, multiply, random_sparse, spgemm_esc,
    spgemm_hash, spgemm_heap,
)
from repro.sparse.matrix import BYTES_PER_NONZERO
from repro.sparse.ops import col_split, random_symmetric_permutation, split_bounds, submatrix
from repro.sparse.spgemm import esc
from repro.sparse.spgemm.outer import spgemm_outer
from repro.sparse.spgemm.symbolic import symbolic_flops, symbolic_nnz
from repro.sparse.stats import degree_stats, tile_imbalance
from repro.summa import (
    auto_config, batched_summa3d, batched_summa3d_rows, batches_lower_bound,
    batches_upper_bound, summa2d, summa3d, symbolic3d,
)
from repro.summa.baselines import cannon2d, spgemm_1d

#: the steps that move data, and the ones that compute
COMM_STEPS = ("Symbolic", "A-Broadcast", "B-Broadcast", "AllToAll-Fiber")
COMP_STEPS = ("Local-Multiply", "Merge-Layer", "Merge-Fiber")
#: the three collectives of Alg. 1, metered per step
WIRE_STEPS = ("A-Broadcast", "B-Broadcast", "AllToAll-Fiber")
_NO_TRAFFIC = {"messages": 0, "nbytes": 0, "total_bytes": 0, "latency_hops": 0}
#: Figs. 6 and 7 scale 16x from these bases; Fig. 9 overlays both
BASE_CORES = (4096, 16384, 65536)
GIANT_CORES = (16384, 65536, 262144)


# --- the measurements the entries share -------------------------------------

def metered(a, b=None, fn=batched_summa3d, **kw):
    """One metered distributed multiply ``fn(a, b)`` -> (CommTracker, result)."""
    tracker = CommTracker()
    return tracker, fn(a, a if b is None else b, tracker=tracker, **kw)


def step_sweep(a, configs, b=None):
    """Per-step metered traffic of one ``batched_summa3d`` run per ``(p, l, b)``:
    ``{config: {step: {"messages", "nbytes", "total_bytes", "latency_hops"}}}``
    over ``WIRE_STEPS``; ``total_bytes`` is payload times receivers."""
    out = {}
    for nprocs, layers, batches in configs:
        agg = metered(a, b, nprocs=nprocs, layers=layers, batches=batches)[0].by_step()
        out[nprocs, layers, batches] = {s: agg.get(s, _NO_TRAFFIC) for s in WIRE_STEPS}
    return out


def paper_stats(name: str) -> dict:
    """A dataset's published Table V statistics as the model's keywords
    (``nnz_b = nnz_a``: the squarings, and Aᵀ of the A·Aᵀ runs)."""
    p = load_dataset(name).paper
    return dict(nnz_a=int(p.nnz_a), nnz_b=int(p.nnz_a), nnz_c=int(p.nnz_c), flops=int(p.flops))


def predict(name: str, *, machine=CORI_KNL, **kw):
    """``predict_steps`` at paper scale on a dataset's published statistics."""
    return predict_steps(machine, **paper_stats(name), **kw)


def comm_comp(times, comm=COMM_STEPS) -> tuple[float, float]:
    """(communication seconds, computation seconds) of a step breakdown."""
    return sum(times.get(s) for s in comm), sum(times.get(s) for s in COMP_STEPS)


def comm_seconds(step, **kw) -> float:
    """α–β seconds of one step's Table II closed form on Cori-KNL."""
    c = comm_complexity(**kw)[step]
    return CORI_KNL.alpha * c["latency_hops"] + CORI_KNL.beta * c["bytes"]


def modelled(title, name, configs: dict, comm=COMM_STEPS) -> dict:
    """``predict`` per ``{label: keywords}``, printed as comm / comp / total
    seconds; returns ``{label: StepTimes}``."""
    times = {label: predict(name, **kw) for label, kw in configs.items()}
    print_series(title, ["config", "comm (s)", "comp (s)", "total (s)"],
                 [[label, *comm_comp(t, comm), t.total()] for label, t in times.items()])
    return times


def scaling(name: str, cores, title=None):
    """The modelled l = 16 strong-scaling series of Figs. 6, 7 and 9."""
    series = strong_scaling_series(CORI_KNL, core_counts=list(cores), layers=16,
                                   memory_fraction=0.35, **paper_stats(name))
    if title:
        print_series(f"{title} ({name} @ paper scale, l=16, modelled)",
                     ["cores", "procs", "b", "A-Bcast", "LocalMul", "AllToAll", "total"],
                     [[pt.cores, pt.nprocs, pt.batches, pt.times.get("A-Broadcast"),
                       pt.times.get("Local-Multiply"), pt.times.get("AllToAll-Fiber"),
                       pt.total] for pt in series])
    return series


def best_of(n: int, fn, *args):
    """(least wall seconds over ``n`` calls, the last output): the minimum
    is the least noisy estimator."""
    best, out = float("inf"), None
    for _ in range(n):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def same_clusters(x, y) -> bool:
    """Two label vectors partition the vertices identically."""
    mapping = {}
    return all(mapping.setdefault(i, j) == j for i, j in zip(x.tolist(), y.tolist()))


def arrow(before, after, tol=0.15) -> str:
    """Table VI's arrow for a change of more than ``tol``."""
    if after > before * (1 + tol):
        return "UP"
    return "DOWN" if after < before * (1 - tol) else "flat"


def stage_partials(a, stages, kernel):
    """Partial products of a SUMMA2D-like stage structure: split the inner
    dimension into ``stages`` blocks and multiply each pair."""
    bounds = split_bounds(a.nrows, stages)
    return [kernel(block, submatrix(a, int(bounds[s]), int(bounds[s + 1]), 0, a.ncols))
            for s, block in enumerate(col_split(a, stages))]


# --- the table ---------------------------------------------------------------

@dataclass(frozen=True)
class Entry:
    exp: str
    claim: str
    check: Callable[[], None]


ENTRIES: dict[str, Entry] = {}


def claim(entry_id: str, exp: str, text: str):
    """Register the decorated function as the entry checking ``text``."""
    def register(fn):
        ENTRIES[entry_id] = Entry(exp, text, fn)
        return fn
    return register


@claim("table2", "Table II", "metered A/B-Broadcast volumes match the closed forms, "
       "bandwidth falls as 1/√l, one alltoall per fiber per batch with l − 1 hops")
def _table2():
    a = random_sparse(64, 64, nnz=1024, seed=1)
    rows = []
    for cfg, agg in step_sweep(a, [(4, 1, 1), (4, 1, 4), (16, 4, 1), (16, 4, 4),
                                   (16, 16, 2)]).items():
        # A is re-broadcast once per batch in total across the grid
        expected_a, measured_a = cfg[2] * a.nnz * BYTES_PER_NONZERO, agg["A-Broadcast"]["nbytes"]
        assert expected_a <= measured_a <= expected_a * 1.4, cfg
        # B's volume is batch-independent
        expected_b, measured_b = a.nnz * BYTES_PER_NONZERO, agg["B-Broadcast"]["nbytes"]
        assert expected_b <= measured_b <= expected_b * 2.2
        rows.append(["/".join(map(str, cfg)), measured_a, expected_a, measured_b, expected_b])
    print_series("Table II validation: metered vs closed-form broadcast volumes (bytes)", [
        "p/l/b", "A-Bcast meas", "A-Bcast model", "B-Bcast meas", "B-Bcast model"], rows)
    # the analytic rows at paper scale
    rows = []
    for l in (1, 4, 16):
        c = comm_complexity(nprocs=4096, layers=l, batches=8, nnz_a=10**9, nnz_b=10**9,
                            flops=10**11)
        rows.append([l, c["A-Broadcast"]["bytes"], c["B-Broadcast"]["bytes"],
                     c["AllToAll-Fiber"]["bytes"], c["A-Broadcast"]["latency_hops"]])
    print_series("Table II closed forms at p=4096, b=8",
                 ["l", "A-Bcast bytes", "B-Bcast bytes", "AllToAll bytes", "A lat hops"], rows)
    # bandwidth of the broadcasts falls like 1/sqrt(l)
    assert rows[1][1] == pytest.approx(rows[0][1] / 2)
    assert rows[2][1] == pytest.approx(rows[0][1] / 4)
    # total A-Bcast latency hops fall with l too (fewer, smaller comms)
    assert rows[2][4] < rows[0][4]
    a = random_sparse(48, 48, nnz=700, seed=2)
    for (nprocs, layers, batches), agg in step_sweep(a, [(16, 4, 1), (16, 4, 3)]).items():
        # one alltoall per fiber per batch; p/l fibers
        assert agg["AllToAll-Fiber"]["messages"] == batches * (nprocs // layers)
        # latency hops per alltoall = l - 1
        assert agg["AllToAll-Fiber"]["latency_hops"] == \
            batches * (nprocs // layers) * (layers - 1)

@claim("table3", "Table III", "Local-Multiply work is flops/p whatever l and b; "
       "Merge-Layer shrinks and Merge-Fiber appears with l")
def _table3():
    rows = [[l, *map(comp_complexity(nprocs=4096, layers=l, batches=8, flops=10**12).get,
                     COMP_STEPS)] for l in (1, 4, 16)]
    print_series("Table III closed forms at p=4096, b=8 (operations per process)",
                 ["l", "Local-Multiply", "Merge-Layer", "Merge-Fiber"], rows)
    assert rows[0][1] == rows[2][1]                  # multiply invariant in l
    assert rows[2][2] < rows[0][2]                   # layer merge shrinks
    assert rows[0][3] == 0 and rows[2][3] > 0        # fiber merge appears
    # measured Local-Multiply time stays ~flat as b grows (Table VI row 1)
    a, _ = load_dataset("eukarya").operands(seed=0)
    times = {b: metered(a, nprocs=4, layers=1, batches=b)[1].step_times.get("Local-Multiply")
             for b in (1, 4)}
    print_series("measured Local-Multiply seconds vs b (p=4, l=1)", ["b", "seconds"],
                 list(map(list, times.items())))
    # flat within noise: allow 60% (simulator timing under the GIL is coarse)
    assert times[4] < times[1] * 1.6 + 0.05

    # summed over all ranks, stages and batches, the expansion work equals
    # exactly the sequential flops: the invariant behind the multiply row
    def distributed_flops(nprocs, layers):
        grid, total = ProcGrid3D(nprocs, layers), 0
        for k in range(layers):
            for i in range(grid.pr):
                for j in range(grid.pc):
                    # stage s multiplies A tile (i, s, k) by B tile (s, j, k)
                    for s in range(grid.stages):
                        total += symbolic_flops(extract_a_tile(a, grid, grid.rank_of(i, s, k)),
                                                extract_b_tile(a, grid, grid.rank_of(s, j, k)))
        return total

    for nprocs, layers in [(4, 1), (8, 2), (16, 4)]:
        assert distributed_flops(nprocs, layers) == symbolic_flops(a, a), (nprocs, layers)

@claim("table4", "Table IV", "the machine presets are Cori's partitions: 68 / 32 cores "
       "and 112 / 128 GB per node, 9 668 KNL nodes ≈ 1.09 PB")
def _table4():
    gb = 1024**3
    # (cores/node, threads/core, mem/node GB, total nodes, threads/process)
    paper = {"cori-knl": (68, 4, 112, 9668, 16), "cori-haswell": (32, 2, 128, 2388, 6)}
    rows = []
    for m in (CORI_KNL, CORI_HASWELL):
        row = paper[m.name]
        rows.append([m.name, f"{m.cores_per_node} ({row[0]})", f"{m.threads_per_core} ({row[1]})",
                     f"{m.mem_per_node // gb} ({row[2]})", f"{m.threads_per_process} ({row[4]})"])
        assert m.cores_per_node == row[0]
        assert m.threads_per_core == row[1]
        assert m.mem_per_node == row[2] * gb
        assert m.threads_per_process == row[4]
    print_series("Table IV: machine presets (ours (paper))",
                 ["machine", "cores/node", "ht/core", "mem/node GB", "thr/proc"], rows)
    # the paper's aggregate-memory quote: 9,668 KNL nodes ~ 1.09 PB
    assert paper["cori-knl"][3] * CORI_KNL.mem_per_node == pytest.approx(1.09e15, rel=0.07)
    # Fig. 13 relative speeds are encoded in the presets
    assert CORI_HASWELL.sparse_rate / CORI_KNL.sparse_rate == pytest.approx(2.1)
    assert CORI_KNL.beta / CORI_HASWELL.beta == pytest.approx(1.4)
    # the hyperthreaded preset keeps the same node geometry
    assert CORI_KNL_HT.cores_per_node == CORI_KNL.cores_per_node
    # the MPI+OpenMP mapping: 16 threads/process on KNL, 6 on Haswell,
    # one thread per core unless hyperthreading
    assert CORI_KNL.procs_for_cores(65536) == 4096
    assert CORI_KNL.procs_for_cores(65536, hyperthreads=True) == 16384
    assert CORI_HASWELL.procs_for_cores(8192) == 8192 // 6

@claim("table5", "Table V", "each stand-in keeps its regime: the squarings expand and "
       "compress (cf > 1.5), Rice-kmers stays near 1× expansion, Metaclust20m > 20×")
def _table5():
    rows, achieved = [], {}
    for name, spec in DATASETS.items():
        achieved[name] = stats = spec.achieved_stats(seed=0)
        rows.append([name, spec.operation, f"{spec.paper.nnz_a:.1e}", stats["nnz_a"],
                     f"{spec.paper.expansion:.1f}", round(stats["expansion"], 1),
                     f"{spec.paper.cf:.1f}", round(stats["cf"], 1)])
    print_series("Table V: paper vs scaled stand-in statistics",
                 ["matrix", "op", "nnzA paper", "nnzA ours", "exp paper", "exp ours",
                  "cf paper", "cf ours"], rows)
    squarings = ["eukarya", "isolates_small", "friendster", "isolates", "metaclust50"]
    # squaring datasets must expand and compress like the paper's
    for name in squarings:
        assert achieved[name]["expansion"] > 1.0, name
        assert achieved[name]["cf"] > 1.5, name
    # friendster-like social squaring has the largest expansion of the AA set
    assert max(squarings, key=lambda n: achieved[n]["expansion"]) == "friendster"
    # rice: output comparable to input (no batching regime)
    assert achieved["rice_kmers"]["expansion"] < 8.0
    # metaclust20m: extreme expansion (batching essential)
    assert achieved["metaclust20m"]["expansion"] > 20.0
    # isolates is the flop-heaviest protein dataset, as in the paper
    assert achieved["isolates"]["flops"] > achieved["eukarya"]["flops"]

@claim("table6", "Table VI", "b up: A-Bcast UP, the rest flat; l up: A- and B-Bcast "
       "DOWN, AllToAll-Fiber and Merge-Fiber UP, Local-Multiply flat")
def _table6():
    # transmitted bytes: summed payloads are l-invariant, avoidance cuts the fan-out
    a = random_sparse(64, 64, nnz=1200, seed=3)
    base, more_b, more_l = step_sweep(a, [(64, 4, 2), (64, 4, 8), (64, 16, 2)]).values()
    rows = [[s, arrow(base[s]["total_bytes"], more_b[s]["total_bytes"]),
             arrow(base[s]["total_bytes"], more_l[s]["total_bytes"])] for s in WIRE_STEPS]
    print_series("Table VI (measured volumes): arrows vs (b up) and (l up) at p=64",
                 ["step", "b: 2->8", "l: 4->16"], rows)
    arrows = {r[0]: (r[1], r[2]) for r in rows}
    assert arrows["A-Broadcast"] == ("UP", "DOWN")
    assert arrows["B-Broadcast"] == ("flat", "DOWN")
    assert arrows["AllToAll-Fiber"] == ("flat", "UP")
    stats = dict(nnz_a=10**9, nnz_b=10**9, nnz_c=10**10, flops=10**12)
    base, more_b, more_l = (predict_steps(CORI_KNL, nprocs=4096, layers=l, batches=b, **stats)
                            for l, b in ((4, 4), (4, 32), (16, 4)))
    rows = [[s, arrow(base.get(s), more_b.get(s)), arrow(base.get(s), more_l.get(s))]
            for s in ("A-Broadcast", "B-Broadcast", "Local-Multiply", "Merge-Layer",
                      "Merge-Fiber", "AllToAll-Fiber")]
    print_series("Table VI (alpha-beta model) at p=4096", ["step", "b: 4->32", "l: 4->16"],
                 rows)
    arrows = {r[0]: (r[1], r[2]) for r in rows}
    # the paper's arrow table, verbatim
    assert arrows["A-Broadcast"] == ("UP", "DOWN")
    assert arrows["B-Broadcast"][1] == "DOWN"
    assert arrows["Local-Multiply"] == ("flat", "flat")
    assert arrows["Merge-Fiber"] == ("flat", "UP")
    assert arrows["AllToAll-Fiber"][1] == "UP"

@claim("table7", "Table VII", "the sort-free hash merge beats the prior heap merge at "
       "every k (paper: ~10× on Cori), and so does the run path's grouped merge")
def _table7():
    a, _ = load_dataset("eukarya").operands(seed=0)
    csc = sp.csc_matrix((a.values, a.rowidx, a.indptr), shape=a.shape)
    loops, speedups = [], {}
    run_path = [["scipy A @ A", "-", best_of(3, lambda: csc @ csc)[0], "-"]]
    for stages in (2, 4):
        # Local-Multiply: heap (previous) vs hash (now); then the heap merge
        # on sorted pieces vs the hash merge on unsorted ones
        t_heap_mul, partial_heap = best_of(3, stage_partials, a, stages, spgemm_heap)
        t_hash_mul, partial_hash = best_of(3, stage_partials, a, stages, spgemm_hash)
        t_heap_merge, merged_heap = best_of(3, merge_heap, partial_heap)
        t_hash_merge, merged_hash = best_of(3, merge_hash, partial_hash)
        assert merged_heap.allclose(merged_hash)
        speedups[stages] = t_heap_merge / t_hash_merge
        loops.append([stages, t_heap_mul, t_hash_mul, t_heap_merge, t_hash_merge,
                      speedups[stages]])
        # the run path on the same partials, every ESC chunk on one grouping tier
        # (set as the tests' --accumulate-tier sets it); SciPy is printed, not compared
        run_path.append(["heap (prev)", stages, "-", t_heap_merge])
        merged = {}
        for tier in ("sort", "table"):
            cells = 1 << 62 if tier == "table" else -1
            with mock.patch.multiple(esc, _TABLE_SUM=cells, _TABLE_SEEN=cells):
                t_mul, partials = best_of(3, stage_partials, a, stages, spgemm_esc)
                t_merge, merged[tier] = best_of(3, merge_grouped, partials)
            run_path.append([f"esc {tier}", stages, t_mul, t_merge])
            assert t_merge < t_heap_merge
        assert np.array_equal(merged["sort"].values, merged["table"].values)
    print_series("Table VII: previous (heap) vs now (hash) local kernels, seconds",
                 ["k-way", "mul prev", "mul now", "merge prev", "merge now", "merge speedup"],
                 loops)
    print_series("Table VII: the run path beside the loop tiers, seconds",
                 ["kernel", "k-way", "multiply", "merge"], run_path)
    # the headline: the CPython constant differs but the ordering must hold
    assert all(s > 1.0 for s in speedups.values())
    # more layers -> more pieces to merge -> the hash merge still wins
    partials = stage_partials(a, 8, spgemm_hash)
    t_heap, _ = best_of(3, merge_heap, [p.sort_indices() for p in partials])
    t_hash, _ = best_of(3, merge_hash, partials)
    print_series("8-way merge", ["kernel", "seconds"],
                 [["heap (prev)", t_heap], ["hash (now)", t_hash]])
    assert t_hash < t_heap

@claim("fig1_2", "Figs. 1-2", "on the 2×2×2 grid A tiles are l× taller than wide, B "
       "tiles l× wider, b = 2 interleaves layer blocks; a batch sends 8 A- and 8 B-bcasts")
def _fig1_2():
    n, grid = 16, ProcGrid3D(8, layers=2)
    a = random_sparse(n, n, nnz=80, seed=401)
    rows = []
    for rank in range(8):
        i, j, k = grid.coords(rank)
        ar, br = a_tile_range(grid, n, n, i, j, k), b_tile_range(grid, n, n, i, j, k)
        rows.append([rank, f"({i},{j},{k})", f"rows {ar[0]}:{ar[1]} cols {ar[2]}:{ar[3]}",
                     f"rows {br[0]}:{br[1]} cols {br[2]}:{br[3]}"])
    print_series("Fig. 1: tile geometry on the 2x2x2 grid (n=16)",
                 ["rank", "(i,j,k)", "A tile", "B tile"], rows)
    # Fig. 1(d,e): A tiles are tall and skinny — nrows = l * ncols
    for tile in (extract_a_tile(a, grid, rank) for rank in range(8)):
        assert tile.nrows == 2 * tile.ncols
    # Fig. 1(g,h): B tiles are short and fat — ncols = l * nrows
    for tile in (extract_b_tile(a, grid, rank) for rank in range(8)):
        assert tile.ncols == 2 * tile.nrows
    # Fig. 1(i): with b=2 each batch owns one block per layer
    blocks = batch_layer_blocks(8, 2, 2, 0)
    assert len(blocks) == 2
    assert blocks == [(0, 2), (4, 6)]   # interleaved with batch 1's blocks
    # Fig. 2: one batch through the seven steps, on the Fig. 1 grid
    a = random_sparse(n, n, nnz=80, seed=402)
    tracker, result = metered(a, nprocs=8, layers=2, batches=2)
    assert result.matrix.allclose(multiply(a, a))
    print_series("Fig. 2: communication trace of the 2x2x2, b=2 execution",
                 ["step", "collectives", "bytes moved"],
                 [[s, tracker.message_count(s), tracker.total_bytes(s)] for s in WIRE_STEPS])
    # the figure's step inventory, in communication terms
    assert set(WIRE_STEPS) <= {e.step for e in tracker.events}
    # per batch 2 stages x 2 rows x 2 layers = 8 bcasts of A and of B, 4 fiber alltoalls
    assert tracker.message_count("A-Broadcast") == 16
    assert tracker.message_count("B-Broadcast") == 16
    assert tracker.message_count("AllToAll-Fiber") == 8
    # computation steps present in the measured breakdown
    for step in COMP_STEPS:
        assert step in result.step_times.seconds

@claim("fig3", "Fig. 3", "HipMCL's dense early iterations need b > 1 until pruning "
       "brings b to 1; unbatched, the expansion needs > 2× its memory share (paper: cannot run)")
def _fig3():
    network = protein_similarity(300, intra_density=0.4, noise_degree=1.0, seed=9)
    budget = 14 * network.nnz * BYTES_PER_NONZERO
    results = {layers: markov_cluster(network, nprocs=4, layers=layers, memory_budget=budget,
                                      max_iterations=10, keep_per_column=24)
               for layers in (1, 4)}
    rows = []
    for it in range(max(len(r.iterations) for r in results.values())):
        row = [it]
        for its in (results[1].iterations, results[4].iterations):
            row += [its[it].batches, its[it].step_times.total()] if it < len(its) else ["-"] * 2
        rows.append(row)
    print_series("Fig. 3: HipMCL first iterations (p=4, tight memory)",
                 ["iter", "b (l=1)", "time (l=1)", "b (l=4)", "time (l=4)"], rows)
    # the dense early/middle iterations need batches; pruning sparsifies until b = 1
    series_b = [it.batches for it in results[1].iterations]
    assert max(series_b) > 1
    assert series_b[-1] == 1
    assert series_b.index(max(series_b)) < len(series_b) - 1
    # both layer settings produce the same clustering
    assert same_clusters(results[1].labels, results[4].labels)
    # b=1 on a protein-similarity expansion blows far past the batched run's share
    network, _ = load_dataset("eukarya").operands(seed=0)
    budget = 6 * network.nnz * BYTES_PER_NONZERO
    batched = batched_summa3d(network, network, nprocs=4, memory_budget=budget, keep_output=False)
    assert batched.batches > 1
    unbatched = batched_summa3d(network, network, nprocs=4, batches=1, keep_output=False)
    per_proc = budget / 4
    print_series("Fig. 3 feasibility: per-process memory high water vs budget share",
                 ["mode", "batches", "high water (B)", "budget share (B)"],
                 [["batched", batched.batches, batched.max_local_bytes, int(per_proc)],
                  ["unbatched", 1, unbatched.max_local_bytes, int(per_proc)]])
    assert unbatched.max_local_bytes > batched.max_local_bytes * 1.4
    assert unbatched.max_local_bytes > per_proc * 2

@claim("fig4", "Fig. 4", "A-Bcast grows ~b and shrinks with l, B-Bcast is b-invariant, "
       "AllToAll grows with l; at 65 536 cores and b = 64, 16 layers cut A-Bcast > 2×")
def _fig4():
    a, _ = load_dataset("friendster").operands(seed=0)
    configs = [(1, 1), (1, 4), (4, 1), (4, 4), (16, 4)]
    sweep = step_sweep(a, [(16, l, b) for l, b in configs])
    vol = {(l, b): {s: v["total_bytes"] for s, v in sweep[16, l, b].items()} for l, b in configs}
    print_series("Fig. 4 (measured volumes, p=16, Friendster stand-in)", ["config", *WIRE_STEPS],
                 [[f"l={l}, b={b}"] + [vol[l, b][s] for s in WIRE_STEPS] for l, b in configs])
    # A-Broadcast grows ~linearly with b at fixed l ...
    assert vol[1, 4]["A-Broadcast"] > 3 * vol[1, 1]["A-Broadcast"]
    assert vol[4, 4]["A-Broadcast"] < vol[1, 4]["A-Broadcast"]  # ... and shrinks with l at fixed b
    assert vol[1, 4]["B-Broadcast"] < 1.35 * vol[1, 1]["B-Broadcast"]  # B-Broadcast is b-invariant
    assert vol[16, 4]["AllToAll-Fiber"] > vol[4, 4]["AllToAll-Fiber"]  # fiber exchange grows with l
    table = {(l, b): predict("friendster", nprocs=4096, layers=l, batches=b)
             for l in (1, 4, 16) for b in (1, 16, 64)}
    shown = ("A-Broadcast", "B-Broadcast", "Local-Multiply", "AllToAll-Fiber", "Merge-Fiber")
    print_series("Fig. 4 (modelled, Friendster @ 65,536 cores)",
                 ["config", "A-Bcast", "B-Bcast", "LocalMul", "AllToAll", "Merge-F", "total"],
                 [[f"l={l}, b={b}", *map(t.get, shown), t.total()] for (l, b), t in table.items()])
    # with b=64, going 1 -> 16 layers cuts A-Broadcast
    assert table[16, 64].get("A-Broadcast") < table[1, 64].get("A-Broadcast") / 2
    # Local-Multiply time does not change with b
    assert table[4, 64].get("Local-Multiply") == pytest.approx(table[4, 1].get("Local-Multiply"))

@claim("fig5", "Fig. 5", "A-Broadcast falls as 1/√l at fixed b (paper: the dashed line "
       "halves per 4× l); measured within 15 % of the finite-p law")
def _fig5():
    a, _ = load_dataset("friendster").operands(seed=0)
    nprocs = 64
    observed = {l: steps["A-Broadcast"]["total_bytes"] for (_p, l, _b), steps in
                step_sweep(a, [(nprocs, l, 4) for l in (1, 4, 16)]).items()}
    # asymptotically ~ 1/sqrt(l); at finite p a broadcast reaches sqrt(p/l) - 1 receivers
    exact = {l: observed[1] * (math.sqrt(nprocs / l) - 1) / (math.sqrt(nprocs) - 1)
             for l in observed}
    print_series("Fig. 5: A-Broadcast transmitted volume vs l (p=64, b=4)",
                 ["l", "observed bytes", "1/sqrt(l) dashed line", "finite-p law"],
                 [[l, v, round(observed[1] / math.sqrt(l)), round(exact[l])]
                  for l, v in observed.items()])
    # the exact finite-p law holds tightly (indptr metadata gives slack)
    for layers in (4, 16):
        assert observed[layers] == pytest.approx(exact[layers], rel=0.15)
    # and the figure's visual claim: strictly decreasing in l
    assert observed[16] < observed[4] < observed[1]
    times = {l: comm_seconds("A-Broadcast", nprocs=4096, layers=l, batches=16, nnz_a=36 * 10**8,
                             nnz_b=36 * 10**8, flops=14 * 10**11) for l in (1, 4, 16, 64)}
    print_series("Fig. 5 (modelled A-Broadcast seconds @ 65,536 cores, b=16)",
                 ["l", "modelled", "1/sqrt(l) line"],
                 [[l, t, times[1] / math.sqrt(l)] for l, t in times.items()])
    for layers in (4, 16, 64):
        assert times[layers] == pytest.approx(times[1] / math.sqrt(layers), rel=0.25)

@claim("fig6", "Fig. 6", "16× cores speed Friendster up 14× and Isolates-small 17.3× "
       "(within 2×) as b falls; A-Bcast shrinks superlinearly (paper: 45.4×)")
def _fig6():
    for name, paper in (("friendster", 14.0), ("isolates_small", 17.3)):
        series = scaling(name, BASE_CORES, "Fig. 6")
        first, last = series[0], series[-1]  # Isolates-small's are read on below
        speedup = first.total / last.total
        print(f"16x cores -> {speedup:.1f}x speedup (paper: {paper}x)")
        # the shape band: strong scaling holds, within a factor 2 of the paper
        assert paper / 2 <= speedup <= paper * 2
        assert first.batches > last.batches  # b falls as aggregate memory grows
        # computation scales near-linearly: Local-Multiply drops ~16x
        assert first.times.get("Local-Multiply") / last.times.get("Local-Multiply") == \
            pytest.approx(16, rel=0.1)
    # A-Broadcast can shrink superlinearly: b falls on top of the 1/sqrt(pl) bandwidth
    reduction = first.times.get("A-Broadcast") / last.times.get("A-Broadcast")
    print(f"A-Broadcast reduction over 16x cores: {reduction:.1f}x "
          f"(paper: 45.4x; superlinear means > 16x)")
    assert reduction > 16

@claim("fig7", "Fig. 7", "16× cores speed Isolates up 13× and Metaclust50 6.3× (within "
       "2.5×); Metaclust50 has the higher communication share (paper: 48 % vs 36 %)")
def _fig7():
    paper = {"isolates": 13.0, "metaclust50": 6.3}
    speedups, fracs = {}, {}
    for name in paper:
        series = scaling(name, GIANT_CORES, "Fig. 7")
        speedups[name] = series[0].total / series[-1].total
        print(f"{name}: 16x cores -> {speedups[name]:.1f}x (paper {paper[name]}x)")
        # b falls with memory, less than linearly ('not straightforward', says the paper)
        bs = [pt.batches for pt in series]
        assert bs == sorted(bs, reverse=True)
        assert bs[0] > 1
        comm, comp = comm_comp(series[-1].times)
        fracs[name] = comm / (comm + comp)
        print(f"{name} comm fraction @ 262K cores: {fracs[name]:.2f} "
              f"(paper: {'36%' if name == 'isolates' else '48%'})")
    # metaclust50's band is asymmetric: latency effects at 262K cores depress its
    # measured 6.3x beyond a two-term alpha-beta model (EXPERIMENTS.md)
    assert paper["isolates"] / 2.5 <= speedups["isolates"] <= paper["isolates"] * 2.5
    assert paper["metaclust50"] / 2.5 <= speedups["metaclust50"] <= paper["metaclust50"] * 3.5
    # the paper's mechanism: communication takes a larger share of its runtime
    assert fracs["metaclust50"] > fracs["isolates"]
    # the driver: Metaclust50 carries ~1.8x more input bytes per flop
    ratios = {n: paper_stats(n)["nnz_a"] / paper_stats(n)["flops"] for n in paper}
    print(", ".join(f"{n}: nnz(A)/flops = {r:.2e}" for n, r in ratios.items()))
    assert ratios["metaclust50"] > 1.5 * ratios["isolates"]

@claim("fig8", "Fig. 8", "the symbolic step's communication falls > 2× from 1 to 16 "
       "layers (paper: > 4×) while its computation is l-invariant")
def _fig8():
    a, _ = load_dataset("isolates_small").operands(seed=0)
    volumes, batch_counts = {}, {}
    for layers in (1, 4, 16):
        tracker, r = metered(a, fn=symbolic3d, nprocs=64, layers=layers, memory_budget=10**9)
        volumes[layers], batch_counts[layers] = tracker.total_bytes("Symbolic"), r.batches
    print_series("Fig. 8: symbolic-step transmitted bytes vs layers (p=64)",
                 ["l", "symbolic comm bytes", "computed b"],
                 [[l, v, batch_counts[l]] for l, v in volumes.items()])
    # communication falls substantially with layers
    assert volumes[16] < volumes[1] / 2
    assert volumes[4] < volumes[1]
    stats = paper_stats("isolates_small")
    split = {l: (comm_seconds("Symbolic", nprocs=4096, layers=l, batches=1, nnz_a=stats["nnz_a"],
                              nnz_b=stats["nnz_b"], flops=stats["flops"]),
                 stats["flops"] / 4096 / CORI_KNL.symbolic_rate) for l in (1, 4, 16)}
    print_series("Fig. 8 (modelled, Isolates-small @ 65,536 cores)",
                 ["l", "symbolic comm (s)", "symbolic comp (s)"],
                 [[l, *cc] for l, cc in split.items()])
    # communication shrinks with l; computation is l-invariant
    assert split[16][0] < split[1][0] / 2
    assert split[16][1] == split[1][1]

@claim("fig9", "Fig. 9", "parallel efficiency stays near 1 (> 0.5) for all four matrices; "
       "at a fixed b it drops below 1 for both giants (paper: Metaclust50 0.4)")
def _fig9():
    ranges = {"friendster": BASE_CORES, "isolates_small": BASE_CORES,
              "isolates": GIANT_CORES, "metaclust50": GIANT_CORES}
    table = {name: parallel_efficiency(scaling(name, cores)) for name, cores in ranges.items()}
    print_series("Fig. 9: parallel efficiency at 1x / 4x / 16x the base cores (modelled, l=16)",
                 ["matrix", "max cores", "eff@1x", "eff@4x", "eff@16x"],
                 [[name, ranges[name][-1], *effs] for name, effs in table.items()])
    # every series starts at 1 by definition
    for effs in table.values():
        assert effs[0] == pytest.approx(1.0)
    # efficiency remains close to 1 (superlinear points above 1 come from
    # the falling batch count, which the paper observes too)
    for name, effs in table.items():
        assert effs[-1] > 0.5, name
    # at a FIXED b the superlinear b-effect goes and communication pulls both giants
    # below 1; Metaclust50 as the laggard rests on latency effects the two-term
    # model lacks (EXPERIMENTS.md), fig7 asserts the mechanism it does carry
    fixed = {}
    for name in ("isolates", "metaclust50"):
        p1, p2 = (CORI_KNL.procs_for_cores(c) for c in (16384, 262144))
        t1, t2 = (predict(name, nprocs=p, layers=16, batches=4).total() for p in (p1, p2))
        fixed[name] = (p1 / p2) * (t1 / t2)
        print(f"{name}: fixed-b efficiency at 16x cores = {fixed[name]:.3f}")
    assert all(0.4 < e < 1.0 for e in fixed.values())

@claim("fig10", "Fig. 10", "for Metaclust20m A·Aᵀ 16 layers need ≥ the batches of 1 "
       "(paper: 12 vs 6), yet win at high concurrency (paper: ~2×), more as cores grow")
def _fig10():
    a, at = load_dataset("metaclust20m").operands(seed=0)
    budget = 110 * a.nnz * 24
    bs = {l: symbolic3d(a, at, nprocs=16, layers=l, memory_budget=budget).batches
          for l in (1, 16)}
    print_series("Fig. 10 mechanism (simulated, p=16): symbolic b vs layers",
                 ["layers", "batches"], list(map(list, bs.items())))
    # the multi-layer grid needs at least as many batches: layers merge less
    assert bs[16] >= bs[1]
    results = {}
    for cores in (4096, 65536):
        nprocs = CORI_KNL.procs_for_cores(cores)
        for layers in (1, 16):
            b = estimate_batches(memory_budget=CORI_KNL.aggregate_memory(cores), nprocs=nprocs,
                                 layers=layers, **paper_stats("metaclust20m"))
            results[cores, layers] = (
                b, predict("metaclust20m", nprocs=nprocs, layers=layers, batches=b).total())
    print_series("Fig. 10 (modelled, Metaclust20m AAT on Cori-KNL)",
                 ["cores", "l", "b", "total (s)"],
                 [[c, l, b, t] for (c, l), (b, t) in results.items()])
    # low concurrency: 16 layers needs more batches, gains are small
    (b_1_low, t_1_low), (b_16_low, t_16_low) = results[4096, 1], results[4096, 16]
    assert b_16_low >= b_1_low
    # high concurrency: 16 layers clearly faster
    t_1_high, t_16_high = results[65536, 1][1], results[65536, 16][1]
    assert t_16_high < t_1_high
    # and the advantage of 16 layers grows with concurrency
    assert (t_1_high / t_16_high) > (t_1_low / t_16_low)
    # and the batched A·Aᵀ is the product
    assert batched_summa3d(a, at, nprocs=16, layers=4, batches=3).matrix.allclose(
        multiply(a, at))

@claim("fig11", "Fig. 11", "Rice-kmers A·Aᵀ runs at b = 1 and is comm-bound, yet 16 "
       "layers speed it up > 2× (paper: ~6× at 65 536 cores)")
def _fig11():
    a, at = load_dataset("rice_kmers").operands(seed=0)
    # one node's worth of memory is already plenty
    r = batched_summa3d(a, at, nprocs=4, layers=1, memory_budget=CORI_KNL.mem_per_node)
    assert r.batches == 1
    assert r.matrix.allclose(multiply(a, at))
    print(f"rice stand-in: nnz(A) = {a.nnz}, nnz(AAT) = {r.matrix.nnz} "
          f"(expansion {r.matrix.nnz / a.nnz:.2f}) -> b = 1")
    t = modelled("Fig. 11 (modelled, Rice-kmers AAT @ 65,536 cores, b=1)", "rice_kmers",
                 {f"l={l}": dict(nprocs=4096, layers=l, batches=1) for l in (1, 4, 16)})
    # comm-bound at one layer (Rice-kmers: ~2 nnz per column)
    assert comm_comp(t["l=1"])[0] / t["l=1"].total() > 0.5
    speedup = t["l=1"].total() / t["l=16"].total()
    print(f"l=16 speedup over l=1: {speedup:.1f}x (paper: ~6x)")
    assert speedup > 2.0
    # the same effect measured in bytes on the simulator
    volumes = {l: steps["A-Broadcast"]["total_bytes"] + steps["B-Broadcast"]["total_bytes"]
               for (_p, l, _b), steps in step_sweep(a, [(16, 1, 1), (16, 4, 1)], b=at).items()}
    print_series("Fig. 11 (simulated, p=16): broadcast volume vs layers",
                 ["l", "broadcast bytes"], list(map(list, volumes.items())))
    assert volumes[4] < volumes[1]

@claim("fig12", "Fig. 12", "hyperthreading on 4 096 nodes speeds computation and slows "
       "communication: a win where computation dominates, a loss when comm-bound")
def _fig12():
    def ht(cores, **kw):  # the same cores without and with 4 hardware threads each
        return {"HT=No": dict(nprocs=CORI_KNL.procs_for_cores(cores), **kw),
                "HT=Yes": dict(machine=CORI_KNL_HT, **kw,
                               nprocs=CORI_KNL_HT.procs_for_cores(cores, hyperthreads=True))}

    results = {l: modelled(f"Fig. 12 (modelled, Metaclust50 @ 4096 nodes, l={l})", "metaclust50",
                           ht(262144, layers=l, batches=4)) for l in (16, 64)}
    for layers, t in results.items():
        (comm_p, comp_p), (comm_h, comp_h) = comm_comp(t["HT=No"]), comm_comp(t["HT=Yes"])
        # HT reduces computation time but increases communication time
        assert comp_h < comp_p, layers
        assert comm_h > comm_p, layers
    # where computation dominates (l=64 in the paper), HT wins overall
    assert results[64]["HT=Yes"].total() < results[64]["HT=No"].total()
    # the paper's caveat: a communication-bound SpGEMM gains nothing
    t = modelled("Fig. 12 caveat (modelled, comm-bound Rice-kmers @ 65,536 cores)",
                 "rice_kmers", ht(65536, layers=1, batches=1))
    assert t["HT=Yes"].total() > t["HT=No"].total()

@claim("fig13", "Fig. 13", "on the same grid Haswell computes 2.1× and communicates 1.4× "
       "faster than KNL, so communication is a larger share on the faster CPU")
def _fig13():
    # 256 nodes, one grid on both; the pure comm steps (Symbolic mixes in computation)
    t = modelled("Fig. 13 (modelled, Isolates-small @ 256 nodes, l=16, b=23)", "isolates_small",
                 {name: dict(machine=m, nprocs=1024, layers=16, batches=23)
                  for name, m in (("KNL", CORI_KNL), ("Haswell", CORI_HASWELL))},
                 comm=WIRE_STEPS)
    split = {name: comm_comp(times, WIRE_STEPS) for name, times in t.items()}
    frac = {name: comm / (comm + comp) for name, (comm, comp) in split.items()}
    comp_speedup = split["KNL"][1] / split["Haswell"][1]
    comm_speedup = split["KNL"][0] / split["Haswell"][0]
    print(f"comm fraction: KNL {frac['KNL']:.3f}, Haswell {frac['Haswell']:.3f}; "
          f"computation speedup: {comp_speedup:.2f}x (paper 2.1x); "
          f"communication speedup: {comm_speedup:.2f}x (paper 1.4x)")
    # the paper's arrowheads
    assert comp_speedup == pytest.approx(2.1, rel=0.05)
    assert comm_speedup == pytest.approx(1.4, rel=0.05)
    # the structural consequence: comm fraction grows on the faster CPU
    assert frac["Haswell"] > frac["KNL"]

@claim("fig14", "Fig. 14", "Eukarya on 16 nodes gains < 20 % from layers; on 256 nodes "
       "l = 4 wins and l = 16 adds nothing (AllToAll-Fiber becomes the bottleneck)")
def _fig14():
    t = modelled("Fig. 14 (modelled, Eukarya on Cori-KNL)", "eukarya",
                 {(nodes, l): dict(nprocs=4 * nodes, layers=l, batches=1)
                  for nodes in (16, 256) for l in (1, 4, 16)})
    # on 16 nodes communication is a small share, so layers barely matter
    t16 = {l: t[16, l].total() for l in (1, 4, 16)}
    assert abs(t16[4] - t16[1]) / t16[1] < 0.2
    # on 256 nodes l=4 helps ...
    t256 = {l: t[256, l].total() for l in (1, 4, 16)}
    assert t256[4] < t256[1]
    # ... but l=16 gives no real further improvement: fiber costs eat the savings
    assert t256[16] > t256[4] * 0.9
    # the layer sweep executed for real at small scale: the identical product
    a, _ = load_dataset("eukarya").operands(seed=0)
    expected = multiply(a, a)
    for nprocs, layers in ((16, 1), (16, 4), (16, 16)):
        r = batched_summa3d(a, a, nprocs=nprocs, layers=layers, batches=1)
        assert r.matrix.allclose(expected), (nprocs, layers)

@claim("fig15", "Fig. 15", "the sort-free kernels beat the prior SUMMA3D's heap kernels "
       "on computation (paper: > 8×; here > 1.2× live, > 2× modelled)")
def _fig15():
    a, _ = load_dataset("eukarya").operands(seed=0)
    results = {}
    for label, tier in (("prior SUMMA3D (sorted-heap)", "sorted-heap"),
                        ("this paper (unsorted-hash)", "unsorted-hash")):
        runs = []
        for _ in range(2):  # best-of-2 by computation time, to tame scheduler noise
            t0 = time.perf_counter()
            r = batched_summa3d(a, a, nprocs=16, layers=4, batches=1, kernel=f"spgemm:{tier}")
            runs.append((time.perf_counter() - t0, comm_comp(r.step_times)[1], r))
        results[label] = min(runs, key=lambda run: run[1])
    print_series("Fig. 15: Eukarya^2, p=16, l=4, b=1 (live simulator)",
                 ["implementation", "computation (s)", "wall (s)"],
                 [[label, comp, wall] for label, (wall, comp, _r) in results.items()])
    (_w, prior_comp, prior), (_w, new_comp, new) = results.values()
    speedup = prior_comp / new_comp
    print(f"computation speedup: {speedup:.2f}x (paper: >8x; CPython's constants differ)")
    assert speedup > 1.2
    assert prior.matrix.allclose(new.matrix)  # and both produce the same matrix
    # through the model: Table III's heap factors vs the hash merge's linear cost
    t = modelled("Fig. 15 (modelled, Eukarya @ 256 nodes)", "eukarya",
                 {f"{k} merge": dict(nprocs=1024, layers=4, batches=1, merge_kernel=k)
                  for k in ("heap", "hash")})
    heap, hash_ = t["heap merge"], t["hash merge"]
    speedup = comm_comp(heap)[1] / comm_comp(hash_)[1]
    print(f"modelled computation speedup: {speedup:.1f}x (paper: >8x)")
    assert speedup > 2.0
    assert hash_.total() < heap.total()

@claim("eq2", "Eq. 2", "b falls as memory grows and must be > 1 on 256 nodes (paper: "
       "b = 125 for Isolates); the exact b lies within 2× of the lower and upper bounds")
def _eq2():
    # 256 / 1024 / 4096 KNL nodes: 0.029 / 0.115 / 0.459 PB (an infeasible one raises)
    budgets = [int(0.029e15), int(0.115e15), int(0.459e15)]
    bs = [estimate_batches(memory_budget=m, nprocs=16384, layers=16, **paper_stats("isolates"))
          for m in budgets]
    print_series("Eq. 2 at paper scale (Isolates @ 262K-core grid): b vs aggregate memory",
                 ["budget (PB)", "batches"], [[m / 1e15, b] for m, b in zip(budgets, bs)])
    assert all(b >= 1 for b in bs)
    assert bs == sorted(bs, reverse=True)
    # at 256 nodes the multiply MUST batch; with the full memory b collapses
    assert bs[0] >= 2
    assert bs[-1] < bs[0]
    # contribution 3: lower <= exact (symbolic) <= upper, up to Alg. 3's imbalance 2
    a, _ = load_dataset("eukarya").operands(seed=0)
    nnz_c, flops = symbolic_nnz(a, a), symbolic_flops(a, a)
    rows = []
    for mult in (5, 6, 8, 12):
        budget = mult * a.nnz * BYTES_PER_NONZERO
        lower = batches_lower_bound(nnz_c, a.nnz, a.nnz, budget)
        upper = batches_upper_bound(flops, a.nnz, a.nnz, budget)
        exact = symbolic3d(a, a, nprocs=4, memory_budget=budget).batches
        rows.append([mult, lower, exact, upper])
        assert lower / 2.0 <= exact <= upper * 2.0, mult
    print_series("Eq. 2 bounds vs exact symbolic b (Eukarya^2, p=4)",
                 ["budget (x nnz(A) x r)", "lower bound", "exact", "upper bound"], rows)

@claim("ablation_baselines", "ablation: algorithm families", "1D, Cannon, SUMMA2D and "
       "SUMMA3D agree; 1D volume grows ~p (> 3× for 4× p), 2D moves less and grows slower")
def _ablation_baselines():
    a, _ = load_dataset("eukarya").operands(seed=0)

    def volume(fn, **kw):
        tracker, result = metered(a, fn=fn, **kw)
        return tracker.total_bytes(), result.matrix

    runs = {"1D row": volume(spgemm_1d, nprocs=16), "Cannon": volume(cannon2d, nprocs=16),
            "SUMMA2D": volume(summa2d, nprocs=16),
            "SUMMA3D l=4": volume(summa3d, nprocs=16, layers=4)}
    print_series("algorithm families: transmitted bytes at p=16 (Eukarya^2)",
                 ["algorithm", "total bytes"], [[k, v] for k, (v, _m) in runs.items()])
    (vol_1d, m_1d), (_v, m_cn), (vol_2d, m_2d), (_v, m_3d) = runs.values()
    assert m_1d.allclose(m_2d) and m_cn.allclose(m_2d) and m_3d.allclose(m_2d)  # one product
    # the paper's taxonomy (Sec. II-C): 1D moves the most data; 2D improves on it
    assert vol_2d < vol_1d
    v1 = {4: volume(spgemm_1d, nprocs=4)[0], 16: vol_1d}
    v2 = {4: volume(summa2d, nprocs=4)[0], 16: vol_2d}
    print_series("1D allgather volume vs p", ["p", "bytes"], list(map(list, v1.items())))
    # 1D volume grows ~linearly with p: the non-scaling communication that motivates 2D
    assert v1[16] > 3 * v1[4]
    growth_1d, growth_2d = v1[16] / v1[4], v2[16] / v2[4]
    print(f"volume growth 4->16 procs: 1D {growth_1d:.2f}x, SUMMA2D {growth_2d:.2f}x")
    assert growth_2d < growth_1d

@claim("ablation_design_choices", "ablation: design choices", "block-cyclic batches "
       "balance fibers; incremental merge holds less; row batching wins when nnz(A) ≫ "
       "nnz(B); the ESC tier is fastest and hash beats heap")
def _ablation_design_choices():
    # batch scheme (Fig. 1(i)) on a column-skewed B: mass in the low columns
    rng, n = np.random.default_rng(111), 64
    rows = rng.integers(0, n, 900)
    cols = (rng.random(900) ** 3 * n).astype(np.int64)  # heavy head
    b = SparseMatrix.from_coo(n, n, rows, cols, np.ones(900))
    a = random_sparse(n, n, nnz=700, seed=112)
    stats = {}
    for scheme in ("block-cyclic", "block"):
        r = batched_summa3d(a, b, nprocs=4, layers=4, batches=4, batch_scheme=scheme)
        totals = np.array(r.info["fiber_piece_nnz"], dtype=float).sum(axis=0)
        stats[scheme] = totals.max() / max(totals.mean(), 1.0)
    print_series("Merge-Fiber load imbalance (max/mean over batches)",
                 ["scheme", "imbalance"], list(map(list, stats.items())))
    # the paper's rationale for Fig. 1(i): cyclic batching balances fibers
    assert stats["block-cyclic"] <= stats["block"]
    # merge once after all stages (Alg. 1 line 8) or incrementally (costlier [34])
    a, _ = load_dataset("eukarya").operands(seed=0)
    results = {}
    for policy in ("deferred", "incremental"):
        t0 = time.perf_counter()
        r = batched_summa3d(a, a, nprocs=16, batches=1, merge_policy=policy, keep_output=False)
        results[policy] = (r.max_local_bytes, r.step_times.get("Merge-Layer"),
                           time.perf_counter() - t0)
    print_series("merge policy: transient memory vs merge time (Eukarya^2, p=16)",
                 ["policy", "high water (B)", "Merge-Layer (s)", "wall (s)"],
                 [[p, *v] for p, v in results.items()])
    # the tradeoff the paper describes: incremental merging holds less
    assert results["incremental"][0] <= results["deferred"][0]
    # Sec. IV-B: column batching re-broadcasts the heavy A b times, row batching light B
    heavy = random_sparse(48, 48, nnz=1200, seed=113)
    light = random_sparse(48, 48, nnz=120, seed=114)
    volumes, reference = {}, None
    for label, fn in (("column", batched_summa3d), ("row", batched_summa3d_rows)):
        tracker, r = metered(heavy, light, fn=fn, nprocs=4, batches=4)
        volumes[label] = tracker.total_bytes()
        reference = r.matrix if reference is None else reference
        assert r.matrix.allclose(reference)
    print_series("batch axis with nnz(A) = 10 x nnz(B), b=4",
                 ["axis", "total transmitted bytes"], list(map(list, volumes.items())))
    assert volumes["row"] < volumes["column"]
    # five kernel tiers through the kernel seam agree; ESC, the default, is fastest
    times, reference = {}, None
    for suite in ("esc", "unsorted-hash", "sorted-heap", "hybrid", "spa"):
        times[suite], r = best_of(2, lambda: batched_summa3d(
            a, a, nprocs=4, layers=1, batches=1, kernel=f"spgemm:{suite}"))
        reference = r.matrix if reference is None else reference
        assert r.matrix.allclose(reference), suite
    print_series("kernel suites on Eukarya^2 (p=4, wall seconds, best of 2)", ["suite", "seconds"],
                 sorted(map(list, times.items()), key=lambda kv: kv[1]))
    assert times["esc"] == min(times.values())
    assert times["unsorted-hash"] < times["sorted-heap"]

@claim("ablation_imbalance", "ablation: load imbalance", "a skewed R-MAT needs ≥ the "
       "batches of an Erdős–Rényi matrix alike in size (Sec. IV-A); a random symmetric "
       "permutation rebalances it")
def _ablation_imbalance():
    grid = ProcGrid3D(16, 4)

    def batches(m):  # the same budget multiple for every matrix
        budget = 18 * m.nnz * BYTES_PER_NONZERO
        return symbolic3d(m, m, nprocs=16, layers=4, memory_budget=budget).batches

    skewed, uniform = rmat(9, edge_factor=10, seed=121), erdos_renyi(512, avg_degree=20, seed=122)
    b = {"rmat (skewed)": batches(skewed), "erdos-renyi": batches(uniform)}
    print_series("symbolic batch count vs degree skew (same budget multiple)",
                 ["matrix", "nnz", "degree skew", "tile imbalance", "b"],
                 [[name, m.nnz, degree_stats(m).skew_ratio, tile_imbalance(m, grid), b[name]]
                  for name, m in (("rmat (skewed)", skewed), ("erdos-renyi", uniform))])
    assert b["rmat (skewed)"] >= b["erdos-renyi"]
    assert tile_imbalance(skewed, grid) > tile_imbalance(uniform, grid)
    # the CombBLAS remedy lowers the per-process maxima Alg. 3 budgets for
    skewed = rmat(9, edge_factor=10, seed=123)
    permuted, _perm = random_symmetric_permutation(skewed, seed=124)
    before, after = tile_imbalance(skewed, grid), tile_imbalance(permuted, grid)
    b_before, b_after = batches(skewed), batches(permuted)
    print_series("random symmetric permutation", ["matrix", "tile imbalance", "symbolic b"],
                 [["skewed", before, b_before], ["permuted", after, b_after]])
    assert after < before
    assert b_after <= b_before

@claim("ablation_autotuner", "ablation: (l, b) auto-tuner", "the tuned plan is the argmin "
       "of its candidates, and under a budget flat layouts cannot hold it picks l > 1 (Sec. VI)")
def _ablation_autotuner():
    a, _ = load_dataset("eukarya").operands(seed=0)
    plan = auto_config(a, a, nprocs=16, memory_budget=10 * a.nnz * BYTES_PER_NONZERO)
    print_series("auto-tuner candidate table (Eukarya^2, p=16, tight budget)",
                 ["l", "b", "predicted (s)", ""],
                 [[l, b, s, "<- chosen" if l == plan.layers else ""]
                  for l, b, s in plan.candidates])
    # argmin by construction: no worse than any fixed l the paper tried by hand
    assert plan.predicted_seconds == min(t for _l, _b, t in plan.candidates)
    # heavy diagonal blocks: only layered grids hold their input tiles (synergy)
    plan = auto_config(a, a, nprocs=16, memory_budget=8 * a.nnz * BYTES_PER_NONZERO)
    feasible_layers = {l for l, _b, _t in plan.candidates}
    print(f"feasible layer counts under the tight budget: {sorted(feasible_layers)} "
          f"(chosen: l={plan.layers}, b={plan.batches})")
    assert 1 not in feasible_layers
    assert plan.layers > 1

@claim("ablation_formulations", "ablation: formulations", "Gustavson and outer-product "
       "SpGEMM agree and coarse outer blocks are not slower; resident MCL pays "
       "redistribution only where layouts differ")
def _ablation_formulations():
    a, _ = load_dataset("eukarya").operands(seed=0)
    reference, timings = multiply(a, a), {}
    for label, fn in (("gustavson/esc", lambda: multiply(a, a)),
                      ("outer bs=16", lambda: spgemm_outer(a, a, block_size=16)),
                      ("outer bs=256", lambda: spgemm_outer(a, a, block_size=256))):
        timings[label], out = best_of(2, fn)
        assert out.allclose(reference), label
    print_series("SpGEMM formulations on Eukarya^2 (seconds, best of 2)",
                 ["formulation", "seconds"], list(map(list, timings.items())))
    # larger outer blocks amortise the per-round merge (propagation blocking [27])
    assert timings["outer bs=256"] <= timings["outer bs=16"] * 1.2
    # resident handles: free on a 2D grid, with layers they pay the A -> B redistribution
    adj, _ = planted_partition(60, 4, p_in=0.65, p_out=0.02, seed=311)
    trackers, labels = {}, {}
    for engine, fn, kw in (("broadcast p=4", markov_cluster, dict(nprocs=4)),
                           ("resident p=4", markov_cluster_resident, dict(nprocs=4)),
                           ("resident p=8 l=2", markov_cluster_resident,
                            dict(nprocs=8, layers=2))):
        trackers[engine] = CommTracker()
        labels[engine] = fn(adj, max_iterations=12, tracker=trackers[engine], **kw).labels
    print_series("MCL engines: transmitted bytes over 12 iterations",
                 ["engine", "total bytes", "redistribute bytes"],
                 [[e, t.total_bytes(), t.total_bytes("Redistribute")] for e, t in trackers.items()])
    for engine in ("resident p=4", "resident p=8 l=2"):  # identical clusterings
        assert same_clusters(labels["broadcast p=4"], labels[engine])
    assert trackers["broadcast p=4"].total_bytes("Redistribute") == 0
    assert trackers["resident p=4"].total_bytes("Redistribute") == 0
    assert trackers["resident p=8 l=2"].total_bytes("Redistribute") > 0

@claim("ablation_memory", "ablation: memory vs batches", "per-process high water falls "
       "with b toward the resident inputs (< 0.6× at b = 16); 45 % of b = 1's need fits "
       "with > 1.5× less (paper: 2.2 PB → 0.5 PB)")
def _ablation_memory():
    a, _ = load_dataset("eukarya").operands(seed=0)
    series = {b: batched_summa3d(a, a, nprocs=4, batches=b, keep_output=False).max_local_bytes
              for b in (1, 2, 4, 8, 16)}
    print_series("per-process memory high water vs batch count (Eukarya^2, p=4)",
                 ["b", "high water (B)", "fraction of b=1"],
                 [[b, hw, hw / series[1]] for b, hw in series.items()])
    # strictly decreasing up to the floor set by the resident inputs
    assert list(series.values()) == sorted(series.values(), reverse=True)
    # and the big-b regime approaches the input floor: transient bounded
    assert series[16] < series[1] * 0.6
    assert series[16] > 2 * (a.nnz // 4) * 24  # two tiles stay resident: a real floor
    # the headline, scaled: b=1's need vs the symbolic step's b under ~45% of it
    a, _ = load_dataset("isolates_small").operands(seed=0)
    unbatched = batched_summa3d(a, a, nprocs=4, batches=1, keep_output=False)
    constrained = batched_summa3d(a, a, nprocs=4, keep_output=False,
                                  memory_budget=int(unbatched.max_local_bytes * 4 * 0.45))
    ratio = unbatched.max_local_bytes / constrained.max_local_bytes
    print(f"b=1 needs {unbatched.max_local_bytes:,} B/process; with b={constrained.batches} "
          f"the same multiply runs in {constrained.max_local_bytes:,} B/process "
          f"({ratio:.2f}x less)")
    assert constrained.batches > 1
    assert ratio > 1.5


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_claim(entry: Entry):
    print(f"\n##### {entry.exp}: {entry.claim}")
    entry.check()
