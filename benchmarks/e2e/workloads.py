"""The six workloads: inputs from the seed, one op through the public API.

Each family's *structure* comes from ``repro.data`` under a fixed
structure seed; ``--seed`` then relabels the vertices at random (as
CombBLAS does before distributing) and draws whatever else is random
(dense panels, the service's never-seen matrices).  A relabelled matrix
is a different input — other bytes, other tiles on every rank — with
exactly the same flops and nnz(C), so timings of two seeds are comparable
where two raw generator seeds are not (``protein_similarity`` at seeds
1..10 spans 1.9M..14.6M flops).
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

import repro
from repro.data import (
    erdos_renyi,
    kmer_matrix,
    planted_partition,
    protein_similarity,
    rmat,
)
from repro.dist import DistContext
from repro.serve import SpgemmService
from repro.sparse.ops import column_sums, permute, scale_columns

from oracle import canonical, to_scipy
from spans import NO_TRACE

STRUCTURE_SEED = 1
BYTES_PER_NONZERO = 24


def relabel(m, rng):
    """``P m Qᵀ`` for random permutations (``P == Q`` when square)."""
    rows = rng.permutation(m.nrows)
    cols = rows if m.nrows == m.ncols else rng.permutation(m.ncols)
    return permute(m, rows, cols)


class Workload:
    name = ""
    why = ""
    #: load-generator threads of the closed loop (never more than nproc)
    callers = 1
    #: ops fork rank processes: watch /dev/shm around every op
    process_world = False
    #: ops of the cold phase, all inside setup_s
    cold_ops = (0,)
    #: which random stream of the seed the inputs draw from
    stream = 0

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.rng = np.random.default_rng([self.seed, self.stream])
        self._expected: dict = {}

    def generate(self) -> None:
        raise NotImplementedError

    def open(self) -> None:
        pass

    def close(self) -> None:
        pass

    def op(self, i: int, caller: int = 0, trace=NO_TRACE) -> list:
        """Run op ``i``; returns ``[(key, product), ...]``."""
        raise NotImplementedError

    def oracle(self, key):
        raise NotImplementedError

    def expected(self, key):
        if key not in self._expected:
            self._expected[key] = canonical(self.oracle(key))
        return self._expected[key]

    def input_arrays(self) -> list:
        """Every generated array, for the same-seed-same-bytes self-test."""
        raise NotImplementedError


def _arrays(*mats) -> list:
    out = []
    for m in mats:
        out += [m] if isinstance(m, np.ndarray) else [m.indptr, m.rowidx, m.values]
    return out


class SummaWorkload(Workload):
    """One ``batched_summa3d`` call per op."""

    def generate(self) -> None:
        self.a, self.b, self.knobs = self.operands()

    def operands(self):
        raise NotImplementedError

    def op(self, i, caller=0, trace=NO_TRACE):
        self.result = repro.batched_summa3d(self.a, self.b, **self.knobs)
        return [("c", self.result.matrix)]

    def oracle(self, key):
        return to_scipy(self.a) @ to_scipy(self.b)

    def input_arrays(self):
        return _arrays(self.a, self.b)


def _rmat_input(rng):
    return relabel(rmat(12, edge_factor=8, seed=STRUCTURE_SEED), rng)


class RmatBudgetT16(SummaWorkload):
    name = "rmat_budget_t16"
    stream = 1
    why = ("paper's headline case: a memory budget makes SYMBOLIC3D pick b, output >> input; "
           "epilogue, Symbolic and many stages of collectives all carry weight")

    def operands(self):
        a = _rmat_input(self.rng)
        budget = 40 * a.nnz * BYTES_PER_NONZERO
        return a, a, dict(nprocs=16, layers=4, memory_budget=budget)


class ProteinLocalP1(SummaWorkload):
    name = "protein_local_p1"
    stream = 2
    why = ("plain single-rank baseline: mostly Local-Multiply, no communication; "
           "a kernel change shows here, a comm or engine change must not")

    def operands(self):
        a = relabel(
            protein_similarity(
                4000, intra_density=0.35, noise_degree=1.0, seed=STRUCTURE_SEED
            ),
            self.rng,
        )
        return a, a, dict(nprocs=1, layers=1, batches=1)


class KmerAatSparseT16(SummaWorkload):
    name = "kmer_aat_sparse_t16"
    stream = 3
    why = ("hypersparse A*A^T with tiny output: kernel and epilogue bypassed, per-stage fixed "
           "cost is everything; only user of the sparse p2p backend")

    def operands(self):
        a = relabel(
            kmer_matrix(
                3000, 200000, kmers_per_seq=15.0, zipf_exponent=0.35,
                seed=STRUCTURE_SEED,
            ),
            self.rng,
        )
        knobs = dict(nprocs=16, layers=4, batches=2, comm_backend="sparse")
        return a, repro.transpose(a), knobs


class RmatShmProc8(SummaWorkload):
    name = "rmat_shm_proc8"
    why = ("real rank processes: MBs per op cross shm segments, one fork per op; same epilogue "
           "as rmat_budget_t16, so an epilogue gain must show in both worlds")
    process_world = True
    stream = RmatBudgetT16.stream  # workload 1's A

    def operands(self):
        a = _rmat_input(self.rng)
        knobs = dict(
            nprocs=8, layers=2, batches=1, world="processes", transport="shm"
        )
        return a, a, knobs


def _column_normalise(batch, c0, c1, block):
    sums = column_sums(block)
    inv = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums != 0)
    return scale_columns(block, inv)


class MclChainProc4(Workload):
    name = "mcl_chain_proc4"
    stream = 5
    why = ("HipMCL-shaped resident pipeline: many SPMD regions per op, so fork-per-region "
           "dominates; small kernel work through the non-default masked kernel")
    process_world = True
    world = "processes"
    rounds = 6

    def generate(self):
        g = planted_partition(
            1500, 30, p_in=0.2, p_out=0.002, seed=STRUCTURE_SEED
        )[0]
        self.g = relabel(g, self.rng)

    def op(self, i, caller=0, trace=NO_TRACE):
        g = self.g
        self.results = []
        #: ``last_world_info`` of every SPMD region the op launched
        self.regions = []
        with DistContext(
            nprocs=4, layers=1, world=self.world, transport="shm"
        ) as ctx:
            with trace.span("dist.distribute"):
                ha = ctx.distribute(g, "A")
                hb = ctx.distribute(g, "B")
            for _ in range(self.rounds):
                with trace.span("dist.multiply"):
                    hc, result = ctx.multiply(
                        ha, hb, kernel="masked_spgemm", mask=g,
                        postprocess=_column_normalise,
                    )
                self.results.append(result)
                self.regions.append(ctx.last_world_info)
                ctx.free(ha)
                ctx.free(hb)
                with trace.span("dist.redistribute"):
                    # to the layout a handle already has this is a no-op
                    # that launches no region
                    ha = ctx.redistribute(hc, "A")
                    if ha is not hc:
                        self.regions.append(ctx.last_world_info)
                    hb = ctx.redistribute(hc, "B")
                    if hb is not hc:
                        self.regions.append(ctx.last_world_info)
                if ha is not hc and hb is not hc:
                    ctx.free(hc)
            with trace.span("dist.gather"):
                out = ha.to_global()
        return [("chain", out)]

    def oracle(self, key):
        g = to_scipy(self.g)
        pattern = g.copy()
        pattern.data[:] = 1.0
        m = g
        for _ in range(self.rounds):
            m = (m @ m).multiply(pattern).tocsc()
            sums = np.asarray(m.sum(axis=0)).ravel()
            inv = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums != 0)
            m = (m @ sp.diags(inv)).tocsc()
        return m

    def input_arrays(self):
        return _arrays(self.g)


class ServeMixedT4(Workload):
    name = "serve_mixed_t4"
    stream = 6
    why = ("only path through admission, plan cache, DRR queue and slots; dense-output SpMM and "
           "in-kernel mask beside SpGEMM, cache hits beside misses")
    callers = 2
    sizes = (512, 1024, 2048)
    kinds = ("multiply", "spmm", "masked_spgemm", "multiply")
    panel_cols = 16
    fresh_every = 8
    #: one pass over every (size, kind) pair warms the plan cache
    cold_ops = tuple(i for i in range(14) if i % 8 != 7)

    def generate(self):
        self.base = {
            n: relabel(
                erdos_renyi(n, avg_degree=6, seed=STRUCTURE_SEED + n), self.rng
            )
            for n in self.sizes
        }
        self.panel = {
            n: self.rng.random((n, self.panel_cols)) for n in self.sizes
        }
        self.fresh: dict = {}
        self.job_log: list = []

    def open(self):
        self.svc = SpgemmService(grids=2, nprocs=4, world="threads").start()
        for caller in range(self.callers):
            self.svc.register_tenant(f"tenant{caller}")

    def close(self):
        self.svc.shutdown()

    def job(self, i: int):
        """``(key, kind, a, b, mask)`` of job ``i`` — a function of the
        seed and ``i`` alone, whichever caller draws it."""
        if i % self.fresh_every == self.fresh_every - 1:
            a = erdos_renyi(1024, avg_degree=6, seed=[self.seed, 7919, i])
            return ("fresh", i), "multiply", a, None, None
        n = self.sizes[i % len(self.sizes)]
        kind = self.kinds[i % len(self.kinds)]
        a = self.base[n]
        b = self.panel[n] if kind == "spmm" else None
        mask = a if kind == "masked_spgemm" else None
        return (kind, n), kind, a, b, mask

    def op(self, i, caller=0, trace=NO_TRACE):
        key, kind, a, b, mask = self.job(i)
        t0 = time.perf_counter()
        handle = self.svc.submit(
            tenant=f"tenant{caller}", kind=kind, a=a, b=b, mask=mask
        )
        t1 = time.perf_counter()
        r = handle.result(timeout=60.0)
        t2 = time.perf_counter()
        self.job_log.append({
            "i": i, "kind": kind, "fresh": key[0] == "fresh", "n": a.nrows,
            "t_submit": t0, "submit_s": t1 - t0, "latency_s": t2 - t0,
            "queued_s": r.queued_s, "exec_s": r.latency_s - r.queued_s,
            "cache_hit": bool(r.cache_hit), "layers": int(r.plan.get("layers", 1)),
        })
        # JobResult times are durations on the service's clock; place them
        # back from the moment the result arrived
        exec_s = r.latency_s - r.queued_s
        trace.add("serve.submit", t0, t1, kind=kind, cache_hit=bool(r.cache_hit))
        trace.add("serve.queue_wait", t2 - r.latency_s, t2 - exec_s)
        trace.add("serve.exec", t2 - exec_s, t2, slot=r.slot)
        if key[0] == "fresh":
            self.fresh[key] = a
        return [(key, r.matrix)]

    def oracle(self, key):
        kind, n = key
        a = self.fresh[key] if kind == "fresh" else self.base[n]
        s = to_scipy(a)
        if kind == "spmm":
            return np.asarray(s @ self.panel[n])
        product = s @ s
        if kind == "masked_spgemm":
            pattern = s.copy()
            pattern.data[:] = 1.0
            return product.multiply(pattern)
        return product

    def input_arrays(self):
        return _arrays(*self.base.values(), *self.panel.values())


WORKLOADS = {
    w.name: w
    for w in (
        RmatBudgetT16, ProteinLocalP1, KmerAatSparseT16, RmatShmProc8,
        MclChainProc4, ServeMixedT4,
    )
}
