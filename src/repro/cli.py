"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``multiply``  run BatchedSUMMA3D on matrices from disk (or a generated
              dataset), print the step breakdown and communication meter,
              optionally save the product;
``stats``     print SpGEMM statistics (nnz, flops, compression factor,
              expansion) for a matrix or dataset;
``generate``  materialise a synthetic dataset to a ``.npz`` / ``.mtx`` file;
``predict``   project paper-scale step times with the α–β machine model;
``cluster``   run HipMCL-style Markov clustering on a matrix;
``compare``   run every algorithm family (1D / Cannon / SUMMA2D / SUMMA3D /
              batched) on the same operands and print a communication and
              timing comparison;
``calibrate`` fit machine constants (alpha/beta/rate) from a JSON file of
              measured step breakdowns.

Matrices are loaded by extension: ``.npz`` (native) or ``.mtx``
(MatrixMarket).  Anywhere a path is accepted, ``dataset:<name>`` loads a
scaled Table V dataset instead (e.g. ``dataset:eukarya``).
"""

from __future__ import annotations

import argparse
import sys

from .data.datasets import DATASETS, load_dataset
from .model import CORI_HASWELL, CORI_KNL, CORI_KNL_HT, estimate_batches, predict_steps
from .simmpi import CommTracker
from .sparse import (
    load_matrix,
    load_matrix_market,
    save_matrix,
    save_matrix_market,
    symbolic_flops,
    symbolic_nnz,
    transpose,
)
from .summa import batched_summa3d

MACHINES = {
    "cori-knl": CORI_KNL,
    "cori-haswell": CORI_HASWELL,
    "cori-knl-ht": CORI_KNL_HT,
}


def _load(path):
    if path.startswith("dataset:"):
        return load_dataset(path.split(":", 1)[1]).generate(seed=0)
    if path.endswith(".mtx"):
        return load_matrix_market(path)
    return load_matrix(path)


def _save(path, matrix) -> None:
    if path.endswith(".mtx"):
        save_matrix_market(path, matrix)
    else:
        save_matrix(path, matrix)


def _operands(args):
    a = _load(args.matrix_a)
    if args.aat:
        return a, transpose(a)
    if args.matrix_b is None:
        return a, a
    return a, _load(args.matrix_b)


def cmd_multiply(args) -> int:
    from .errors import SpmdError

    a, b = _operands(args)
    tracker = CommTracker()
    try:
        result = _run_multiply(args, a, b, tracker)
    except SpmdError as err:
        print(f"error: {err}", file=sys.stderr)
        for rank, failure in sorted(err.failures.items()):
            context = getattr(failure, "context", None)
            if context:
                fields = ", ".join(
                    f"{k}={v}" for k, v in sorted(context.items())
                )
                print(f"  rank {rank}: {type(failure).__name__} ({fields})",
                      file=sys.stderr)
            dump = getattr(failure, "dump", None)
            if dump:
                print("  blocked ranks at failure:", file=sys.stderr)
                for blocked_rank in sorted(dump):
                    state = dump[blocked_rank]
                    print(f"    rank {blocked_rank}: {state['op']} "
                          f"tag={state['tag']} waiting on "
                          f"{state['pending']} for {state['blocked_s']}s",
                          file=sys.stderr)
        if args.checkpoint_dir and not args.resume:
            print(f"rerun with --resume to continue from the last "
                  f"completed batch in {args.checkpoint_dir}",
                  file=sys.stderr)
        return 1
    print(f"grid {result.grid!r}, batches = {result.batches}, "
          f"comm backend = {result.info.get('comm_backend', args.comm_backend)}, "
          f"overlap = {result.info.get('overlap', args.overlap)}")
    winfo = result.info.get("world") or {}
    if winfo.get("world") == "processes":
        print(f"world: processes (transport = {winfo.get('transport')}, "
              f"shm {winfo.get('shm_segments', 0)} segment(s) / "
              f"{winfo.get('shm_bytes', 0) / 1e6:.3f} MB, "
              f"{winfo.get('naive_msgs', 0)} pickled message(s))")
    if result.matrix is not None:
        print(f"nnz(C) = {result.matrix.nnz}")
    print(f"peak per-process memory: {result.max_local_bytes / 1e6:.3f} MB")
    mem = result.memory
    if mem:
        if mem.get("budget_per_rank"):
            print(f"  budget: {mem['budget_per_rank'] / 1e6:.3f} MB/rank, "
                  f"enforce = {mem.get('enforce', 'off')}, "
                  f"{len(mem.get('warnings', []))} warning(s)")
        cats = ", ".join(
            f"{name} {entry['high_water'] / 1e6:.3f}"
            for name, entry in sorted(mem.get("categories", {}).items())
        )
        if cats:
            print(f"  high-water by category (MB): {cats}")
        if mem.get("model_error") is not None:
            print(f"  Table III model: "
                  f"{mem['model']['high_water_total'] / 1e6:.3f} MB predicted "
                  f"({mem['model_error']:.2f}x measured)")
    if result.fault_stats is not None:
        fs = result.fault_stats
        injected = ", ".join(
            f"{k}={v}" for k, v in sorted(fs["injected"].items())
        ) or "none"
        print(f"faults: {fs['fired']}/{fs['planned']} fired ({injected}); "
              f"{fs['retries']} retries, "
              f"{fs['simulated_backoff_s'] * 1e3:.3f} ms simulated backoff")
    resilience = result.info.get("resilience")
    if resilience is not None and resilience.get("checkpoint_dir"):
        print(f"checkpoint: {resilience['checkpoint_dir']} "
              f"(resumed from batch {resilience['resumed_from_batch']})")
    if resilience is not None and resilience.get("heal"):
        heal = resilience["heal"]
        print(f"heal: mode={heal['mode']}, {heal['heals']} event(s), "
              f"{heal['extra_bytes_moved']} extra bytes redistributed")
        for event in heal["events"]:
            dead = ", ".join(
                f"position {d['position']} (rank {d['rank']})"
                for d in event["dead"]
            )
            print(f"  epoch {event['epoch']}: lost {dead}; resumed from "
                  f"batch {event['restart_batch']} after "
                  f"{event['latency_s'] * 1e3:.1f} ms")
    if resilience is not None and resilience.get("replans"):
        for event in resilience["replans"]:
            print(f"replan: batch {event['at_batch']} [{event['reason']}] "
                  f"b {event['from']['batches']} -> {event['to']['batches']}, "
                  f"backend {event['from']['backend']} -> "
                  f"{event['to']['backend']}")
    print(result.step_times.format_table("step times (critical path)"))
    print(tracker.format_table())
    if args.trace_out is not None:
        result.export_trace(args.trace_out)
        print(f"trace timeline saved to {args.trace_out} "
              "(open in chrome://tracing or ui.perfetto.dev)")
    if args.output is not None and result.matrix is not None:
        _save(args.output, result.matrix)
        print(f"saved product to {args.output}")
    return 0


def _multiply_spec(args):
    """The CLI's side of the shared spec builder: every ``multiply`` flag
    that is a run knob is declared with the :class:`~repro.plan.ExecSpec`
    field as its argparse ``dest``, so the spec is read off the namespace
    by field name and the two surfaces cannot diverge."""
    from .plan import SPEC_FIELDS, ExecSpec

    knobs = {name: getattr(args, name) for name in SPEC_FIELDS if hasattr(args, name)}
    knobs["keep_output"] = args.output is not None or not args.discard
    return ExecSpec.from_kwargs(**knobs)


def _run_multiply(args, a, b, tracker):
    from .summa import run_plan

    mask = _load(args.mask) if getattr(args, "mask", None) else None
    return run_plan(
        a, b, _multiply_spec(args), mask=mask, tracker=tracker,
        faults=args.faults if args.faults else None,
    )


def cmd_stats(args) -> int:
    a, b = _operands(args)
    nnz_c = symbolic_nnz(a, b)
    flops = symbolic_flops(a, b)
    print(f"A: {a.nrows} x {a.ncols}, nnz = {a.nnz}")
    print(f"B: {b.nrows} x {b.ncols}, nnz = {b.nnz}")
    print(f"nnz(C)  = {nnz_c}")
    print(f"flops   = {flops}")
    print(f"cf      = {flops / nnz_c if nnz_c else float('nan'):.3f}")
    print(f"expansion nnz(C)/nnz(A) = {nnz_c / a.nnz if a.nnz else float('nan'):.3f}")
    return 0


def cmd_generate(args) -> int:
    spec = load_dataset(args.dataset)
    matrix = spec.generate(seed=args.seed)
    _save(args.output, matrix)
    print(f"{spec.name}: {matrix.nrows} x {matrix.ncols}, nnz = {matrix.nnz} "
          f"-> {args.output}")
    return 0


def cmd_predict(args) -> int:
    machine = MACHINES[args.machine]
    spec = load_dataset(args.dataset)
    paper = spec.paper
    stats = dict(
        nnz_a=int(paper.nnz_a),
        nnz_b=int(paper.nnz_a),
        nnz_c=int(paper.nnz_c),
        flops=int(paper.flops),
    )
    nprocs = machine.procs_for_cores(args.cores)
    if args.batches is None:
        budget = machine.aggregate_memory(args.cores)
        batches = estimate_batches(
            memory_budget=budget, nprocs=nprocs, layers=args.layers, **stats
        )
    else:
        batches = args.batches
    times = predict_steps(
        machine, nprocs=nprocs, layers=args.layers, batches=batches, **stats
    )
    print(f"{spec.name} @ {args.cores} cores of {machine.name}: "
          f"p = {nprocs}, l = {args.layers}, b = {batches}")
    print(times.format_table("modelled step times"))
    if args.overlap != "off":
        import math

        from .model import overlapped_makespan

        stages = max(1, round(math.sqrt(nprocs / max(args.layers, 1))))
        makespan = overlapped_makespan(
            times, stages=stages, overlap=args.overlap
        )
        print(f"  overlapped makespan ({args.overlap}): {makespan:12.6f} s "
              f"({makespan / times.total():.1%} of sequential)")
    return 0


def cmd_cluster(args) -> int:
    from .apps import markov_cluster

    a = _load(args.matrix_a)
    result = markov_cluster(
        a,
        nprocs=args.nprocs,
        layers=args.layers,
        memory_budget=args.memory_budget,
        inflation=args.inflation,
        max_iterations=args.max_iterations,
    )
    print(f"converged: {result.converged} after {len(result.iterations)} "
          f"iterations; {result.n_clusters} clusters")
    for it in result.iterations:
        print(f"  iter {it.iteration:>3}: b = {it.batches:>3}, "
              f"nnz = {it.nnz:>9}, chaos = {it.chaos:.5f}")
    if args.output:
        import numpy as np

        np.savetxt(args.output, result.labels, fmt="%d")
        print(f"labels saved to {args.output}")
    return 0


def cmd_doctor(args) -> int:
    from .summa.verify import verify_installation

    report = verify_installation(nprocs=args.nprocs)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_triangles(args) -> int:
    from .apps import clustering_coefficients, count_triangles

    a = _load(args.matrix_a)
    count = count_triangles(
        a, nprocs=args.nprocs, layers=args.layers,
        memory_budget=args.memory_budget,
    )
    print(f"triangles: {count}")
    if args.coefficients:
        cc = clustering_coefficients(a, nprocs=args.nprocs)
        nz = cc[cc > 0]
        print(f"mean clustering coefficient: {cc.mean():.5f} "
              f"({nz.mean():.5f} over vertices in triangles)")
    return 0


def cmd_components(args) -> int:
    import numpy as np

    from .apps import connected_components

    a = _load(args.matrix_a)
    labels = connected_components(
        a, nprocs=args.nprocs, layers=args.layers,
        memory_budget=args.memory_budget,
    )
    sizes = np.bincount(labels)
    print(f"components: {sizes.size}")
    print(f"largest: {sizes.max()} vertices; "
          f"singletons: {int((sizes == 1).sum())}")
    if args.output:
        np.savetxt(args.output, labels, fmt="%d")
        print(f"labels saved to {args.output}")
    return 0


def cmd_compare(args) -> int:
    import time

    from .summa import summa2d, summa3d
    from .summa.baselines import cannon2d, spgemm_1d

    a, b = _operands(args)
    nprocs = args.nprocs
    algorithms = [("1D-row", lambda t: spgemm_1d(a, b, nprocs=nprocs, tracker=t))]
    import math

    if math.isqrt(nprocs) ** 2 == nprocs:
        algorithms += [
            ("Cannon", lambda t: cannon2d(a, b, nprocs=nprocs, tracker=t)),
            ("SUMMA2D", lambda t: summa2d(a, b, nprocs=nprocs, tracker=t)),
        ]
    if args.layers > 1 and nprocs % args.layers == 0 and \
            math.isqrt(nprocs // args.layers) ** 2 == nprocs // args.layers:
        algorithms.append((
            f"SUMMA3D l={args.layers}",
            lambda t: summa3d(a, b, nprocs=nprocs, layers=args.layers, tracker=t),
        ))
        algorithms.append((
            f"Batched l={args.layers} b={args.batches}",
            lambda t: batched_summa3d(
                a, b, nprocs=nprocs, layers=args.layers,
                batches=args.batches, tracker=t,
            ),
        ))
    print(f"{'algorithm':<24} {'wall (s)':>10} {'comm bytes':>14} {'nnz(C)':>10}")
    reference = None
    for name, fn in algorithms:
        tracker = CommTracker()
        t0 = time.perf_counter()
        result = fn(tracker)
        wall = time.perf_counter() - t0
        if reference is None:
            reference = result.matrix
        elif result.matrix is not None:
            assert result.matrix.allclose(reference), f"{name} result differs!"
        print(f"{name:<24} {wall:>10.4f} {tracker.total_bytes():>14,} "
              f"{result.matrix.nnz if result.matrix else '-':>10}")
    return 0


def cmd_calibrate(args) -> int:
    import json

    from .model.calibrate import Observation, fit_machine, relative_error

    with open(args.observations, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    observations = [
        Observation(
            nprocs=o["nprocs"],
            layers=o["layers"],
            batches=o["batches"],
            nnz_a=o["nnz_a"],
            nnz_b=o["nnz_b"],
            flops=o["flops"],
            step_seconds=o["step_seconds"],
        )
        for o in raw
    ]
    fitted = fit_machine(observations, name=args.name)
    print(f"fitted machine {fitted.name!r} from {len(observations)} observations:")
    print(f"  alpha       = {fitted.alpha:.3e} s/message")
    print(f"  beta        = {fitted.beta:.3e} s/byte "
          f"({1 / fitted.beta / 1e9:.2f} GB/s effective)")
    print(f"  sparse_rate = {fitted.sparse_rate:.3e} products/s/process")
    print(f"  fit error   = {relative_error(fitted, observations):.1%} "
          f"(mean relative, on the observations)")
    return 0


def cmd_serve(args) -> int:
    """Replay a synthetic multi-tenant trace against a live service and
    print the serving quartet (throughput, latency, rejections, heals)."""
    import tempfile

    from .data.generators import erdos_renyi
    from .errors import AdmissionRejected, ServeError
    from .serve import SpgemmService
    from .simmpi import FaultPlan

    sizes = [int(s) for s in args.sizes.split(",")]
    tenants = [f"tenant-{i}" for i in range(args.tenants)]
    mats = {n: erdos_renyi(n, avg_degree=4.0, seed=100 + n) for n in sizes}
    heal_kwargs = {}
    tmp_root = None
    if args.crash:
        tmp_root = args.checkpoint_root or tempfile.mkdtemp(
            prefix="repro_serve_ck_"
        )
        heal_kwargs = dict(
            heal="spare", world_spares=1, checkpoint_root=tmp_root,
        )
    try:
        with SpgemmService(
            grids=args.grids, nprocs=args.nprocs, world=args.world,
            timeout=args.timeout, queue_capacity=args.queue_capacity,
            max_backlog_s=args.max_backlog_s, **heal_kwargs,
        ) as svc:
            handles, rejected = [], 0
            for j in range(args.jobs):
                tenant = tenants[j % len(tenants)]
                faults = (
                    FaultPlan(["crash:rank=1,op=bcast,nth=2"])
                    if args.crash and j == 0 else None
                )
                try:
                    handles.append(svc.submit(
                        tenant=tenant, a=mats[sizes[j % len(sizes)]],
                        faults=faults,
                    ))
                except AdmissionRejected as exc:
                    rejected += 1
                    print(f"rejected ({exc.reason}): {exc}", file=sys.stderr)
            failures = 0
            for h in handles:
                try:
                    h.result(timeout=args.timeout * 4)
                except ServeError as exc:
                    failures += 1
                    print(f"job failed classified: {exc}", file=sys.stderr)
            stats = svc.stats()
    finally:
        if tmp_root is not None and args.checkpoint_root is None:
            import shutil

            shutil.rmtree(tmp_root, ignore_errors=True)
    lat = stats["latency_s"]
    print(f"completed {stats['counters']['completed']}/{args.jobs} jobs "
          f"({rejected} rejected at admission, {failures} failed), "
          f"heals = {stats['counters']['heals']}, "
          f"reforks = {stats['counters']['reforks']}")
    if lat["n"]:
        print(f"latency: p50 = {lat['p50'] * 1e3:.1f} ms, "
              f"p99 = {lat['p99'] * 1e3:.1f} ms, "
              f"max = {lat['max'] * 1e3:.1f} ms")
    if stats["throughput_jobs_per_s"] is not None:
        print(f"throughput = {stats['throughput_jobs_per_s']:.2f} jobs/s "
              f"over {len(stats['slots'])} grid(s)")
    hits = stats["plan_cache"]["hits"]
    total = hits + stats["plan_cache"]["misses"]
    if total:
        print(f"plan cache: {hits}/{total} hits")
    return 1 if failures else 0


def _add_operands(p):
    p.add_argument("matrix_a", help=".npz/.mtx path or dataset:<name>")
    p.add_argument("matrix_b", nargs="?", default=None,
                   help="second operand (default: square the first)")
    p.add_argument("--aat", action="store_true",
                   help="multiply A by its transpose")


def _add_multiply(sub) -> None:
    p = sub.add_parser("multiply", help="run BatchedSUMMA3D")
    _add_operands(p)
    p.add_argument("--nprocs", type=int, default=4)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--batches", type=int, default=None)
    p.add_argument("--memory-budget", type=int, default=None,
                   help="aggregate budget in bytes (runs the symbolic step)")
    p.add_argument("--memory-enforce", dest="enforce", default="off",
                   choices=["off", "warn", "strict"],
                   help="what the per-rank memory ledger does when the "
                   "measured high-water mark exceeds the budget: account "
                   "only, record warnings, or fail the offending stage "
                   "(strict re-batches to 2b via graceful degradation)")
    p.add_argument("--kernel", default="spgemm",
                   choices=["spgemm", "masked_spgemm", "spgemm:unsorted-hash",
                            "spgemm:sorted-heap", "spgemm:hybrid", "spgemm:spa"],
                   help="local kernel: plain SpGEMM, or SpGEMM restricted "
                   "to a mask inside the local multiply (--mask supplies "
                   "the pattern; without it the symbolic product pattern "
                   "is synthesised as the mask prologue); spgemm:<tier> "
                   "swaps the vectorised multiply/merge for one of the "
                   "loop tiers of Table VII")
    p.add_argument("--mask", default=None, metavar="PATH",
                   help="sparse output mask (.npz/.mtx or dataset:<name>) "
                   "for --kernel masked_spgemm")
    p.add_argument("--comm-backend", default="dense",
                   choices=["dense", "sparse", "auto"],
                   help="operand exchange: dense collectives, SpComm3D-style "
                   "sparse point-to-point, or let the α–β model pick")
    p.add_argument("--overlap", default="off", choices=["off", "depth1"],
                   help="stage pipelining: depth1 prefetches the next "
                   "stage's broadcasts behind the local multiply")
    p.add_argument("--replan", default="off", choices=["off", "auto"],
                   help="mid-run replanning: at batch boundaries fold "
                   "measured per-stage times and memory peaks into the "
                   "cost models and amend the plan (batch count, comm "
                   "backend) when the projected saving clears the "
                   "hysteresis threshold; the product is unchanged")
    p.add_argument("--world", default="threads",
                   choices=["threads", "processes"],
                   help="execution world: the deterministic in-process "
                   "thread simulator, or one OS process per rank with "
                   "shared-memory payload transport (true parallelism; "
                   "bit-identical results)")
    p.add_argument("--transport", default="auto",
                   choices=["naive", "shm", "auto"],
                   help="process-world payload transport: always pickle, "
                   "always shared memory, or pick by payload size "
                   "(ignored for --world threads)")
    p.add_argument("--trace-out", default=None,
                   help="export the per-op trace timeline here as "
                   "chrome://tracing JSON")
    p.add_argument("--output", default=None, help="save product here")
    p.add_argument("--discard", action="store_true",
                   help="discard batches (memory-constrained mode)")
    p.add_argument("--faults", action="append", default=[],
                   metavar="SPEC",
                   help="inject a deterministic fault, e.g. "
                   "'transient:rank=1,op=bcast,nth=2', "
                   "'corrupt:rank=3,op=recv,nth=1', 'crash:rank=2,batch=1', "
                   "'mem-pressure:rank=0,batch=0' (repeatable)")
    p.add_argument("--max-retries", type=int, default=3,
                   help="retry budget per communication attempt for "
                   "injected transient faults")
    p.add_argument("--checksums", action="store_const", const=True,
                   help="force per-message envelope checksums on even "
                   "without fault injection")
    p.add_argument("--checkpoint-dir", default=None,
                   help="write a manifest-backed checkpoint of each "
                   "completed batch here")
    p.add_argument("--resume", action="store_true",
                   help="continue from the last completed batch in "
                   "--checkpoint-dir")
    p.add_argument("--checkpoint-keep-last", type=int, default=None,
                   metavar="K",
                   help="garbage-collect all but the newest K checkpointed "
                   "batch files as the run progresses")
    p.add_argument("--heal", default=None, choices=["spare", "shrink"],
                   help="survive rank crashes (requires --checkpoint-dir): "
                   "hand the dead position to a spare rank, or respawn it "
                   "on a surviving host, and re-enter from the last "
                   "completed batch")
    p.add_argument("--spares", dest="world_spares", type=int, default=0,
                   metavar="N",
                   help="repair budget of --heal spare: N spare ranks")
    p.set_defaults(func=cmd_multiply)


def _add_stats(sub) -> None:
    p = sub.add_parser("stats", help="symbolic SpGEMM statistics")
    _add_operands(p)
    p.set_defaults(func=cmd_stats)


def _add_generate(sub) -> None:
    p = sub.add_parser("generate", help="materialise a scaled dataset")
    p.add_argument("dataset", choices=sorted(DATASETS))
    p.add_argument("output")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)


def _add_predict(sub) -> None:
    p = sub.add_parser("predict", help="paper-scale model projection")
    p.add_argument("dataset", choices=sorted(DATASETS))
    p.add_argument("--cores", type=int, default=65536)
    p.add_argument("--layers", type=int, default=16)
    p.add_argument("--batches", type=int, default=None)
    p.add_argument("--machine", default="cori-knl", choices=sorted(MACHINES))
    p.add_argument("--overlap", default="off", choices=["off", "depth1"],
                   help="also report the pipelined makespan "
                   "(max(comm, comp) per stage)")
    p.set_defaults(func=cmd_predict)


def _add_doctor(sub) -> None:
    p = sub.add_parser("doctor", help="verify the installation end to end")
    p.add_argument("--nprocs", type=int, default=4)
    p.set_defaults(func=cmd_doctor)


def _add_triangles(sub) -> None:
    p = sub.add_parser("triangles", help="triangle counting")
    p.add_argument("matrix_a", help=".npz/.mtx path or dataset:<name>")
    p.add_argument("--nprocs", type=int, default=4)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--memory-budget", type=int, default=None)
    p.add_argument("--coefficients", action="store_true",
                   help="also print clustering coefficients")
    p.set_defaults(func=cmd_triangles)


def _add_components(sub) -> None:
    p = sub.add_parser("components", help="connected components")
    p.add_argument("matrix_a", help=".npz/.mtx path or dataset:<name>")
    p.add_argument("--nprocs", type=int, default=4)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--memory-budget", type=int, default=None)
    p.add_argument("--output", default=None, help="save labels here")
    p.set_defaults(func=cmd_components)


def _add_compare(sub) -> None:
    p = sub.add_parser("compare", help="algorithm families head-to-head")
    _add_operands(p)
    p.add_argument("--nprocs", type=int, default=4)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--batches", type=int, default=2)
    p.set_defaults(func=cmd_compare)


def _add_calibrate(sub) -> None:
    p = sub.add_parser("calibrate", help="fit machine constants from JSON")
    p.add_argument("observations", help="JSON list of observation records")
    p.add_argument("--name", default="calibrated")
    p.set_defaults(func=cmd_calibrate)


def _add_serve(sub) -> None:
    p = sub.add_parser(
        "serve", help="replay a multi-tenant job trace against a service"
    )
    p.add_argument("--grids", type=int, default=2, help="resident grids")
    p.add_argument("--nprocs", type=int, default=4)
    p.add_argument("--world", default="threads",
                   choices=["threads", "processes"])
    p.add_argument("--tenants", type=int, default=3)
    p.add_argument("--jobs", type=int, default=12,
                   help="total jobs, round-robin across tenants")
    p.add_argument("--sizes", default="32,48,64",
                   help="comma-separated matrix sizes in the mix")
    p.add_argument("--queue-capacity", type=int, default=16)
    p.add_argument("--max-backlog-s", type=float, default=60.0)
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--crash", action="store_true",
                   help="inject one rank crash (enables heal=spare)")
    p.add_argument("--checkpoint-root", default=None,
                   help="shared checkpoint root for --crash "
                   "(default: a temp dir)")
    p.set_defaults(func=cmd_serve)


def _add_cluster(sub) -> None:
    p = sub.add_parser("cluster", help="Markov clustering (HipMCL)")
    p.add_argument("matrix_a", help=".npz/.mtx path or dataset:<name>")
    p.add_argument("--nprocs", type=int, default=4)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--memory-budget", type=int, default=None)
    p.add_argument("--inflation", type=float, default=2.0)
    p.add_argument("--max-iterations", type=int, default=40)
    p.add_argument("--output", default=None, help="save labels here")
    p.set_defaults(func=cmd_cluster)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Communication-avoiding, memory-constrained SpGEMM "
        "(Hussain et al., IPDPS 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (
        _add_multiply,
        _add_stats,
        _add_generate,
        _add_predict,
        _add_doctor,
        _add_triangles,
        _add_components,
        _add_compare,
        _add_calibrate,
        _add_serve,
        _add_cluster,
    ):
        add(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
