"""Reachability audit of ``src/repro`` (ROADMAP 5(a)): which ``def``s do
the drivers that stand for our traffic never enter?

    python3 benchmarks/reach.py           # the function-level report
    python3 benchmarks/reach.py --check   # exit 1 on a module nothing enters
    python3 benchmarks/reach.py --knobs [--check]   # values per run knob, see KEPT_KNOBS

Four driver sets (``drivers()``) run under a ``sys.setprofile`` hook that a
``sitecustomize`` directory on ``PYTHONPATH`` installs in every process:
harness workers, rank threads, serve slots.  A ``def`` none of ``e2e``, ``paper``
and ``examples`` enters is printed, marked when the system benches do.  Forked
ranks ``os._exit`` unflushed, so ``mp/`` is only sampled and never judged.
At ``summa.batched._prepare`` (once per run, driver side) the hook notes the run's knobs.
"""

import argparse
import ast
import glob
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = f"{REPO}/src/repro"
WORKLOADS = ("rmat_budget_t16", "protein_local_p1", "kmer_aat_sparse_t16",
             "rmat_shm_proc8", "mcl_chain_proc4", "serve_mixed_t4")
#: not judged by --check: the shell's surfaces (``repro doctor`` is verify.py,
#: reference.py the oracle it and the unit tests use) and the process world
UNJUDGED = ("cli.py", "__main__.py", "summa/verify.py", "sparse/spgemm/reference.py", "mp/")
#: spec fields one value wide over all four driver sets (or varied by a single
#: driver) that stay, and why — the same names as DESIGN.md §4's knob table
KEPT_KNOBS = {
    "enforce": "ROADMAP 1(c) makes \"warn\" the default under a budget",
    "max_retries": "failure handling: bounds retries of a transient fault",
    "replan_force": "the deterministic seam tests/plan and replan x heal stand on",
    "checksums": "failure handling: bench_resilience alone sets it",
    "checkpoint_keep_last": "failure handling: bench_serve --crash alone sets it",
    "world_spares": "failure handling: the repair budget of heal=\"spare\"",
    "batch_scheme": "one paper ablation (block vs block-cyclic load balance)",
    "merge_policy": "one paper ablation (Sec. III-A deferred vs incremental)",
    "kernel": "the spgemm:<tier> spellings: Fig. 15 / Table VII / one ablation",
    "overlap": "bench_overlap and the alpha-beta model's depth-1 makespan",
    "transport": "\"naive\" is the pickle baseline the shm numbers are read against",
}
RUNTIME_HOOKS = ("mask", "sample", "postprocess", "on_batch", "faults")
HOOK = '''
import atexit, os, sys, threading
_out, _root, _seen = os.environ["REACH_OUT"], os.environ["REACH_ROOT"], set()
_knobs, _prepare = [], os.path.join(_root, "summa", "batched.py")
def _hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(_root):
        _seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
        if frame.f_code.co_name == "_prepare" and frame.f_code.co_filename == _prepare:
            run = {k: repr(v) for k, v in frame.f_locals["spec"].to_dict().items()}
            run.update((h, "-" if frame.f_locals[h] is None else "given") for h in %r)
            _knobs.append(run)
def _flush():
    with open(os.path.join(_out, f"{os.getpid()}.knobs"), "w") as fh:
        fh.writelines(f"{k}\\t{v}\\n" for run in _knobs for k, v in [("", ""), *run.items()])
    with open(os.path.join(_out, f"{os.getpid()}.txt"), "w") as fh:
        fh.writelines(f"{name}\\t{line}\\n" for name, line in _seen)
sys.setprofile(_hook); threading.setprofile(_hook); atexit.register(_flush)
''' % (RUNTIME_HOOKS,)


def _bench(*patterns):
    files = sorted(f for p in patterns for f in glob.glob(f"{REPO}/benchmarks/bench_{p}.py"))
    return [[sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--benchmark-disable", f] for f in files]  # one each: see entered()


def drivers():
    run = [sys.executable, f"{REPO}/benchmarks/e2e/run.py", "--seconds", "1"]
    serve = [sys.executable, f"{REPO}/benchmarks/bench_serve.py", "--smoke"]  # a script, not tests
    return {
        "e2e": [run + ["--smoke"]] + [run + ["--trace", "1", "--workload", w] for w in WORKLOADS],
        "paper": _bench("fig*", "table*", "eq2*", "ablation*"),
        "examples": [[sys.executable, f] for f in sorted(glob.glob(f"{REPO}/examples/*.py"))],
        "system-benches": _bench("world", "heal", "overlap", "sparse_comm", "memory", "kernels",
                                 "autotune", "resilience") + [serve, serve + ["--crash"]],
    }


def entered(commands, scratch, knobs, broken):
    """The (file, first line) of every code object one driver set entered;
    ``knobs`` gathers field -> [value per run], ``broken`` the drivers that
    ran nothing (pytest's exit 5: a file that collects no test)."""
    out = tempfile.mkdtemp(dir=scratch)
    env = dict(os.environ, REACH_OUT=out, REACH_ROOT=ROOT, PYTHONPATH=os.pathsep.join(
        filter(None, [scratch, f"{REPO}/src", os.environ.get("PYTHONPATH")])))
    for cmd in commands:
        # a timing assertion may feel the profiler: what the driver entered
        # still counts, and one that died early only makes --check stricter
        code = subprocess.run(cmd, cwd=REPO, env=env, stdout=subprocess.DEVNULL).returncode
        if code:
            print(f"reach.py: exit {code} under the hook: {' '.join(cmd[-3:])}", file=sys.stderr)
        if code == 5:  # pytest: the file collected no test, i.e. nothing ran
            broken.append(cmd[-1])
    seen = set()
    for name in glob.glob(f"{out}/*.txt"):
        with open(name) as fh:
            seen |= {(f, int(n)) for f, n in (line.split("\t") for line in fh)}
    for name in glob.glob(f"{out}/*.knobs"):
        with open(name) as fh:
            for field, value in (line.rstrip("\n").split("\t", 1) for line in fh):
                knobs.setdefault(field, []).append(value)
    return seen


def defs(path):
    """(first line as its code object reports it, last line, name) per def."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield first, node.end_lineno, node.name


def knob_report(knobs, check=False) -> int:
    """Print the values each driver set passed per spec field and runtime hook (``knobs``:
    set -> field -> [value per run]); returns how many fields outside ``KEPT_KNOBS`` took one."""
    unkept = []
    for field in sorted({f for per_set in knobs.values() for f in per_set} - {"", "spec_version"}):
        values = {name: sorted(set(per_set.get(field, ()))) for name, per_set in knobs.items()}
        if len(set().union(*values.values())) == 1 and field not in (*KEPT_KNOBS, *RUNTIME_HOOKS):
            unkept.append(field)
        if not check:
            print(f"{field}: " + "; ".join(
                f"{name} {', '.join(v) if len(v) <= 6 else f'{len(v)} values'}"
                for name, v in values.items() if v))
    if not check:
        print("runs: " + ", ".join(f"{name} {len(k.get('', ()))}" for name, k in knobs.items()))
    for field in unkept:
        print(f"one value in every run and not in KEPT_KNOBS: {field}", file=sys.stderr)
    return len(unkept)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true", help="exit 1 on a module no driver enters")
    ap.add_argument("--knobs", action="store_true", help="tally run-knob values instead of defs")
    args = ap.parse_args(argv)
    knobs, broken = {}, []
    with tempfile.TemporaryDirectory() as scratch:
        with open(os.path.join(scratch, "sitecustomize.py"), "w") as fh:
            fh.write(HOOK)
        seen = {name: entered(cmds, scratch, knobs.setdefault(name, {}), broken)
                for name, cmds in drivers().items()}
    if args.knobs:
        return 1 if knob_report(knobs, args.check) or broken else 0
    traffic = seen["e2e"] | seen["paper"] | seen["examples"]
    totals, orphans = [0, 0], []
    for path in sorted(glob.glob(f"{ROOT}/**/*.py", recursive=True)):
        rel = os.path.relpath(path, ROOT)
        found = sorted(defs(path))
        missed = [d for d in found if (path, d[0]) not in traffic]
        nobody = [d for d in missed if (path, d[0]) not in seen["system-benches"]]
        if found and nobody == found and not rel.startswith(UNJUDGED):
            orphans.append(rel)
        if missed and not args.check:
            for k, group in enumerate((missed, nobody)):  # nested defs count once
                totals[k] += len({n for d in group for n in range(d[0], d[1] + 1)})
            print(f"{rel}  ({len(missed)} of {len(found)} defs)")
            for d in missed:
                mark = "" if d in nobody else "  [system-bench only]"
                print(f"  {d[0]:5d}  {d[1] - d[0] + 1:4d}  {d[2]}{mark}")
    if not args.check:
        print("defs entered: " + ", ".join(f"{k} {len(v)}" for k, v in seen.items()))
        print(f"function-body lines no e2e / paper / example driver enters: {totals[0]}; "
              f"nor the system benches: {totals[1]}")
    for rel in orphans:
        print(f"no driver enters any function of src/repro/{rel}", file=sys.stderr)
    return 1 if args.check and (orphans or broken) else 0


if __name__ == "__main__":
    sys.exit(main())
