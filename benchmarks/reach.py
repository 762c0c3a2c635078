"""Reachability audit of ``src/repro`` (ROADMAP 5(a)): which ``def``s do
the drivers that stand for our traffic never enter?

    python3 benchmarks/reach.py           # the function-level report
    python3 benchmarks/reach.py --check   # exit 1 on a module nothing enters

Four driver sets (``drivers()``) run under a ``sys.setprofile`` hook that a
``sitecustomize`` directory on ``PYTHONPATH`` installs in every process:
harness workers, rank threads, serve slots.  A ``def`` none of ``e2e``, ``paper``
and ``examples`` enters is printed, marked when the system benches do.  Forked
ranks ``os._exit`` unflushed, so ``mp/`` is only sampled and never judged.
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
HOOK = '''
import atexit, os, sys, threading
_out, _root, _seen = os.environ["REACH_OUT"], os.environ["REACH_ROOT"], set()
def _hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(_root):
        _seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
def _flush():
    with open(os.path.join(_out, f"{os.getpid()}.txt"), "w") as fh:
        fh.writelines(f"{name}\\t{line}\\n" for name, line in _seen)
sys.setprofile(_hook); threading.setprofile(_hook); atexit.register(_flush)
'''


def _bench(*patterns):
    files = sorted(f for p in patterns for f in glob.glob(f"{REPO}/benchmarks/bench_{p}.py"))
    return [[sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--benchmark-disable", *files]]


def drivers():
    run = [sys.executable, f"{REPO}/benchmarks/e2e/run.py", "--seconds", "1"]
    return {
        "e2e": [run + ["--smoke"]] + [run + ["--trace", "1", "--workload", w] for w in WORKLOADS],
        "paper": _bench("fig*", "table*", "eq2*", "ablation*"),
        "examples": [[sys.executable, f] for f in sorted(glob.glob(f"{REPO}/examples/*.py"))],
        "system-benches": _bench("world", "serve", "heal", "overlap", "sparse_comm",
                                 "memory", "kernels", "autotune", "resilience"),
    }


def entered(commands, scratch):
    """The (file, first line) of every code object one driver set entered."""
    out = tempfile.mkdtemp(dir=scratch)
    env = dict(os.environ, REACH_OUT=out, REACH_ROOT=ROOT, PYTHONPATH=os.pathsep.join(
        filter(None, [scratch, f"{REPO}/src", os.environ.get("PYTHONPATH")])))
    for cmd in commands:
        # a timing assertion may feel the profiler: what the driver entered
        # still counts, and one that died early only makes --check stricter
        if subprocess.run(cmd, cwd=REPO, env=env, stdout=subprocess.DEVNULL).returncode:
            print(f"reach.py: failed under the hook: {' '.join(cmd[:6])} ...", file=sys.stderr)
    seen = set()
    for name in glob.glob(f"{out}/*.txt"):
        with open(name) as fh:
            seen |= {(f, int(n)) for f, n in (line.split("\t") for line in fh)}
    return seen


def defs(path):
    """(first line as its code object reports it, last line, name) per def."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield first, node.end_lineno, node.name


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true", help="exit 1 on a module no driver enters")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        with open(os.path.join(scratch, "sitecustomize.py"), "w") as fh:
            fh.write(HOOK)
        seen = {name: entered(cmds, scratch) for name, cmds in drivers().items()}
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
    return 1 if args.check and orphans else 0


if __name__ == "__main__":
    sys.exit(main())
