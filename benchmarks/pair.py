"""Paired timing of one e2e workload's op: the working tree against a
revision.

    python3 benchmarks/pair.py kmer_aat_sparse_t16             # HEAD vs working tree
    python3 benchmarks/pair.py rmat_budget_t16 --base HEAD~1 --pairs 60
    python3 benchmarks/pair.py kmer_aat_sparse_t16 --smoke     # A/A, a few pairs

The default base, ``HEAD``, is the parent of an uncommitted change; once
the change is committed, name its parent (``--base HEAD~1``).

Two worker processes, one per tree, each set up once (inputs generated,
cold ops run) and then driven in lockstep: pair ``i`` runs op ``i`` on
both, in ABBA order (base first on even pairs, head first on odd ones), so
drift on the host lands on both sides of a pair.  Both workers run in the
harness's environment (``benchmarks/e2e/run.py``'s ``PINNED_ENV``), pin
themselves to the harness's CPU (``benchmarks/e2e/worker.py``'s
``pin_to_one_cpu``), and take the workload, at the harness's default seed,
from this tree's ``benchmarks/e2e/workloads.py``; only ``src/`` differs
between them.  The revision is exported with ``git archive`` into a
temporary directory, so no worktree is registered.

Prints the median of the per-pair ratios head / base with their
interquartile range, the share of pairs the head won, and, as the last
line, the same as JSON.  Every op's products are compared between the two
sides (bit for bit, by the harness's digest); a mismatch or a failed op
exits 1.  Separate runs of the same tree read 0.66-1.03 apart on a shared
2-vCPU host, so a claimed gain is read from pairs, never from two runs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
E2E = os.path.join(REPO, "benchmarks", "e2e")
WORKTREE = "."
SEED = 1


def export(rev: str, into: str) -> str:
    """``src/`` of revision ``rev`` under ``into``; the working tree for
    ``"."``.  Returns the directory holding the ``repro`` package."""
    if rev == WORKTREE:
        return os.path.join(REPO, "src")
    blob = subprocess.run(
        ["git", "-C", REPO, "archive", rev, "src"],
        check=True, capture_output=True,
    ).stdout
    dest = os.path.join(into, rev.replace("/", "_").replace("~", "-"))
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest)
    return os.path.join(dest, "src")


def child(workload: str) -> int:
    """One side: set up, say ``ready``, then run the op whose index
    arrives on each stdin line and answer with one JSON line."""
    from loop import run_op
    from worker import pin_to_one_cpu
    from workloads import WORKLOADS

    cpu = pin_to_one_cpu()
    w = WORKLOADS[workload](SEED)
    w.generate()
    w.open()
    for i in w.cold_ops:
        run_op(w, i)
    print(json.dumps({"ready": max(w.cold_ops) + 1, "cpu": cpu}), flush=True)
    for line in sys.stdin:
        record = run_op(w, int(line))
        print(json.dumps({
            "wall_s": record["t1"] - record["t0"], "error": record["error"],
            "digests": [[repr(key), list(d)] for key, d in record["digests"]],
        }), flush=True)
    w.close()
    return 0


class Side:
    """One tree's worker, in the harness's environment."""

    def __init__(self, name: str, src: str, workload: str) -> None:
        if E2E not in sys.path:
            sys.path.insert(0, E2E)
        from run import PINNED_ENV

        env = dict(os.environ, **PINNED_ENV)
        env["PYTHONPATH"] = os.pathsep.join([src, E2E])
        self.name = name
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), workload, "--child"],
            env=env, cwd=REPO, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.name} worker exited without answering")
        return json.loads(line)

    def op(self, i: int) -> dict:
        self.proc.stdin.write(f"{i}\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def quartiles(xs: list) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload")
    ap.add_argument("--base", default="HEAD",
                    help="git revision the working tree is measured against")
    ap.add_argument("--pairs", type=int, default=60)
    ap.add_argument("--smoke", action="store_true",
                    help="A/A: the working tree on both sides, 4 pairs")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child(args.workload)
    if args.smoke:
        args.base, args.pairs = WORKTREE, 4

    scratch = tempfile.mkdtemp(prefix="repro-pair-")
    sides = []
    try:
        for name, rev in (("base", args.base), ("head", WORKTREE)):
            sides.append(Side(name, export(rev, scratch), args.workload))
        ready = [side.read() for side in sides]
        first = {r["ready"] for r in ready}
        if len(first) != 1:
            raise RuntimeError(f"the two trees disagree on the cold ops: {first}")
        start = first.pop()
        cpu = ready[0]["cpu"]
        ratios, failures = [], []
        base, head = sides
        t0 = time.perf_counter()
        for p in range(args.pairs):
            i = start + p
            order = (base, head) if p % 2 == 0 else (head, base)
            got = {side.name: side.op(i) for side in order}
            errors = [f"{n}: {r['error']}" for n, r in got.items() if r["error"]]
            if not errors and got["base"]["digests"] != got["head"]["digests"]:
                errors = ["products differ between the trees"]
            if errors:
                failures.append((i, errors))
                continue
            ratios.append(got["head"]["wall_s"] / got["base"]["wall_s"])
    finally:
        for side in sides:
            side.close()
        shutil.rmtree(scratch, ignore_errors=True)

    for i, errors in failures:
        print(f"op {i}: {'; '.join(errors)}", file=sys.stderr)
    if len(ratios) < 2:
        print("pair.py: fewer than two clean pairs", file=sys.stderr)
        return 1
    q1, median, q3 = quartiles(ratios)
    won = sum(r < 1.0 for r in ratios) / len(ratios)
    out = {
        "workload": args.workload, "base": args.base,
        "pairs": len(ratios), "failed": len(failures),
        "median_ratio": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
        "head_won_share": round(won, 3), "cpu": cpu,
        "seconds": round(time.perf_counter() - t0, 1),
    }
    print(f"{args.workload}: head/base x{median:.3f} (IQR {q1:.3f}-{q3:.3f}) "
          f"over {len(ratios)} pairs; head faster in {won:.0%}")
    print(json.dumps(out))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
