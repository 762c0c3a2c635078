"""``benchmarks/pair.py``: the paired-timing tool runs, compares products
across its two sides, and is no driver of the reachability audit."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PAIR = REPO / "benchmarks" / "pair.py"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pair_is_not_a_reach_driver():
    reach = load("reach", REPO / "benchmarks" / "reach.py")
    commands = [c for cmds in reach.drivers().values() for c in cmds]
    assert commands and not any("pair.py" in " ".join(c) for c in commands)


def test_quartiles_of_ratios():
    pair = load("pair", PAIR)
    assert pair.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_aa_smoke_reports_clean_pairs():
    out = subprocess.run(
        [sys.executable, str(PAIR), "kmer_aat_sparse_t16", "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=REPO,
    )
    assert out.returncode == 0, out.stderr
    record = json.loads(out.stdout.strip().splitlines()[-1])
    assert record["pairs"] == 4 and record["failed"] == 0
    assert record["base"] == "."
    assert record["q1"] <= record["median_ratio"] <= record["q3"]
