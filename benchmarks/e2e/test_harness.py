"""Self-tests of the benchmark harness.  Run explicitly (not under the
tier-1 ``testpaths``):

    python -m pytest benchmarks/e2e/test_harness.py -q
"""

import copy
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from multiprocessing import shared_memory

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(REPO, "src")]

import compare  # noqa: E402
import layers  # noqa: E402
import loop  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = run.benchmark_spec()


def run_py(*args, timeout=170):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=REPO, capture_output=True, text=True, timeout=timeout,
    )
    return proc


def test_names_agree_between_spec_and_code():
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    names = [w["name"] for w in SPEC["workloads"]]
    for name in [*per_layer, *end_to_end, *names]:
        assert NAME.match(name), name
    assert per_layer == layers.PER_LAYER
    assert end_to_end == run.E2E_UNITS
    assert names == list(run.WORKLOAD_ORDER) == list(workloads.WORKLOADS)
    assert len(set(per_layer) | set(end_to_end) | set(names)) == (
        len(per_layer) + len(end_to_end) + len(names)
    )
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert "setup_s" in end_to_end
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def _input_hash(name, seed):
    w = workloads.WORKLOADS[name](seed)
    w.generate()
    h = hashlib.sha256()
    for array in w.input_arrays():
        h.update(array.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    assert _input_hash(name, 5) == _input_hash(name, 5)
    assert _input_hash(name, 5) != _input_hash(name, 6)


def test_rmat_workloads_share_their_input():
    assert _input_hash("rmat_budget_t16", 2) == _input_hash("rmat_shm_proc8", 2)


def _fail_share(w):
    w.generate()
    w.open()
    try:
        records = loop.closed_loop(w, 1, 0.0, 2)
        loop.verify(w, records)
    finally:
        w.close()
    return sum(r["error"] is not None for r in records) / len(records), records


def test_wrong_product_raises_fail_share():
    class Wrong(workloads.KmerAatSparseT16):
        def op(self, i, caller=0, trace=None):
            outputs = super().op(i)
            outputs[0][1].values[0] *= 2.0
            return outputs

    share, records = _fail_share(Wrong(1))
    assert share == 1.0
    assert "oracle" in records[0]["error"]
    share, _ = _fail_share(workloads.KmerAatSparseT16(1))
    assert share == 0.0


def test_leaked_shm_segment_raises_fail_share():
    leaked = []

    class Leaky(workloads.KmerAatSparseT16):
        process_world = True

        def op(self, i, caller=0, trace=None):
            seg = shared_memory.SharedMemory(create=True, size=64)
            leaked.append(seg)
            return super().op(i)

    try:
        share, records = _fail_share(Leaky(1))
    finally:
        for seg in leaked:
            seg.close()
            seg.unlink()
    assert share == 1.0
    assert "/dev/shm" in records[0]["error"]


def test_failed_op_is_counted_not_raised():
    class Broken(workloads.KmerAatSparseT16):
        def op(self, i, caller=0, trace=None):
            raise RuntimeError("boom")

    share, records = _fail_share(Broken(1))
    assert share == 1.0 and records[0]["error"].startswith("RuntimeError")


def _block(wall_s, cal_s):
    op = {"i": 1, "wall_s": wall_s, "cal_s": cal_s, "error": None}
    return {"crash": None, "cold": [], "ops": [op, dict(op, i=2)],
            "segments": [{"done": 2, "wall_s": 2 * wall_s, "cal_s": cal_s}],
            "setup_s": 3 * wall_s, "setup_cal_s": cal_s, "peak_rss_mb": 100.0}


def test_timings_are_scaled_by_the_calibration_beside_them():
    ref = run.REFERENCE_CAL_S
    quiet = run.end_to_end([_block(1.0, ref)] * 3)
    slow = run.end_to_end([_block(1.5, 1.5 * ref)] * 3)
    for metric, value in {"wall_s": 1.0, "jobs_per_s": 1.0, "setup_s": 3.0}.items():
        assert quiet["metrics"][metric] == pytest.approx(value)
        assert slow["metrics"][metric] == pytest.approx(value)
    assert slow["raw"]["wall_s"] == pytest.approx(1.5)
    # a slower program on the same machine is not scaled away
    assert run.end_to_end([_block(1.5, ref)] * 3)["metrics"]["wall_s"] == (
        pytest.approx(1.5))


def test_measured_loop_calibrates_around_every_segment():
    w = workloads.KmerAatSparseT16(1)
    w.generate()
    records, segments = loop.measured_loop(w, 1, 0.0, 3)
    assert 1 <= len(records) <= 3
    assert sum(s["done"] for s in segments) == len(records)
    assert all(r["cal_s"] > 0 for r in records)
    assert all(s["cal_s"] > 0 and s["wall_s"] > 0 for s in segments)


def _contract(workload, trace, seed=1, seconds=2):
    proc = run_py("--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    return line["metrics"], proc.stdout


def test_contract_output_carries_every_metric_by_name():
    metrics, text = _contract("kmer_aat_sparse_t16", 0)
    assert {k: v["unit"] for k, v in metrics.items()} == run.E2E_UNITS
    assert all(v["value"] > 0 for v in metrics.values())
    for name in run.E2E_UNITS:
        assert name in text
    metrics, text = _contract("kmer_aat_sparse_t16", 1)
    assert {k: v["unit"] for k, v in metrics.items()} == layers.PER_LAYER
    split = sum(metrics[f"summa.{part}_s"]["value"]
                for part in ("prologue", "region", "epilogue"))
    assert split > 0 and metrics["summa.unattributed_s"]["value"] < 1e-6 * split
    assert os.path.exists(os.path.join(HERE, "out", "kmer_aat_sparse_t16.trace.json"))


@pytest.mark.parametrize("name", ["kmer_aat_sparse_t16", "serve_mixed_t4"])
def test_count_metrics_repeat_exactly(name):
    counted = compare.count_metrics(SPEC)
    first, _ = _contract(name, 1, seed=4)
    second, _ = _contract(name, 1, seed=4)
    for metric in counted:
        assert first[metric]["value"] == second[metric]["value"], metric


def test_smoke_covers_every_workload_within_30_s():
    t0 = time.monotonic()
    proc = run_py("--smoke")
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    for name in run.WORKLOAD_ORDER:
        assert f"== {name}: end to end" in proc.stdout
    assert "fail_share" in proc.stdout
    assert elapsed < 30.0, elapsed


def test_exits_nonzero_where_the_program_is_missing(tmp_path):
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for fname in os.listdir(HERE):
        if fname.endswith(".py"):
            (bare / fname).write_text(open(os.path.join(HERE, fname)).read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "protein_local_p1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")


def _result(wall, fail_share=0.0):
    metrics = {"wall_s": wall, "jobs_per_s": 1 / wall, "setup_s": 1.0,
               "peak_rss_mb": 100.0}
    blocks = {k: [v, v, v] for k, v in metrics.items()}
    return {"workloads": {"w": {"end_to_end": {
        "metrics": metrics, "per_block": blocks, "fail_share": fail_share,
    }, "traced": None}}}


def test_compare_flags_breach_and_unresolved(tmp_path, capsys):
    def write(name, result):
        path = tmp_path / name
        path.write_text(json.dumps(result))
        return str(path)

    base = write("a.json", _result(1.0))
    assert compare.compare_files(base, write("same.json", _result(1.04)), SPEC) == 0
    assert compare.compare_files(base, write("slow.json", _result(1.5)), SPEC) == 1
    assert "BREACH" in capsys.readouterr().out
    noisy = copy.deepcopy(_result(1.5))
    noisy["workloads"]["w"]["end_to_end"]["per_block"]["wall_s"] = [1.0, 1.5, 2.0]
    noisy["workloads"]["w"]["end_to_end"]["per_block"]["jobs_per_s"] = [1.0, 0.67, 0.5]
    assert compare.compare_files(base, write("noisy.json", noisy), SPEC) == 0
    assert "unresolved" in capsys.readouterr().out
    failing = write("fail.json", _result(1.0, fail_share=0.1))
    assert compare.compare_files(base, failing, SPEC) == 1
