"""``benchmarks/reach.py --knobs``: the tally on a toy driver, and the kept
list against the DESIGN.md table that explains it."""

import importlib.util
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("reach", REPO / "benchmarks" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

TOY = """
from repro.sparse import random_sparse
from repro.summa import batched_summa3d
a = random_sparse(12, 12, nnz=30, seed=1)
batched_summa3d(a, a, nprocs=4, batches=2)
batched_summa3d(a, a, nprocs=4, batches=3, overlap="depth1", on_batch=lambda *_: None)
"""


def test_knob_tally_of_a_two_run_driver(tmp_path, capsys):
    (tmp_path / "sitecustomize.py").write_text(reach.HOOK)
    (tmp_path / "toy.py").write_text(TOY)
    knobs, broken = {}, []
    seen = reach.entered(
        [[sys.executable, str(tmp_path / "toy.py")]], str(tmp_path), knobs, broken
    )
    assert not broken and any(f.endswith("summa/batched.py") for f, _ in seen)
    assert len(knobs[""]) == 2                      # one record per run
    assert knobs["batches"] == ["2", "3"]
    assert sorted(knobs["overlap"]) == ["'depth1'", "'off'"]
    assert sorted(knobs["on_batch"]) == ["-", "given"] and set(knobs["mask"]) == {"-"}
    # single-valued here and not on the kept list: reported; kept or varied: not
    unkept = reach.knob_report({"toy": knobs}, check=True)
    flagged = set(re.findall(r"KEPT_KNOBS: (\w+)", capsys.readouterr().err))
    assert unkept == len(flagged) and "nprocs" in flagged
    assert not flagged & ({"batches", "overlap", "on_batch", "mask"} | set(reach.KEPT_KNOBS))


def test_kept_knobs_are_the_ones_design_explains():
    from repro.plan.spec import SPEC_FIELDS

    section = (REPO / "DESIGN.md").read_text().split("### Knobs no driver varies")[1]
    rows = re.findall(r"^\| `(\w+)`", section.split("\n## ")[0], flags=re.M)
    assert sorted(rows) == sorted(reach.KEPT_KNOBS)
    assert set(reach.KEPT_KNOBS) <= set(SPEC_FIELDS)
    assert all(reach.KEPT_KNOBS.values())           # each with its reason
