"""``run.py --compare A.json B.json``: B against A, per workload and
end-to-end metric, with the bounds ``BENCHMARK.json`` fixes."""

from __future__ import annotations

import json
import statistics


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if not a:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def count_metrics(spec: dict) -> set:
    return {m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")}


def compare_files(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    breaches = 0
    print(f"{'workload':<22}{'metric':<14}{'A':>12}{'B':>12}{'worse by':>10}"
          f"{'bound':>8}{'spread A':>10}{'spread B':>10}  verdict")
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None or "end_to_end" not in entry_a or "end_to_end" not in entry_b:
            continue
        ea, eb = entry_a["end_to_end"], entry_b["end_to_end"]
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            va, vb = ea["metrics"][key], eb["metrics"][key]
            worse = worse_by(va, vb, metric["better"])
            sa, sb = spread(ea["per_block"][key]), spread(eb["per_block"][key])
            if max(sa, sb) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "BREACH"
                breaches += 1
            else:
                verdict = "ok"
            print(f"{name:<22}{key:<14}{va:>12.5g}{vb:>12.5g}{worse:>+10.1%}"
                  f"{bound:>8.0%}{sa:>10.1%}{sb:>10.1%}  {verdict}")
        # any increase in the share of failed ops is a breach
        fa, fb = ea["fail_share"], eb["fail_share"]
        verdict = "BREACH" if fb > fa else "ok"
        breaches += fb > fa
        print(f"{name:<22}{'fail_share':<14}{fa:>12.5g}{fb:>12.5g}"
              f"{'':>10}{'any':>8}{'':>20}  {verdict}")
    differing = []
    for name, entry_a in a["workloads"].items():
        la = (entry_a.get("traced") or {}).get("layers") or {}
        lb = ((b["workloads"].get(name) or {}).get("traced") or {}).get("layers") or {}
        differing += [f"{name}:{k}" for k in sorted(count_metrics(spec))
                      if k in la and k in lb and la[k] != lb[k]]
    print(f"count metrics identical: {'yes' if not differing else 'no'}"
          + (f" ({', '.join(differing[:8])})" if differing else ""))
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0
