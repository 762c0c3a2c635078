"""Shared printing for the benchmark scripts: every bench prints its
series as an aligned table (visible with ``pytest ... -s``)."""

from __future__ import annotations


def print_series(title: str, header: list[str], rows: list[list]) -> None:
    """Print one figure's data series as an aligned table."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(h)), max((len(_fmt(r[i])) for r in rows), default=0))
        for i, h in enumerate(header)
    ]
    print("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(_fmt(v).rjust(w) for v, w in zip(row, widths)))


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)
