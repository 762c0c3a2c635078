"""Packaging-level tests of the public API surface.

Everything the package exports must be importable, documented, and
consistent — the contract a downstream user relies on before reading any
code.
"""

import importlib
import re
from pathlib import Path

import pytest

import repro

API_DOC = Path(__file__).resolve().parents[1] / "docs" / "API.md"

SUBPACKAGES = [
    "repro.sparse",
    "repro.simmpi",
    "repro.grid",
    "repro.summa",
    "repro.model",
    "repro.apps",
    "repro.data",
    "repro.dist",
    "repro.utils",
    "repro.cli",
]


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing name {name}"

    def test_exported_callables_documented(self):
        undocumented = [
            name for name in repro.__all__
            if callable(getattr(repro, name))
            and not (getattr(repro, name).__doc__ or "").strip()
        ]
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_import_is_warning_free(self):
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-W", "error", "-c", "import repro, repro.cli"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr

    def test_version_matches_changelog(self):
        assert repro.__version__ == "1.0.0"

    def test_error_hierarchy(self):
        from repro import (
            CommError,
            DistributionError,
            FormatError,
            GridError,
            MemoryBudgetError,
            PlannerError,
            ReproError,
            ShapeError,
            SpmdError,
        )

        for exc in (ShapeError, FormatError, GridError, DistributionError,
                    MemoryBudgetError, CommError, SpmdError, PlannerError):
            assert issubclass(exc, ReproError)


def top_level_table() -> set[str]:
    """Names in docs/API.md's "Top level" table: the identifier that
    starts each backticked token of a row's first cell (``prune_*`` kept
    as a wildcard)."""
    section = API_DOC.read_text().split("## Top level")[1].split("\n## ")[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return {
        re.match(r"[A-Za-z_]\w*\*?", token).group(0)
        for row in rows[2:]  # past the header and its rule
        for token in re.findall(r"`([^`]+)`", row.split("|")[1])
    }


def test_api_doc_top_level_table_matches_all():
    """Both directions: every public name of ``repro.__all__`` is in the
    table (a wildcard covers the names it prefixes), and every name the
    table gives — every wildcard too — is exported."""
    exported = {n for n in repro.__all__ if not n.startswith("__")}
    documented = top_level_table()
    wildcards = {n[:-1] for n in documented if n.endswith("*")}
    covered = {
        n for n in exported
        if n in documented or any(n.startswith(w) for w in wildcards)
    }
    assert exported - covered == set(), "exported but not in the table"
    stray = {n for n in documented - exported if not n.endswith("*")}
    stray |= {
        w + "*" for w in wildcards
        if not any(n.startswith(w) for n in exported)
    }
    assert stray == set(), "in the table but not exported"


class TestSubpackages:
    @pytest.mark.parametrize("module", SUBPACKAGES)
    def test_importable_and_documented(self, module):
        mod = importlib.import_module(module)
        assert (mod.__doc__ or "").strip(), f"{module} lacks a docstring"

    @pytest.mark.parametrize("module", [
        "repro.sparse", "repro.simmpi", "repro.summa", "repro.model",
        "repro.apps", "repro.data", "repro.dist", "repro.utils", "repro.plan",
    ])
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.__all__ lists {name}"


class TestScipyIsolation:
    def test_library_never_imports_scipy(self):
        """scipy is a test oracle only — the library must stand alone."""
        import subprocess
        import sys

        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"  # poison the import
            "import repro\n"
            "import repro.apps, repro.dist, repro.model, repro.cli\n"
            "a = repro.random_sparse(10, 10, nnz=20, seed=1)\n"
            "r = repro.batched_summa3d(a, a, nprocs=4, batches=2)\n"
            "assert r.matrix.nnz > 0\n"
            "print('scipy-free OK')\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert "scipy-free OK" in out.stdout
