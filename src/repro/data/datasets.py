"""Scaled-down registry of the paper's Table V test matrices.

Each entry pairs the paper's reported statistics with a generator that
produces a laptop-scale stand-in preserving the statistics that drive the
algorithm: output expansion ``nnz(C)/nnz(A)``, compression factor
``cf = flops/nnz(C)``, and degree skew.  ``bench_table5_datasets`` prints
paper vs. achieved values side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..sparse.matrix import SparseMatrix
from ..sparse.ops import transpose
from ..sparse.spgemm.symbolic import symbolic_flops, symbolic_nnz
from .generators import kmer_matrix, protein_similarity, rmat


@dataclass(frozen=True)
class PaperStats:
    """Table V row as published (absolute paper-scale numbers)."""

    rows: float
    cols: float
    nnz_a: float
    nnz_c: float
    flops: float

    @property
    def expansion(self) -> float:
        """nnz(C) / nnz(A) — how much the output outgrows the input."""
        return self.nnz_c / self.nnz_a

    @property
    def cf(self) -> float:
        """Compression factor flops / nnz(C)."""
        return self.flops / self.nnz_c


@dataclass(frozen=True)
class DatasetSpec:
    """One scaled dataset: paper statistics + a scaled generator.

    ``operation`` records which product the paper computes with it:
    ``"AA"`` (squaring) or ``"AAT"`` (A times its transpose).
    """

    name: str
    operation: str
    paper: PaperStats
    generator: Callable[[int], SparseMatrix]
    description: str

    def generate(self, seed: int = 0) -> SparseMatrix:
        return self.generator(seed)

    def operands(self, seed: int = 0) -> tuple[SparseMatrix, SparseMatrix]:
        """The (A, B) pair of the paper's experiment for this dataset."""
        a = self.generate(seed)
        return (a, transpose(a)) if self.operation == "AAT" else (a, a)

    def achieved_stats(self, seed: int = 0) -> dict[str, float]:
        """Statistics of the scaled instance, same fields as Table V."""
        a, b = self.operands(seed)
        nnz_c = symbolic_nnz(a, b)
        flops = symbolic_flops(a, b)
        return {
            "rows": a.nrows,
            "cols": a.ncols,
            "nnz_a": a.nnz,
            "nnz_c": nnz_c,
            "flops": flops,
            "expansion": nnz_c / a.nnz if a.nnz else 0.0,
            "cf": flops / nnz_c if nnz_c else 0.0,
        }


M, B, T = 1e6, 1e9, 1e12

DATASETS: dict[str, DatasetSpec] = {
    "eukarya": DatasetSpec(
        name="eukarya",
        operation="AA",
        paper=PaperStats(3 * M, 3 * M, 360 * M, 2 * B, 134 * B),
        generator=lambda seed: protein_similarity(
            900, intra_density=0.35, noise_degree=1.0, seed=seed
        ),
        description="protein-similarity network (IMG isolate genomes), smallest of the collection",
    ),
    "rice_kmers": DatasetSpec(
        name="rice_kmers",
        operation="AAT",
        paper=PaperStats(5 * M, 2 * B, 4.5 * B, 6 * B, 12.4 * B),
        generator=lambda seed: kmer_matrix(
            600, 40000, kmers_per_seq=15.0, zipf_exponent=0.35, seed=seed
        ),
        description="PacBio rice reads x k-mers (BELLA overlap); ~2 nnz per column, nnz(AAT) ~ nnz(A)",
    ),
    "metaclust20m": DatasetSpec(
        name="metaclust20m",
        operation="AAT",
        paper=PaperStats(20 * M, 244 * M, 2 * B, 312 * B, 347 * B),
        generator=lambda seed: kmer_matrix(
            800, 4000, kmers_per_seq=25.0, zipf_exponent=1.4, seed=seed
        ),
        description="protein sequences x k-mers (PASTIS); popular k-mers make AAT expand >100x",
    ),
    "isolates_small": DatasetSpec(
        name="isolates_small",
        operation="AA",
        paper=PaperStats(35 * M, 35 * M, 17 * B, 248 * B, 42 * T),
        generator=lambda seed: protein_similarity(
            1400, intra_density=0.45, noise_degree=1.5, seed=seed
        ),
        description="protein-similarity network, mid-size; cf ~ 170 (flop-heavy squaring)",
    ),
    "friendster": DatasetSpec(
        name="friendster",
        operation="AA",
        paper=PaperStats(66 * M, 66 * M, 3.6 * B, 1 * T, 1.4 * T),
        generator=lambda seed: rmat(11, edge_factor=6, seed=seed),
        description="online social network (SuiteSparse); power-law degrees, 278x output expansion",
    ),
    "isolates": DatasetSpec(
        name="isolates",
        operation="AA",
        paper=PaperStats(70 * M, 70 * M, 68 * B, 984 * B, 301 * T),
        generator=lambda seed: protein_similarity(
            2000, intra_density=0.5, noise_degree=1.5, seed=seed
        ),
        description="largest protein-similarity network; 300 Tflop squaring, 2.2 PB unmerged",
    ),
    "metaclust50": DatasetSpec(
        name="metaclust50",
        operation="AA",
        paper=PaperStats(282 * M, 282 * M, 37 * B, 1 * T, 92 * T),
        generator=lambda seed: protein_similarity(
            2400, intra_density=0.25, noise_degree=2.5, seed=seed
        ),
        description="Metaclust50 predicted-gene similarities; sparser than Isolates, comm-bound at scale",
    ),
}


def dataset_names() -> list[str]:
    """Registry keys in Table V order."""
    return list(DATASETS)


def load_dataset(name: str) -> DatasetSpec:
    """Look up a dataset spec by name."""
    try:
        return DATASETS[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {dataset_names()}"
        ) from None
