"""Tests for synthetic workload generators and the dataset registry."""

import numpy as np
import pytest

from repro.data import (
    dataset_names,
    erdos_renyi,
    kmer_matrix,
    load_dataset,
    planted_partition,
    protein_similarity,
    rmat,
)
from repro.sparse import transpose
from repro.sparse.spgemm.symbolic import symbolic_flops, symbolic_nnz


def _is_symmetric(m):
    return transpose(m).allclose(m)


class TestErdosRenyi:
    def test_symmetric(self):
        assert _is_symmetric(erdos_renyi(50, avg_degree=6, seed=1))

    def test_asymmetric_option(self):
        m = erdos_renyi(50, avg_degree=6, seed=1, symmetric=False)
        assert m.nnz == 300

    def test_determinism(self):
        assert erdos_renyi(30, seed=2).allclose(erdos_renyi(30, seed=2))


class TestRmat:
    def test_shape(self):
        m = rmat(7, edge_factor=4, seed=1)
        assert m.shape == (128, 128)

    def test_symmetric(self):
        assert _is_symmetric(rmat(6, seed=2))

    def test_degree_skew(self):
        """R-MAT with Graph500 parameters must have a heavy degree tail."""
        m = rmat(10, edge_factor=8, seed=3)
        deg = m.col_nnz()
        assert deg.max() > 8 * np.median(deg[deg > 0])

    def test_uniform_parameters_no_skew(self):
        m = rmat(9, edge_factor=8, a=0.25, b=0.25, c=0.25, seed=4)
        deg = m.col_nnz()
        assert deg.max() <= 6 * max(1, np.median(deg[deg > 0]))

    def test_pattern_values_are_ones(self):
        m = rmat(6, seed=5)
        assert np.all(m.values == 1.0)

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            rmat(4, a=0.5, b=0.5, c=0.2)

    def test_determinism(self):
        assert rmat(6, seed=6).allclose(rmat(6, seed=6))


class TestProteinSimilarity:
    def test_symmetric_with_unit_diagonal(self):
        m = protein_similarity(120, seed=1)
        assert _is_symmetric(m)
        d = m.to_dense()
        assert np.allclose(np.diag(d), 1.0)

    def test_values_in_range(self):
        m = protein_similarity(100, seed=2)
        assert m.values.min() > 0
        assert m.values.max() <= 1.0

    def test_high_compression_factor(self):
        """Community structure must make squaring flop-heavy (cf >> 1);
        cf grows with size, so check both a small and a mid-size instance."""
        small = protein_similarity(200, seed=3)
        assert symbolic_flops(small, small) / symbolic_nnz(small, small) > 1.5
        mid = protein_similarity(600, intra_density=0.45, seed=3)
        assert symbolic_flops(mid, mid) / symbolic_nnz(mid, mid) > 3.0

    def test_determinism(self):
        assert protein_similarity(80, seed=4).allclose(
            protein_similarity(80, seed=4)
        )


class TestPlantedPartition:
    def test_labels_cover_clusters(self):
        _, labels = planted_partition(60, 5, seed=1)
        assert set(labels.tolist()) == set(range(5))

    def test_intra_density_dominates(self):
        adj, labels = planted_partition(60, 3, p_in=0.8, p_out=0.01, seed=2)
        rows, cols, _ = adj.to_coo()
        off = rows != cols
        same = labels[rows[off]] == labels[cols[off]]
        assert same.mean() > 0.8

    def test_symmetric(self):
        adj, _ = planted_partition(40, 4, seed=3)
        assert _is_symmetric(adj)


class TestKmerMatrix:
    def test_shape_and_binary(self):
        m = kmer_matrix(50, 400, kmers_per_seq=8, seed=1)
        assert m.shape == (50, 400)
        assert np.all(m.values == 1.0)

    def test_zipf_popularity_skew(self):
        m = kmer_matrix(400, 1000, kmers_per_seq=20, zipf_exponent=1.5, seed=2)
        popularity = np.sort(m.col_nnz())[::-1]
        # top 1% of k-mers carry far more than 1% of occurrences
        top = popularity[:10].sum()
        assert top > 0.05 * m.nnz

    def test_determinism(self):
        assert kmer_matrix(30, 100, seed=3).allclose(kmer_matrix(30, 100, seed=3))


class TestDatasetRegistry:
    def test_names_match_table5(self):
        assert dataset_names() == [
            "eukarya", "rice_kmers", "metaclust20m", "isolates_small",
            "friendster", "isolates", "metaclust50",
        ]

    def test_load_unknown(self):
        with pytest.raises(KeyError):
            load_dataset("nope")

    @pytest.mark.parametrize("name", ["eukarya", "friendster", "rice_kmers"])
    def test_operands_compatible(self, name):
        spec = load_dataset(name)
        a, b = spec.operands(seed=0)
        assert a.ncols == b.nrows

    def test_aat_datasets_use_transpose(self):
        spec = load_dataset("rice_kmers")
        a, b = spec.operands(seed=0)
        assert spec.operation == "AAT"
        assert b.allclose(transpose(a))

    def test_paper_stats_fields(self):
        spec = load_dataset("isolates")
        assert spec.paper.cf > 100          # 301T / 984B
        assert spec.paper.expansion > 10    # 984B / 68B

    def test_achieved_stats_shape_preserved(self):
        """The scaled stand-ins must preserve the regime: expansion > 1 and
        cf > 1 for the squaring datasets."""
        for name in ("eukarya", "isolates_small", "friendster"):
            stats = load_dataset(name).achieved_stats(seed=0)
            assert stats["expansion"] > 1.0, name
            assert stats["cf"] > 1.5, name

    def test_rice_kmers_low_expansion(self):
        """Rice-kmers: nnz(AAT) ~ nnz(A) in the paper (no batching needed)."""
        stats = load_dataset("rice_kmers").achieved_stats(seed=0)
        assert stats["expansion"] < 8.0

    def test_metaclust20m_high_expansion(self):
        """Metaclust20m: AAT expands >100x in the paper; the stand-in must
        expand strongly too."""
        stats = load_dataset("metaclust20m").achieved_stats(seed=0)
        assert stats["expansion"] > 20.0
