"""Tests for the kernel-suite registry and semiring registry surfaces."""

import numpy as np

from repro.sparse import random_sparse
from repro.sparse.semiring import PLUS_PAIR, get_semiring
from repro.sparse.spgemm.suite import KernelSuite, available_suites, get_suite


class TestSuiteRegistry:
    def test_available_suites(self):
        names = available_suites()
        assert set(names) == {
            "esc", "unsorted-hash", "sorted-heap", "hybrid", "spa",
        }

    def test_suite_metadata_consistent(self):
        for name in available_suites():
            suite = get_suite(name)
            assert isinstance(suite, KernelSuite)
            assert suite.name == name
            assert callable(suite.local_multiply)
            assert callable(suite.merge)

    def test_paper_suite_properties(self):
        """The properties the paper's Sec. IV-D argument rests on."""
        this_paper = get_suite("unsorted-hash")
        prior = get_suite("sorted-heap")
        assert not this_paper.requires_sorted_inputs
        assert not this_paper.emits_sorted
        assert prior.requires_sorted_inputs
        assert prior.emits_sorted

    def test_merge_matches_multiply_sortedness(self):
        """Every suite's merge accepts what its multiply emits."""
        a = random_sparse(20, 20, nnz=80, seed=321)
        for name in available_suites():
            suite = get_suite(name)
            operand = a.sort_indices() if suite.requires_sorted_inputs else a
            from repro.sparse.semiring import PLUS_TIMES

            partial = suite.local_multiply(operand, operand, PLUS_TIMES)
            merged = suite.merge([partial, partial], PLUS_TIMES)
            assert np.allclose(
                merged.to_dense(), 2 * (a.to_dense() @ a.to_dense())
            ), name

    def test_every_suite_is_a_tier_of_the_spgemm_kernel(self):
        """The distributed layers reach a suite through ``kernel=``: the
        SpGEMM kernel owns it, and its name spells the tier back."""
        from repro.kernels import SpgemmKernel, get_kernel

        for name in available_suites():
            kern = get_kernel(f"spgemm:{name}")
            assert type(kern) is SpgemmKernel and kern.suite is get_suite(name)
            assert get_kernel(kern.name).suite is kern.suite
            assert kern.name == ("spgemm" if name == "esc" else f"spgemm:{name}")
        assert get_kernel("spgemm").suite is get_suite("esc")


class TestPlusPair:
    def test_counts_structural_products(self):
        a = random_sparse(15, 15, nnz=60, seed=322)
        from repro.sparse import multiply

        got = multiply(a, a, semiring=PLUS_PAIR)
        pa = (a.to_dense() != 0).astype(float)
        assert np.allclose(got.to_dense(), pa @ pa)

    def test_weights_irrelevant(self):
        from repro.sparse import SparseMatrix, multiply

        a = random_sparse(12, 12, nnz=40, seed=323)
        scaled = SparseMatrix(
            a.nrows, a.ncols, a.indptr, a.rowidx, a.values * 13.7,
        )
        assert multiply(a, a, semiring=PLUS_PAIR).allclose(
            multiply(scaled, scaled, semiring=PLUS_PAIR)
        )

    def test_registry_lookup(self):
        assert get_semiring("plus_pair") is PLUS_PAIR
