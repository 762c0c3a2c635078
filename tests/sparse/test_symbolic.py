"""Symbolic SpGEMM tests: nnz / flops / per-column structure analysis."""

import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import kmer_matrix, rmat
from repro.errors import ShapeError
from repro.sparse import (
    SparseMatrix,
    eye,
    spgemm_esc,
    symbolic_flops,
    symbolic_nnz,
    transpose,
)
from repro.sparse.matrix import BYTES_PER_NONZERO
from repro.sparse.ops import permute
from repro.sparse.spgemm import symbolic
from repro.sparse.spgemm.symbolic import flops_per_column, symbolic_pattern
from repro.summa import symbolic3d
from tests.conftest import set_tier, to_scipy
from tests.sparse.test_chunked import DEFAULT_TARGET
from tests.sparse.test_sort_once import FAMILIES


class TestFlops:
    def test_manual_count(self):
        # A column 0 has 2 nonzeros; B(0, 0) nonzero => 2 products
        a = SparseMatrix.from_coo(3, 2, [0, 1], [0, 0], [1.0, 1.0])
        b = SparseMatrix.from_coo(2, 2, [0], [0], [1.0])
        assert symbolic_flops(a, b) == 2

    def test_identity_flops_equals_nnz(self, square_matrix):
        assert symbolic_flops(square_matrix, eye(64)) == square_matrix.nnz

    def test_empty(self):
        assert symbolic_flops(SparseMatrix.empty(3, 3), SparseMatrix.empty(3, 3)) == 0

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            symbolic_flops(eye(3), eye(4))

    def test_flops_ge_nnz_c(self, square_matrix):
        flops = symbolic_flops(square_matrix, square_matrix)
        nnz_c = symbolic_nnz(square_matrix, square_matrix)
        assert flops >= nnz_c >= 0


class TestNnz:
    def test_matches_actual_product(self, small_pair):
        a, b = small_pair
        assert symbolic_nnz(a, b) == spgemm_esc(a, b).nnz

    def test_square(self, square_matrix):
        assert symbolic_nnz(square_matrix, square_matrix) == spgemm_esc(
            square_matrix, square_matrix
        ).nnz

    def test_empty(self):
        assert symbolic_nnz(SparseMatrix.empty(3, 4), SparseMatrix.empty(4, 5)) == 0

    def test_symbolic_counts_cancellation(self):
        # numeric cancellation still counts structurally
        a = SparseMatrix.from_coo(1, 2, [0, 0], [0, 1], [1.0, 1.0])
        b = SparseMatrix.from_coo(2, 1, [0, 1], [0, 0], [1.0, -1.0])
        assert symbolic_nnz(a, b) == 1


class TestPerColumn:
    def test_sums_match_totals(self, small_pair):
        a, b = small_pair
        assert symbolic_pattern(a, b).col_nnz().sum() == symbolic_nnz(a, b)
        assert flops_per_column(a, b).sum() == symbolic_flops(a, b)

    def test_per_column_matches_product(self, small_pair):
        a, b = small_pair
        c = spgemm_esc(a, b)
        assert np.array_equal(symbolic_pattern(a, b).col_nnz(), c.col_nnz())

    def test_empty_inputs(self):
        a, b = SparseMatrix.empty(4, 4), SparseMatrix.empty(4, 6)
        assert symbolic_pattern(a, b).col_nnz().shape == (6,)
        assert flops_per_column(a, b).sum() == 0


class TestCompressionFactor:
    def test_at_least_one(self, square_matrix):
        assert symbolic_flops(square_matrix, square_matrix) >= symbolic_nnz(
            square_matrix, square_matrix
        )

    def test_identity_cf_is_one(self, square_matrix):
        assert symbolic_flops(square_matrix, eye(64)) == symbolic_nnz(
            square_matrix, eye(64)
        )


# --------------------------------------------------------------------- #
# the two counting tiers: bitsets and ESC
# --------------------------------------------------------------------- #

def bitset_count(a, b):
    return symbolic._bitset_count(a, b, *symbolic._row_rank(a))


def scipy_count(a, b):
    """The structural count by an outside oracle: ``(A≠0)·(B≠0)``."""
    pa = (to_scipy(a) != 0).astype(np.int64)
    pb = (to_scipy(b) != 0).astype(np.int64)
    return int((pa @ pb).nnz)


def column_pattern(rng, nrows, kinds, allowed, ordered, cancel):
    """A matrix whose column ``j`` holds ``kinds[j]`` of the ``allowed``
    rows (none, one, about half, all), stored in drawn or sorted order,
    valued ±1 (so that products cancel) or in [0.5, 2)."""
    sizes = {"empty": 0, "hyper": 1, "half": len(allowed) // 2 + 1,
             "full": len(allowed)}
    pieces = [rng.choice(allowed, size=min(sizes[k], len(allowed)), replace=False)
              for k in kinds]
    pieces = [np.sort(p) if ordered else p for p in pieces]
    indptr = np.zeros(len(kinds) + 1, dtype=np.int64)
    np.cumsum([p.shape[0] for p in pieces], out=indptr[1:])
    rows = np.concatenate(pieces + [np.empty(0, dtype=np.int64)]).astype(np.int64)
    vals = (rng.choice([-1.0, 1.0], size=rows.shape[0]) if cancel
            else rng.uniform(0.5, 2.0, size=rows.shape[0]))
    return SparseMatrix(nrows, len(kinds), indptr, rows, vals,
                        sorted_within_columns=ordered)


@st.composite
def operands(draw):
    """``(A, B)``: rows 0, 1, 63, 64, 65 or any up to 130; empty rows and
    columns, hypersparse, half and full columns; sorted or unsorted
    storage; cancelling values; and a B that may touch only empty A
    columns."""
    nrows = draw(st.sampled_from([0, 1, 63, 64, 65]) | st.integers(0, 130))
    kinds = st.sampled_from(["empty", "hyper", "half", "full"])
    a_kinds = draw(st.lists(kinds, max_size=9))
    b_kinds = draw(st.lists(kinds, max_size=9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    live = np.flatnonzero(rng.random(nrows) < draw(st.sampled_from([0.3, 1.0])))
    inner = np.arange(len(a_kinds))
    if draw(st.booleans()):  # B reaches A only through its empty columns
        inner = inner[[kind == "empty" for kind in a_kinds]]
    flags = st.booleans()
    a = column_pattern(rng, nrows, a_kinds, live, draw(flags), draw(flags))
    b = column_pattern(rng, len(a_kinds), b_kinds, inner, draw(flags), draw(flags))
    return a, b


class TestTiersAreExact:
    @settings(max_examples=200)
    @given(pair=operands())
    def test_every_count_agrees(self, pair):
        a, b = pair
        want = scipy_count(a, b)
        assert bitset_count(a, b) == want
        assert symbolic._sort_count(a, b) == want
        assert spgemm_esc(a, b).nnz == want
        assert symbolic_nnz(a, b) == want

    @pytest.mark.parametrize("forced", ["table", "sort"])
    def test_shape_checked_on_every_tier(self, forced, monkeypatch):
        set_tier(monkeypatch.setattr, forced)
        for a, b in ((eye(3), eye(4)),
                     (SparseMatrix.empty(3, 3), SparseMatrix.empty(4, 5)),
                     (SparseMatrix.empty(0, 2), SparseMatrix.empty(3, 0))):
            with pytest.raises(ShapeError):
                symbolic_nnz(a, b)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_families_on_each_tier(self, name, monkeypatch):
        a, b = FAMILIES[name]
        want = scipy_count(a, b)
        for forced in ("table", "sort", "default"):
            set_tier(monkeypatch.setattr, forced)
            assert symbolic_nnz(a, b) == want

    def test_row_blocks_add_up(self, monkeypatch):
        """A table wider than the chunk is built a block of row words at
        a time; the popcounts of the blocks add to the count."""
        a, b = FAMILIES["protein"]
        want = bitset_count(a, b)
        words = symbolic._row_rank(a)[1]
        assert words >= 3
        for target in (1, 2 * a.ncols, 3 * a.ncols):  # 1, 2, 3 words a block
            monkeypatch.setattr(symbolic.esc, "_CHUNK_PRODUCTS", target)
            with mock.patch.object(symbolic, "_column_bitsets",
                                   wraps=symbolic._column_bitsets) as table:
                assert bitset_count(a, b) == want
            widths = [c.args[3] for c in table.call_args_list]
            assert sum(widths) == words
            assert max(widths) * a.ncols <= max(target, a.ncols)


class TestPopcount:
    def test_fallback_without_bitwise_count(self, monkeypatch):
        """NumPy < 2.0 has no ``bitwise_count``: the byte table counts."""
        rng = np.random.default_rng(3)
        words = np.concatenate([
            rng.integers(0, 2**63, size=(40, 3), dtype=np.uint64, endpoint=True),
            np.array([[0, 2**64 - 1, 1]], dtype=np.uint64)])
        want = sum(bin(int(w)).count("1") for w in words.ravel())
        a, b = FAMILIES["rmat"]
        count = bitset_count(a, b)
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        assert symbolic._popcount(words) == want
        assert bitset_count(a, b) == count == scipy_count(a, b)


# --------------------------------------------------------------------- #
# Alg. 3 on the tiles: same b and max nnz(C) as the ESC-only count
# --------------------------------------------------------------------- #

#: ``(batches, max_nnz_c)`` of ``symbolic3d`` at a budget of 8x the input
#: entries, as the ESC count gave them before the bitset tier existed
BEFORE_BITSETS = {
    ("erdos_renyi", 4): (1, 1288), ("erdos_renyi", 16): (1, 481),
    ("kmer_aat", 4): (1, 143), ("kmer_aat", 16): (1, 91),
    ("planted", 4): (1, 1081), ("planted", 16): (1, 433),
    ("protein", 4): (1, 1005), ("protein", 16): (1, 423),
    ("rmat", 4): (2, 2599), ("rmat", 16): (7, 2322),
}


@pytest.mark.parametrize("nprocs,layers", [(4, 1), (16, 4)])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_symbolic3d_unchanged_on_every_tier(name, nprocs, layers, monkeypatch):
    a, b = FAMILIES[name]
    budget = 8 * (a.nnz + b.nnz) * BYTES_PER_NONZERO
    for forced in ("default", "table", "sort"):
        set_tier(monkeypatch.setattr, forced)
        r = symbolic3d(a, b, nprocs=nprocs, layers=layers, memory_budget=budget)
        assert (r.batches, r.max_nnz_c) == BEFORE_BITSETS[name, nprocs]


# --------------------------------------------------------------------- #
# the rule: which tier the benchmark's tiles take
# --------------------------------------------------------------------- #

def tiers_taken(a, b, **knobs):
    """``{"bitset": n, "sort": n}`` calls while ``symbolic3d`` runs."""
    calls, lock = {"bitset": 0, "sort": 0}, threading.Lock()

    def counting(tier, fn):
        def count(*args):
            with lock:
                calls[tier] += 1
            return fn(*args)
        return count

    with mock.patch.object(symbolic, "_bitset_count",
                           counting("bitset", symbolic._bitset_count)), \
            mock.patch.object(symbolic, "_sort_count",
                              counting("sort", symbolic._sort_count)):
        symbolic3d(a, b, **knobs)
    return calls


class TestTierRule:
    """A change to ``_BITSET_WORDS`` has to move these with its numbers."""

    @pytest.fixture(autouse=True)
    def shipped(self, monkeypatch):
        set_tier(monkeypatch.setattr, "default")
        monkeypatch.setattr(symbolic.esc, "_CHUNK_PRODUCTS", DEFAULT_TARGET)

    def test_rmat_budget_tiles_count_by_bitsets(self):
        # relabelled at random, as the benchmark's rmat_budget_t16 is
        perm = np.random.default_rng(7).permutation(1 << 12)
        a = permute(rmat(12, edge_factor=8, seed=1), perm, perm)
        budget = 40 * a.nnz * BYTES_PER_NONZERO
        calls = tiers_taken(a, a, nprocs=16, layers=4, memory_budget=budget)
        assert calls == {"bitset": 32, "sort": 0}  # 16 ranks x 2 stages

    def test_kmer_aat_tiles_count_by_sorting(self):
        a = kmer_matrix(3000, 200000, kmers_per_seq=15.0, zipf_exponent=0.35,
                        seed=1)
        calls = tiers_taken(a, transpose(a), nprocs=16, layers=4,
                            memory_budget=10**9)
        assert calls["bitset"] == 0 and calls["sort"] >= 16
