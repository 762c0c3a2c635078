"""The CSC sparse-matrix container used throughout the library.

The paper's local kernels (Sec. IV-D) exploit one structural degree of
freedom: whether row indices *within each column* are sorted.  The
sort-free hash SpGEMM and hash merge emit unsorted columns; the final
Merge-Fiber output is sorted.  :class:`SparseMatrix` therefore carries an
explicit ``sorted_within_columns`` flag, and every kernel documents what it
requires and what it produces.

Invariants (always enforced at construction unless ``validate=False``):

* ``indptr`` has length ``ncols + 1``, starts at 0, is non-decreasing and
  ends at ``nnz``;
* ``rowidx`` entries are in ``[0, nrows)``;
* there are **no duplicate** ``(row, col)`` coordinates — accumulation has
  already happened (this is what distinguishes a matrix from an unmerged
  pile of partial products);
* if ``sorted_within_columns`` is True, row indices are strictly increasing
  within each column.

What the check costs: the last two invariants together say "the
column-major keys ``col * nrows + row`` strictly increase", so input whose
columns are in ascending order takes one linear neighbour compare; only a
column out of order (hash-suite output, or a defect) costs one sort of
the keys, to tell a duplicate from disorder.  Nothing hashes.
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError, ShapeError

INDEX_DTYPE = np.int64
VALUE_DTYPE = np.float64

#: bytes per stored nonzero used in memory accounting: two 8-byte indices
#: plus one 8-byte value — the figure the paper uses (r = 24, Sec. IV-A).
BYTES_PER_NONZERO = 24


class SparseMatrix:
    """Compressed-sparse-column matrix over float64 (or any semiring value
    stored as float64 — the kernels only use ``+`` and ``*`` through a
    pluggable semiring, see :mod:`repro.sparse.spgemm`).

    Parameters
    ----------
    nrows, ncols:
        Matrix dimensions.
    indptr, rowidx, values:
        Standard CSC arrays. Copied only if they need dtype conversion.
    sorted_within_columns:
        Whether row indices are ascending within each column.
    validate:
        Verify all invariants (linear in ``nnz`` for input in ascending
        order, one key sort otherwise); disable only on hot internal paths
        that construct provably-valid arrays.
    """

    __slots__ = ("nrows", "ncols", "indptr", "rowidx", "values", "sorted_within_columns")

    def __init__(
        self,
        nrows: int,
        ncols: int,
        indptr,
        rowidx,
        values,
        *,
        sorted_within_columns: bool = True,
        validate: bool = True,
    ) -> None:
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.indptr = np.ascontiguousarray(indptr, dtype=INDEX_DTYPE)
        self.rowidx = np.ascontiguousarray(rowidx, dtype=INDEX_DTYPE)
        self.values = np.ascontiguousarray(values, dtype=VALUE_DTYPE)
        self.sorted_within_columns = bool(sorted_within_columns)
        if validate:
            self._validate()

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_coo(
        cls,
        nrows: int,
        ncols: int,
        rows,
        cols,
        vals,
        *,
        sum_duplicates: bool = True,
    ) -> "SparseMatrix":
        """Build from COO triples, summing duplicates (sorted output)."""
        from .coo import coo_to_csc_arrays

        indptr, rowidx, values = coo_to_csc_arrays(
            nrows, ncols, rows, cols, vals, sum_duplicates=sum_duplicates
        )
        return cls(nrows, ncols, indptr, rowidx, values, sorted_within_columns=True)

    @classmethod
    def empty(cls, nrows: int, ncols: int) -> "SparseMatrix":
        """All-zero matrix of the given shape."""
        return cls(
            nrows,
            ncols,
            np.zeros(ncols + 1, dtype=INDEX_DTYPE),
            np.empty(0, dtype=INDEX_DTYPE),
            np.empty(0, dtype=VALUE_DTYPE),
            validate=False,
        )

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        return int(self.rowidx.shape[0])

    @property
    def nbytes(self) -> int:
        """Memory accounting at the paper's r = 24 bytes per nonzero.

        Part of the uniform ``nbytes()`` protocol every byte-carrying
        object in the library exposes (see :func:`repro.mem.nbytes_of`):
        whatever a :class:`~repro.mem.MemoryLedger` charges is this
        value, so measured high-water marks and the Table III model
        (also counted at ``r`` bytes/nonzero) stay directly comparable.
        """
        return self.nnz * BYTES_PER_NONZERO

    def col_nnz(self) -> np.ndarray:
        """Number of stored entries in each column (length ``ncols``)."""
        return np.diff(self.indptr)

    def col_indices(self) -> np.ndarray:
        """Column index of every stored entry, expanded from ``indptr``."""
        return np.repeat(
            np.arange(self.ncols, dtype=INDEX_DTYPE), np.diff(self.indptr)
        )

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of (row indices, values) of column ``j``."""
        if not 0 <= j < self.ncols:
            raise IndexError(f"column {j} out of range [0, {self.ncols})")
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.rowidx[lo:hi], self.values[lo:hi]

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #

    def to_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (rows, cols, vals) arrays in storage order."""
        return self.rowidx.copy(), self.col_indices(), self.values.copy()

    def to_dense(self) -> np.ndarray:
        """Dense ndarray (tests and tiny examples only)."""
        out = np.zeros((self.nrows, self.ncols), dtype=VALUE_DTYPE)
        out[self.rowidx, self.col_indices()] = self.values
        return out

    def sort_indices(self) -> "SparseMatrix":
        """Return an equivalent matrix with rows sorted within columns.

        No-op (returns ``self``) when already sorted: sortedness is the
        canonical form, so idempotence here keeps hot paths cheap.
        """
        if self.sorted_within_columns:
            return self
        from .coo import colmajor_keys, stable_order

        order, _ = stable_order(
            colmajor_keys(self.nrows, self.rowidx, self.col_indices())
        )
        rowidx, values = self.rowidx[order], self.values[order]
        return SparseMatrix(
            self.nrows, self.ncols, self.indptr, rowidx, values,
            sorted_within_columns=True, validate=False,
        )

    def canonical(self) -> "SparseMatrix":
        """Sorted, zero-free canonical form (for comparisons)."""
        m = self.sort_indices()
        keep = m.values != 0.0
        if keep.all():
            return m
        csum = np.concatenate(([0], np.cumsum(keep, dtype=INDEX_DTYPE)))
        indptr = csum[m.indptr]
        return SparseMatrix(
            m.nrows, m.ncols, indptr, m.rowidx[keep], m.values[keep],
            sorted_within_columns=True, validate=False,
        )

    # ------------------------------------------------------------------ #
    # comparison / repr
    # ------------------------------------------------------------------ #

    def allclose(self, other: "SparseMatrix", rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """Numerically compare two matrices regardless of storage order."""
        if self.shape != other.shape:
            return False
        a, b = self.canonical(), other.canonical()
        if a.nnz != b.nnz:
            return False
        return (
            np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.rowidx, b.rowidx)
            and np.allclose(a.values, b.values, rtol=rtol, atol=atol)
        )

    def __repr__(self) -> str:
        flag = "sorted" if self.sorted_within_columns else "unsorted"
        return (
            f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz}, {flag})"
        )

    # ------------------------------------------------------------------ #
    # operator sugar
    # ------------------------------------------------------------------ #

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        from .spgemm import multiply

        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ShapeError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        return multiply(self, other)

    @property
    def T(self) -> "SparseMatrix":
        from .ops import transpose

        return transpose(self)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #

    def _validate(self) -> None:
        if self.nrows < 0 or self.ncols < 0:
            raise FormatError(f"negative shape {self.shape}")
        if self.indptr.shape != (self.ncols + 1,):
            raise FormatError(
                f"indptr length {self.indptr.shape[0]} != ncols+1 = {self.ncols + 1}"
            )
        if self.indptr[0] != 0:
            raise FormatError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise FormatError("indptr must be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.rowidx.shape != (nnz,) or self.values.shape != (nnz,):
            raise FormatError(
                f"array lengths (rowidx={self.rowidx.shape[0]}, "
                f"values={self.values.shape[0]}) != indptr[-1]={nnz}"
            )
        if nnz:
            if self.rowidx.min() < 0 or self.rowidx.max() >= self.nrows:
                raise FormatError("row index out of range")
        # Column-major keys are strictly increasing exactly when every
        # column is sorted and duplicate-free: one linear neighbour compare
        # settles both.  Only when that finds disorder does it take a sort
        # to tell a duplicate from a merely unsorted column.
        if nnz:
            from .coo import colmajor_keys

            key = colmajor_keys(self.nrows, self.rowidx, self.col_indices())
            if np.any(key[1:] <= key[:-1]):
                key.sort()
                if np.any(key[1:] == key[:-1]):
                    raise FormatError("duplicate (row, col) coordinate")
                if self.sorted_within_columns:
                    raise FormatError(
                        "sorted_within_columns set but a column is unsorted"
                    )
