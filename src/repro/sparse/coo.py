"""COO (coordinate triple) utilities and the one group-by-key primitive.

The distributed pipeline constantly moves matrices around as flat
``(rows, cols, vals)`` triples — they serialise trivially and merge by
key — so the COO <-> CSC conversions here are fully vectorised and are on
the hot path of almost every collective.

Everything that groups coordinates (the ESC compress, every merge, COO
construction, ``sort_indices``, the symbolic counts, the gather epilogue)
is :func:`stable_order` of the column-major keys plus :func:`run_boundary`
of the sorted keys: one sort, one neighbour compare.  Nothing on those
paths hashes (``np.unique``) or arg-sorts.

What is sorted at once depends on what is known about the input.  Work
that is already grouped by column — the partial products of a multiply,
the parts of a merge — is grouped one column chunk at a time
(:mod:`repro.sparse.spgemm.esc`: sorted, or where the chunk is dense
scattered into a table), so no array there is sized by ``flops``.
Triples in arbitrary order (:func:`dedup_coo`, :func:`sort_coo`: COO
construction, the gather epilogue) take one sort of everything given,
which is ``nnz``-sized.
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError
from .matrix import INDEX_DTYPE, VALUE_DTYPE
from .semiring import PLUS_TIMES, Semiring


def colmajor_keys(nrows: int, rows, cols) -> np.ndarray:
    """``col * nrows + row``: one int64 per coordinate, ordered as CSC
    storage is."""
    return cols * np.int64(max(nrows, 1)) + rows


def stable_order(
    key: np.ndarray, space: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(order, key[order])`` with ``order`` equal to
    ``np.argsort(key, kind="stable")``: equal keys keep their input order,
    which fixes the summation order of every merge.

    ``(key << bits) | position`` is unique per entry, so a plain value
    sort of it *is* the stable order — several times faster than an
    argsort.  When key bits plus position bits do not fit an int64 (or a
    key is negative) the stable argsort does the same job.  A caller that
    knows ``0 <= key < space`` says so and saves the two passes that
    would find it out."""
    n = key.shape[0]
    bits = max(n - 1, 0).bit_length()
    if space is None:
        space = int(key.max()) + 1 if n and key.min() >= 0 else 0
    if space and (space - 1).bit_length() + bits <= 62:
        packed = key << bits
        packed |= np.arange(n, dtype=np.int64)
        packed.sort()
        order = packed & np.int64((1 << bits) - 1)
        packed >>= bits
        return order, packed
    order = np.argsort(key, kind="stable")
    return order, key[order]


def run_boundary(sorted_key: np.ndarray) -> np.ndarray:
    """Bool mask over an already sorted array, true where a new key
    begins: with ``starts = np.flatnonzero(mask)``, group ``g`` of the
    stable order is ``order[starts[g]:starts[g + 1]]``."""
    boundary = np.empty(sorted_key.shape[0], dtype=bool)
    boundary[:1] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=boundary[1:])
    return boundary


def indptr_from_cols(cols: np.ndarray, ncols: int) -> np.ndarray:
    """CSC ``indptr`` from the column index of every stored entry."""
    counts = np.bincount(cols, minlength=ncols).astype(INDEX_DTYPE)
    return np.concatenate(([0], np.cumsum(counts)))


def sort_coo(nrows: int, rows, cols, vals):
    """Sort triples by (col, row) — CSC storage order.

    Returns new arrays; the sort is stable so equal keys (duplicates)
    preserve their input order, which matters for deterministic summation.
    """
    rows = np.asarray(rows, dtype=INDEX_DTYPE)
    cols = np.asarray(cols, dtype=INDEX_DTYPE)
    vals = np.asarray(vals, dtype=VALUE_DTYPE)
    order, _ = stable_order(colmajor_keys(nrows, rows, cols))
    return rows[order], cols[order], vals[order]


def dedup_coo(nrows: int, rows, cols, vals, semiring: Semiring = PLUS_TIMES):
    """Sort triples into CSC order and reduce duplicate coordinates with the
    semiring's add (a sum by default).

    Grouping by (col, row) and summing within groups is exactly the
    accumulation a hash table performs, done with one sort and one
    segmented reduction.  This is the whole-input form, for triples in
    arbitrary order; the multiply and the merges, whose input is grouped
    by column, run the same two primitives chunk by chunk.
    """
    rows = np.asarray(rows, dtype=INDEX_DTYPE)
    cols = np.asarray(cols, dtype=INDEX_DTYPE)
    vals = np.asarray(vals, dtype=VALUE_DTYPE)
    order, sorted_key = stable_order(colmajor_keys(nrows, rows, cols))
    boundary = run_boundary(sorted_key)
    first = order[np.flatnonzero(boundary)]
    reduced = semiring.reduce_segments(vals[order], boundary)
    return rows[first], cols[first], reduced.astype(VALUE_DTYPE, copy=False)


def coo_to_csc_arrays(
    nrows: int,
    ncols: int,
    rows,
    cols,
    vals,
    *,
    sum_duplicates: bool = True,
):
    """Convert COO triples to validated CSC arrays (indptr, rowidx, values).

    Raises :class:`~repro.errors.FormatError` on out-of-range coordinates.
    """
    rows = np.asarray(rows, dtype=INDEX_DTYPE)
    cols = np.asarray(cols, dtype=INDEX_DTYPE)
    vals = np.asarray(vals, dtype=VALUE_DTYPE)
    if not (rows.shape == cols.shape == vals.shape):
        raise FormatError(
            f"COO arrays have mismatched lengths "
            f"({rows.shape[0]}, {cols.shape[0]}, {vals.shape[0]})"
        )
    if rows.shape[0]:
        if rows.min() < 0 or rows.max() >= nrows:
            raise FormatError(f"row index out of range [0, {nrows})")
        if cols.min() < 0 or cols.max() >= ncols:
            raise FormatError(f"column index out of range [0, {ncols})")
    regroup = dedup_coo if sum_duplicates else sort_coo
    rows, cols, vals = regroup(nrows, rows, cols, vals)
    return indptr_from_cols(cols, ncols), rows, vals
