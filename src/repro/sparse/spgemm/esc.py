"""Vectorised ESC (Expand / Sort / Compress) SpGEMM, one column chunk at
a time.

For ``C = A @ B`` every nonzero ``B(k, j)`` expands into ``nnz(A(:, k))``
partial products; grouping them by output coordinate and reducing each
group is the whole multiply.  The paper's kernels are Gustavson
column-by-column accumulators whose working set is one column's flops
(Sec. IV-D), and its memory argument (Eq. 1) is that the unmerged
intermediate must never outgrow memory.  This kernel keeps both
properties at NumPy speed: :func:`column_chunks` walks B's columns in
consecutive ranges of about ``_CHUNK_PRODUCTS`` partial products, and
each range is expanded with pure gather arithmetic, grouped and reduced.
Output columns are disjoint between ranges, so the pieces concatenate
into the sorted CSC result.

There are two ways to group and one way to sum.  A chunk whose key space
(its columns x ``nrows``) is a few times its products is scattered into
a dense table over that space — the paper's sort-free accumulator, chosen
per chunk by density as Azad et al. choose the SPA per column; any other
chunk is sorted once (:func:`repro.sparse.coo.stable_order`) and reduced
by run.  Either way coinciding products are added left to right in
expansion order (:meth:`~repro.sparse.semiring.Semiring.reduce_segments`),
so neither the tier nor a chunk boundary shows in the bits, and the
values equal those of the per-column hash and SPA loop kernels.

Each step uses what its input is: two sorted merge parts are two runs,
merged, not sorted (``runs``); a run's sum is placed, not counted; and
the distinct keys become CSC by ``searchsorted`` of the column bases
where a chunk has many keys per column (R-MAT: 22k keys over 683), by
division where it has few (k-mer: 555 over 750, ``_DECODE_SEARCH``).

Nothing here is sized by ``flops``: every temporary is chunk-sized and
stays in cache, which is why this is ~2x faster than sorting the whole
expansion at once, and why a run's resident memory follows
``nnz(A) + nnz(B) + nnz(C)`` rather than ``flops``.

The same iterator serves every group-by-column consumer — the masked
multiply (:mod:`.masked`), the values-free symbolic counts
(:mod:`.symbolic`) and the grouped merge (:mod:`repro.sparse.merge`).
Only :func:`expand_products` materialises all ``flops`` products; it is
the reference the tests compare against and is not on any run path.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from ...errors import ShapeError
from ..coo import dedup_coo, indptr_from_cols, run_boundary, stable_order
from ..matrix import INDEX_DTYPE, VALUE_DTYPE, SparseMatrix
from ..semiring import PLUS_TIMES, Semiring, get_semiring

#: Partial products per column chunk.  A constant, not an option: all it
#: has to do is keep the ~10 chunk-sized int64/float64 temporaries of one
#: expand/sort/reduce in cache while leaving the ~50 us of Python per
#: chunk negligible, and the measured curve is shallow around it (protein
#: 4000, 7.5 M flops, seconds per multiply: 2**13 0.142, 2**14 0.129,
#: 2**15 0.136, 2**16 0.143, 2**17 0.147, 2**18 0.166, 2**19 0.18, 2**21
#: 0.22, unchunked 0.32; R-MAT, Erdos-Renyi, the symbolic pass, the masked
#: multiply and the merge have the same shape).  A single column is never
#: split, so a chunk may exceed it by one column's products.
_CHUNK_PRODUCTS = 1 << 16

#: Key-space cells per key up to which a chunk takes a dense table
#: instead of a sort: ``space <= c * n``, both read off the tile, so the
#: tier is the same under every run setting.  Constants, not options.
#: ``_TABLE_SUM`` bounds the float64 accumulate table.  Table / sort time
#: of one multiply at space / n = 1, 2, 3, 3.8, 5.5, 7.6, 12, 16, 30 on
#: Erdos-Renyi squares: 0.61, 0.81, 0.85, 0.73, 0.91, 0.97, 1.42, 1.64,
#: 1.98; protein (2.0) 0.58, R-MAT (5-11) 1.06, planted (7.5) 1.2, R-MAT
#: tile (17) 1.67 — at c = 8 the table already loses on real tiles.
#: ``_TABLE_SEEN`` bounds the bool tables (symbolic pattern, mask filter).
#: Bool table / sort of a count at 1-12, 16, 30, 50, 100: 0.6, 0.76,
#: 0.92, 1.23, 1.65.  The mask bitmap still beats ``searchsorted`` at 100
#: (0.4-0.5 up to 30, 0.73 at 100) but shares the constant, so that no
#: table outgrows the chunk's other temporaries (32 n bytes = four of them).
_TABLE_SUM = 4
_TABLE_SEEN = 32

#: Keys per column from which :func:`_decode` searches rather than divides:
#: search / division time 3-6 below 4, 1.3-2 at 6-10, 0.6-0.9 at 14-24,
#: 0.25-0.4 from 35 on (merge and multiply chunks of the six workloads).
_DECODE_SEARCH = 16


def key_table(keys: np.ndarray, space: int) -> np.ndarray:
    """Bool table over a chunk's key space, true at each of ``keys``."""
    table = np.zeros(space, dtype=bool)
    table[keys] = True
    return table


def check_inner_dimension(a: SparseMatrix, b: SparseMatrix) -> None:
    if a.ncols != b.nrows:
        raise ShapeError(
            f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}"
        )


def column_chunks(work_ptr: np.ndarray) -> Iterator[tuple[int, int]]:
    """Consecutive column ranges ``[j0, j1)`` covering all columns, each
    holding about ``_CHUNK_PRODUCTS`` units of work.

    ``work_ptr`` is the exclusive prefix sum of the per-column work (an
    ``indptr`` of the unmerged intermediate, length ``ncols + 1``).  A
    range ends before the column that would take it past the target, but
    always holds at least one column.  Work that fits one chunk — every
    tile of a well-distributed run — is the single range ``(0, ncols)``.
    """
    ncols = work_ptr.shape[0] - 1
    if work_ptr[-1] <= _CHUNK_PRODUCTS:
        yield 0, ncols
        return
    j0 = 0
    while j0 < ncols:
        fit = np.searchsorted(work_ptr, work_ptr[j0] + _CHUNK_PRODUCTS, side="right")
        j1 = max(int(fit) - 1, j0 + 1)
        yield j0, j1
        j0 = j1


def product_chunks(
    a: SparseMatrix, b: SparseMatrix, semiring: Semiring | None
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray | None]]:
    """The partial products of ``A @ B`` as ``(j0, j1, keys, vals)`` per
    column chunk, in expansion order (B nonzero by B nonzero, A's column
    in storage order).

    ``keys`` are chunk-local column-major coordinates ``(col - j0) * nrows
    + row``; ``vals`` is ``None`` when ``semiring`` is (the symbolic
    pass).  Built without Python loops over nonzeros: B nonzero ``t``
    takes the contiguous span of A's storage starting at
    ``A.indptr[k[t]]``, so the gather index of product ``f`` is
    ``f + (A.indptr[k[t]] - products before t)``.
    """
    check_inner_dimension(a, b)
    k = b.rowidx                            # inner index of each B nonzero
    first = a.indptr[k]                     # where A(:, k) starts in storage
    lens = a.indptr[k + 1] - first          # expansion length per B nonzero
    before = np.zeros(b.nnz + 1, dtype=INDEX_DTYPE)
    np.cumsum(lens, out=before[1:])         # products before each B nonzero
    shift = first - before[:-1]
    work_ptr = before[b.indptr]             # products before each B column
    nrows = np.int64(max(a.nrows, 1))
    for j0, j1 in column_chunks(work_ptr):
        t0, t1 = b.indptr[j0], b.indptr[j1]
        gather = np.repeat(shift[t0:t1], lens[t0:t1])
        gather += np.arange(work_ptr[j0], work_ptr[j1], dtype=INDEX_DTYPE)
        keys = np.repeat(
            np.arange(j1 - j0, dtype=INDEX_DTYPE) * nrows,
            work_ptr[j0 + 1:j1 + 1] - work_ptr[j0:j1],
        )
        keys += a.rowidx[gather]
        vals = None
        if semiring is not None:
            vals = semiring.mul(
                a.values[gather], np.repeat(b.values[t0:t1], lens[t0:t1])
            ).astype(VALUE_DTYPE, copy=False)
        yield j0, j1, keys, vals


def compress_chunks(
    nrows: int,
    ncols: int,
    chunks: Iterable[tuple[int, int, np.ndarray, np.ndarray | None]],
    semiring: Semiring | None,
    runs: int = 0,
) -> SparseMatrix:
    """Group each chunk's ``(keys, vals)`` by key — through a dense table
    where the chunk's key space is a few times its keys, by one stable
    sort otherwise — reduce each group left to right, and concatenate the
    pieces, which arrive in column order, into a sorted CSC matrix.  With
    ``semiring`` ``None`` only the keys are grouped and the result is the
    pattern, valued 1; ``runs`` goes to :func:`stable_order`."""
    stride = max(nrows, 1)
    cells = (_TABLE_SEEN if semiring is None
             else _TABLE_SUM if semiring.add is np.add else -1)
    rows, counts, vals = [], [], []
    for j0, j1, keys, chunk_vals in chunks:
        space = (j1 - j0) * stride
        if space <= cells * keys.shape[0]:
            distinct = np.flatnonzero(key_table(keys, space))
            if semiring is not None:
                sums = np.bincount(keys, weights=chunk_vals, minlength=space)
                vals.append(sums[distinct])
        else:
            if semiring is None:
                keys.sort()
            else:
                order, keys = stable_order(keys, space, runs)
            boundary = run_boundary(keys)
            starts = np.flatnonzero(boundary)
            distinct = keys[starts]
            if semiring is not None:
                vals.append(semiring.reduce_segments(
                    chunk_vals[order], boundary, starts))
        counts.append(_decode(distinct, j1 - j0, stride))
        rows.append(distinct)
    indptr = np.zeros(ncols + 1, dtype=INDEX_DTYPE)
    np.cumsum(_joined(counts), out=indptr[1:])
    rowidx = _joined(rows)
    values = (
        np.ones(rowidx.shape[0], dtype=VALUE_DTYPE) if semiring is None
        else _joined(vals).astype(VALUE_DTYPE, copy=False)
    )
    return SparseMatrix(
        nrows, ncols, indptr, rowidx, values,
        sorted_within_columns=True, validate=False,
    )


def _decode(distinct: np.ndarray, width: int, stride: int) -> np.ndarray:
    """Turn a chunk's sorted distinct keys into rows, in place; return the
    entries per column."""
    if distinct.shape[0] >= _DECODE_SEARCH * width:
        bases = np.arange(width + 1, dtype=INDEX_DTYPE) * stride
        firsts = np.searchsorted(distinct, bases)
        counts = firsts[1:] - firsts[:-1]
        distinct -= np.repeat(bases[:-1], counts)
        return counts
    cols = distinct // stride
    counts = np.bincount(cols, minlength=width)
    cols *= stride
    distinct -= cols
    return counts


def _joined(pieces: list[np.ndarray]) -> np.ndarray:
    """The pieces end to end; a tile of one chunk is its piece, uncopied."""
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def spgemm_esc(
    a: SparseMatrix, b: SparseMatrix, semiring=PLUS_TIMES
) -> SparseMatrix:
    """``C = A @ B`` via expand/sort/compress.  Accepts unsorted inputs;
    emits sorted columns."""
    semiring = get_semiring(semiring)
    return compress_chunks(
        a.nrows, b.ncols, product_chunks(a, b, semiring), semiring
    )


def expand_products(
    a: SparseMatrix, b: SparseMatrix, semiring: Semiring = PLUS_TIMES
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialise all partial products of ``A @ B`` as COO triples.

    Returns ``(rows, cols, vals)`` of length exactly ``flops``; duplicates
    are *not* merged.  This is the unmerged Local-Multiply result whose
    size the paper's memory analysis (Eq. 1) bounds — and therefore the
    thing no run path builds: it is kept, written independently of the
    chunk iterator, as the reference that iterator is tested against.
    """
    check_inner_dimension(a, b)
    k = b.rowidx
    lens = np.diff(a.indptr)[k]
    offsets = np.arange(int(lens.sum()), dtype=INDEX_DTYPE) - np.repeat(
        np.cumsum(lens) - lens, lens
    )
    gather = np.repeat(a.indptr[k], lens) + offsets
    vals = semiring.mul(a.values[gather], np.repeat(b.values, lens)).astype(
        VALUE_DTYPE, copy=False
    )
    return a.rowidx[gather], np.repeat(b.col_indices(), lens), vals


def compress_products(
    nrows: int,
    ncols: int,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    semiring: Semiring = PLUS_TIMES,
) -> SparseMatrix:
    """Merge COO triples in arbitrary order into a sorted CSC matrix: one
    sort of everything given.  For input that is not grouped by column
    (the outer-product kernel's blocks); column-grouped work goes through
    :func:`compress_chunks`."""
    rows, cols, vals = dedup_coo(nrows, rows, cols, vals, semiring)
    return SparseMatrix(
        nrows, ncols, indptr_from_cols(cols, ncols), rows, vals,
        sorted_within_columns=True, validate=False,
    )
