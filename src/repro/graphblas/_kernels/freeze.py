"""Dirty-row splice: the incremental freeze kernel of the dynamic storage.

A :class:`~repro.graphblas.dynamic.DynamicMatrix` freezes into a canonical
compute :class:`~repro.graphblas.matrix.Matrix` at phase boundaries.  When
only a few rows changed since the last freeze, re-canonicalising the whole
matrix (sort of every nnz) is wasted work: canonical row-major COO keeps
each row contiguous, so replacing the touched rows is pure span splicing --
the untouched stretches *between* dirty rows are block-copied verbatim.

:func:`merge_dirty_rows` does exactly that: given the previous frozen
arrays, their ``indptr``, the set of dirty rows, and the replacement
entries for those rows (already canonical), it produces the new canonical
arrays -- and the new ``indptr`` as a by-product -- with one
``np.concatenate`` of ~2k+1 contiguous slices (k = dirty rows) per array:
O(nnz) memcpy, no sort, no per-entry index arithmetic.  Only the
replacement entries themselves (O(Δ·degree)) ever needed sorting, which
the caller did per dirty row.
"""

from __future__ import annotations

import numpy as np

__all__ = ["merge_dirty_rows"]


def merge_dirty_rows(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    indptr: np.ndarray,
    nrows: int,
    dirty_rows: np.ndarray,
    d_rows: np.ndarray,
    d_cols: np.ndarray,
    d_vals: np.ndarray,
):
    """Replace whole rows of a canonical COO matrix, preserving canonicality.

    ``rows``/``cols``/``vals`` are the previous frozen arrays with row
    pointer ``indptr`` (length ``nrows + 1``).  ``dirty_rows`` is the sorted
    unique array of row ids whose content is replaced wholesale;
    ``d_rows``/``d_cols``/``d_vals`` hold the replacement entries in
    canonical (row-major, col-sorted, unique) order, with every ``d_rows``
    value a member of ``dirty_rows`` (a dirty row with no replacement
    entries simply becomes empty).

    Returns ``(rows, cols, vals, indptr)`` of the spliced matrix.
    """
    # where each dirty row's replacement entries start/end
    d_lo = np.searchsorted(d_rows, dirty_rows)
    d_hi = np.searchsorted(d_rows, dirty_rows, side="right")
    r_chunks: list[np.ndarray] = []
    c_chunks: list[np.ndarray] = []
    v_chunks: list[np.ndarray] = []
    prev = 0
    for r, ds, de in zip(dirty_rows.tolist(), d_lo.tolist(), d_hi.tolist()):
        lo, hi = int(indptr[r]), int(indptr[r + 1])
        if lo > prev:  # untouched stretch before this dirty row
            r_chunks.append(rows[prev:lo])
            c_chunks.append(cols[prev:lo])
            v_chunks.append(vals[prev:lo])
        if de > ds:  # the row's replacement entries
            r_chunks.append(d_rows[ds:de])
            c_chunks.append(d_cols[ds:de])
            v_chunks.append(d_vals[ds:de])
        prev = hi
    if prev < rows.size:  # tail after the last dirty row
        r_chunks.append(rows[prev:])
        c_chunks.append(cols[prev:])
        v_chunks.append(vals[prev:])
    if r_chunks:
        out_rows = np.concatenate(r_chunks)
        out_cols = np.concatenate(c_chunks)
        out_vals = np.concatenate(v_chunks)
    else:
        out_rows = np.zeros(0, dtype=np.int64)
        out_cols = np.zeros(0, dtype=np.int64)
        out_vals = np.zeros(0, dtype=vals.dtype)

    # indptr: shift everything after each dirty row by that row's size change
    shift = np.zeros(nrows + 1, dtype=np.int64)
    shift[dirty_rows + 1] = (d_hi - d_lo) - (
        indptr[dirty_rows + 1] - indptr[dirty_rows]
    )
    new_indptr = indptr + np.cumsum(shift)
    return out_rows, out_cols, out_vals, new_indptr
