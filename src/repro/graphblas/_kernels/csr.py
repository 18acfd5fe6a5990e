"""CSR-view helpers over canonical row-major COO.

Canonical COO (rows sorted, cols sorted within rows, unique) *is* CSR minus
the ``indptr`` array, which :func:`indptr_from_rows` rebuilds in O(nnz + n).
Extraction, transposition and resize all live here.
"""

from __future__ import annotations

import numpy as np

from repro.graphblas._kernels.coo import canonicalize_matrix
from repro.util.validation import ReproError

__all__ = [
    "indptr_from_rows",
    "transpose",
    "extract_submatrix",
    "row_ranges",
    "iter_row_ranges",
]


def indptr_from_rows(rows: np.ndarray, nrows: int) -> np.ndarray:
    """CSR indptr for canonical (sorted) row indices."""
    counts = np.bincount(rows, minlength=nrows)
    indptr = np.empty(nrows + 1, dtype=np.int64)
    indptr[0] = 0
    np.cumsum(counts, out=indptr[1:])
    return indptr


def row_ranges(indptr: np.ndarray, row_ids: np.ndarray):
    """Flattened entry indices covering the CSR rows in ``row_ids``.

    Returns ``(entry_idx, group)`` where ``entry_idx`` indexes the CSR
    ``cols``/``values`` arrays and ``group[k]`` tells which position of
    ``row_ids`` entry ``k`` belongs to.  This is the standard vectorised
    "gather variable-length row slices" trick: lengths -> repeat -> prefix
    offsets.
    """
    starts = indptr[row_ids]
    lengths = indptr[row_ids + 1] - starts
    total = int(lengths.sum())
    group = np.repeat(np.arange(row_ids.size, dtype=np.int64), lengths)
    if total == 0:
        return np.zeros(0, dtype=np.int64), group
    # offset within each group: arange(total) - start_of_group_in_output
    out_starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    within = np.arange(total, dtype=np.int64) - np.repeat(out_starts, lengths)
    entry_idx = np.repeat(starts, lengths) + within
    return entry_idx, group


def iter_row_ranges(indptr: np.ndarray, row_ids: np.ndarray, chunk: int):
    """:func:`row_ranges` in slices of at most ``chunk`` entries.

    Yields ``(entry_idx, group)`` pairs whose concatenation equals
    ``row_ranges(indptr, row_ids)``.  Slices cut through rows where they
    must, so the memory a slice gathers is bounded by ``chunk`` however
    long any one row is.
    """
    starts = indptr[row_ids]
    lengths = indptr[row_ids + 1] - starts
    ends = np.cumsum(lengths)
    begins = ends - lengths
    total = int(ends[-1]) if ends.size else 0
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        # the groups holding flat positions lo .. hi-1, clipped to them
        g0 = int(np.searchsorted(ends, lo, side="right"))
        g1 = int(np.searchsorted(ends, hi - 1, side="right")) + 1
        counts = np.minimum(ends[g0:g1], hi) - np.maximum(begins[g0:g1], lo)
        group = np.repeat(np.arange(g0, g1, dtype=np.int64), counts)
        offset = np.repeat(starts[g0:g1] - begins[g0:g1], counts)
        yield offset + np.arange(lo, hi, dtype=np.int64), group


def transpose(rows, cols, values, nrows: int, ncols: int):
    """Transpose canonical COO: swap and re-canonicalise."""
    r, c, v = canonicalize_matrix(cols, rows, values, ncols, nrows, dup_op=None)
    return r, c, v


def extract_submatrix(rows, cols, values, nrows, ncols, row_ids, col_ids):
    """``C = A(I, J)`` -- GrB_extract.

    ``row_ids`` may contain duplicates (the spec allows it; the output then
    repeats those rows).  ``col_ids`` must be duplicate-free because a
    duplicated output column would need duplicated entries per source entry;
    the case study never requires it and we raise a clear error instead.
    """
    row_ids = np.ascontiguousarray(row_ids, dtype=np.int64)
    col_ids = np.ascontiguousarray(col_ids, dtype=np.int64)
    indptr = indptr_from_rows(rows, nrows)
    entry_idx, out_rows = row_ranges(indptr, row_ids)
    sub_cols = cols[entry_idx]
    sub_vals = values[entry_idx]

    if col_ids.size != np.unique(col_ids).size:
        raise ReproError("extract: duplicate column indices are not supported")
    lookup = np.full(ncols, -1, dtype=np.int64)
    lookup[col_ids] = np.arange(col_ids.size, dtype=np.int64)
    mapped = lookup[sub_cols]
    keep = mapped >= 0
    return canonicalize_matrix(
        out_rows[keep], mapped[keep], sub_vals[keep], row_ids.size, col_ids.size
    )
