"""Reductions: matrix -> vector (row-wise) and matrix/vector -> scalar.

Row-wise reduction exploits canonical ordering: entries of one row are
contiguous, so a single boundary scan plus ``ufunc.reduceat`` covers all
non-empty rows.  Empty rows produce no output entry (GraphBLAS semantics:
the result is sparse, not identity-filled).
"""

from __future__ import annotations

import numpy as np

from repro.graphblas._kernels.coo import segment_reduce

__all__ = ["reduce_rows", "reduce_groups"]


def reduce_rows(rows: np.ndarray, values: np.ndarray, monoid):
    """Reduce each non-empty row; returns (row_indices, reduced_values)."""
    if rows.size == 0:
        return rows[:0], values[:0]
    boundary = np.empty(rows.size, dtype=np.bool_)
    boundary[0] = True
    np.not_equal(rows[1:], rows[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    return rows[starts], segment_reduce(values, starts, monoid.op)


def reduce_groups(group_ids: np.ndarray, values: np.ndarray, monoid):
    """Reduce values by arbitrary (unsorted) integer group ids.

    Sorts by group first, then segment-reduces.  Used by kernels that produce
    unsorted intermediate products (e.g. per-comment scatter in Q2).
    """
    if group_ids.size == 0:
        return group_ids[:0], values[:0]
    order = np.argsort(group_ids, kind="stable")
    return reduce_rows(group_ids[order], values[order], monoid)
