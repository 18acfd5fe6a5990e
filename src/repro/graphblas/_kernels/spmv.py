"""Sparse matrix-vector products over arbitrary semirings.

``mxv`` computes ``w = A ⊕.⊗ u``: for each matrix entry (i, j) with u[j]
present, form ``⊗(A[i,j], u[j])`` and reduce per row with the add monoid.
The kernel filters A's entries by u's structure with one boolean gather, so
cost is O(nnz(A) + output) regardless of u's density.  ``vxm`` is ``mxv`` on
the transpose, which callers obtain via the Matrix-level transpose cache.
"""

from __future__ import annotations

import numpy as np

from repro.graphblas._kernels.coo import segment_reduce
from repro.util.validation import ReproError

__all__ = ["mxv"]


def mxv(a, u, semiring):
    """``w = A ⊕.⊗ u``.

    Parameters
    ----------
    a : (rows, cols, values, nrows, ncols) canonical COO
    u : (indices, values, size) canonical sparse vector

    Returns ``(indices, values)`` of the canonical result vector.
    """
    a_rows, a_cols, a_vals, _a_nrows, a_ncols = a
    u_idx, u_vals, u_size = u
    if a_ncols != u_size:
        raise ReproError(f"mxv: A has {a_ncols} columns but u has size {u_size}")

    if u_idx.size == 0 or a_rows.size == 0:
        return np.zeros(0, np.int64), np.zeros(0, dtype=a_vals.dtype)

    # Dense presence lookup over the column space: one allocation, O(1) gather.
    present = np.zeros(a_ncols, dtype=np.bool_)
    present[u_idx] = True
    sel = present[a_cols]
    if not sel.any():
        return np.zeros(0, np.int64), np.zeros(0, dtype=a_vals.dtype)

    rows_s = a_rows[sel]
    cols_s = a_cols[sel]
    avals_s = a_vals[sel]

    u_dense = np.zeros(a_ncols, dtype=u_vals.dtype)
    u_dense[u_idx] = u_vals
    uvals_s = u_dense[cols_s]

    mult = semiring.mult
    if mult.name == "first":
        prod = avals_s
    elif mult.name == "second":
        prod = uvals_s
    elif mult.name == "pair":
        prod = np.ones(rows_s.size, dtype=np.int64)
    else:
        prod = np.asarray(mult(avals_s, uvals_s))

    # rows_s is already sorted (canonical COO is row-major); reduce segments.
    boundary = np.empty(rows_s.size, dtype=np.bool_)
    boundary[0] = True
    np.not_equal(rows_s[1:], rows_s[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    out_idx = rows_s[starts]
    out_vals = segment_reduce(prod, starts, semiring.add.op)
    return out_idx, out_vals
