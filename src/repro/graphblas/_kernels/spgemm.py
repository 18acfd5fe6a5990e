"""Sparse matrix-matrix multiply over arbitrary semirings.

Two code paths:

* :func:`generic_mxm` -- expansion SpGEMM.  Every (i,k)x(k,j) product is
  materialised (``np.repeat`` over B's row lengths), then products landing on
  the same (i,j) are combined with the add monoid via a sorted segment
  reduction.  Memory is O(flops); correct for *any* semiring including
  annihilating sums, because reduction happens on the full product list.

* :func:`scipy_plus_times_mxm` -- delegates to SciPy's compiled SpGEMM for the
  common ``plus_times`` case.  SciPy computes over the ring of reals and may
  drop entries whose sum happens to be exactly zero, which GraphBLAS must
  keep; the structural product of the patterns is used to re-insert them.

The dispatcher :func:`mxm` picks the fast path when the semiring and dtypes
allow, mirroring how SuiteSparse selects built-in kernels.  The ablation
benchmark ``benchmarks/bench_ablation_spgemm.py`` measures the difference.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graphblas._kernels.coo import (
    canonicalize_matrix,
    decode,
    encode,
    in1d_sorted,
)
from repro.graphblas._kernels.csr import indptr_from_rows, row_ranges
from repro.util.validation import ReproError

__all__ = ["mxm", "generic_mxm", "scipy_plus_times_mxm", "FLOP_LIMIT"]

#: Expansion kernels refuse to materialise more than this many products
#: *at once*.  Batches whose total exceeds it are row-tiled (each tile's
#: product count stays under the limit); only a single row that on its own
#: overflows the limit still fails.
FLOP_LIMIT = 300_000_000


def _expand_block(a_rows, a_cols, a_vals, b_indptr, b_cols, b_vals, semiring, nrows, ncols):
    """Expansion SpGEMM of one row block of A against all of B (canonical).

    ``a_*`` may be any contiguous row span of canonical A; the output keys
    use the full (nrows, ncols) space so disjoint ascending blocks
    concatenate into a canonical whole without a global re-sort.
    """
    b_entry, a_entry = row_ranges(b_indptr, a_cols)
    out_rows = a_rows[a_entry]
    out_cols = b_cols[b_entry]

    mult = semiring.mult
    if mult.name == "first":
        prod = a_vals[a_entry]
    elif mult.name == "second":
        prod = b_vals[b_entry]
    elif mult.name == "pair":
        prod = np.ones(out_rows.size, dtype=np.int64)
    else:
        prod = np.asarray(mult(a_vals[a_entry], b_vals[b_entry]))

    return canonicalize_matrix(
        out_rows, out_cols, prod, nrows, ncols, dup_op=semiring.add.op
    )


def _row_work_prefix(rows: np.ndarray, weights: np.ndarray, nrows: int) -> np.ndarray:
    """Per-row work prefix (length ``nrows + 1``) from per-entry weights.

    The float64 per-row sums are exact: a row's work stays far below 2**53
    (a row over :data:`FLOP_LIMIT` is refused anyway).
    """
    per_row = np.bincount(rows, weights=weights, minlength=nrows)
    prefix = np.empty(nrows + 1, dtype=np.int64)
    prefix[0] = 0
    np.cumsum(per_row, out=prefix[1:], dtype=np.int64)
    return prefix


def _tiled_mxm(a, b_indptr, b_cols, b_vals, b_ncols, semiring, lengths):
    """Serial row-tiled expansion for batches over :data:`FLOP_LIMIT`.

    Greedy tiling over the per-row flop prefix: each tile materialises at
    most ``FLOP_LIMIT`` products, tiles splice by concatenation (disjoint
    ascending row spans).  Degrades the former hard failure into O(flops)
    work at O(FLOP_LIMIT) peak memory.
    """
    a_rows, a_cols, a_vals, a_nrows, _ = a
    prefix = _row_work_prefix(a_rows, lengths, a_nrows)
    worst = int(np.diff(prefix).max()) if a_nrows else 0
    if worst > FLOP_LIMIT:
        raise ReproError(
            f"mxm: a single output row would materialise {worst} products "
            f"(> {FLOP_LIMIT}); matrix too dense even for row-tiled expansion"
        )
    a_indptr = indptr_from_rows(a_rows, a_nrows)
    parts = []
    lo = 0
    while lo < a_nrows:
        hi = int(np.searchsorted(prefix, prefix[lo] + FLOP_LIMIT, side="right")) - 1
        hi = max(hi, lo + 1)
        s, e = int(a_indptr[lo]), int(a_indptr[hi])
        parts.append(
            _expand_block(
                a_rows[s:e], a_cols[s:e], a_vals[s:e],
                b_indptr, b_cols, b_vals, semiring, a_nrows, b_ncols,
            )
        )
        lo = hi
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
        np.concatenate([p[2] for p in parts]),
    )


def generic_mxm(a, b, semiring):
    """``C = A ⊕.⊗ B`` over any semiring.

    ``a`` and ``b`` are ``(rows, cols, values, nrows, ncols)`` tuples in
    canonical COO form.  Returns canonical COO for C.  Above
    :data:`FLOP_LIMIT` products the expansion runs in row tiles instead of
    failing.
    """
    a_rows, a_cols, a_vals, a_nrows, a_ncols = a
    b_rows, b_cols, b_vals, b_nrows, b_ncols = b
    if a_ncols != b_nrows:
        raise ReproError(f"mxm: inner dimensions differ ({a_ncols} vs {b_nrows})")

    b_indptr = indptr_from_rows(b_rows, b_nrows)
    lengths = b_indptr[a_cols + 1] - b_indptr[a_cols]
    if int(lengths.sum()) > FLOP_LIMIT:
        return _tiled_mxm(a, b_indptr, b_cols, b_vals, b_ncols, semiring, lengths)
    return _expand_block(
        a_rows, a_cols, a_vals, b_indptr, b_cols, b_vals, semiring, a_nrows, b_ncols
    )


def scipy_plus_times_mxm(a, b):
    """plus_times SpGEMM via SciPy with annihilation repair."""
    a_rows, a_cols, a_vals, a_nrows, a_ncols = a
    b_rows, b_cols, b_vals, b_nrows, b_ncols = b
    if a_ncols != b_nrows:
        raise ReproError(f"mxm: inner dimensions differ ({a_ncols} vs {b_nrows})")
    # SciPy cannot hold bool through matmul reliably; compute in int64/float64.
    compute_dtype = np.float64 if (
        np.issubdtype(a_vals.dtype, np.floating) or np.issubdtype(b_vals.dtype, np.floating)
    ) else np.int64
    A = sp.csr_matrix(
        (a_vals.astype(compute_dtype), (a_rows, a_cols)), shape=(a_nrows, a_ncols)
    )
    B = sp.csr_matrix(
        (b_vals.astype(compute_dtype), (b_rows, b_cols)), shape=(b_nrows, b_ncols)
    )
    C = (A @ B).tocoo()
    c_rows, c_cols, c_vals = (
        C.row.astype(np.int64),
        C.col.astype(np.int64),
        C.data,
    )
    # Structural product: which (i,j) must be present per GraphBLAS semantics.
    c_keys = encode(c_rows, c_cols, b_ncols)
    order = np.argsort(c_keys, kind="stable")
    c_keys, c_vals = c_keys[order], c_vals[order]
    Ap = sp.csr_matrix(
        (np.ones(a_rows.size, np.int64), (a_rows, a_cols)), shape=A.shape
    )
    Bp = sp.csr_matrix(
        (np.ones(b_rows.size, np.int64), (b_rows, b_cols)), shape=B.shape
    )
    P = (Ap @ Bp).tocoo()
    p_keys = encode(P.row.astype(np.int64), P.col.astype(np.int64), b_ncols)
    p_keys.sort()
    missing = p_keys[~in1d_sorted(p_keys, c_keys)]
    if missing.size:
        keys = np.concatenate([c_keys, missing])
        vals = np.concatenate([c_vals, np.zeros(missing.size, dtype=c_vals.dtype)])
        order = np.argsort(keys, kind="stable")
        c_keys, c_vals = keys[order], vals[order]
    rows, cols = decode(c_keys, b_ncols)
    return rows, cols, c_vals


def mxm(a, b, semiring, prefer_scipy: bool = True):
    """Dispatch to the SciPy fast path when applicable, else generic."""
    if (
        prefer_scipy
        and semiring.name == "plus_times"
        and a[2].dtype != np.bool_
        and b[2].dtype != np.bool_
    ):
        return scipy_plus_times_mxm(a, b)
    return generic_mxm(a, b, semiring)
