"""The GraphBLAS Matrix: a typed sparse matrix in canonical row-major COO.

Canonical COO (row-major sorted, unique) doubles as CSR; the ``indptr`` and
the transpose are derived lazily and cached, invalidated on any mutation.
All Table-I operations of the paper are methods here, each accepting the
standard ``out``/``mask``/``accum``/``desc`` modifiers with spec-exact
two-phase write semantics.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.graphblas import ops as _ops
from repro.graphblas import semiring as _semiring_mod
from repro.graphblas import types as _types
from repro.graphblas._kernels.coo import canonicalize_matrix, decode, encode
from repro.graphblas._kernels.csr import (
    extract_submatrix,
    indptr_from_rows,
    transpose as _transpose_kernel,
)
from repro.graphblas._kernels.merge import (
    intersect_merge,
    union_merge,
    write_mask_accum,
)
from repro.graphblas._kernels.reduce import reduce_rows
from repro.graphblas._kernels.spgemm import mxm as _mxm_kernel
from repro.graphblas._kernels.spmv import mxv as _mxv_kernel
from repro.graphblas.descriptor import NULL as _NULL_DESC
from repro.graphblas.mask import mask_true_keys, resolve_mask
from repro.graphblas.vector import Vector
from repro.util.validation import (
    DimensionMismatch,
    check_in_range,
    check_index_array,
    check_positive,
)

__all__ = ["Matrix"]


class Matrix:
    """Sparse matrix of a fixed GraphBLAS type."""

    __slots__ = ("dtype", "_nrows", "_ncols", "_rows", "_cols", "_values", "_cache")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def __init__(self, dtype, nrows: int, ncols: int):
        self.dtype = _types.lookup(dtype)
        self._nrows = check_positive(nrows, "nrows")
        self._ncols = check_positive(ncols, "ncols")
        self._rows = np.zeros(0, dtype=np.int64)
        self._cols = np.zeros(0, dtype=np.int64)
        self._values = np.zeros(0, dtype=self.dtype.np_dtype)
        self._cache: dict = {}

    @classmethod
    def sparse(cls, dtype, nrows: int, ncols: int) -> "Matrix":
        """Empty matrix (GrB_Matrix_new)."""
        return cls(dtype, nrows, ncols)

    @classmethod
    def from_coo(
        cls, rows, cols, values, nrows: int, ncols: int, dtype=None, dup_op=None
    ) -> "Matrix":
        """Build from (row, col, value) triples (GrB_Matrix_build).

        ``values`` may be a scalar (broadcast).  Duplicate positions require
        ``dup_op`` to combine them.
        """
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        if np.isscalar(values) or getattr(values, "ndim", 1) == 0:
            values = np.full(rows.shape, values)
        else:
            values = np.asarray(values)
        if dtype is None:
            dtype = _types.from_numpy(values.dtype)
        m = cls(dtype, nrows, ncols)
        check_index_array(rows, nrows, "rows")
        check_index_array(cols, ncols, "cols")
        r, c, v = canonicalize_matrix(rows, cols, values, nrows, ncols, dup_op=dup_op)
        m._set(r, c, m.dtype.cast(v))
        return m

    @classmethod
    def from_dense(cls, array, dtype=None) -> "Matrix":
        """Dense 2-D array -> matrix; *nonzero* positions become entries."""
        arr = np.asarray(array)
        if arr.ndim != 2:
            raise DimensionMismatch(f"expected 2-D array, got shape {arr.shape}")
        if dtype is None:
            dtype = _types.from_numpy(arr.dtype)
        r, c = np.nonzero(arr)
        return cls.from_coo(r, c, arr[r, c], arr.shape[0], arr.shape[1], dtype=dtype)

    @classmethod
    def from_scipy(cls, sp_matrix, dtype=None) -> "Matrix":
        """Adopt a SciPy sparse matrix (explicit zeros preserved)."""
        coo = sp_matrix.tocoo()
        if dtype is None:
            dtype = _types.from_numpy(coo.data.dtype)
        m = cls(dtype, *coo.shape)
        r, c, v = canonicalize_matrix(
            coo.row.astype(np.int64),
            coo.col.astype(np.int64),
            coo.data,
            coo.shape[0],
            coo.shape[1],
            dup_op=_ops.plus,
        )
        m._set(r, c, m.dtype.cast(v))
        return m

    def _set(self, rows, cols, values) -> None:
        """Install canonical arrays and drop caches (internal)."""
        self._rows = rows
        self._cols = cols
        self._values = values
        self._cache.clear()

    def _coo_tuple(self):
        return (self._rows, self._cols, self._values, self._nrows, self._ncols)

    # ------------------------------------------------------------------
    # properties / element access
    # ------------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return self._nrows

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def shape(self) -> tuple[int, int]:
        return (self._nrows, self._ncols)

    @property
    def nvals(self) -> int:
        return int(self._rows.size)

    @property
    def indptr(self) -> np.ndarray:
        """Cached CSR row pointer."""
        ip = self._cache.get("indptr")
        if ip is None:
            ip = indptr_from_rows(self._rows, self._nrows)
            self._cache["indptr"] = ip
        return ip

    @property
    def T(self) -> "Matrix":
        """Cached materialised transpose (invalidated on mutation)."""
        t = self._cache.get("transpose")
        if t is None:
            t = self.transpose()
            self._cache["transpose"] = t
        return t

    def get(self, i: int, j: int, default=None):
        i = check_in_range(i, self._nrows, "row")
        j = check_in_range(j, self._ncols, "col")
        key = np.int64(i) * self._ncols + j
        keys = encode(self._rows, self._cols, self._ncols)
        pos = np.searchsorted(keys, key)
        if pos < keys.size and keys[pos] == key:
            return self._values[pos][()]
        return default

    def __getitem__(self, ij):
        val = self.get(*ij)
        if val is None:
            raise KeyError(f"no entry at {ij}")
        return val

    def __setitem__(self, ij, value) -> None:
        """GrB_Matrix_setElement."""
        i, j = ij
        i = check_in_range(i, self._nrows, "row")
        j = check_in_range(j, self._ncols, "col")
        keys = encode(self._rows, self._cols, self._ncols)
        key = np.int64(i) * self._ncols + j
        pos = int(np.searchsorted(keys, key))
        cast = self.dtype.np_dtype.type(value)
        if pos < keys.size and keys[pos] == key:
            vals = self._values.copy()
            vals[pos] = cast
            self._set(self._rows, self._cols, vals)
        else:
            self._set(
                np.insert(self._rows, pos, i),
                np.insert(self._cols, pos, j),
                np.insert(self._values, pos, cast),
            )

    def remove_element(self, i: int, j: int) -> None:
        keys = encode(self._rows, self._cols, self._ncols)
        key = np.int64(i) * self._ncols + j
        pos = np.searchsorted(keys, key)
        if pos < keys.size and keys[pos] == key:
            self._set(
                np.delete(self._rows, pos),
                np.delete(self._cols, pos),
                np.delete(self._values, pos),
            )

    def items(self) -> Iterator[tuple[int, int, object]]:
        for r, c, v in zip(
            self._rows.tolist(), self._cols.tolist(), self._values.tolist()
        ):
            yield r, c, v

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------

    def to_coo(self):
        """GrB_Matrix_extractTuples."""
        return self._rows.copy(), self._cols.copy(), self._values.copy()

    def to_dense(self, fill=0) -> np.ndarray:
        out = np.full((self._nrows, self._ncols), fill, dtype=self.dtype.np_dtype)
        out[self._rows, self._cols] = self._values
        return out

    def to_scipy(self):
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self._values, (self._rows, self._cols)), shape=self.shape
        )

    def dup(self, dtype=None) -> "Matrix":
        dtype = self.dtype if dtype is None else _types.lookup(dtype)
        m = Matrix(dtype, self._nrows, self._ncols)
        m._set(self._rows.copy(), self._cols.copy(), dtype.cast(self._values).copy())
        return m

    def clear(self) -> None:
        self._set(
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=self.dtype.np_dtype),
        )

    def resize(self, nrows: int, ncols: int) -> None:
        """GrB_Matrix_resize; shrinking drops out-of-range entries.

        A same-dimensions call is a strict no-op: it must not invalidate the
        cached ``indptr``/transpose (the serving layer's flush-on-read calls
        this on every property access).  On pure growth the cached ``indptr``
        stays valid too -- it is extended in place instead of dropped.
        """
        nrows = check_positive(nrows, "nrows")
        ncols = check_positive(ncols, "ncols")
        if nrows == self._nrows and ncols == self._ncols:
            return
        if nrows < self._nrows or ncols < self._ncols:
            keep = (self._rows < nrows) & (self._cols < ncols)
            self._set(self._rows[keep], self._cols[keep], self._values[keep])
        else:
            ip = self._cache.get("indptr")
            self._cache.clear()
            if ip is not None:
                self._cache["indptr"] = np.concatenate(
                    [ip, np.full(nrows - self._nrows, ip[-1], dtype=np.int64)]
                )
        self._nrows = nrows
        self._ncols = ncols

    # ------------------------------------------------------------------
    # write phase
    # ------------------------------------------------------------------

    def _finalize(self, t_rows, t_cols, t_vals, out, mask, accum, desc, result_dtype):
        desc = desc or _NULL_DESC
        if out is None:
            out = Matrix(result_dtype, self._nrows, self._ncols)
        if out.shape != (self._nrows, self._ncols):
            raise DimensionMismatch(
                f"out has shape {out.shape}, expected {(self._nrows, self._ncols)}"
            )
        minfo = resolve_mask(mask, desc)
        mask_keys = None
        comp = False
        if minfo is not None:
            parent, comp, struct = minfo
            if not isinstance(parent, Matrix) or parent.shape != out.shape:
                raise DimensionMismatch("mask must be a Matrix of matching shape")
            mask_keys = mask_true_keys(parent, struct)
        c_keys = encode(out._rows, out._cols, self._ncols)
        t_keys = encode(t_rows, t_cols, self._ncols)
        keys, vals = write_mask_accum(
            c_keys,
            out._values,
            t_keys,
            t_vals,
            mask_keys=mask_keys,
            mask_complement=comp,
            replace=desc.replace,
            accum=accum,
        )
        r, c = decode(keys, self._ncols)
        out._set(r, c, out.dtype.cast(vals))
        return out

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def _input(self, transpose_flag: bool) -> "Matrix":
        return self.T if transpose_flag else self

    def mxm(self, other: "Matrix", semiring, *, out=None, mask=None, accum=None, desc=None) -> "Matrix":
        """``C<M> = A ⊕.⊗ B`` (GrB_mxm)."""
        desc = desc or _NULL_DESC
        a = self._input(desc.transpose_a)
        b = other._input(desc.transpose_b)
        if a.ncols != b.nrows:
            raise DimensionMismatch(
                f"mxm: A is {a.shape}, B is {b.shape} (inner dims differ)"
            )
        t_rows, t_cols, t_vals = _mxm_kernel(a._coo_tuple(), b._coo_tuple(), semiring)
        res_dtype = semiring.output_dtype(self.dtype, other.dtype)
        res = Matrix(res_dtype, a.nrows, b.ncols)
        return res._finalize(t_rows, t_cols, t_vals, out, mask, accum, desc, res_dtype)

    def mxv(self, vector: Vector, semiring, *, out=None, mask=None, accum=None, desc=None) -> Vector:
        """``w<m> = A ⊕.⊗ u`` (GrB_mxv)."""
        desc = desc or _NULL_DESC
        a = self._input(desc.transpose_a)
        t_idx, t_vals = _mxv_kernel(
            a._coo_tuple(),
            (vector._indices, vector._values, vector.size),
            semiring,
        )
        res_dtype = semiring.output_dtype(self.dtype, vector.dtype)
        res = Vector(res_dtype, a.nrows)
        return res._finalize(t_idx, t_vals, out, mask, accum, desc, res_dtype)

    def ewise_add(self, other: "Matrix", op, *, out=None, mask=None, accum=None, desc=None) -> "Matrix":
        """Set-union elementwise combine (GrB_eWiseAdd)."""
        desc = desc or _NULL_DESC
        a = self._input(desc.transpose_a)
        b = other._input(desc.transpose_b)
        a._check_same_shape(b)
        ka = encode(a._rows, a._cols, a._ncols)
        kb = encode(b._rows, b._cols, b._ncols)
        keys, vals = union_merge(ka, a._values, kb, b._values, op)
        r, c = decode(keys, a._ncols)
        return a._finalize(r, c, vals, out, mask, accum, desc, a._result_dtype(op, b))

    def ewise_mult(self, other: "Matrix", op, *, out=None, mask=None, accum=None, desc=None) -> "Matrix":
        """Set-intersection elementwise combine (GrB_eWiseMult)."""
        desc = desc or _NULL_DESC
        a = self._input(desc.transpose_a)
        b = other._input(desc.transpose_b)
        a._check_same_shape(b)
        ka = encode(a._rows, a._cols, a._ncols)
        kb = encode(b._rows, b._cols, b._ncols)
        keys, vals = intersect_merge(ka, a._values, kb, b._values, op)
        r, c = decode(keys, a._ncols)
        return a._finalize(r, c, vals, out, mask, accum, desc, a._result_dtype(op, b))

    def apply(self, op, *, out=None, mask=None, accum=None, desc=None, dtype=None) -> "Matrix":
        """Elementwise unary map over stored values (GrB_apply)."""
        vals = np.asarray(op(self._values))
        if dtype is None:
            dtype = _types.BOOL if op.bool_result else self.dtype
        else:
            dtype = _types.lookup(dtype)
        return self._finalize(
            self._rows.copy(), self._cols.copy(), vals, out, mask, accum, desc, dtype
        )

    def select(self, op, thunk=None, *, out=None, mask=None, accum=None, desc=None) -> "Matrix":
        """Keep entries passing an index-unary predicate (GxB_select)."""
        keep = op(self._values, self._rows, self._cols, thunk)
        return self._finalize(
            self._rows[keep],
            self._cols[keep],
            self._values[keep],
            out,
            mask,
            accum,
            desc,
            self.dtype,
        )

    def reduce_vector(self, monoid, *, out=None, mask=None, accum=None, desc=None, dtype=None) -> Vector:
        """Row-wise reduction ``w = [⊕_j A(:, j)]`` (GrB_reduce to vector).

        With ``desc.transpose_a`` this reduces columns instead.  ``dtype``
        selects the typed monoid, as in ``GrB_PLUS_MONOID_INT64``: values are
        cast before reduction (reducing a BOOL matrix with the plus monoid at
        INT64 *counts* entries rather than OR-ing them).
        """
        desc = desc or _NULL_DESC
        a = self._input(desc.transpose_a)
        rdtype = self.dtype if dtype is None else _types.lookup(dtype)
        t_idx, t_vals = reduce_rows(a._rows, rdtype.cast(a._values), monoid)
        res = Vector(rdtype, a.nrows)
        return res._finalize(t_idx, t_vals, out, mask, accum, desc, rdtype)

    def reduce_scalar(self, monoid, *, dtype=None):
        """Reduce every stored value to one scalar (GrB_reduce to scalar)."""
        rdtype = self.dtype if dtype is None else _types.lookup(dtype)
        return monoid.reduce_array(rdtype.cast(self._values), rdtype)

    def transpose(self, *, out=None, mask=None, accum=None, desc=None) -> "Matrix":
        """``C = A'`` (GrB_transpose)."""
        r, c, v = _transpose_kernel(
            self._rows, self._cols, self._values, self._nrows, self._ncols
        )
        res = Matrix(self.dtype, self._ncols, self._nrows)
        return res._finalize(r, c, v, out, mask, accum, desc, self.dtype)

    def extract(self, row_ids=None, col_ids=None, *, out=None, mask=None, accum=None, desc=None) -> "Matrix":
        """``C = A(I, J)`` (GrB_extract); ``None`` means GrB_ALL."""
        desc = desc or _NULL_DESC
        a = self._input(desc.transpose_a)
        if row_ids is None:
            row_ids = np.arange(a.nrows, dtype=np.int64)
        else:
            row_ids = check_index_array(row_ids, a.nrows, "row_ids")
        if col_ids is None:
            col_ids = np.arange(a.ncols, dtype=np.int64)
        else:
            col_ids = check_index_array(col_ids, a.ncols, "col_ids")
        r, c, v = extract_submatrix(
            a._rows, a._cols, a._values, a.nrows, a.ncols, row_ids, col_ids
        )
        res = Matrix(self.dtype, row_ids.size, col_ids.size)
        return res._finalize(r, c, v, out, mask, accum, desc, self.dtype)

    def extract_row(self, i: int) -> Vector:
        """Row ``i`` as a Vector (GrB_Col_extract on the transpose)."""
        i = check_in_range(i, self._nrows, "row")
        ip = self.indptr
        lo, hi = int(ip[i]), int(ip[i + 1])
        v = Vector(self.dtype, self._ncols)
        v._set(self._cols[lo:hi].copy(), self._values[lo:hi].copy())
        return v

    def extract_col(self, j: int) -> Vector:
        """Column ``j`` as a Vector."""
        return self.T.extract_row(j)

    def assign(self, a: "Matrix", row_ids=None, col_ids=None, *, mask=None, accum=None, desc=None) -> "Matrix":
        """``C(I, J)<M> accum= A`` (GrB_assign); mutates and returns ``self``.

        ``None`` index sets mean GrB_ALL.  Without ``accum`` the I x J region
        is overwritten (stored entries of C inside the region but absent from
        A are deleted); the mask and the ``replace`` descriptor flag apply to
        the *whole* of C, per the GrB_assign (not subassign) semantics.
        """
        from repro.graphblas._kernels.assign import (
            assign_submatrix_z,
            check_unique_ids,
        )

        desc = desc or _NULL_DESC
        if row_ids is None:
            row_ids = np.arange(self._nrows, dtype=np.int64)
        else:
            row_ids = check_unique_ids(
                check_index_array(row_ids, self._nrows, "row_ids"), "row_ids"
            )
        if col_ids is None:
            col_ids = np.arange(self._ncols, dtype=np.int64)
        else:
            col_ids = check_unique_ids(
                check_index_array(col_ids, self._ncols, "col_ids"), "col_ids"
            )
        if a.shape != (row_ids.size, col_ids.size):
            raise DimensionMismatch(
                f"assign: A has shape {a.shape}, region is "
                f"{(row_ids.size, col_ids.size)}"
            )
        z_keys, z_vals = assign_submatrix_z(
            self._coo_tuple()[:3], a._coo_tuple()[:3], row_ids, col_ids, accum, self._ncols
        )
        r, c = decode(z_keys, self._ncols)
        # Mask/replace phase over all of C (accum already folded into Z).
        return self._finalize(r, c, z_vals, self, mask, None, desc, self.dtype)

    def kronecker(self, other: "Matrix", op, *, out=None, mask=None, accum=None, desc=None) -> "Matrix":
        """Kronecker product ``C = A kron B`` under ``op`` (GrB_kronecker).

        Entry ``A(i,j) op B(k,l)`` lands at ``(i*B.nrows + k, j*B.ncols + l)``.
        Cost is Theta(nvals(A) * nvals(B)), inherent to the operation.
        """
        from repro.graphblas._kernels.coo import check_key_space

        nr, nc = self._nrows * other._nrows, self._ncols * other._ncols
        check_key_space(nr, nc)
        t_rows = (self._rows[:, None] * other._nrows + other._rows[None, :]).ravel()
        t_cols = (self._cols[:, None] * other._ncols + other._cols[None, :]).ravel()
        t_vals = np.asarray(
            op(
                np.repeat(self._values, other._values.size),
                np.tile(other._values, self._values.size),
            )
        )
        order = np.argsort(encode(t_rows, t_cols, nc), kind="stable")
        res_dtype = self._result_dtype(op, other)
        res = Matrix(res_dtype, nr, nc)
        return res._finalize(
            t_rows[order], t_cols[order], t_vals[order], out, mask, accum, desc, res_dtype
        )

    def apply_index(self, op, thunk=None, *, out=None, mask=None, accum=None, desc=None, dtype=None) -> "Matrix":
        """Positional apply (GrB_apply with an IndexUnaryOp such as ROWINDEX)."""
        vals = op(self._values, self._rows, self._cols, thunk)
        if dtype is None:
            dtype = _types.from_numpy(vals.dtype)
        else:
            dtype = _types.lookup(dtype)
        return self._finalize(
            self._rows.copy(), self._cols.copy(), vals, out, mask, accum, desc, dtype
        )

    def diagonal(self, k: int = 0) -> Vector:
        """Diagonal ``k`` as a Vector (GxB_Vector_diag): entry ``i`` is A(i, i+k)."""
        size = (
            min(self._nrows, self._ncols - k)
            if k >= 0
            else min(self._nrows + k, self._ncols)
        )
        if size <= 0:
            raise DimensionMismatch(
                f"diagonal {k} of a {self.shape} matrix is empty"
            )
        on_diag = self._cols == self._rows + k
        idx = self._rows[on_diag] if k >= 0 else self._cols[on_diag]
        v = Vector(self.dtype, size)
        v._set(idx.copy(), self._values[on_diag].copy())
        return v

    def power(self, n: int, semiring) -> "Matrix":
        """``A^n`` under a semiring by repeated squaring; requires square A."""
        if self._nrows != self._ncols:
            raise DimensionMismatch(f"power requires a square matrix, got {self.shape}")
        if n < 1:
            raise ValueError("power requires n >= 1 (no semiring identity matrix)")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result.mxm(base, semiring)
            n >>= 1
            if n:
                base = base.mxm(base, semiring)
        return result.dup() if result is self else result

    def assign_coo(self, rows, cols, values, *, accum=None) -> "Matrix":
        """Batch element insert/update: ``C(i,j) accum= v`` for given triples.

        This is the workhorse for applying graph updates (new edges).  Without
        ``accum`` new values overwrite existing entries ("second" semantics);
        duplicates inside the batch are also resolved last-wins.  Mutates and
        returns ``self``.
        """
        rows = check_index_array(rows, self._nrows, "rows")
        cols = check_index_array(cols, self._ncols, "cols")
        if np.isscalar(values) or getattr(values, "ndim", 1) == 0:
            values = np.full(rows.shape, values)
        values = self.dtype.cast(np.asarray(values))
        dup = accum if accum is not None else _ops.second
        r, c, v = canonicalize_matrix(
            rows, cols, values, self._nrows, self._ncols, dup_op=dup
        )
        ka = encode(self._rows, self._cols, self._ncols)
        kb = encode(r, c, self._ncols)
        op = accum if accum is not None else _ops.second
        keys, vals = union_merge(ka, self._values, kb, v, op)
        rr, cc = decode(keys, self._ncols)
        self._set(rr, cc, self.dtype.cast(vals))
        return self

    def remove_coo(self, rows, cols) -> "Matrix":
        """Batch element removal: drop any stored entry at the given positions.

        Positions with no stored entry are ignored (idempotent), matching a
        batched ``GrB_Matrix_removeElement``.  Mutates and returns ``self``.
        """
        rows = check_index_array(rows, self._nrows, "rows")
        cols = check_index_array(cols, self._ncols, "cols")
        if rows.size == 0 or self.nvals == 0:
            return self
        from repro.graphblas._kernels.coo import in1d_sorted

        doomed = np.unique(encode(rows, cols, self._ncols))
        keys = encode(self._rows, self._cols, self._ncols)
        keep = ~in1d_sorted(keys, doomed)
        self._set(self._rows[keep], self._cols[keep], self._values[keep])
        return self

    # ------------------------------------------------------------------
    # comparison / helpers
    # ------------------------------------------------------------------

    def isequal(self, other: "Matrix") -> bool:
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and np.array_equal(self._rows, other._rows)
            and np.array_equal(self._cols, other._cols)
            and np.array_equal(self._values, other._values)
        )

    def _check_same_shape(self, other: "Matrix") -> None:
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {type(other)}")
        if other.shape != self.shape:
            raise DimensionMismatch(
                f"matrix shapes differ: {self.shape} vs {other.shape}"
            )

    def _result_dtype(self, op, other: "Matrix"):
        if op.bool_result:
            return _types.BOOL
        if op.name == "first":
            return self.dtype
        if op.name == "second":
            return other.dtype
        if op.name == "pair":
            return _types.INT64
        return _types.promote(self.dtype, other.dtype)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Matrix<{self.dtype.name}, shape={self.shape}, nvals={self.nvals}>"
        )
