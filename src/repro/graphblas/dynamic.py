"""Updatable sparse-matrix storage (paper future work, item (1)).

The paper's conclusion proposes "updatable compressed matrix representation
formats such as faimGraph [10] or Hornet [2]" to avoid rebuilding CSR on
every change set.  This module implements that format in the same spirit,
adapted from GPU memory pools to NumPy arenas:

* **Arena + per-row blocks** (Hornet): all adjacency data lives in two flat
  arrays (``cols``/``vals``).  Each row owns a contiguous *block* with a
  power-of-two capacity and a fill length; inserts append into the slack.
* **Capacity-class free lists** (faimGraph): when a row outgrows its block it
  relocates to a block of twice the capacity and its old block is pushed on
  a per-size free list for reuse, so a long insert stream reaches a steady
  state with bounded arena growth.
* **Swap-with-last deletion** (Hornet): rows are *unsorted*; removing an
  entry moves the row's last entry into the hole -- O(scan) to find, O(1)
  to delete, no tombstones.
* **Dirty-row freeze** (this repo's addition): :meth:`DynamicMatrix.freeze`
  maintains a canonical compute :class:`Matrix` view across mutations.
  Rows touched since the last freeze are re-canonicalised and spliced into
  the previous frozen arrays (:func:`.._kernels.freeze.merge_dirty_rows`)
  -- O(nnz) copies, no global sort -- and when *nothing* changed the same
  Matrix object is returned, so its cached ``indptr``/transpose survive.
* **One-pass cold start** (this repo's addition): a bulk ``assign_coo``
  into a still-empty arena, like ``from_matrix``, lays every row out at
  once -- capacity ``_block_cap(len)``, contiguous blocks, one scatter --
  so loading a graph never enters the per-row merge loop.

Amortised costs: ``set_element`` O(row degree) (membership scan dominates),
``remove_element`` O(row degree), ``to_matrix`` O(nnz log nnz) (one sort),
``freeze`` O(nnz + Δ·degree·log) after changes and O(1) when clean.
The ablation benchmark ``benchmarks/bench_ablation_dynamic.py`` compares
this against rebuild-per-changeset CSR maintenance on the update phase.

This storage is *not* a GraphBLAS object: computation stays in
:class:`~repro.graphblas.matrix.Matrix`.  ``freeze``/``to_matrix``/
``from_matrix`` convert at phase boundaries, which is exactly how the
paper's future-work deployment would slot a dynamic format under the
existing algorithms -- and how :class:`~repro.model.graph.SocialGraph`
does since the rebuild-free update path landed.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.graphblas import ops as _ops
from repro.graphblas import types as _types
from repro.graphblas._kernels.coo import canonicalize_matrix
from repro.graphblas._kernels.freeze import merge_dirty_rows
from repro.graphblas.matrix import Matrix
from repro.storage import ArenaStorage
from repro.storage.heap import HeapArena
from repro.util.validation import (
    DimensionMismatch,
    IndexOutOfBounds,
    ReproError,
    check_positive,
)

__all__ = ["DynamicMatrix"]

_MIN_CAP = 4  # smallest block; everything is a power of two from here


def _row_segments(rows: np.ndarray):
    """Yield ``(row, lo, hi)`` for each run of equal values in a row-sorted
    index array -- the shared grouping step of the bulk mutators."""
    boundaries = np.flatnonzero(np.diff(rows)) + 1
    for lo, hi in zip(
        np.concatenate([[0], boundaries]),
        np.concatenate([boundaries, [rows.size]]),
    ):
        yield int(rows[lo]), int(lo), int(hi)


def _block_cap(n):
    """Smallest power-of-two capacity >= max(n, _MIN_CAP), elementwise.

    ``frexp``'s exponent of a positive integer is its bit length (exact
    below 2**53).
    """
    _, bits = np.frexp(np.maximum(n, _MIN_CAP) - 1)
    return np.left_shift(np.int64(1), bits.astype(np.int64))


class DynamicMatrix:
    """A fully-dynamic sparse matrix with amortised O(degree) edge updates.

    Supports ``set_element`` / ``remove_element`` / ``get`` plus bulk
    variants, and converts to/from the immutable compute
    :class:`~repro.graphblas.matrix.Matrix`.
    """

    __slots__ = (
        "dtype",
        "_nrows",
        "_ncols",
        "_store",
        "_cols",
        "_vals",
        "_start",
        "_len",
        "_cap",
        "_used",
        "_free",
        "_nvals",
        "_relocations",
        "_dirty",
        "_frozen",
    )

    #: identity attributes :meth:`compact` must *not* copy from the scratch
    #: rebuild: the shape/dtype are equal anyway, the store and frozen view
    #: belong to this object (compact is a physical-layout operation --
    #: the frozen Matrix and dirty set describe logical content, which
    #: compaction preserves by definition), and the relocation counter is
    #: cumulative instrumentation.  Every *other* slot is copied, derived
    #: from ``__slots__`` so a newly added field cannot be forgotten.
    _COMPACT_PRESERVES = frozenset(
        {"dtype", "_nrows", "_ncols", "_store", "_dirty", "_frozen",
         "_relocations"}
    )
    #: slot -> store array name, for the array-valued slots
    _ARRAY_SLOTS = {
        "_cols": "cols", "_vals": "vals",
        "_start": "start", "_len": "len", "_cap": "cap",
    }

    def __init__(self, dtype, nrows: int, ncols: int, *,
                 store: ArenaStorage | None = None):
        self.dtype = _types.lookup(dtype)
        self._nrows = check_positive(nrows, "nrows")
        self._ncols = check_positive(ncols, "ncols")
        self._store = store if store is not None else HeapArena()
        self._cols = self._store.new("cols", 0, np.int64)
        self._vals = self._store.new("vals", 0, self.dtype.np_dtype)
        self._start = self._store.new("start", nrows, np.int64, fill=-1)  # -1: no block yet
        self._len = self._store.new("len", nrows, np.int64)
        self._cap = self._store.new("cap", nrows, np.int64)
        self._used = 0  # arena bump pointer
        self._free: dict[int, list[int]] = {}  # capacity -> block starts
        self._nvals = 0
        self._relocations = 0  # instrumentation for the ablation bench
        self._dirty: set[int] = set()  # rows touched since the last freeze
        self._frozen: Matrix | None = None  # the maintained canonical view

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_matrix(
        cls, matrix: Matrix, *, slack: float = 0.0,
        store: ArenaStorage | None = None,
    ) -> "DynamicMatrix":
        """Adopt an immutable matrix; ``slack`` adds per-row headroom.

        ``slack=0.5`` sizes each block for 1.5x the current degree (rounded
        up to the capacity class), trading memory for fewer relocations on
        a subsequent insert stream.
        """
        if slack < 0:
            raise ValueError(f"slack must be >= 0, got {slack}")
        dm = cls(matrix.dtype, matrix.nrows, matrix.ncols, store=store)
        rows, cols, vals = matrix.to_coo()
        if rows.size:
            dm._lay_out(rows, cols, dm.dtype.cast(vals), slack)
        return dm

    @classmethod
    def open(cls, store: ArenaStorage) -> "DynamicMatrix":
        """Re-open the matrix last :meth:`flush_storage`-ed into ``store``.

        Bit-exact restoration: arrays, free lists, slack and the
        relocation counter all come back as flushed, so the reopened
        matrix is indistinguishable from the one that flushed (the
        mmap/sqlite durability contract the conformance suite checks).
        """
        meta = store.get_meta()
        if not meta:
            raise ReproError("store holds no flushed DynamicMatrix to open")
        dm = cls.__new__(cls)
        dm.dtype = _types.lookup(meta["dtype"])
        dm._nrows = int(meta["nrows"])
        dm._ncols = int(meta["ncols"])
        dm._store = store
        arena = int(meta["arena_size"])
        dm._cols = store.open_array("cols", np.int64)[:arena]
        dm._vals = store.open_array("vals", dm.dtype.np_dtype)[:arena]
        dm._start = store.open_array("start", np.int64)[: dm._nrows]
        dm._len = store.open_array("len", np.int64)[: dm._nrows]
        dm._cap = store.open_array("cap", np.int64)[: dm._nrows]
        dm._used = int(meta["used"])
        dm._nvals = int(meta["nvals"])
        dm._free = {
            int(cap): [int(b) for b in blocks]
            for cap, blocks in meta["free"].items()
        }
        dm._relocations = int(meta.get("relocations", 0))
        dm._dirty = set()
        dm._frozen = None
        return dm

    # ------------------------------------------------------------------
    # storage seam
    # ------------------------------------------------------------------

    @property
    def store(self) -> ArenaStorage:
        """The arena home backing this matrix's arrays."""
        return self._store

    def flush_storage(self) -> bool:
        """Persist arrays + layout metadata through the store.

        No-op (False) on non-persistent backends; after True, the store
        can be :meth:`~repro.storage.ArenaStorage.snapshot_to`-ed or
        reopened with :meth:`open`.
        """
        if not self._store.persistent:
            return False
        self._store.put_meta(
            {
                "dtype": self.dtype.name,
                "nrows": self._nrows,
                "ncols": self._ncols,
                "arena_size": int(self._cols.size),
                "used": self._used,
                "nvals": self._nvals,
                "relocations": self._relocations,
                "free": {str(cap): blocks for cap, blocks in self._free.items()},
            }
        )
        self._store.flush()
        return True

    # ------------------------------------------------------------------
    # properties
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
        return self._nvals

    @property
    def relocations(self) -> int:
        """How many row blocks have been moved to a larger capacity class."""
        return self._relocations

    def row_degree(self, i: int) -> int:
        self._check_row(i)
        return int(self._len[i])

    def memory_stats(self) -> dict:
        """Arena occupancy: how much slack the format is carrying."""
        allocated = int(self._cap.sum())
        free = sum(len(blocks) * cap for cap, blocks in self._free.items())
        return {
            "arena_size": int(self._cols.size),
            "allocated_slots": allocated,
            "filled_slots": self._nvals,
            "free_list_slots": free,
            "utilisation": (self._nvals / allocated) if allocated else 1.0,
            "relocations": self._relocations,
            "backend": self._store.backend,
            "store_bytes": self._store.nbytes(),
        }

    # ------------------------------------------------------------------
    # element access
    # ------------------------------------------------------------------

    def _check_row(self, i: int) -> None:
        if not 0 <= i < self._nrows:
            raise IndexOutOfBounds(f"row {i} out of range [0, {self._nrows})")

    def _check_col(self, j: int) -> None:
        if not 0 <= j < self._ncols:
            raise IndexOutOfBounds(f"col {j} out of range [0, {self._ncols})")

    def _row_slice(self, i: int) -> slice:
        s = self._start[i]
        return slice(s, s + self._len[i])

    def get(self, i: int, j: int, default=None):
        """Value at (i, j), or ``default`` if the entry is absent."""
        self._check_row(i)
        self._check_col(j)
        if self._len[i] == 0:
            return default
        sl = self._row_slice(i)
        hits = np.flatnonzero(self._cols[sl] == j)
        if hits.size == 0:
            return default
        return self._vals[sl][hits[0]][()]

    def __contains__(self, ij) -> bool:
        i, j = ij
        return self.get(i, j) is not None

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Copies of (column indices, values) of row ``i`` (unsorted)."""
        self._check_row(i)
        sl = self._row_slice(i)
        return self._cols[sl].copy(), self._vals[sl].copy()

    # ------------------------------------------------------------------
    # arena management
    # ------------------------------------------------------------------

    def _alloc(self, cap: int) -> int:
        """A block of capacity ``cap``: recycled if possible, else bump."""
        blocks = self._free.get(cap)
        if blocks:
            return blocks.pop()
        start = self._used
        need = start + cap
        if need > self._cols.size:
            # growth sizing is backend-independent (max of need, doubling,
            # floor 64); *how* the bytes move is the store's business --
            # allocate-and-copy on the heap, ftruncate + remap on mmap
            new_size = max(need, 2 * self._cols.size, 64)
            self._cols = self._store.resize("cols", self._cols, new_size, keep=start)
            self._vals = self._store.resize("vals", self._vals, new_size, keep=start)
        self._used = need
        return start

    def _lay_out(self, rows, cols, vals, slack: float = 0.0) -> None:
        """Place canonical (row-major, duplicate-free) entries into this
        still-empty arena in one pass.

        Every non-empty row gets one block of capacity
        ``_block_cap(ceil(len * (1 + slack)))``, blocks are contiguous in
        row order, and one scatter writes all data: no free-list blocks,
        no relocations, arena size = the sum of the capacities.
        """
        lengths = np.bincount(rows, minlength=self._nrows).astype(np.int64)
        want = np.ceil(lengths * (1.0 + slack)).astype(np.int64) if slack else lengths
        caps = np.where(want > 0, _block_cap(want), 0)
        starts = np.cumsum(caps) - caps
        total = int(caps.sum())
        self._cols = self._store.resize("cols", self._cols, total, keep=0)
        self._vals = self._store.resize("vals", self._vals, total, keep=0)
        row_starts = np.cumsum(lengths) - lengths
        dest = starts[rows] + (np.arange(rows.size) - row_starts[rows])
        self._cols[dest] = cols
        self._vals[dest] = vals
        self._start[:] = np.where(lengths > 0, starts, -1)
        self._len[:] = lengths
        self._cap[:] = caps
        self._used = total
        self._nvals = int(rows.size)

    def _grow_row(self, i: int) -> None:
        """Relocate row ``i`` into a block of the next capacity class."""
        old_cap = int(self._cap[i])
        new_cap = max(2 * old_cap, _MIN_CAP)
        new_start = self._alloc(new_cap)
        n = int(self._len[i])
        if n:
            old = self._row_slice(i)
            # the new block may have been recycled from this very arena;
            # copy through temporaries to be safe against overlap
            self._cols[new_start : new_start + n] = self._cols[old].copy()
            self._vals[new_start : new_start + n] = self._vals[old].copy()
        if old_cap:
            self._free.setdefault(old_cap, []).append(int(self._start[i]))
            self._relocations += 1
        self._start[i] = new_start
        self._cap[i] = new_cap

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def set_element(self, i: int, j: int, value) -> None:
        """Insert or overwrite entry (i, j) (GrB_Matrix_setElement)."""
        self._check_row(i)
        self._check_col(j)
        value = self.dtype.np_dtype.type(value)
        sl = self._row_slice(i)
        hits = np.flatnonzero(self._cols[sl] == j)
        self._dirty.add(int(i))
        if hits.size:
            self._vals[sl.start + hits[0]] = value
            return
        if self._len[i] == self._cap[i]:
            self._grow_row(i)
        pos = self._start[i] + self._len[i]
        self._cols[pos] = j
        self._vals[pos] = value
        self._len[i] += 1
        self._nvals += 1

    def remove_element(self, i: int, j: int) -> bool:
        """Delete entry (i, j); True if it existed (swap-with-last, O(1))."""
        self._check_row(i)
        self._check_col(j)
        sl = self._row_slice(i)
        hits = np.flatnonzero(self._cols[sl] == j)
        if hits.size == 0:
            return False
        pos = sl.start + hits[0]
        last = sl.stop - 1
        self._cols[pos] = self._cols[last]
        self._vals[pos] = self._vals[last]
        self._len[i] -= 1
        self._nvals -= 1
        self._dirty.add(int(i))
        return True

    def assign_coo(self, rows, cols, values, *, accum=None) -> None:
        """Bulk insert/overwrite of (row, col, value) triples.

        With ``accum`` (a BinaryOp), values combine with existing entries
        instead of overwriting.
        Duplicates *within the batch* also combine under ``accum`` (they
        overwrite left-to-right without it).
        """
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        if np.isscalar(values) or getattr(values, "ndim", 1) == 0:
            values = np.full(rows.shape, values)
        values = self.dtype.cast(np.asarray(values))
        if rows.size == 0:
            return
        if rows.min() < 0 or rows.max() >= self._nrows:
            raise IndexOutOfBounds("row index out of range in assign_coo")
        if cols.min() < 0 or cols.max() >= self._ncols:
            raise IndexOutOfBounds("col index out of range in assign_coo")
        # one canonicalisation for the whole batch: row-major sort plus
        # in-batch dedup (last wins without accum), so each row segment
        # arrives at _assign_row already sorted and unique
        rows, cols, values = canonicalize_matrix(
            rows, cols, values, self._nrows, self._ncols,
            dup_op=accum if accum is not None else _ops.second,
        )
        if self._used == 0:
            # cold start (CSV/snapshot load, data generation, shard
            # partitioning): nothing to merge with, so lay every row out
            # at once instead of growing each through the per-row path
            self._lay_out(rows, cols, values)
            self._dirty.update(np.flatnonzero(self._len).tolist())
            return
        for i, lo, hi in _row_segments(rows):
            self._assign_row(i, cols[lo:hi], values[lo:hi], accum)

    def _assign_row(self, i: int, new_cols, new_vals, accum) -> None:
        """Merge sorted, duplicate-free entries into one row (vectorised)."""
        self._dirty.add(int(i))
        n = int(self._len[i])
        s = int(self._start[i])
        if new_cols.size == 1:
            # micro-batch fast path: one entry for this row
            j = int(new_cols[0])
            hits = np.flatnonzero(self._cols[s : s + n] == j)
            if hits.size:
                k = s + int(hits[0])
                self._vals[k] = (
                    accum(self._vals[k], new_vals[0]) if accum is not None
                    else new_vals[0]
                )
                return
            if n == self._cap[i]:
                self._grow_row(i)
                s = int(self._start[i])
            self._cols[s + n] = j
            self._vals[s + n] = new_vals[0]
            self._len[i] += 1
            self._nvals += 1
            return
        if n:
            existing = self._cols[s : s + n]
            order = np.argsort(existing, kind="stable")
            sorted_exist = existing[order]
            pos = np.minimum(np.searchsorted(sorted_exist, new_cols), n - 1)
            hit = sorted_exist[pos] == new_cols
        else:
            hit = np.zeros(new_cols.shape, dtype=np.bool_)
        if hit.any():
            # overwrite / accumulate the hits in place
            targets = s + order[pos[hit]]
            if accum is None:
                self._vals[targets] = new_vals[hit]
            else:
                self._vals[targets] = accum(self._vals[targets], new_vals[hit])
        # append the misses, growing as needed
        miss_cols, miss_vals = new_cols[~hit], new_vals[~hit]
        n_new = int(miss_cols.size)
        if n_new == 0:
            return
        while self._len[i] + n_new > self._cap[i]:
            self._grow_row(i)
        pos = int(self._start[i] + self._len[i])
        self._cols[pos : pos + n_new] = miss_cols
        self._vals[pos : pos + n_new] = miss_vals
        self._len[i] += n_new
        self._nvals += n_new

    def remove_coo(self, rows, cols) -> int:
        """Bulk element removal: drop stored entries at the given positions.

        Positions with no stored entry are ignored (idempotent), matching
        :meth:`Matrix.remove_coo`.  Returns the number of entries removed.
        Each touched row is compacted in one vectorised pass -- O(degree)
        per row, independent of total nnz.
        """
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        if rows.shape != cols.shape:
            raise DimensionMismatch(
                f"remove_coo arrays must have equal length, got "
                f"{rows.shape} and {cols.shape}"
            )
        if rows.size == 0 or self._nvals == 0:
            return 0
        if rows.min() < 0 or rows.max() >= self._nrows:
            raise IndexOutOfBounds("row index out of range in remove_coo")
        if cols.min() < 0 or cols.max() >= self._ncols:
            raise IndexOutOfBounds("col index out of range in remove_coo")
        order = np.argsort(rows, kind="stable")
        rows, cols = rows[order], cols[order]
        removed = 0
        for i, lo, hi in _row_segments(rows):
            removed += self._remove_row(i, cols[lo:hi])
        return removed

    def _remove_row(self, i: int, rm_cols: np.ndarray) -> int:
        """Drop a batch of entries from one row; compacts the block."""
        n = int(self._len[i])
        if n == 0:
            return 0
        s = int(self._start[i])
        existing = self._cols[s : s + n]
        doomed = np.isin(existing, rm_cols)
        k = int(doomed.sum())
        if k == 0:
            return 0
        keep = ~doomed
        self._cols[s : s + n - k] = existing[keep]
        self._vals[s : s + n - k] = self._vals[s : s + n][keep]
        self._len[i] = n - k
        self._nvals -= k
        self._dirty.add(int(i))
        return k

    def resize(self, nrows: int, ncols: int) -> None:
        """Grow the logical dimensions (GxB_Matrix_resize, grow-only)."""
        if nrows == self._nrows and ncols == self._ncols:
            return
        if nrows < self._nrows or ncols < self._ncols:
            raise DimensionMismatch(
                f"DynamicMatrix.resize only grows: {self.shape} -> {(nrows, ncols)}"
            )
        if nrows > self._nrows:
            old = self._nrows
            self._start = self._store.resize("start", self._start, nrows, keep=old, fill=-1)
            self._len = self._store.resize("len", self._len, nrows, keep=old)
            self._cap = self._store.resize("cap", self._cap, nrows, keep=old)
            self._nrows = nrows
        self._ncols = ncols

    def compact(self) -> None:
        """Rebuild the arena with zero slack (defragmentation).

        A physical-layout operation: logical content, the maintained
        frozen view, the dirty-row set and the cumulative relocation
        counter are all preserved (so compact -> mutate -> freeze behaves
        exactly like the never-compacted matrix -- pinned by
        ``tests/storage/test_compact_property.py``).  The copy list is
        derived from ``__slots__`` minus :data:`_COMPACT_PRESERVES`, so a
        newly added field must be *deliberately* classified rather than
        silently dropped.
        """
        fresh = DynamicMatrix.from_matrix(self.to_matrix())
        for slot in type(self).__slots__:
            if slot in self._COMPACT_PRESERVES:
                continue
            if slot in self._ARRAY_SLOTS:
                src = getattr(fresh, slot)
                arr = self._store.resize(
                    self._ARRAY_SLOTS[slot], getattr(self, slot), src.size, keep=0
                )
                arr[:] = src
                setattr(self, slot, arr)
            else:
                setattr(self, slot, getattr(fresh, slot))

    # ------------------------------------------------------------------
    # conversion / iteration
    # ------------------------------------------------------------------

    def _gather_rows(self, row_ids: np.ndarray):
        """Canonical (row-major, col-sorted) entries of the given sorted rows.

        One vectorised gather plus a single argsort over encoded keys --
        no per-row Python loop.
        """
        lens = self._len[row_ids]
        total = int(lens.sum())
        empty_v = np.zeros(0, dtype=self.dtype.np_dtype)
        if total == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.int64), empty_v
        rows = np.repeat(row_ids, lens)
        out_starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        within = np.arange(total, dtype=np.int64) - np.repeat(out_starts, lens)
        entry_idx = np.repeat(self._start[row_ids], lens) + within
        cols = self._cols[entry_idx]
        vals = self._vals[entry_idx]
        # rows are already grouped in ascending order; the key argsort fixes
        # the (unsorted) column order inside each row
        order = np.argsort(rows * np.int64(self._ncols) + cols, kind="stable")
        return rows[order], cols[order], vals[order]

    def to_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) in canonical (row-major sorted) order."""
        if self._nvals == 0:
            return (
                np.zeros(0, np.int64),
                np.zeros(0, np.int64),
                np.zeros(0, dtype=self.dtype.np_dtype),
            )
        return self._gather_rows(np.flatnonzero(self._len))

    def to_matrix(self) -> Matrix:
        """Freeze into a *fresh* immutable compute Matrix."""
        rows, cols, vals = self.to_coo()
        return Matrix.from_coo(
            rows, cols, vals, self._nrows, self._ncols, dtype=self.dtype
        )

    def freeze(self) -> Matrix:
        """The maintained canonical compute view (phase-boundary freeze).

        Unlike :meth:`to_matrix` this returns the *same* :class:`Matrix`
        object across calls while the storage is unchanged -- preserving its
        cached ``indptr`` and transpose -- and after mutations only the rows
        touched since the last freeze are re-canonicalised and spliced in
        (O(nnz) copies, no global sort; the fresh ``indptr`` falls out of
        the splice for free).  The returned matrix is owned by this object:
        it is mutated in place by later freezes, exactly like the matrices
        a flushing :class:`~repro.model.graph.SocialGraph` serves.
        """
        f = self._frozen
        if f is None:
            f = self._frozen = self.to_matrix()
            self._dirty.clear()
            return f
        if f.shape != self.shape:
            f.resize(self._nrows, self._ncols)
        if self._dirty:
            dirty = np.fromiter(self._dirty, np.int64, len(self._dirty))
            dirty.sort()
            d_rows, d_cols, d_vals = self._gather_rows(dirty)
            r, c, v, indptr = merge_dirty_rows(
                f._rows, f._cols, f._values, f.indptr, self._nrows,
                dirty, d_rows, d_cols, d_vals,
            )
            f._set(r, c, v)
            f._cache["indptr"] = indptr
            self._dirty.clear()
        return f

    def items(self) -> Iterator[tuple[int, int, object]]:
        rows, cols, vals = self.to_coo()
        yield from zip(rows.tolist(), cols.tolist(), vals.tolist())

    def isequal(self, other) -> bool:
        """Structural and value equality against Matrix or DynamicMatrix."""
        if self.shape != other.shape or self.nvals != other.nvals:
            return False
        a = self.to_coo()
        b = other.to_coo()
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<DynamicMatrix {self._nrows}x{self._ncols} {self.dtype.name} "
            f"nvals={self._nvals} util={self.memory_stats()['utilisation']:.2f}>"
        )
