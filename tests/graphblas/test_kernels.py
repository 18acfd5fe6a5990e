"""Low-level kernel tests: canonicalisation, key encoding, merges, CSR helpers."""

import numpy as np
import pytest

from repro.graphblas import ops
from repro.graphblas import semiring as sem
from repro.graphblas._kernels import coo, csr, merge, reduce as red, spgemm
from repro.graphblas.monoid import min_monoid, plus_monoid
from repro.util.validation import ReproError


class TestEncode:
    def test_roundtrip(self):
        rows = np.array([0, 1, 2], dtype=np.int64)
        cols = np.array([3, 0, 2], dtype=np.int64)
        keys = coo.encode(rows, cols, 5)
        r, c = coo.decode(keys, 5)
        assert np.array_equal(r, rows) and np.array_equal(c, cols)

    def test_key_space_guard(self):
        coo.check_key_space(10**9, 10**9)  # fits
        with pytest.raises(ReproError):
            coo.check_key_space(2**40, 2**40)


class TestCanonicalize:
    def test_sorts_row_major(self):
        r, c, v = coo.canonicalize_matrix(
            [1, 0, 0], [0, 2, 1], [10, 20, 30], 2, 3
        )
        assert r.tolist() == [0, 0, 1]
        assert c.tolist() == [1, 2, 0]
        assert v.tolist() == [30, 20, 10]

    def test_dedup_plus(self):
        r, c, v = coo.canonicalize_matrix(
            [0, 0, 0], [1, 1, 0], [1, 2, 5], 1, 2, dup_op=ops.plus
        )
        assert r.tolist() == [0, 0]
        assert c.tolist() == [0, 1]
        assert v.tolist() == [5, 3]

    def test_dedup_second_last_wins(self):
        idx, vals = coo.canonicalize_vector([2, 2, 0], [1, 9, 5], 3, dup_op=ops.second)
        assert idx.tolist() == [0, 2]
        assert vals.tolist() == [5, 9]

    def test_dedup_first(self):
        idx, vals = coo.canonicalize_vector([2, 2], [1, 9], 3, dup_op=ops.first)
        assert vals.tolist() == [1]

    def test_no_dup_op_raises(self):
        with pytest.raises(ReproError):
            coo.canonicalize_vector([0, 0], [1, 2], 1)

    def test_length_mismatch(self):
        with pytest.raises(ReproError):
            coo.canonicalize_matrix([0], [0, 1], [1, 2], 2, 2)


class TestSegmentReduce:
    def test_ufunc_path(self):
        vals = np.array([1, 2, 3, 4, 5])
        starts = np.array([0, 2, 3])
        out = coo.segment_reduce(vals, starts, ops.plus)
        assert out.tolist() == [3, 3, 9]

    def test_python_fallback(self):
        vals = np.array([1, 2, 3])
        starts = np.array([0, 1])
        out = coo.segment_reduce(vals, starts, ops.any_)
        assert out.tolist() == [1, 2]

    def test_empty(self):
        out = coo.segment_reduce(np.zeros(0), np.zeros(0, np.int64), ops.plus)
        assert out.size == 0


class TestIn1dSorted:
    def test_membership(self):
        hay = np.array([2, 5, 9], dtype=np.int64)
        needles = np.array([0, 2, 5, 6, 9, 11], dtype=np.int64)
        assert coo.in1d_sorted(needles, hay).tolist() == [
            False, True, True, False, True, False,
        ]

    def test_empty_haystack(self):
        out = coo.in1d_sorted(np.array([1, 2]), np.zeros(0, np.int64))
        assert out.tolist() == [False, False]


class TestCsrHelpers:
    def test_indptr_roundtrip(self):
        rows = np.array([0, 0, 2], dtype=np.int64)
        ip = csr.indptr_from_rows(rows, 4)
        assert ip.tolist() == [0, 2, 2, 3, 3]
        _, group = csr.row_ranges(ip, np.arange(4, dtype=np.int64))
        assert group.tolist() == [0, 0, 2]

    def test_row_ranges(self):
        ip = np.array([0, 2, 2, 5], dtype=np.int64)
        entry, group = csr.row_ranges(ip, np.array([2, 0], dtype=np.int64))
        assert entry.tolist() == [2, 3, 4, 0, 1]
        assert group.tolist() == [0, 0, 0, 1, 1]

    def test_row_ranges_empty(self):
        ip = np.array([0, 0], dtype=np.int64)
        entry, group = csr.row_ranges(ip, np.array([0], dtype=np.int64))
        assert entry.size == 0 and group.size == 0

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 100])
    def test_iter_row_ranges_concatenates_to_row_ranges(self, chunk):
        rng = np.random.default_rng(chunk)
        lengths = rng.integers(0, 6, 12)
        ip = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        row_ids = rng.integers(0, 12, 9).astype(np.int64)  # repeats allowed
        slices = list(csr.iter_row_ranges(ip, row_ids, chunk))
        assert all(0 < e.size == g.size <= chunk for e, g in slices)
        entry, group = csr.row_ranges(ip, row_ids)
        assert np.concatenate([e for e, _ in slices]).tolist() == entry.tolist()
        assert np.concatenate([g for _, g in slices]).tolist() == group.tolist()

    def test_iter_row_ranges_empty(self):
        ip = np.array([0, 0, 0], dtype=np.int64)
        assert list(csr.iter_row_ranges(ip, np.array([1, 0], np.int64), 4)) == []
        assert list(csr.iter_row_ranges(ip, np.zeros(0, np.int64), 4)) == []


class TestMerge:
    def test_union_disjoint(self):
        ka = np.array([0, 2], dtype=np.int64)
        kb = np.array([1, 3], dtype=np.int64)
        keys, vals = merge.union_merge(ka, np.array([1, 2]), kb, np.array([3, 4]), ops.plus)
        assert keys.tolist() == [0, 1, 2, 3]
        assert vals.tolist() == [1, 3, 2, 4]

    def test_union_overlap_op_order(self):
        ka = np.array([5], dtype=np.int64)
        kb = np.array([5], dtype=np.int64)
        _, vals = merge.union_merge(ka, np.array([10]), kb, np.array([3]), ops.minus)
        assert vals.tolist() == [7]  # A - B, stable order preserved

    def test_union_empty_sides(self):
        ka = np.zeros(0, np.int64)
        kb = np.array([1], dtype=np.int64)
        keys, vals = merge.union_merge(ka, np.zeros(0, np.int64), kb, np.array([7]), ops.plus)
        assert keys.tolist() == [1] and vals.tolist() == [7]

    def test_intersect(self):
        ka = np.array([0, 1, 4], dtype=np.int64)
        kb = np.array([1, 4, 9], dtype=np.int64)
        keys, vals = merge.intersect_merge(
            ka, np.array([1, 2, 3]), kb, np.array([10, 20, 30]), ops.plus
        )
        assert keys.tolist() == [1, 4]
        assert vals.tolist() == [12, 23]

    def test_intersect_swapped_sizes_keeps_order(self):
        # larger A than B exercises the other branch
        ka = np.array([0, 1, 2, 3], dtype=np.int64)
        kb = np.array([2], dtype=np.int64)
        keys, vals = merge.intersect_merge(
            ka, np.array([5, 6, 7, 8]), kb, np.array([100]), ops.minus
        )
        assert keys.tolist() == [2] and vals.tolist() == [-93]  # A - B


class TestReduceKernels:
    def test_reduce_rows(self):
        rows = np.array([0, 0, 3], dtype=np.int64)
        vals = np.array([1, 5, 9])
        idx, out = red.reduce_rows(rows, vals, plus_monoid)
        assert idx.tolist() == [0, 3]
        assert out.tolist() == [6, 9]

    def test_reduce_groups_unsorted(self):
        groups = np.array([3, 0, 3, 0], dtype=np.int64)
        vals = np.array([1, 10, 2, 20])
        idx, out = red.reduce_groups(groups, vals, min_monoid)
        assert idx.tolist() == [0, 3]
        assert out.tolist() == [10, 1]


class TestSpgemmGuards:
    def test_flop_limit(self, monkeypatch):
        from repro.graphblas import semiring
        from repro.graphblas._kernels import spgemm

        monkeypatch.setattr(spgemm, "FLOP_LIMIT", 2)
        a = (
            np.array([0, 0], dtype=np.int64),
            np.array([0, 1], dtype=np.int64),
            np.array([1, 1]),
            1,
            2,
        )
        b = (
            np.array([0, 0, 1, 1], dtype=np.int64),
            np.array([0, 1, 0, 1], dtype=np.int64),
            np.array([1, 1, 1, 1]),
            2,
            2,
        )
        with pytest.raises(ReproError):
            spgemm.generic_mxm(a, b, semiring.plus_times)


def rand_coo(rng, nrows, ncols, nnz):
    rows = rng.integers(0, nrows, nnz)
    cols = rng.integers(0, ncols, nnz)
    vals = rng.integers(-3, 4, nnz)
    r, c, v = coo.canonicalize_matrix(rows, cols, vals, nrows, ncols, dup_op=ops.plus)
    return (r, c, v, nrows, ncols)


class TestTiledMxm:
    def test_over_limit_degrades_to_tiles(self, monkeypatch):
        """Totals above FLOP_LIMIT row-tile instead of failing (the former
        hard ReproError), and the tiled result is identical."""
        rng = np.random.default_rng(11)
        a = rand_coo(rng, 120, 80, 900)
        b = rand_coo(rng, 80, 100, 900)
        want = spgemm.generic_mxm(a, b, sem.get("plus_times"))
        monkeypatch.setattr(spgemm, "FLOP_LIMIT", 500)
        got = spgemm.generic_mxm(a, b, sem.get("plus_times"))
        for w, g in zip(want, got):
            assert np.array_equal(w, g) and w.dtype == g.dtype

    def test_single_dense_row_still_raises(self, monkeypatch):
        """A single row that alone exceeds the limit cannot be tiled."""
        monkeypatch.setattr(spgemm, "FLOP_LIMIT", 2)
        a = coo.canonicalize_matrix(
            np.array([0, 0]), np.array([0, 1]), np.array([1, 1]), 1, 2
        )
        b = coo.canonicalize_matrix(
            np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), np.ones(4), 2, 2
        )
        with pytest.raises(ReproError, match="single output row"):
            spgemm.generic_mxm((*a, 1, 2), (*b, 2, 2), sem.get("plus_times"))
