"""Serial kernels against a pure-Python reference.

The big kernels -- expansion SpGEMM (whole and row-tiled), the SciPy
``plus_times`` path with its annihilation repair, SpMV, row and group
reduction, and the dirty-row merge behind the incremental freeze -- are
checked entry-for-entry against dictionary-based reference implementations.
Workloads include empty-row stretches, skewed and single-row/-column
shapes, and sums that cancel to exactly zero (which GraphBLAS must keep).
"""

import operator

import numpy as np
import pytest

from repro.graphblas import monoid as mon
from repro.graphblas import semiring as sem
from repro.graphblas._kernels import freeze, reduce as red, spgemm, spmv
from repro.graphblas._kernels.coo import canonicalize_matrix
from repro.graphblas._kernels.csr import indptr_from_rows

MATRICES = {
    # name -> (nrows, ncols, nnz): empty-row stretches, skew, tiny shapes
    "dense-ish": (60, 50, 900),
    "sparse-empty-rows": (400, 80, 300),
    "single-row": (1, 64, 40),
    "single-col": (64, 1, 40),
}

# reference operators, keyed by the halves of a registry semiring name
ADD = {
    "plus": operator.add,
    "min": min,
    "lor": lambda x, y: bool(x or y),
}
MULT = {
    "times": operator.mul,
    "second": lambda x, y: y,
    "land": lambda x, y: bool(x and y),
}


def rand_coo(rng, nrows, ncols, nnz, lo=-3, hi=4, dtype=np.int64):
    rows = rng.integers(0, nrows, nnz)
    cols = rng.integers(0, ncols, nnz)
    vals = rng.integers(lo, hi, nnz).astype(dtype)
    dup = mon.lor_monoid if dtype is np.bool_ else mon.plus_monoid
    r, c, v = canonicalize_matrix(rows, cols, vals, nrows, ncols, dup_op=dup.op)
    return (r, c, v, nrows, ncols)


def entries(*arrays):
    """Zip parallel index/value arrays into a list of Python tuples."""
    return list(zip(*(a.tolist() for a in arrays)))


def assert_identical(want, got):
    assert len(want) == len(got)
    for w, g in zip(want, got):
        assert np.array_equal(w, g), (w, g)
        assert w.dtype == g.dtype, (w.dtype, g.dtype)


def fold(pairs, add):
    """``key -> add-fold of values`` in first-seen order, sorted by key."""
    out = {}
    for key, v in pairs:
        out[key] = add(out[key], v) if key in out else v
    return sorted(out.items())


def ref_mxm(a, b, add, mult):
    b_by_row: dict = {}
    for k, j, y in entries(*b[:3]):
        b_by_row.setdefault(k, []).append((j, y))
    products = (
        ((i, j), mult(x, y))
        for i, k, x in entries(*a[:3])
        for j, y in b_by_row.get(k, ())
    )
    return [(i, j, v) for (i, j), v in fold(products, add)]


def ref_mxv(a, u, add, mult):
    u_map = dict(entries(u[0], u[1]))
    products = (
        (i, mult(x, u_map[j])) for i, j, x in entries(*a[:3]) if j in u_map
    )
    return fold(products, add)


def row_work(a, b):
    """(total, heaviest row) products the expansion of ``a @ b`` makes."""
    b_len = np.bincount(b[0], minlength=b[3])
    per_row = np.bincount(a[0], weights=b_len[a[1]], minlength=a[3])
    return int(per_row.sum()), int(per_row.max())


def flop_limit(a, b, tiling):
    """A FLOP_LIMIT that runs the expansion whole, in about three tiles,
    or in tiles as small as the heaviest row allows."""
    total, worst = row_work(a, b)
    if tiling == "whole":
        return spgemm.FLOP_LIMIT
    if tiling == "tiles":
        return max(worst, total // 3, 1)
    return max(worst, 1)  # "row-tiles"


class TestMxm:
    @pytest.mark.parametrize("tiling", ["whole", "tiles", "row-tiles"])
    @pytest.mark.parametrize("shape", sorted(MATRICES))
    @pytest.mark.parametrize("semiring", ["plus_times", "min_second", "lor_land"])
    def test_matches_reference(self, monkeypatch, tiling, shape, semiring):
        rng = np.random.default_rng(7)
        nr, nc, nnz = MATRICES[shape]
        s = sem.get(semiring)
        dtype = np.bool_ if semiring == "lor_land" else np.int64
        a = rand_coo(rng, nr, nc, nnz, lo=0, hi=2, dtype=dtype)
        b = rand_coo(rng, nc, 70, 800, lo=0, hi=2, dtype=dtype)
        whole = spgemm.generic_mxm(a, b, s)

        limit = flop_limit(a, b, tiling)
        blocks = []
        real_expand = spgemm._expand_block
        monkeypatch.setattr(spgemm, "FLOP_LIMIT", limit)
        monkeypatch.setattr(
            spgemm, "_expand_block",
            lambda *args: blocks.append(1) or real_expand(*args),
        )
        got = spgemm.generic_mxm(a, b, s)

        add_name, mult_name = semiring.split("_")
        assert entries(*got) == ref_mxm(a, b, ADD[add_name], MULT[mult_name])
        assert_identical(whole, got)
        total, _ = row_work(a, b)
        assert (len(blocks) > 1) == (total > limit)

    @pytest.mark.parametrize("path", ["whole", "tiles", "scipy"])
    def test_annihilating_sum_kept(self, monkeypatch, path):
        """Products cancelling to exactly 0 keep their entry on every path
        (GraphBLAS structural semantics)."""
        # rows [1, -1] and [2, -2] times B rows that collide on column 0
        a = canonicalize_matrix(
            np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]),
            np.array([1, -1, 2, -2]), 2, 2,
        )
        a = (*a, 2, 2)
        b = canonicalize_matrix(
            np.array([0, 1]), np.array([0, 0]), np.array([5, 5]), 2, 1
        )
        b = (*b, 2, 1)
        if path == "scipy":
            got = spgemm.scipy_plus_times_mxm(a, b)
        else:
            if path == "tiles":
                monkeypatch.setattr(spgemm, "FLOP_LIMIT", 2)  # one row per tile
            got = spgemm.generic_mxm(a, b, sem.get("plus_times"))
        assert entries(*got) == [(0, 0, 0), (1, 0, 0)]  # annihilated but present

    @pytest.mark.parametrize("values", ["signed", "cancelling", "float"])
    def test_scipy_repair_matches_generic(self, values):
        rng = np.random.default_rng(3)
        lo, hi, dtype = {
            "signed": (-3, 4, np.int64),
            "cancelling": (-1, 2, np.int64),
            "float": (-3, 4, np.float64),
        }[values]
        a = rand_coo(rng, 80, 60, 700, lo=lo, hi=hi, dtype=dtype)
        b = rand_coo(rng, 60, 90, 700, lo=lo, hi=hi, dtype=dtype)
        got = spgemm.scipy_plus_times_mxm(a, b)
        assert entries(*got) == ref_mxm(a, b, operator.add, operator.mul)
        assert_identical(spgemm.generic_mxm(a, b, sem.get("plus_times")), got)


class TestMxv:
    @pytest.mark.parametrize("density", ["one", "half", "all"])
    @pytest.mark.parametrize("shape", sorted(MATRICES))
    @pytest.mark.parametrize("semiring", ["plus_times", "min_second"])
    def test_matches_reference(self, density, shape, semiring):
        rng = np.random.default_rng(13)
        nr, nc, nnz = MATRICES[shape]
        a = rand_coo(rng, nr, nc, nnz)
        u_idx = {
            "one": np.array([nc // 2]),
            "half": np.unique(rng.integers(0, nc, max(1, nc // 2))),
            "all": np.arange(nc),
        }[density].astype(np.int64)
        u_vals = rng.integers(1, 6, u_idx.size)
        u = (u_idx, u_vals, nc)
        out_idx, out_vals = spmv.mxv(a, u, sem.get(semiring))
        add_name, mult_name = semiring.split("_")
        assert entries(out_idx, out_vals) == ref_mxv(
            a, u, ADD[add_name], MULT[mult_name]
        )
        assert out_idx.dtype == np.int64 and out_vals.dtype == np.int64

    @pytest.mark.parametrize("u_col", [0, 1, 2])
    def test_row_stretches_with_no_output(self, u_col):
        """Row stretches whose columns all miss u contribute nothing,
        without disturbing dtype or order."""
        # rows 0..9 hit column 0; rows 100..109 hit column 1; none hit 2
        rows = np.concatenate([np.arange(10), np.arange(100, 110)]).astype(np.int64)
        cols = np.concatenate([np.zeros(10), np.ones(10)]).astype(np.int64)
        vals = np.arange(20, dtype=np.int64)
        a = (rows, cols, vals, 200, 3)
        u = (np.array([u_col], dtype=np.int64), np.array([3], dtype=np.int64), 3)
        out_idx, out_vals = spmv.mxv(a, u, sem.get("plus_times"))
        hit = cols == u_col
        assert out_idx.tolist() == rows[hit].tolist()
        assert out_vals.tolist() == (3 * vals[hit]).tolist()
        assert out_idx.dtype == np.int64 and out_vals.dtype == np.int64


class TestReduce:
    @pytest.mark.parametrize("entry", ["rows", "groups-sorted", "groups-shuffled"])
    @pytest.mark.parametrize("shape", sorted(MATRICES))
    @pytest.mark.parametrize("monoid", ["plus", "min", "lor"])
    def test_matches_reference(self, entry, shape, monoid):
        rng = np.random.default_rng(17)
        nr, nc, nnz = MATRICES[shape]
        m = mon.MONOIDS[monoid]
        dtype = np.bool_ if monoid == "lor" else np.int64
        rows, _, vals, _, _ = rand_coo(rng, nr, nc, nnz, lo=0, hi=2, dtype=dtype)
        if entry == "rows":
            idx, out = red.reduce_rows(rows, vals, m)
        else:
            if entry == "groups-shuffled":
                order = rng.permutation(rows.size)
                rows, vals = rows[order], vals[order]
            idx, out = red.reduce_groups(rows, vals, m)
        assert entries(idx, out) == fold(entries(rows, vals), ADD[monoid])
        assert out.dtype == vals.dtype

    def test_groups_with_huge_ids(self):
        """Group ids are arbitrary encoded keys: no O(max id) allocation."""
        ids = np.array([10**15, 0, 10**12, 10**12], dtype=np.int64)
        vals = np.array([4, 1, 2, 3], dtype=np.int64)
        idx, out = red.reduce_groups(ids, vals, mon.plus_monoid)
        assert idx.tolist() == [0, 10**12, 10**15]
        assert out.tolist() == [1, 5, 4]


def ref_merge(rows, cols, vals, dirty, d_rows, d_cols, d_vals):
    """Entries of the matrix with every dirty row replaced wholesale."""
    dirty_set = set(dirty.tolist())
    kept = [e for e in entries(rows, cols, vals) if e[0] not in dirty_set]
    return sorted(kept + entries(d_rows, d_cols, d_vals))


def check_merge(rows, cols, vals, nr, dirty, d_rows, d_cols, d_vals):
    indptr = indptr_from_rows(rows, nr)
    out_rows, out_cols, out_vals, out_indptr = freeze.merge_dirty_rows(
        rows, cols, vals, indptr, nr, dirty, d_rows, d_cols, d_vals
    )
    assert entries(out_rows, out_cols, out_vals) == ref_merge(
        rows, cols, vals, dirty, d_rows, d_cols, d_vals
    )
    assert np.array_equal(out_indptr, indptr_from_rows(out_rows, nr))
    assert out_rows.dtype == out_cols.dtype == np.int64
    assert out_vals.dtype == vals.dtype


class TestMergeDirtyRows:
    @pytest.mark.parametrize("dirty_count", [3, 30, 120])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference(self, dirty_count, seed):
        rng = np.random.default_rng(seed)
        nr, nc = 150, 40
        rows, cols, vals, _, _ = rand_coo(rng, nr, nc, 800)
        dirty = np.sort(rng.choice(nr, dirty_count, replace=False)).astype(np.int64)
        reps = []
        for r in dirty.tolist():
            k = int(rng.integers(0, 6))  # some dirty rows become empty
            cset = np.unique(rng.integers(0, nc, k))
            reps.append(
                (
                    np.full(cset.size, r, dtype=np.int64),
                    cset.astype(np.int64),
                    rng.integers(1, 9, cset.size),
                )
            )
        d_rows = np.concatenate([x[0] for x in reps])
        d_cols = np.concatenate([x[1] for x in reps])
        d_vals = np.concatenate([x[2] for x in reps])
        check_merge(rows, cols, vals, nr, dirty, d_rows, d_cols, d_vals)

    @pytest.mark.parametrize("which", ["first", "last", "all"])
    def test_boundary_rows(self, which):
        """Dirty sets touching row 0 and the last row exercise the empty
        head and the absent tail of the splice."""
        nr = 40
        rows = np.repeat(np.arange(nr, dtype=np.int64), 2)
        cols = np.tile(np.array([0, 3], dtype=np.int64), nr)
        vals = np.arange(2 * nr, dtype=np.int64)
        dirty = {
            "first": np.array([0]),
            "last": np.array([nr - 1]),
            "all": np.arange(nr),
        }[which].astype(np.int64)
        d_rows = dirty.copy()
        d_cols = np.ones(dirty.size, dtype=np.int64)
        d_vals = np.full(dirty.size, 7, dtype=np.int64)
        check_merge(rows, cols, vals, nr, dirty, d_rows, d_cols, d_vals)
