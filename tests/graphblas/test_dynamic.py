"""DynamicMatrix (future-work item (1)): unit + property tests.

The oracle is the immutable :class:`Matrix`: any sequence of set/remove
operations applied to both representations must leave them element-equal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphblas import ops
from repro.graphblas.dynamic import DynamicMatrix, _block_cap
from repro.graphblas.matrix import Matrix
from repro.graphblas.types import BOOL, FP64, INT64
from repro.util.validation import DimensionMismatch, IndexOutOfBounds


def small_matrix(nrows=5, ncols=7) -> Matrix:
    rng = np.random.default_rng(7)
    r = rng.integers(0, nrows, 12)
    c = rng.integers(0, ncols, 12)
    v = rng.integers(1, 100, 12)
    return Matrix.from_coo(r, c, v, nrows, ncols, dtype=INT64, dup_op=ops.plus)


class TestBlockCap:
    def test_minimum(self):
        assert _block_cap(0) == 4
        assert _block_cap(1) == 4
        assert _block_cap(4) == 4

    def test_powers_of_two(self):
        assert _block_cap(5) == 8
        assert _block_cap(8) == 8
        assert _block_cap(9) == 16
        assert _block_cap(1000) == 1024
        assert _block_cap(2**40) == 2**40
        assert _block_cap(2**40 + 1) == 2**41

    def test_elementwise(self):
        n = np.array([0, 1, 4, 5, 9, 1000, 2**40 + 1], dtype=np.int64)
        assert _block_cap(n).tolist() == [4, 4, 4, 8, 16, 1024, 2**41]


class TestConstruction:
    def test_empty(self):
        dm = DynamicMatrix(INT64, 3, 4)
        assert dm.shape == (3, 4)
        assert dm.nvals == 0
        assert dm.to_matrix().nvals == 0

    def test_from_matrix_roundtrip(self):
        m = small_matrix()
        dm = DynamicMatrix.from_matrix(m)
        assert dm.nvals == m.nvals
        assert dm.to_matrix().isequal(m)

    def test_from_matrix_with_slack(self):
        m = small_matrix()
        tight = DynamicMatrix.from_matrix(m)
        roomy = DynamicMatrix.from_matrix(m, slack=1.0)
        stats_t, stats_r = tight.memory_stats(), roomy.memory_stats()
        assert stats_r["allocated_slots"] >= stats_t["allocated_slots"]
        assert roomy.to_matrix().isequal(m)

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError):
            DynamicMatrix.from_matrix(small_matrix(), slack=-0.5)

    def test_from_empty_matrix(self):
        dm = DynamicMatrix.from_matrix(Matrix.sparse(INT64, 4, 4))
        assert dm.nvals == 0

    def test_bool_dtype(self):
        m = Matrix.from_coo([0, 1], [1, 0], True, 2, 2, dtype=BOOL)
        dm = DynamicMatrix.from_matrix(m)
        assert dm.get(0, 1) == True  # noqa: E712 - numpy bool
        assert dm.to_matrix().isequal(m)


class TestElementOps:
    def test_set_then_get(self):
        dm = DynamicMatrix(INT64, 4, 4)
        dm.set_element(1, 2, 42)
        assert dm.get(1, 2) == 42
        assert dm.nvals == 1

    def test_set_overwrites(self):
        dm = DynamicMatrix(INT64, 4, 4)
        dm.set_element(1, 2, 42)
        dm.set_element(1, 2, 7)
        assert dm.get(1, 2) == 7
        assert dm.nvals == 1

    def test_get_absent_returns_default(self):
        dm = DynamicMatrix(INT64, 4, 4)
        assert dm.get(0, 0) is None
        assert dm.get(0, 0, default=-1) == -1

    def test_contains(self):
        dm = DynamicMatrix(INT64, 4, 4)
        dm.set_element(2, 3, 1)
        assert (2, 3) in dm
        assert (3, 2) not in dm

    def test_remove_existing(self):
        dm = DynamicMatrix(INT64, 4, 4)
        dm.set_element(0, 1, 5)
        dm.set_element(0, 2, 6)
        assert dm.remove_element(0, 1)
        assert dm.get(0, 1) is None
        assert dm.get(0, 2) == 6
        assert dm.nvals == 1

    def test_remove_absent_is_false(self):
        dm = DynamicMatrix(INT64, 4, 4)
        assert not dm.remove_element(0, 0)

    def test_remove_swaps_with_last(self):
        """Deleting a middle entry must keep all other entries intact."""
        dm = DynamicMatrix(INT64, 2, 10)
        for j in range(6):
            dm.set_element(0, j, j * 10)
        assert dm.remove_element(0, 2)
        remaining = dict(zip(*dm.row(0)))
        assert remaining == {0: 0, 1: 10, 3: 30, 4: 40, 5: 50}

    def test_bounds_checked(self):
        dm = DynamicMatrix(INT64, 2, 2)
        with pytest.raises(IndexOutOfBounds):
            dm.set_element(2, 0, 1)
        with pytest.raises(IndexOutOfBounds):
            dm.set_element(0, 2, 1)
        with pytest.raises(IndexOutOfBounds):
            dm.get(-1, 0)
        with pytest.raises(IndexOutOfBounds):
            dm.remove_element(0, 5)

    def test_row_degree(self):
        dm = DynamicMatrix(INT64, 3, 5)
        for j in (0, 2, 4):
            dm.set_element(1, j, 1)
        assert dm.row_degree(1) == 3
        assert dm.row_degree(0) == 0


class TestGrowthAndArena:
    def test_row_growth_preserves_entries(self):
        dm = DynamicMatrix(INT64, 1, 1000)
        for j in range(100):
            dm.set_element(0, j, j)
        assert dm.nvals == 100
        assert dm.relocations > 0
        cols, vals = dm.row(0)
        assert dict(zip(cols.tolist(), vals.tolist())) == {j: j for j in range(100)}

    def test_free_list_recycling(self):
        """Growing many rows in lockstep must reuse freed blocks."""
        dm = DynamicMatrix(INT64, 50, 1000)
        for j in range(8):  # grows each row once past the minimum capacity
            for i in range(50):
                dm.set_element(i, j, 1)
        stats = dm.memory_stats()
        # freed 4-capacity blocks are either reused or parked on the free list
        assert stats["allocated_slots"] + stats["free_list_slots"] <= stats["arena_size"]
        assert dm.to_matrix().nvals == 400

    def test_memory_stats_keys(self):
        stats = DynamicMatrix(INT64, 2, 2).memory_stats()
        assert {
            "arena_size",
            "allocated_slots",
            "filled_slots",
            "free_list_slots",
            "utilisation",
            "relocations",
        } <= set(stats)

    def test_compact_reclaims_slack(self):
        dm = DynamicMatrix(INT64, 1, 1000)
        for j in range(33):  # lands just past a capacity class boundary
            dm.set_element(0, j, j)
        before = dm.memory_stats()["arena_size"]
        dm.compact()
        after = dm.memory_stats()
        assert after["arena_size"] <= before
        assert after["filled_slots"] == 33
        assert dm.get(0, 17) == 17


class TestBulkAssign:
    def test_assign_coo_inserts(self):
        dm = DynamicMatrix(INT64, 4, 4)
        dm.assign_coo([0, 1, 2], [1, 2, 3], [10, 20, 30])
        assert dm.nvals == 3
        assert dm.get(1, 2) == 20

    def test_assign_coo_overwrites_without_accum(self):
        dm = DynamicMatrix(INT64, 4, 4)
        dm.set_element(0, 1, 5)
        dm.assign_coo([0], [1], [9])
        assert dm.get(0, 1) == 9
        assert dm.nvals == 1

    def test_assign_coo_accumulates(self):
        dm = DynamicMatrix(INT64, 4, 4)
        dm.set_element(0, 1, 5)
        dm.assign_coo([0, 0], [1, 2], [9, 2], accum=ops.plus)
        assert dm.get(0, 1) == 14
        assert dm.get(0, 2) == 2

    def test_assign_coo_batch_duplicates_overwrite(self):
        dm = DynamicMatrix(INT64, 4, 4)
        dm.assign_coo([0, 0], [1, 1], [3, 8])
        assert dm.get(0, 1) == 8
        assert dm.nvals == 1

    def test_assign_coo_batch_duplicates_accumulate(self):
        dm = DynamicMatrix(INT64, 4, 4)
        dm.assign_coo([0, 0, 0], [1, 1, 1], [3, 8, 4], accum=ops.plus)
        assert dm.get(0, 1) == 15

    def test_assign_coo_scalar_broadcast(self):
        dm = DynamicMatrix(BOOL, 3, 3)
        dm.assign_coo([0, 1, 2], [0, 1, 2], True)
        assert dm.nvals == 3

    def test_assign_coo_empty_noop(self):
        dm = DynamicMatrix(INT64, 3, 3)
        dm.assign_coo([], [], [])
        assert dm.nvals == 0

    def test_assign_coo_bounds(self):
        dm = DynamicMatrix(INT64, 2, 2)
        with pytest.raises(IndexOutOfBounds):
            dm.assign_coo([5], [0], [1])
        with pytest.raises(IndexOutOfBounds):
            dm.assign_coo([0], [5], [1])

    def test_matches_matrix_assign_coo(self):
        """Bulk accumulate agrees with the immutable Matrix's assign_coo."""
        m = small_matrix()
        dm = DynamicMatrix.from_matrix(m)
        rng = np.random.default_rng(3)
        r = rng.integers(0, 5, 20)
        c = rng.integers(0, 7, 20)
        v = rng.integers(1, 9, 20)
        expected = m.assign_coo(r, c, v, accum=ops.plus)
        dm.assign_coo(r, c, v, accum=ops.plus)
        assert dm.to_matrix().isequal(expected)


class TestResize:
    def test_grow(self):
        dm = DynamicMatrix(INT64, 2, 2)
        dm.set_element(1, 1, 3)
        dm.resize(5, 6)
        assert dm.shape == (5, 6)
        dm.set_element(4, 5, 9)
        assert dm.get(1, 1) == 3

    def test_shrink_rejected(self):
        dm = DynamicMatrix(INT64, 4, 4)
        with pytest.raises(DimensionMismatch):
            dm.resize(2, 4)
        with pytest.raises(DimensionMismatch):
            dm.resize(4, 2)


class TestConversion:
    def test_to_coo_is_canonical(self):
        dm = DynamicMatrix(INT64, 3, 5)
        # insert out of order within a row
        for j in (4, 0, 2):
            dm.set_element(1, j, j)
        rows, cols, vals = dm.to_coo()
        assert rows.tolist() == [1, 1, 1]
        assert cols.tolist() == [0, 2, 4]
        assert vals.tolist() == [0, 2, 4]

    def test_items_sorted(self):
        dm = DynamicMatrix(INT64, 3, 3)
        dm.set_element(2, 0, 1)
        dm.set_element(0, 2, 2)
        assert [(i, j) for i, j, _ in dm.items()] == [(0, 2), (2, 0)]

    def test_isequal_against_matrix(self):
        m = small_matrix()
        dm = DynamicMatrix.from_matrix(m)
        assert dm.isequal(m)
        dm.set_element(0, 0, 999)
        assert not dm.isequal(m)

    def test_fp64_values(self):
        dm = DynamicMatrix(FP64, 2, 2)
        dm.set_element(0, 0, 2.5)
        assert dm.get(0, 0) == pytest.approx(2.5)


# ---------------------------------------------------------------------------
# property tests: DynamicMatrix == Matrix under arbitrary operation sequences
# ---------------------------------------------------------------------------

_ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["set", "remove"]),
        st.integers(0, 5),  # i
        st.integers(0, 5),  # j
        st.integers(-50, 50),  # value (ignored by remove)
    ),
    max_size=60,
)


class TestPropertyOracle:
    @given(ops_seq=_ops_strategy)
    @settings(max_examples=60, deadline=None)
    def test_matches_matrix_under_random_ops(self, ops_seq):
        dm = DynamicMatrix(INT64, 6, 6)
        oracle = Matrix.sparse(INT64, 6, 6)
        for kind, i, j, v in ops_seq:
            if kind == "set":
                dm.set_element(i, j, v)
                oracle[i, j] = v
            else:
                dm.remove_element(i, j)
                oracle.remove_element(i, j)
        assert dm.nvals == oracle.nvals
        assert dm.to_matrix().isequal(oracle)

    @given(
        data=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(1, 9)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_bulk_assign_equals_elementwise(self, data):
        r = np.array([d[0] for d in data])
        c = np.array([d[1] for d in data])
        v = np.array([d[2] for d in data])
        bulk = DynamicMatrix(INT64, 8, 8)
        bulk.assign_coo(r, c, v)
        single = DynamicMatrix(INT64, 8, 8)
        for i, j, val in data:
            single.set_element(i, j, val)
        assert bulk.to_matrix().isequal(single.to_matrix())

    @given(
        degrees=st.lists(st.integers(0, 40), min_size=1, max_size=10),
        slack=st.sampled_from([0.0, 0.25, 1.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_any_shape(self, degrees, slack):
        nrows = len(degrees)
        ncols = max(max(degrees), 1)
        rows, cols = [], []
        for i, d in enumerate(degrees):
            rows.extend([i] * d)
            cols.extend(range(d))
        m = Matrix.from_coo(rows, cols, 1, nrows, ncols, dtype=INT64, dup_op=ops.plus)
        dm = DynamicMatrix.from_matrix(m, slack=slack)
        assert dm.to_matrix().isequal(m)
        stats = dm.memory_stats()
        assert stats["filled_slots"] == m.nvals
        assert 0.0 < stats["utilisation"] <= 1.0 or m.nvals == 0
