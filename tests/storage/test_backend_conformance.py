"""Backend conformance: heap / mmap / sqlite arenas are bit-identical.

The same :class:`~repro.graphblas.dynamic.DynamicMatrix` mutation streams
-- inserts, removals, duplicate writes, row growth, matrix resize,
compaction -- run against all three stores, and every observable
(``to_coo``, frozen Matrix, free lists, relocation counter) must match
the heap reference exactly.  The durable backends additionally round-trip
through ``flush_storage`` + :meth:`DynamicMatrix.open` and through
``snapshot_to`` / ``adopt_from`` and must come back indistinguishable,
*including* the ability to keep mutating afterwards.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphblas.dynamic import DynamicMatrix, _block_cap
from repro.graphblas.ops import plus
from repro.graphblas.types import FP64, INT64
from repro.storage import BACKENDS, make_store
from repro.util.validation import ReproError

ALL = sorted(BACKENDS)
DURABLE = [b for b in ALL if BACKENDS[b]]


def _store(backend, tmp_path, name="conf"):
    return make_store(backend, directory=tmp_path, name=name)


def _mixed_stream(dm: DynamicMatrix) -> None:
    """A deterministic gauntlet: bulk insert (the one-pass cold-start
    layout), overwrite, remove (block shrink + free-list recycling), row
    growth past several capacity classes, and a matrix resize."""
    rng = np.random.default_rng(7)
    rows = rng.integers(0, dm.nrows, 400)
    cols = rng.integers(0, dm.ncols, 400)
    dm.assign_coo(rows, cols, rng.integers(1, 100, 400))
    # overwrite half the stream (duplicate coordinates, accum=None)
    dm.assign_coo(rows[:200], cols[:200], 7)
    dm.remove_coo(rows[::3], cols[::3])
    # one hot row through multiple doublings
    dm.assign_coo(
        np.zeros(50, np.int64), np.arange(50, dtype=np.int64) * 2 % dm.ncols,
        3,
    )
    dm.resize(dm.nrows + 5, dm.ncols + 5)
    dm.set_element(dm.nrows - 1, dm.ncols - 1, 11)


def _assert_same(a: DynamicMatrix, b: DynamicMatrix) -> None:
    """Bit-identical observables -- including internal layout state that
    any later mutation's placement decisions depend on."""
    assert a.shape == b.shape
    assert a.nvals == b.nvals
    for x, y in zip(a.to_coo(), b.to_coo()):
        assert np.array_equal(x, y)
    assert a.freeze().isequal(b.freeze())
    assert a._used == b._used
    assert a._free == b._free
    assert a.relocations == b.relocations
    assert a._cols.size == b._cols.size  # identical growth trajectory


class TestMatrixConformance:
    @pytest.mark.parametrize("backend", ALL)
    def test_mixed_stream_matches_heap(self, backend, tmp_path):
        ref = DynamicMatrix(INT64, 30, 40)
        _mixed_stream(ref)
        dut = DynamicMatrix(INT64, 30, 40, store=_store(backend, tmp_path))
        _mixed_stream(dut)
        _assert_same(ref, dut)
        dut.store.close()

    @pytest.mark.parametrize("backend", ALL)
    def test_compact_then_mutate_matches(self, backend, tmp_path):
        ref = DynamicMatrix(INT64, 30, 40)
        dut = DynamicMatrix(INT64, 30, 40, store=_store(backend, tmp_path))
        for dm in (ref, dut):
            _mixed_stream(dm)
            dm.compact()
            dm.assign_coo(
                np.arange(10, dtype=np.int64),
                np.arange(10, dtype=np.int64) + 20,
                5,
            )
        _assert_same(ref, dut)
        dut.store.close()

    @pytest.mark.parametrize("backend", ALL)
    def test_removal_only_stream(self, backend, tmp_path):
        """Removals exercise swap-with-last deletes and block downsizing
        -- the paths most sensitive to free-list divergence."""
        rows = np.repeat(np.arange(8, dtype=np.int64), 8)
        cols = np.tile(np.arange(8, dtype=np.int64), 8)
        ref = DynamicMatrix(FP64, 8, 8)
        dut = DynamicMatrix(FP64, 8, 8, store=_store(backend, tmp_path))
        for dm in (ref, dut):
            dm.assign_coo(rows, cols, 1.5)
            dm.remove_coo(rows[::2], cols[::2])
            dm.remove_coo(rows[1::4], cols[1::4])
        _assert_same(ref, dut)
        dut.store.close()


class TestDurableMatrixRoundTrip:
    @pytest.mark.parametrize("backend", DURABLE)
    def test_flush_open_is_bit_identical(self, backend, tmp_path):
        dm = DynamicMatrix(INT64, 30, 40, store=_store(backend, tmp_path))
        _mixed_stream(dm)
        assert dm.flush_storage()
        reopened = DynamicMatrix.open(_store(backend, tmp_path))
        _assert_same(dm, reopened)
        dm.store.close()
        reopened.store.close()

    @pytest.mark.parametrize("backend", DURABLE)
    def test_reopened_matrix_keeps_mutating_identically(self, backend, tmp_path):
        """The restored free lists/used counter must place future blocks
        exactly where the original would have."""
        ref = DynamicMatrix(INT64, 30, 40)
        _mixed_stream(ref)
        dm = DynamicMatrix(INT64, 30, 40, store=_store(backend, tmp_path))
        _mixed_stream(dm)
        dm.flush_storage()
        dm.store.close()
        reopened = DynamicMatrix.open(_store(backend, tmp_path))
        for m in (ref, reopened):
            m.assign_coo(
                np.arange(20, dtype=np.int64) % m.nrows,
                np.arange(20, dtype=np.int64),
                9,
            )
            m.remove_coo(np.array([0, 1]), np.array([0, 2]))
        _assert_same(ref, reopened)
        reopened.store.close()

    @pytest.mark.parametrize("backend", DURABLE)
    def test_snapshot_adopt_round_trip(self, backend, tmp_path):
        dm = DynamicMatrix(INT64, 20, 20, store=_store(backend, tmp_path, "a"))
        _mixed_stream(dm)
        dm.flush_storage()
        dm.store.snapshot_to(tmp_path / "snap")
        frozen_coo = [x.copy() for x in dm.to_coo()]
        # post-snapshot mutation must not bleed into the adopted copy
        dm.set_element(0, 0, 999)
        dm.flush_storage()

        other = _store(backend, tmp_path, "b")
        other.adopt_from(tmp_path / "snap")
        adopted = DynamicMatrix.open(other)
        assert adopted.get(0, 0) != 999
        for x, y in zip(adopted.to_coo(), frozen_coo):
            assert np.array_equal(x, y)
        dm.store.close()
        other.close()

    @pytest.mark.parametrize("backend", DURABLE)
    def test_open_without_flush_raises(self, backend, tmp_path):
        store = _store(backend, tmp_path)
        store.new("cols", 0, np.int64)
        with pytest.raises(ReproError):
            DynamicMatrix.open(store)
        store.close()

    def test_flush_storage_is_noop_on_heap(self):
        dm = DynamicMatrix(INT64, 2, 2)
        assert dm.flush_storage() is False

    @pytest.mark.parametrize("backend", ALL)
    def test_memory_stats_names_backend(self, backend, tmp_path):
        dm = DynamicMatrix(INT64, 4, 4, store=_store(backend, tmp_path))
        dm.set_element(1, 1, 1)
        stats = dm.memory_stats()
        assert stats["backend"] == backend
        assert stats["store_bytes"] > 0
        dm.store.close()


# -- hypothesis: compact() must never change observable content ------------
#
# The satellite regression for the hand-listed copy-tuple bug: compact()
# now derives what to carry over from __slots__, so a new attribute can't
# silently vanish across compaction.  The property runs on every backend:
# compact -> mutate -> freeze must equal the never-compacted twin.

_ops = st.lists(
    st.tuples(
        st.sampled_from(["set", "remove", "compact"]),
        st.integers(0, 5),
        st.integers(0, 5),
        st.integers(1, 9),
    ),
    max_size=30,
)


@given(ops_seq=_ops, backend=st.sampled_from(ALL))
@settings(max_examples=40, deadline=None)
def test_compact_is_invisible(ops_seq, backend, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("hyp")
    plain = DynamicMatrix(INT64, 6, 6)
    compacted = DynamicMatrix(INT64, 6, 6, store=_store(backend, tmp))
    for kind, i, j, v in ops_seq:
        if kind == "set":
            plain.set_element(i, j, v)
            compacted.set_element(i, j, v)
        elif kind == "remove":
            plain.remove_element(i, j)
            compacted.remove_element(i, j)
        else:
            compacted.compact()  # only the DUT compacts
    assert plain.freeze().isequal(compacted.freeze())
    for x, y in zip(plain.to_coo(), compacted.to_coo()):
        assert np.array_equal(x, y)
    # post-compact mutations must still land correctly
    plain.set_element(5, 5, 3)
    compacted.set_element(5, 5, 3)
    assert plain.freeze().isequal(compacted.freeze())
    compacted.store.close()


# -- hypothesis: the one-pass cold-start layout ----------------------------
#
# A bulk assign_coo into a still-empty arena lays every row out at once.
# It must hold exactly what the per-row merge path holds for the same
# batch -- accum, in-batch duplicates and a frozen view taken while empty
# included -- and keep agreeing under any later mutation sequence.


def _per_row_matrix(nrows: int, ncols: int) -> DynamicMatrix:
    """An empty matrix whose arena is primed, so assign_coo merges row by row."""
    dm = DynamicMatrix(INT64, nrows, ncols)
    dm.set_element(0, 0, 1)
    dm.remove_element(0, 0)
    assert dm._used > 0 and dm.nvals == 0
    return dm


def _assert_same_content(a: DynamicMatrix, b: DynamicMatrix) -> None:
    assert a.shape == b.shape
    assert a.nvals == b.nvals
    for x, y in zip(a.to_coo(), b.to_coo()):
        assert np.array_equal(x, y)
    assert a.freeze().isequal(b.freeze())
    assert [a.row_degree(i) for i in range(a.nrows)] == [
        b.row_degree(i) for i in range(b.nrows)
    ]


_triples = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(1, 9)),
    max_size=40,
)
_later = st.lists(
    st.tuples(
        st.sampled_from(["set", "remove", "assign", "compact", "freeze"]),
        st.integers(0, 7),
        st.integers(0, 7),
        st.integers(1, 9),
    ),
    max_size=30,
)


@given(
    triples=_triples,
    accum=st.booleans(),
    frozen_while_empty=st.booleans(),
    later=_later,
    backend=st.sampled_from(ALL),
)
@settings(max_examples=40, deadline=None)
def test_bulk_layout_equals_per_row_path(
    triples, accum, frozen_while_empty, later, backend, tmp_path_factory
):
    bulk = DynamicMatrix(
        INT64, 8, 8, store=_store(backend, tmp_path_factory.mktemp("bulk"))
    )
    ref = _per_row_matrix(8, 8)
    if frozen_while_empty:
        bulk.freeze()
        ref.freeze()
    op = plus if accum else None
    rows = np.array([t[0] for t in triples], dtype=np.int64)
    cols = np.array([t[1] for t in triples], dtype=np.int64)
    vals = np.array([t[2] for t in triples], dtype=np.int64)
    bulk.assign_coo(rows, cols, vals, accum=op)
    ref.assign_coo(rows, cols, vals, accum=op)

    lengths = bulk._len[: bulk.nrows]
    assert bulk._cap[: bulk.nrows].tolist() == [
        _block_cap(n) if n else 0 for n in lengths.tolist()
    ]
    assert bulk.memory_stats()["free_list_slots"] == 0
    assert bulk.relocations == 0
    assert bulk._used == bulk._cols.size == int(bulk._cap.sum())
    _assert_same_content(bulk, ref)

    for kind, i, j, v in later:
        for dm in (bulk, ref):
            if kind == "set":
                dm.set_element(i, j, v)
            elif kind == "remove":
                dm.remove_element(i, j)
            elif kind == "assign":
                dm.assign_coo([i, j, i], [j, i, j], [v, v + 1, v + 2], accum=op)
            elif kind == "compact":
                dm.compact()
            else:
                dm.freeze()
    _assert_same_content(bulk, ref)
    bulk.store.close()
