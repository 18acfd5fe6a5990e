"""repro.storage: store-level contracts of the three arena backends.

Unit-level checks of the :class:`~repro.storage.ArenaStorage` protocol --
allocation/resize semantics, meta staging vs. flush commit, durable
round-trips, snapshot/adopt, byte accounting -- plus the SQL-oracle
property unique to the sqlite backend: the ``entries`` table must mirror
the logical matrix so an *external* SQL client can cross-check the arena
layout without importing any of it.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro.storage import BACKENDS, make_store, resolve_storage
from repro.storage.heap import HeapArena
from repro.storage.mmapfile import MmapArena
from repro.storage.sqlite import SqliteArena
from repro.util.validation import ReproError


def _store(backend, tmp_path):
    return make_store(backend, directory=tmp_path, name="t")


class TestResolveStorage:
    def test_default_is_dynamic_heap(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORAGE", raising=False)
        assert resolve_storage(None) == "heap"
        monkeypatch.setenv("REPRO_STORAGE", "")
        assert resolve_storage(None) == "heap"

    def test_env_steers_default_and_dynamic(self, monkeypatch):
        """The knob steers the default spec, and with it every
        default-constructed (dynamic-arena) graph."""
        from repro.model import SocialGraph

        monkeypatch.setenv("REPRO_STORAGE", " MMAP ")
        assert resolve_storage(None) == "mmap"
        g = SocialGraph()
        assert g.backend == "mmap"
        g.close()

    def test_explicit_backend_ignores_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORAGE", "sqlite")
        for backend in BACKENDS:
            assert resolve_storage(backend) == backend

    def test_unknown_spec_raises(self):
        for spec in ("zram", "matrix", "dynamic"):
            with pytest.raises(ReproError, match="unknown storage"):
                resolve_storage(spec)

    @pytest.mark.parametrize("value", ["mmpa", "matrix", "dynamic"])
    def test_unknown_env_value_raises(self, monkeypatch, value):
        """A misspelt knob fails closed and names the three backends,
        instead of silently running on the heap."""
        monkeypatch.setenv("REPRO_STORAGE", value)
        with pytest.raises(ReproError, match="REPRO_STORAGE") as exc:
            resolve_storage(None)
        for backend in BACKENDS:
            assert backend in str(exc.value)
        # ...but an explicit spec never reads the knob
        assert resolve_storage("heap") == "heap"

    def test_make_store_needs_directory_for_file_backends(self):
        for backend, needs_dir in BACKENDS.items():
            if needs_dir:
                with pytest.raises(ReproError, match="needs a directory"):
                    make_store(backend)

    def test_make_store_types(self, tmp_path):
        assert isinstance(make_store("heap"), HeapArena)
        assert isinstance(_store("mmap", tmp_path), MmapArena)
        assert isinstance(_store("sqlite", tmp_path), SqliteArena)
        with pytest.raises(ReproError, match="unknown storage backend"):
            make_store("zram", directory=tmp_path)


class TestAllocationSemantics:
    """new/resize must behave identically across backends: exact sizes,
    fill applied past ``keep``, prefix preserved, shrink allowed."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_new_size_and_fill(self, backend, tmp_path):
        store = _store(backend, tmp_path)
        arr = store.new("start", 5, np.int64, fill=-1)
        assert arr.size == 5 and arr.dtype == np.int64
        assert (np.asarray(arr) == -1).all()
        zero = store.new("cols", 3, np.int64)
        assert (np.asarray(zero) == 0).all()
        store.close()

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_resize_grow_preserves_prefix_fills_tail(self, backend, tmp_path):
        store = _store(backend, tmp_path)
        arr = store.new("a", 4, np.int64)
        arr[:] = [1, 2, 3, 4]
        arr = store.resize("a", arr, 8, keep=2, fill=-1)
        assert arr.size == 8
        assert arr[:2].tolist() == [1, 2]
        assert arr[2:].tolist() == [-1] * 6
        store.close()

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_resize_shrink(self, backend, tmp_path):
        store = _store(backend, tmp_path)
        arr = store.new("a", 6, np.float64)
        arr[:] = np.arange(6)
        arr = store.resize("a", arr, 2, keep=6)
        assert arr.tolist() == [0.0, 1.0]
        store.close()

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_zero_size_array_roundtrips(self, backend, tmp_path):
        """mmap cannot map an empty file; the slice trick must hide that."""
        store = _store(backend, tmp_path)
        arr = store.new("a", 0, np.int64)
        assert arr.size == 0
        arr = store.resize("a", arr, 4, keep=0)
        assert arr.size == 4
        store.close()

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_nbytes_nonzero_after_alloc(self, backend, tmp_path):
        store = _store(backend, tmp_path)
        store.new("a", 100, np.int64)
        assert store.nbytes() >= 100 * 8
        store.close()


class TestHeapNotDurable:
    def test_flags(self):
        store = HeapArena()
        assert store.backend == "heap" and not store.persistent

    def test_snapshot_and_adopt_raise(self, tmp_path):
        store = HeapArena()
        with pytest.raises(ReproError, match="not durable"):
            store.snapshot_to(tmp_path)
        with pytest.raises(ReproError, match="not durable"):
            store.adopt_from(tmp_path)

    def test_open_unknown_array_raises(self):
        with pytest.raises(ReproError, match="no array"):
            HeapArena().open_array("nope", np.int64)


@pytest.mark.parametrize("backend", ["mmap", "sqlite"])
class TestDurableRoundTrip:
    def test_flush_requires_staged_meta(self, backend, tmp_path):
        store = _store(backend, tmp_path)
        store.new("a", 2, np.int64)
        with pytest.raises(ReproError, match="flush before put_meta"):
            store.flush()
        store.close()

    def test_meta_not_visible_until_flush(self, backend, tmp_path):
        store = _store(backend, tmp_path)
        store.new("a", 2, np.int64)
        store.put_meta({"n": 1})
        assert store.get_meta() is None  # staged, not committed
        store.flush()
        assert store.get_meta() == {"n": 1}
        store.close()

    def test_arrays_restore_bit_exactly(self, backend, tmp_path):
        store = _store(backend, tmp_path)
        a = store.new("cols", 7, np.int64)
        a[:] = [5, -3, 0, 9, 2, 2, 7]
        v = store.new("vals", 7, np.float64)
        v[:] = np.linspace(-1, 1, 7)
        store.put_meta({"arena": 7})
        store.flush()
        store.close()

        fresh = _store(backend, tmp_path)
        assert fresh.get_meta() == {"arena": 7}
        assert np.array_equal(fresh.open_array("cols", np.int64), np.asarray(a))
        assert np.array_equal(fresh.open_array("vals", np.float64), np.asarray(v))
        fresh.close()

    def test_open_unknown_array_raises(self, backend, tmp_path):
        store = _store(backend, tmp_path)
        store.new("a", 1, np.int64)
        store.put_meta({})
        store.flush()
        with pytest.raises(ReproError, match="no array"):
            store.open_array("missing", np.int64)
        store.close()

    def test_snapshot_then_adopt_into_second_store(self, backend, tmp_path):
        src = make_store(backend, directory=tmp_path, name="src")
        arr = src.new("cols", 4, np.int64)
        arr[:] = [4, 3, 2, 1]
        src.put_meta({"v": 42})
        src.flush()
        snap = tmp_path / "snap"
        src.snapshot_to(snap)

        # mutate + flush the source *after* the snapshot: the snapshot
        # must not alias the live files (the hardlink trap)
        arr[:] = 0
        src.put_meta({"v": 43})
        src.flush()

        dst = make_store(backend, directory=tmp_path, name="dst")
        dst.adopt_from(snap)
        assert dst.get_meta() == {"v": 42}
        assert dst.open_array("cols", np.int64).tolist() == [4, 3, 2, 1]
        src.close()
        dst.close()

    def test_adopt_from_empty_dir_raises(self, backend, tmp_path):
        store = _store(backend, tmp_path)
        (tmp_path / "empty").mkdir()
        with pytest.raises(ReproError):
            store.adopt_from(tmp_path / "empty")
        store.close()


class TestMmapSpecifics:
    def test_file_extent_is_exact(self, tmp_path):
        """The arrays must report the same sizes heap would, or the
        matrix's doubling arithmetic diverges between backends."""
        store = _store("mmap", tmp_path)
        arr = store.new("cols", 5, np.int64)
        assert arr.size == 5
        assert (tmp_path / "t" / "cols.bin").stat().st_size == 5 * 8
        arr = store.resize("cols", arr, 12, keep=5)
        assert arr.size == 12
        assert (tmp_path / "t" / "cols.bin").stat().st_size == 12 * 8
        store.close()

    def test_snapshot_of_unflushed_arena_raises(self, tmp_path):
        store = _store("mmap", tmp_path)
        store.new("a", 2, np.int64)
        with pytest.raises(ReproError, match="unflushed"):
            store.snapshot_to(tmp_path / "snap")
        store.close()

    def test_new_drops_stale_file_content(self, tmp_path):
        store = _store("mmap", tmp_path)
        arr = store.new("a", 3, np.int64)
        arr[:] = 7
        store.close()
        fresh = _store("mmap", tmp_path)
        assert fresh.new("a", 3, np.int64).tolist() == [0, 0, 0]
        fresh.close()


class TestSqliteOracle:
    def test_entries_mirror_queryable_by_external_sql(self, tmp_path):
        """Build a tiny arena layout by hand, flush, and read the logical
        matrix back with a *plain sqlite3 connection* -- no repro code."""
        store = _store("sqlite", tmp_path)
        # rows: 0 -> cols {2, 5}; 1 -> empty; 2 -> col {0}; row 1's stale
        # slots (freed block) must not leak into the mirror
        start = store.new("start", 3, np.int64, fill=-1)
        length = store.new("len", 3, np.int64)
        cap = store.new("cap", 3, np.int64)
        cols = store.new("cols", 8, np.int64)
        vals = store.new("vals", 8, np.float64)
        start[:] = [0, 4, 6]
        length[:] = [2, 0, 1]
        cap[:] = [4, 2, 2]
        cols[:4] = [2, 5, 99, 99]
        vals[:4] = [1.0, 2.5, -9, -9]
        cols[6] = 0
        vals[6] = 3.0
        store.put_meta({"nrows": 3})
        store.flush()
        store.close()

        conn = sqlite3.connect(tmp_path / "t.db")
        got = conn.execute(
            "SELECT row, col, val FROM entries ORDER BY row, col"
        ).fetchall()
        conn.close()
        assert got == [(0, 2, 1.0), (0, 5, 2.5), (2, 0, 3.0)]

    def test_dtype_mismatch_on_open_raises(self, tmp_path):
        store = _store("sqlite", tmp_path)
        store.new("a", 2, np.int64)
        store.put_meta({})
        store.flush()
        with pytest.raises(ReproError, match="stored as"):
            store.open_array("a", np.float64)
        store.close()
