"""Storage backends threaded end-to-end through the serving layer.

``GraphService(storage=...)`` / ``REPRO_STORAGE`` must select the arena
backend for the service-built graph, snapshots of file-backed graphs
must carry their arenas and restore through the adoption fast path on
:meth:`GraphService.recover`, the ``repro_storage_bytes`` gauge must
report per-backend bytes, and a sharded service over mmap-backed shards
must stay bit-identical to the unsharded heap service.
"""

from __future__ import annotations

import json

import pytest

from repro.serving import GraphService
from repro.serving.persistence import SnapshotStore
from repro.sharding import ShardedGraphService
from repro.util.validation import ReproError
from tests.conftest import datagen_stream

KW = dict(tools=("graphblas-incremental",), max_batch=10**9, max_delay_ms=1e9)
QUERIES = ("Q1", "Q2")


def _results(svc):
    return {q: svc.query(q).result_string for q in QUERIES}


@pytest.mark.parametrize("backend", ["mmap", "sqlite"])
class TestServiceFileBacked:
    def test_snapshot_carries_arenas_and_recover_adopts(self, backend, tmp_path):
        fresh, stream = datagen_stream(31, removal_fraction=0.25,
                                       total_inserts=120)
        svc = GraphService(storage=backend, data_dir=tmp_path,
                           snapshot_every=0, **KW)
        assert svc.graph.backend == backend
        for g_cs in fresh().to_change_stream():
            svc.submit([g_cs])
        for cs in stream[:2]:
            svc.submit(list(cs))
        svc.flush()
        version = svc.snapshot()
        want = _results(svc)

        snap = tmp_path / f"snapshot-{version:010d}"
        meta = json.loads((snap / "meta.json").read_text())
        assert meta["arenas"] == backend
        assert (snap / "arenas" / "likes").is_dir()
        # friends.csv is still written (heap loaders read it) but the
        # adopted graph gets its edges from the arena files
        assert (snap / "friends.csv").exists()

        svc.close()
        rec = GraphService.recover(tmp_path, storage=backend, **KW)
        assert rec.graph.backend == backend
        assert _results(rec) == want
        rec.close()

    def test_recovered_service_keeps_serving_writes(self, backend, tmp_path):
        """Adoption restores mutable state (key sets, free lists), not a
        read-only view: post-recovery updates must apply cleanly and
        match a service that never crashed."""
        fresh, stream = datagen_stream(33, removal_fraction=0.3,
                                       total_inserts=100)
        oracle = GraphService(fresh(), **KW)

        disk = tmp_path / "svc"
        filed = GraphService(storage=backend, data_dir=disk, **KW)
        for ch in fresh().to_change_stream():
            filed.submit([ch])
        filed.flush()
        filed.snapshot()
        filed.close()

        rec = GraphService.recover(disk, storage=backend, **KW)
        for cs in stream:
            rec.submit(list(cs))
            oracle.submit(list(cs))
            rec.flush()
            oracle.flush()
        assert _results(rec) == _results(oracle)
        rec.close()
        oracle.close()

    def test_heap_reader_can_load_arena_snapshot(self, backend, tmp_path):
        """The CSV serialisation stays authoritative: a heap-configured
        loader ignores the arenas and replays edges from the CSVs."""
        fresh, _ = datagen_stream(35, total_inserts=80)
        svc = GraphService(storage=backend, data_dir=tmp_path, **KW)
        for ch in fresh().to_change_stream():
            svc.submit([ch])
        svc.flush()
        version = svc.snapshot()
        want = _results(svc)
        svc.close()

        rec = GraphService.recover(tmp_path, storage="heap", **KW)
        assert rec.graph.backend == "heap"
        assert rec.version == version
        assert _results(rec) == want
        rec.close()

    def test_storage_bytes_gauge_reported(self, backend, tmp_path):
        fresh, _ = datagen_stream(37, total_inserts=60)
        svc = GraphService(storage=backend, data_dir=tmp_path, **KW)
        for ch in fresh().to_change_stream():
            svc.submit([ch])
        svc.flush()
        stats = svc.stats()
        gauge = stats["metrics"]["repro_storage_bytes"]
        value = gauge if not isinstance(gauge, dict) else next(iter(gauge.values()))
        assert value > 0
        assert stats["storage"]["backend"] == backend
        assert stats["storage"]["bytes"] == value
        text = svc.metrics_text()
        assert "repro_storage_bytes" in text
        assert f'backend="{backend}"' in text
        svc.close()


class TestStorageSelection:
    def test_env_knob_steers_service_built_graph(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORAGE", "mmap")
        svc = GraphService(data_dir=tmp_path, **KW)
        assert svc.graph.backend == "mmap"
        # arenas live inside the service's data dir, not a tempdir
        assert str(svc.graph._storage_dir).startswith(str(tmp_path))
        svc.close()

    def test_storage_with_prebuilt_graph_raises(self):
        from repro.model.graph import SocialGraph

        g = SocialGraph()
        g.add_user(1)
        with pytest.raises(ReproError, match="pre-built graph"):
            GraphService(g, storage="mmap", **KW)

    def test_no_data_dir_uses_owned_tempdir(self):
        from pathlib import Path

        svc = GraphService(storage="mmap", **KW)
        d = Path(svc.graph._storage_dir)
        assert d.is_dir()
        svc.graph.close()
        assert not d.exists()  # close() reclaims the owned tempdir
        svc.close()


def test_sharded_mmap_matches_unsharded_heap(tmp_path, monkeypatch):
    """Shard-invariance spot-check out-of-core: with REPRO_STORAGE=mmap
    the partitioner builds mmap-backed shard graphs (each shard
    inherits the source graph's backend), and every served result stays bit-identical to the
    unsharded heap service."""
    kw = dict(KW, analytics=("components",))
    queries = QUERIES + ("components",)
    fresh, stream = datagen_stream(41, removal_fraction=0.25,
                                   total_inserts=120)
    heap_svc = GraphService(fresh(), **kw)

    monkeypatch.setenv("REPRO_STORAGE", "mmap")
    g = fresh()
    assert g.backend == "mmap"
    sharded = ShardedGraphService(g, shards=2, backend="inproc", **kw)

    for cs in stream:
        heap_svc.submit(list(cs))
        sharded.submit(list(cs))
        heap_svc.flush()
        sharded.flush()
        for q in queries:
            assert (
                sharded.query(q).result_string
                == heap_svc.query(q).result_string
            ), q
    sharded.close()
    heap_svc.close()
