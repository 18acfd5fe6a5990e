"""ResultCache hit/miss/eviction accounting and its stats() exposure."""

from __future__ import annotations

import pytest

from repro.model.changes import AddFriendship, AddUser
from repro.obs.metrics import parse_exposition
from repro.serving.cache import CachedResult, ResultCache
from repro.serving.service import GraphService
from repro.util.validation import ReproError


def _result(query="Q1", tool="t", version=1):
    return CachedResult(query, tool, version, ((1, 1),), "1", 0.0,
                        computed_version=version)


class TestResultCacheCounters:
    def test_hits_and_misses(self):
        cache = ResultCache()
        cache.put(_result())
        assert cache.get("Q1", "t").version == 1
        with pytest.raises(ReproError):
            cache.get("Q2", "t")
        s = cache.stats()
        assert s["hits"] == 1 and s["misses"] == 1
        assert s["hit_rate"] == 0.5

    def test_same_version_put_is_not_an_eviction(self):
        cache = ResultCache()
        cache.put(_result(version=1))
        cache.put(_result(version=1))  # idempotent overwrite
        assert cache.stats()["evictions"] == 0

    def test_version_bump_evicts_exactly_replaced_entries(self):
        """A version bump invalidates exactly the (query, tool) entries it
        replaces -- one eviction per refreshed engine, nothing else."""
        cache = ResultCache()
        for q in ("Q1", "Q2"):
            for tool in ("a", "b"):
                cache.put(_result(q, tool, version=1))
        assert cache.stats()["evictions"] == 0
        # bump only Q1 under both tools to v2
        for tool in ("a", "b"):
            cache.put(_result("Q1", tool, version=2))
        s = cache.stats()
        assert s["evictions"] == 2
        assert s["entries"] == 4

    def test_empty_cache_rate_is_zero(self):
        assert ResultCache().stats()["hit_rate"] == 0.0


class TestServiceExposure:
    def test_stats_ops_cache_and_per_batch_evictions(self):
        svc = GraphService(tools=("graphblas-incremental",),
                           analytics=("degree",), max_batch=1)
        n_engines = len(svc._engines)  # Q1, Q2, degree
        assert n_engines == 3
        svc.submit([AddUser(1), AddUser(2)])
        svc.submit(AddFriendship(1, 2))
        svc.query("Q1")
        svc.query("degree")
        cache = svc.stats()["cache"]
        # 2 applied batches x 3 engines: each bump evicted exactly the
        # previous version's entry for every refreshed engine
        assert cache["evictions"] == 2 * n_engines
        assert cache["entries"] == n_engines
        assert cache["hits"] == 2 and cache["misses"] == 0
        assert cache["hit_rate"] == 1.0
        svc.close()

    def test_miss_counted_through_service(self):
        svc = GraphService(tools=("graphblas-incremental",), max_batch=1)
        with pytest.raises(ReproError):
            svc.query("Q1", "no-such-tool")
        assert svc.stats()["cache"]["misses"] == 1
        svc.close()

    def test_exported_as_counters_synced_at_scrape(self):
        svc = GraphService(tools=("graphblas-incremental",), max_batch=1)
        svc.submit(AddUser(1))
        svc.query("Q1")
        svc.query("Q1")
        with pytest.raises(ReproError):
            svc.query("Q1", "no-such-tool")
        parsed = parse_exposition(svc.metrics_text())
        for name in ("repro_cache_hits", "repro_cache_misses",
                     "repro_cache_evictions"):
            assert parsed["types"][name] == "counter"
        series = parsed["series"]
        assert series[("repro_cache_hits", "")] == 2
        assert series[("repro_cache_misses", "")] == 1
        assert series[("repro_cache_evictions", "")] == 2  # Q1 + Q2 at v1
        # a later scrape advances the counters to the cache's new totals
        svc.query("Q2")
        assert svc.stats()["metrics"]["repro_cache_hits"] == 3
        svc.close()
