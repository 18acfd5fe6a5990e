"""GraphService serving the algorithm layer: registry, reads, staleness."""

from __future__ import annotations

import pytest

from repro.analytics import AnalyticsEngine, make_analytics_engine
from tests.conftest import datagen_stream
from repro.lagraph import fastsv
from repro.serving import GraphService
from repro.util.validation import ReproError

TOOLS = ("components", "degree", "pagerank", "cdlp", "triangles")


def _stream(seed: int = 9, removal_fraction: float = 0.3):
    fresh_graph, sets = datagen_stream(
        seed, removal_fraction=removal_fraction, total_inserts=150
    )
    return fresh_graph(), sets


def test_unknown_analytics_tool_rejected():
    with pytest.raises(ReproError, match="unknown analytics tool"):
        GraphService(analytics=("eigentrust",))


def test_analytics_only_service_is_allowed():
    graph, sets = _stream()
    svc = GraphService(
        graph, queries=(), tools=(), analytics=("components",), max_delay_ms=1e9
    )
    try:
        for cs in sets:
            svc.submit(cs)
        svc.flush()
        assert svc.query("components").version == svc.version
        with pytest.raises(ReproError, match="no cached result"):
            svc.query("Q1")
    finally:
        svc.close()


def test_no_engines_at_all_rejected():
    with pytest.raises(ReproError, match="at least one"):
        GraphService(tools=(), queries=())


def test_half_configured_query_layer_rejected():
    """tools without queries (or vice versa) is a ctor-time error, not a
    primary_tool pointing at an engine that was never registered."""
    with pytest.raises(ReproError, match="configured together"):
        GraphService(tools=(), analytics=("components",))
    with pytest.raises(ReproError, match="configured together"):
        GraphService(queries=(), analytics=("components",))


def test_four_plus_analytics_tools_served_end_to_end():
    """The acceptance scenario: >= 4 analytics tools next to the Fig. 5
    engines, O(1) cached reads, exact results at threshold 0."""
    graph, sets = _stream()
    svc = GraphService(
        graph,
        tools=("graphblas-incremental",),
        analytics=TOOLS,
        analytics_threshold=0.0,
        max_delay_ms=1e9,
    )
    try:
        for cs in sets:
            svc.submit(cs)
            svc.flush()
            for name in TOOLS:
                r = svc.query(name)
                assert r.version == svc.version
                assert r.staleness == 0  # threshold 0: always fresh
                # O(1) read: the same immutable cache object until the
                # next applied batch, no recompute on the read path
                assert svc.query(name) is r

        # served results equal a cold engine evaluated on the final graph
        for name in TOOLS:
            fresh = make_analytics_engine(name, policy="dirty")
            fresh.load(svc.graph)
            fresh.initial()
            assert svc.query(name).top == tuple(fresh.last_top), name
        # per-tool refresh + load metrics exist
        ops = svc.stats()["metrics"]["repro_op_latency_seconds"]
        for name in TOOLS:
            assert f'op="refresh[{name}]"' in ops
            assert f'op="load[{name}]"' in ops
        assert svc.stats()["analytics"] == list(TOOLS)
    finally:
        svc.close()


def test_incremental_cc_identical_to_fastsv_after_every_batch():
    graph, sets = _stream(21)
    svc = GraphService(
        graph, queries=(), tools=(), analytics=("components",), max_delay_ms=1e9
    )
    try:
        import numpy as np

        eng = svc._engines[("components", "components")]
        for cs in sets:
            svc.submit(cs)
            svc.flush()
            np.testing.assert_array_equal(
                eng.labels(), fastsv(svc.graph.friends).to_dense()
            )
    finally:
        svc.close()


def test_stale_reads_carry_computed_version_tag():
    graph, sets = _stream(13, removal_fraction=0.0)
    svc = GraphService(
        graph,
        queries=(),
        tools=(),
        analytics=("pagerank", "components"),
        analytics_threshold=1e9,
        max_delay_ms=1e9,
    )
    try:
        tags = []
        for cs in sets:
            svc.submit(cs)
            svc.flush()
            r = svc.query("pagerank")
            assert r.version == svc.version
            assert r.computed_version is not None
            tags.append(r.computed_version)
            # incremental tools never go stale
            assert svc.query("components").staleness == 0
        # under an untrippable threshold pagerank was computed once, at
        # load time: the final read serves that result with an honest tag
        assert svc.query("pagerank").staleness > 0
        assert tags == sorted(tags)  # monotone across versions
    finally:
        svc.close()


def test_analytics_engine_failure_fail_stops_the_service():
    graph, _ = _stream()
    svc = GraphService(
        graph, queries=(), tools=(), analytics=("degree",), max_delay_ms=1e9
    )
    try:
        eng = svc._engines[("degree", "degree")]

        def boom(delta):
            raise RuntimeError("engine crashed")

        eng.refresh = boom
        from repro.model.changes import AddUser

        with pytest.raises(RuntimeError, match="engine crashed"):
            svc.submit(AddUser(999_999))
            svc.flush()
        with pytest.raises(ReproError, match="fail-stopped"):
            svc.query("degree")
    finally:
        svc.close()
