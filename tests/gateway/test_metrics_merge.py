"""Multi-node metrics exposition: merge without label collisions.

The bug this satellite fixes: concatenating per-node Prometheus
expositions repeats ``# TYPE`` lines and -- without base labels --
collides identical ``(name, labels)`` series from different nodes.
``merge_expositions`` + ``node=``/``shard=`` base labels are the fix;
``parse_exposition`` is the strict round-trip oracle.
"""

from __future__ import annotations

import pytest

from repro.gateway import Gateway
from repro.model import AddUser
from repro.obs.metrics import (
    MetricsRegistry,
    merge_expositions,
    parse_exposition,
    render_prometheus,
)
from repro.sharding import ShardedGraphService


class TestParseExposition:
    def test_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total").inc(3)
        reg.gauge("repro_depth", shard="0").set(7)
        text = render_prometheus(reg, labels={"node": "n1"})
        parsed = parse_exposition(text)
        assert parsed["types"] == {"repro_x_total": "counter",
                                   "repro_depth": "gauge"}
        assert parsed["series"][("repro_x_total", 'node="n1"')] == 3.0
        assert parsed["series"][("repro_depth", 'shard="0",node="n1"')] == 7.0

    def test_rejects_duplicate_series(self):
        text = "# TYPE a gauge\na 1\na 2\n"
        with pytest.raises(ValueError, match="duplicate series"):
            parse_exposition(text)

    def test_rejects_retype(self):
        text = "# TYPE a gauge\na 1\n# TYPE a counter\n"
        with pytest.raises(ValueError, match="re-typed"):
            parse_exposition(text)

    def test_rejects_garbage_line(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_exposition("not a series\n")


class TestMergeExpositions:
    def test_single_type_line_per_metric(self):
        a = '# TYPE m gauge\nm{node="a"} 1\n'
        b = '# TYPE m gauge\nm{node="b"} 2\n'
        merged = merge_expositions([a, b])
        assert merged.count("# TYPE m gauge") == 1
        parsed = parse_exposition(merged)
        assert parsed["series"] == {("m", 'node="a"'): 1.0,
                                    ("m", 'node="b"'): 2.0}

    def test_collision_without_base_labels_is_an_error(self):
        part = "# TYPE m gauge\nm 1\n"
        with pytest.raises(ValueError, match="label collision"):
            merge_expositions([part, part])

    def test_family_conflict_is_an_error(self):
        with pytest.raises(ValueError, match="exported as"):
            merge_expositions(["# TYPE m gauge\nm 1\n",
                               "# TYPE m counter\nm 2\n"])

    def test_untyped_extras_survive(self):
        merged = merge_expositions(["plain_series 4\n"])
        assert "# TYPE plain_series untyped" in merged
        assert parse_exposition(merged)["series"][("plain_series", "")] == 4.0


class TestStackedExposition:
    """The real thing: gateway over a 2-shard service, one exposition."""

    def test_gateway_over_sharded_service_parses_clean(self):
        svc = ShardedGraphService(
            shards=2, tools=("graphblas-incremental",), max_batch=1
        )
        gw = Gateway(svc, queue_limit=16)
        try:
            for i in range(4):
                gw.submit([AddUser(i)])
            gw.pump_once()
            gw.read("Q1")
            text = gw.metrics_text()
            # strict parse: would raise on any repeated # TYPE or series
            parsed = parse_exposition(text)
            names = {name for name, _ in parsed["series"]}
            assert any(n.startswith("repro_gateway_") for n in names)
            # both shards' series are present, disambiguated by labels
            shard_labels = {
                labels for name, labels in parsed["series"]
                if name == "repro_op_latency_seconds_count"
            }
            assert any('shard="0"' in lab for lab in shard_labels)
            assert any('shard="1"' in lab for lab in shard_labels)
            assert any('node="gateway"' in lab for lab in shard_labels)
            # every non-gateway series is namespaced under node="service"
            for name, labels in parsed["series"]:
                assert 'node="gateway"' in labels or 'node="service"' in labels
        finally:
            gw.drain(close_service=True)

    def test_one_latency_family_across_gateway_router_and_shards(self):
        svc = ShardedGraphService(
            shards=2, tools=("graphblas-incremental",), max_batch=1
        )
        gw = Gateway(svc, queue_limit=16)
        try:
            gw.submit([AddUser(0)])
            gw.pump_once()
            gw.read("Q1")
            text = gw.metrics_text()
            assert text.count("# TYPE repro_op_latency_seconds summary") == 1
            parsed = parse_exposition(text)
            assert parsed["types"]["repro_op_latency_seconds"] == "summary"
            counts = {
                labels: value for (name, labels), value in parsed["series"].items()
                if name == "repro_op_latency_seconds_count"
            }

            def ops(*stamps):
                """op names of the series carrying exactly these stamps."""
                return {
                    labels.split('"')[1] for labels in counts
                    if all(s in labels for s in stamps)
                    and ("shard=" in labels) == any("shard=" in s for s in stamps)
                }

            assert {"admit", "pump", "read"} <= ops('node="gateway"')
            assert {"submit", "scatter", "query"} <= ops('node="service"')
            for shard in ("0", "1"):
                assert {"submit", "apply", "refresh[graphblas-incremental]",
                        "load[graphblas-incremental]"} <= ops(
                    'node="service"', f'shard="{shard}"')
            assert counts['op="pump",node="gateway"'] == 1
            assert counts['op="scatter",node="service"'] == 1
        finally:
            gw.drain(close_service=True)

    def test_per_op_series_do_not_collide_across_layers(self):
        # gateway op names (admit/pump/read) are disjoint from service op
        # names (submit/wal/apply/query/...) *and* carry distinct node
        # labels; either alone would prevent collisions, both are policy
        svc = ShardedGraphService(
            shards=2, tools=("graphblas-incremental",), max_batch=1
        )
        gw = Gateway(svc, queue_limit=16)
        try:
            gw.submit([AddUser(0)])
            gw.pump_once()
            parsed = parse_exposition(gw.metrics_text())
            gateway_ops = {
                lab for name, lab in parsed["series"]
                if name == "repro_op_latency_seconds_count"
                and 'node="gateway"' in lab
            }
            assert any('op="admit"' in lab for lab in gateway_ops)
            assert any('op="pump"' in lab for lab in gateway_ops)
        finally:
            gw.drain(close_service=True)
