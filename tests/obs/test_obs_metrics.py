"""MetricsRegistry: typed instruments, snapshots, Prometheus exposition."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry, render_prometheus


class TestInstruments:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_wal_bytes_total")
        c.inc()
        c.inc(41)
        assert c.value == 42
        # get-or-create returns the same instrument
        assert reg.counter("repro_wal_bytes_total") is c

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_ingest_queue_depth")
        g.set(5)
        g.inc(2)
        g.dec()
        assert g.value == 6

    def test_labels_are_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("repro_shard_changes_total", shard="0").inc(3)
        reg.counter("repro_shard_changes_total", shard="1").inc(7)
        snap = reg.snapshot()["repro_shard_changes_total"]
        assert snap == {'shard="0"': 3, 'shard="1"': 7}

    def test_family_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_batch_size")
        for v in (1, 2, 3, 10):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["sum"] == 16
        assert s["min"] == 1 and s["max"] == 10
        assert s["p50"] == 2.5

    def test_histogram_exact_count_and_total(self):
        h = MetricsRegistry().histogram("repro_op_latency_seconds", op="query")
        for v in (0.001, 0.002, 0.003):
            h.observe(v)
        assert h.count == 3
        assert abs(h.total - 0.006) < 1e-12
        assert abs(h.mean() - 0.002) < 1e-12
        assert h.min == 0.001 and h.max == 0.003

    def test_histogram_percentiles(self):
        h = MetricsRegistry().histogram("repro_op_latency_seconds", op="query")
        for i in range(1, 101):
            h.observe(i / 1000.0)
        assert 0.045 <= h.percentile(50) <= 0.055
        assert h.percentile(99) >= 0.098

    def test_histogram_empty_summary_is_zero(self):
        s = MetricsRegistry().histogram("repro_op_latency_seconds", op="x").summary()
        assert s["count"] == 0
        assert s["p99"] == 0.0
        assert s["min"] == 0.0 and s["max"] == 0.0 and s["mean"] == 0.0

    def test_histogram_time_context(self):
        h = MetricsRegistry().histogram("repro_op_latency_seconds", op="query")
        with h.time():
            pass
        with pytest.raises(RuntimeError):
            with h.time():
                raise RuntimeError("a failed op is still timed")
        assert h.count == 2
        assert h.total >= 0.0

    def test_histogram_reservoir_deterministic(self):
        import threading

        a, b = Histogram(threading.Lock(), 64), Histogram(threading.Lock(), 64)
        for i in range(10_000):
            a.observe(float(i))
            b.observe(float(i))
        assert a._samples == b._samples
        assert len(a._samples) < 64
        assert a.count == 10_000  # count/sum stay exact under decimation
        assert a.max == 9999.0

    def test_histogram_reservoir_bounded_and_exact(self):
        # two registries fed the same latencies keep identical reservoirs
        a = MetricsRegistry().histogram("repro_op_latency_seconds", op="query")
        b = MetricsRegistry().histogram("repro_op_latency_seconds", op="query")
        for i in range(10_000):
            a.observe(i * 1e-6)
            b.observe(i * 1e-6)
        assert len(a._samples) < a.max_samples
        assert a._samples == b._samples  # no RNG in the measurement path
        assert a.count == 10_000
        assert abs(a.total - sum(i * 1e-6 for i in range(10_000))) < 1e-9
        assert a.min == 0.0 and a.max == 9999 * 1e-6


class TestSnapshot:
    def test_json_able_and_sorted(self):
        reg = MetricsRegistry()
        reg.gauge("b").set(2)
        reg.counter("a").inc()
        reg.histogram("c").observe(1.0)
        snap = reg.snapshot()
        assert list(snap) == ["a", "b", "c"]
        json.dumps(snap)  # must not raise

    def test_labelled_series_sorted(self):
        reg = MetricsRegistry()
        reg.histogram("repro_op_latency_seconds", op="b").observe(0.1)
        reg.histogram("repro_op_latency_seconds", op="a").observe(0.2)
        ops = reg.snapshot()["repro_op_latency_seconds"]
        assert list(ops) == ['op="a"', 'op="b"']
        assert ops['op="a"']["count"] == 1

    def test_unlabelled_collapses_to_value(self):
        reg = MetricsRegistry()
        reg.counter("plain").inc(2)
        assert reg.snapshot()["plain"] == 2


class TestPrometheus:
    def test_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("repro_wal_bytes_total").inc(100)
        reg.gauge("repro_engine_staleness", engine="pagerank").set(3)
        reg.histogram("repro_batch_size").observe(4)
        text = render_prometheus(reg)
        lines = text.splitlines()
        assert "# TYPE repro_batch_size summary" in lines
        assert "# TYPE repro_wal_bytes_total counter" in lines
        assert 'repro_engine_staleness{engine="pagerank"} 3' in lines
        assert "repro_wal_bytes_total 100" in lines
        assert 'repro_batch_size{quantile="0.50"} 4.0' in lines
        assert "repro_batch_size_count 1" in lines
        assert text.endswith("\n")

    def test_ops_render_as_latency_summaries(self):
        reg = MetricsRegistry()
        reg.histogram("repro_op_latency_seconds", op="query").observe(0.002)
        reg.histogram("repro_op_latency_seconds", op="submit").observe(0.001)
        lines = render_prometheus(reg).splitlines()
        assert lines.count("# TYPE repro_op_latency_seconds summary") == 1
        assert 'repro_op_latency_seconds_count{op="query"} 1' in lines
        assert 'repro_op_latency_seconds_sum{op="query"} 0.002' in lines
        assert 'repro_op_latency_seconds{op="query",quantile="0.99"} 0.002' in lines
        assert 'repro_op_latency_seconds_count{op="submit"} 1' in lines

    def test_base_labels_stamp_every_series(self):
        reg = MetricsRegistry()
        reg.gauge("repro_ingest_queue_depth").set(2)
        reg.counter("repro_cache_hits").inc(9)
        text = render_prometheus(reg, labels={"shard": "1"})
        assert 'repro_ingest_queue_depth{shard="1"} 2' in text
        assert 'repro_cache_hits{shard="1"} 9' in text
        assert "# TYPE repro_cache_hits counter" in text
