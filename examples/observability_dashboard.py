#!/usr/bin/env python
"""Scenario: watching the serving stack run, via the ``repro.obs`` layer.

A sharded service ingests a synthetic change stream while every kind of
telemetry the observability layer offers is live:

* a :class:`repro.obs.Tracer` collects one connected span tree per
  micro-batch (router -> scatter -> shards -> engine refreshes) and the
  run ends by dumping a Chrome trace-event file you can open in
  ``chrome://tracing`` or Perfetto;
* each step re-renders a plain-text dashboard from the services' typed
  metric registries (queue depth, batch sizes, WAL bytes, cache hit
  rate, shard fan-out balance, ``repro_op_latency_seconds`` per-op
  latency percentiles) -- the same numbers ``metrics_text()`` serves as
  Prometheus exposition;
* the slowest span tree of the run is replayed at the end as an
  indented waterfall, straight from the structured span log.

Run:  python examples/observability_dashboard.py [scale_factor]
"""

import shutil
import sys
import tempfile

from repro.datagen import generate_benchmark_input
from repro.obs import Tracer, set_tracer
from repro.sharding import ShardedGraphService

TRACE_OUT = "observability_trace.json"


def render_dashboard(step: int, service: ShardedGraphService) -> None:
    """One plain-text frame from the live registries."""
    stats = service.stats()
    m = stats["metrics"]
    ops = m["repro_op_latency_seconds"]
    cache_rates = [shard.stats()["cache"]["hit_rate"] for shard in service._shards]
    batch = m.get("repro_batch_size", {})
    skew = m.get("repro_scatter_skew", {})
    fanout = m.get("repro_shard_changes_total", {})
    print(f"-- step {step}: version {stats['version']} " + "-" * 40)
    print(
        f"   batches   count {batch.get('count', 0):>5}   "
        f"p50 size {batch.get('p50', 0):>4}   p99 size {batch.get('p99', 0):>4}"
    )
    print(
        f"   wal bytes {m.get('repro_wal_bytes_total', 0):>11,}   "
        f"queue depth {m.get('repro_ingest_queue_depth', 0)}"
    )
    if fanout:
        shares = "  ".join(f"{k}:{v}" for k, v in sorted(fanout.items()))
        print(
            f"   fan-out   {shares}   scatter skew p99 "
            f"{skew.get('p99', 1.0):.2f} (1.0 = balanced)"
        )
    print(
        "   cache hit-rate per shard  "
        + "  ".join(f"{r:.2f}" for r in cache_rates)
    )
    scatter, read = ops['op="scatter"'], ops['op="query"']
    if scatter["count"]:
        print(
            f"   scatter p50 {scatter['p50'] * 1e3:7.2f} ms   "
            f"p99 {scatter['p99'] * 1e3:7.2f} ms   "
            f"read p99 {read['p99'] * 1e3:.4f} ms"
        )


def waterfall(tracer: Tracer) -> None:
    """Replay the slowest batch's span tree as an indented waterfall."""
    spans = tracer.finished()
    slowest = max(
        (s for s in spans if s["name"] in ("flush", "submit")),
        key=lambda s: s["duration"],
    )
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent_id"], []).append(s)
    print(f"\nslowest write ({slowest['duration'] * 1e3:.2f} ms):")

    def walk(span, depth):
        label = " ".join(f"{k}={v}" for k, v in sorted(span["attrs"].items()))
        print(
            f"   {'  ' * depth}{span['name']:<10}"
            f"{span['duration'] * 1e3:8.2f} ms  {label}"
        )
        for child in children.get(span["span_id"], []):
            walk(child, depth + 1)

    walk(slowest, 0)


def main(scale_factor: int = 4) -> None:
    tracer = Tracer()
    set_tracer(tracer)

    print(f"generating synthetic network at scale factor {scale_factor} ...")
    graph, stream = generate_benchmark_input(
        scale_factor, seed=2024, num_change_sets=6
    )
    data_dir = tempfile.mkdtemp(prefix="obs-dashboard-")
    service = ShardedGraphService(
        graph,
        shards=2,
        tools=("graphblas-incremental",),
        analytics=("degree",),
        max_batch=16,
        max_delay_ms=1e9,
        data_dir=data_dir,
    )
    tracer.clear()  # construction spans are not the stream's story
    try:
        for step, batch in enumerate(stream, start=1):
            for change in batch:
                service.submit(change)
            service.flush()
            service.query("Q1")
            service.query("degree")
            render_dashboard(step, service)

        print("\nprometheus exposition (first lines of metrics_text()):")
        for line in service.metrics_text().splitlines()[:8]:
            print(f"   {line}")

        waterfall(tracer)

        tracer.dump(TRACE_OUT)
        print(
            f"\n{len(tracer.finished())} spans -> {TRACE_OUT} "
            f"(open in chrome://tracing or Perfetto)"
        )
    finally:
        set_tracer(None)
        service.close()
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
