"""repro.obs -- the unified observability subsystem.

Two pillars threaded through every layer of the stack (DESIGN.md
"Observability" has the span taxonomy and metric catalogue):

* :mod:`repro.obs.trace` -- deterministic span tracing of one micro-batch
  end-to-end (``submit -> wal -> scatter -> shard -> refresh -> commit ->
  query``), exportable as Chrome trace-event JSON (``REPRO_TRACE``);
* :mod:`repro.obs.metrics` -- typed counters/gauges/histograms
  (:class:`MetricsRegistry`), per-op latencies included, with Prometheus
  text exposition, merged into ``GraphService.stats()`` /
  ``ShardedGraphService.stats()``.

Tracing is disabled-by-default cheap: the tracer slot holds ``None``
until ``REPRO_TRACE`` or :func:`set_tracer` installs one, and every
instrumentation site guards on that single lookup.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs.trace import (
    Span,
    Tracer,
    current_span,
    get_tracer,
    set_tracer,
    span_if,
    trace_enabled_from_env,
    trace_output_path,
)

__all__ = [
    "Span",
    "Tracer",
    "current_span",
    "get_tracer",
    "set_tracer",
    "span_if",
    "trace_enabled_from_env",
    "trace_output_path",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_prometheus",
]
