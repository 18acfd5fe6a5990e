"""Typed metrics: counters, gauges, histograms, exposition.

:class:`MetricsRegistry` is one of the serving stack's two telemetry
pillars (the other is the span tracing in :mod:`repro.obs.trace`):
named, optionally labelled instruments recording what the system is
doing -- ingest queue depth, batch sizes, WAL bytes, snapshot sizes,
per-engine staleness, shard fan-out balance -- and how long each
operation took (the ``repro_op_latency_seconds{op=...}`` histograms every
service, router and gateway times its calls into).

Three instrument families, mirroring the Prometheus data model:

* :class:`Counter` -- monotone total (``repro_wal_bytes_total``);
* :class:`Gauge`   -- last-set value (``repro_ingest_queue_depth``);
* :class:`Histogram` -- distribution summary over a deterministic
  decimating reservoir (no RNG; identical runs report identical
  percentiles), with a :meth:`Histogram.time` context manager for
  latencies.

Two read formats: :meth:`MetricsRegistry.snapshot` (a JSON-able dict,
merged into ``GraphService.stats()["metrics"]``) and
:func:`render_prometheus` (the ``text/plain; version=0.0.4`` exposition
format, served by ``GraphService.metrics_text()``).

>>> reg = MetricsRegistry()
>>> reg.counter("repro_wal_bytes_total").inc(128)
>>> reg.gauge("repro_ingest_queue_depth").set(3)
>>> reg.counter("repro_shard_changes_total", shard="0").inc(7)
>>> reg.snapshot()["repro_wal_bytes_total"]
128
>>> reg.snapshot()["repro_shard_changes_total"]
{'shard="0"': 7}
>>> print(render_prometheus(reg).splitlines()[1])
repro_ingest_queue_depth 3
>>> with reg.histogram("repro_op_latency_seconds", op="query").time():
...     pass
>>> reg.snapshot()["repro_op_latency_seconds"]['op="query"']["count"]
1
"""

from __future__ import annotations

import re
import threading
from typing import Optional

import numpy as np

from repro.util.timer import WallClock

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_expositions",
    "parse_exposition",
    "render_prometheus",
]


def _label_key(labels: dict) -> str:
    """Canonical label string: ``k1="v1",k2="v2"`` sorted by key ('' bare)."""
    if not labels:
        return ""
    return ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0

    def inc(self, n: float = 1) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """A value that goes up and down; reads report the last set."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0

    def set(self, v: float) -> None:
        self.value = v

    def inc(self, n: float = 1) -> None:
        with self._lock:
            self.value += n

    def dec(self, n: float = 1) -> None:
        self.inc(-n)


class Histogram:
    """Streaming distribution summary (deterministic decimating reservoir).

    Exact count/total/min/max; percentile estimates over a bounded sample
    set that, when full, halves itself by keeping every other sample and
    doubles the keep-stride -- no RNG, so repeated runs report identical
    numbers.  Unit-agnostic (batch sizes, skew ratios, bytes, seconds).
    """

    __slots__ = ("_lock", "max_samples", "count", "total", "min", "max",
                 "_samples", "_stride", "_since_kept")

    def __init__(self, lock: threading.Lock, max_samples: int = 4096):
        self._lock = lock
        self.max_samples = max_samples
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: list[float] = []
        self._stride = 1
        self._since_kept = 0

    def observe(self, v: float) -> None:
        with self._lock:
            self.count += 1
            self.total += v
            if v < self.min:
                self.min = v
            if v > self.max:
                self.max = v
            self._since_kept += 1
            if self._since_kept >= self._stride:
                self._since_kept = 0
                self._samples.append(v)
                if len(self._samples) >= self.max_samples:
                    self._samples = self._samples[::2]
                    self._stride *= 2

    def time(self) -> "_Timer":
        """Context manager observing the wall time of its body, in seconds
        (recorded on exit, also when the body raises)."""
        return _Timer(self)

    def mean(self) -> float:
        """Exact mean of every observation (0.0 when empty); no percentile
        work, so it is cheap enough for an admission path."""
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        if not self._samples:
            return 0.0
        return float(np.percentile(np.asarray(self._samples), q))

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": round(self.total, 6),
            "mean": round(self.total / self.count, 6) if self.count else 0.0,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": round(self.percentile(50), 6),
            "p99": round(self.percentile(99), 6),
        }


class _Timer:
    """One timed interval feeding a :class:`Histogram`."""

    __slots__ = ("_hist", "_t0")

    def __init__(self, hist: Histogram):
        self._hist = hist

    def __enter__(self) -> "_Timer":
        self._t0 = WallClock.now()
        return self

    def __exit__(self, *exc) -> None:
        self._hist.observe(WallClock.now() - self._t0)


class MetricsRegistry:
    """Named, labelled instruments with get-or-create access.

    ``counter(name, **labels)`` (and ``gauge``/``histogram``) returns the
    same instrument for the same (name, labels) pair, so hot paths may
    cache the returned object and skip the registry lookup entirely.  One
    registry lock covers creation *and* every instrument mutation -- the
    instruments share it, so a read through :meth:`snapshot` observes each
    value whole.
    """

    _FAMILIES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: name -> (family, {label_key: instrument})
        self._metrics: dict[str, tuple[str, dict]] = {}

    def _get(self, family: str, name: str, labels: dict):
        key = _label_key(labels)
        with self._lock:
            entry = self._metrics.get(name)
            if entry is None:
                entry = self._metrics[name] = (family, {})
            elif entry[0] != family:
                raise ValueError(
                    f"metric {name!r} already registered as {entry[0]}, "
                    f"not {family}"
                )
            series = entry[1]
            inst = series.get(key)
            if inst is None:
                inst = series[key] = self._FAMILIES[family](self._lock)
            return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get("histogram", name, labels)

    # -- reads ----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able view: ``{name: value | {label_key: value}}``.

        Counters/gauges report their value, histograms their
        :meth:`~Histogram.summary`; an unlabelled single series collapses
        to the bare value.
        """
        with self._lock:
            out: dict = {}
            for name, (family, series) in sorted(self._metrics.items()):
                rendered = {
                    key: inst.summary() if family == "histogram" else inst.value
                    for key, inst in sorted(series.items())
                }
                out[name] = rendered[""] if list(rendered) == [""] else rendered
            return out

    def families(self) -> dict[str, str]:
        """``{name: family}`` for every registered metric (exposition)."""
        with self._lock:
            return {name: fam for name, (fam, _) in sorted(self._metrics.items())}


def parse_exposition(text: str) -> dict:
    """Parse a Prometheus text exposition into its structured form.

    Returns ``{"types": {name: family}, "series": {(name, labels): value}}``
    where ``labels`` is the literal (already-canonical) label string
    between the braces, ``""`` for a bare series.  Strict on the
    invariants a scraper relies on: a malformed line, a ``# TYPE``
    redefinition to a *different* family, or a duplicate ``(name,
    labels)`` series raises ``ValueError``.  This is the round-trip
    oracle the multi-node exposition tests parse the merged gateway /
    router / replica output back through.
    """
    types: dict[str, str] = {}
    series: dict[tuple[str, str], float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                name, family = parts[2], parts[3]
                if types.get(name, family) != family:
                    raise ValueError(
                        f"line {lineno}: metric {name!r} re-typed "
                        f"{types[name]!r} -> {family!r}"
                    )
                types[name] = family
            continue
        m = re.match(r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})? (\S+)$", line)
        if m is None:
            raise ValueError(f"line {lineno}: unparseable series {line!r}")
        name, labels, value = m.group(1), m.group(2) or "", m.group(3)
        key = (name, labels)
        if key in series:
            raise ValueError(
                f"line {lineno}: duplicate series {name}{{{labels}}} -- "
                "label collision in a merged exposition"
            )
        series[key] = float(value)
    return {"types": types, "series": series}


def merge_expositions(parts) -> str:
    """Merge several text expositions into one valid exposition.

    Plain concatenation of per-node expositions repeats ``# TYPE`` lines
    for any metric two nodes both export, which the exposition format
    forbids.  This groups every part's series under a single ``# TYPE``
    line per metric (first-seen order), verifying along the way that no
    two parts disagree on a metric's family and -- via the same strict
    parse as :func:`parse_exposition` -- that no two parts collide on an
    identical ``(name, labels)`` series, which is what the ``shard=`` /
    ``node=`` base labels exist to prevent.
    """
    order: list[str] = []
    families: dict[str, str] = {}
    bodies: dict[str, list[str]] = {}
    seen: set[tuple[str, str]] = set()
    current: Optional[str] = None
    for part in parts:
        current = None
        for line in part.splitlines():
            if not line.strip():
                continue
            if line.startswith("# TYPE "):
                _, _, name, family = line.split(None, 3)
                if name not in families:
                    families[name] = family
                    order.append(name)
                    bodies[name] = []
                elif families[name] != family:
                    raise ValueError(
                        f"metric {name!r} exported as {families[name]!r} by "
                        f"one node and {family!r} by another"
                    )
                current = name
                continue
            m = re.match(r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})? \S+$", line)
            if m is None:
                raise ValueError(f"unparseable series line {line!r}")
            key = (m.group(1), m.group(2) or "")
            if key in seen:
                raise ValueError(
                    f"label collision: series {key[0]}{{{key[1]}}} exported "
                    "by two nodes -- stamp distinct shard=/node= base labels"
                )
            seen.add(key)
            if current is None:
                # an untyped series; give it its own group
                name = m.group(1)
                if name not in bodies:
                    families.setdefault(name, "untyped")
                    order.append(name)
                    bodies[name] = []
                bodies[name].append(line)
            else:
                bodies[current].append(line)
    lines: list[str] = []
    for name in order:
        lines.append(f"# TYPE {name} {families[name]}")
        lines.extend(bodies[name])
    return "\n".join(lines) + "\n" if lines else ""


def render_prometheus(
    registry: MetricsRegistry, labels: Optional[dict] = None
) -> str:
    """Prometheus text exposition of a registry.

    Histograms render as ``summary`` series (p50/p99 quantiles, ``_sum``,
    ``_count``).  ``labels`` are appended to every series (the sharded
    router stamps ``shard="i"`` onto each shard's exposition).
    """
    base = dict(labels or {})

    def series(name: str, label_key: str, value) -> str:
        parts = [k for k in (label_key, _label_key(base)) if k]
        lab = ("{" + ",".join(parts) + "}") if parts else ""
        return f"{name}{lab} {value}"

    lines: list[str] = []
    with registry._lock:
        metrics = {
            name: (fam, {k: i for k, i in sorted(ser.items())})
            for name, (fam, ser) in sorted(registry._metrics.items())
        }
    for name, (family, ser) in metrics.items():
        lines.append(f"# TYPE {name} {'summary' if family == 'histogram' else family}")
        for key, inst in ser.items():
            if family == "histogram":
                s = inst.summary()
                for q in ("50", "99"):
                    qkey = key + ("," if key else "") + f'quantile="0.{q}"'
                    lines.append(series(name, qkey, s[f"p{q}"]))
                lines.append(series(name + "_sum", key, s["sum"]))
                lines.append(series(name + "_count", key, s["count"]))
            else:
                lines.append(series(name, key, inst.value))
    return "\n".join(lines) + "\n"
