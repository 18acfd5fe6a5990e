"""Per-operation latency accounting for the serving layer.

The serving story the paper motivates (continuous updates, continuous
reads) is only credible with a latency budget attached, so every
:class:`~repro.serving.service.GraphService` operation -- ``submit``,
``apply`` (a flushed micro-batch), ``query``, ``snapshot``, ``recover`` --
records its wall time here.  :class:`LatencyStats` keeps exact count/total
plus a bounded sample reservoir for percentiles; the reservoir decimates
*deterministically* (it halves itself by keeping every other sample and
doubles the keep-stride) so repeated benchmark runs report identical
numbers -- no RNG in the measurement path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.util.timer import WallClock

__all__ = ["LatencyStats", "OpMetrics"]


@dataclass
class LatencyStats:
    """Streaming latency summary for one operation kind."""

    #: reservoir capacity; beyond it samples are kept at a widening stride
    max_samples: int = 8192

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = 0.0
    _samples: list[float] = field(default_factory=list, repr=False)
    _stride: int = field(default=1, repr=False)
    _since_kept: int = field(default=0, repr=False)

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        self._since_kept += 1
        if self._since_kept >= self._stride:
            self._since_kept = 0
            self._samples.append(seconds)
            if len(self._samples) >= self.max_samples:
                self._samples = self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """q-th percentile (0-100) over the retained samples."""
        if not self._samples:
            return 0.0
        return float(np.percentile(np.asarray(self._samples), q))

    def summary(self) -> dict:
        """The stats() wire format: milliseconds, ready to print."""
        return {
            "count": self.count,
            "total_s": round(self.total, 6),
            "mean_ms": round(self.mean * 1e3, 4),
            "min_ms": round((self.min if self.count else 0.0) * 1e3, 4),
            "max_ms": round(self.max * 1e3, 4),
            "p50_ms": round(self.percentile(50) * 1e3, 4),
            "p99_ms": round(self.percentile(99) * 1e3, 4),
        }


class OpMetrics:
    """A named registry of :class:`LatencyStats` with a timing helper.

    Thread-safe: the serving layer records from the submit path, the
    background flusher and reader threads; a single lock covers registry
    access and the non-atomic reservoir update inside
    :meth:`LatencyStats.record`.

    >>> m = OpMetrics()
    >>> with m.timed("query"):
    ...     pass
    >>> m["query"].count
    1
    """

    def __init__(self) -> None:
        self._stats: dict[str, LatencyStats] = {}
        self._lock = threading.Lock()

    def __getitem__(self, op: str) -> LatencyStats:
        with self._lock:
            if op not in self._stats:
                self._stats[op] = LatencyStats()
            return self._stats[op]

    def record(self, op: str, seconds: float) -> None:
        # one lock round-trip per sample: get-or-create and the non-atomic
        # reservoir update happen under the same acquisition (going through
        # __getitem__ here would lock twice on the hot submit path)
        with self._lock:
            stats = self._stats.get(op)
            if stats is None:
                stats = self._stats[op] = LatencyStats()
            stats.record(seconds)

    def timed(self, op: str) -> "_Timed":
        return _Timed(self, op)

    def summary(self) -> dict[str, dict]:
        with self._lock:
            return {op: s.summary() for op, s in sorted(self._stats.items())}


class _Timed:
    """Context manager recording one interval into an :class:`OpMetrics`."""

    def __init__(self, metrics: OpMetrics, op: str):
        self._metrics = metrics
        self._op = op
        self._t0 = 0.0

    def __enter__(self) -> "_Timed":
        self._t0 = WallClock.now()
        return self

    def __exit__(self, *exc) -> None:
        self._metrics.record(self._op, WallClock.now() - self._t0)
