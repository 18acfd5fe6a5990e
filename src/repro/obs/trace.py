"""Span tracing: follow one micro-batch end-to-end through the stack.

The serving story -- continuous updates racing continuous reads -- is only
credible with evidence of *where time goes*.  A :class:`Tracer` records
**spans** (named, timed intervals with parent/child links) along the write
path the DESIGN.md span taxonomy names::

    submit -> batch -> wal
                    -> scatter -> shard -> batch -> wal
                                                 -> apply
                                                 -> refresh (per engine)
                                                 -> commit

plus ``flush``, ``query``, ``snapshot`` and ``recover``.  One submitted
micro-batch therefore yields one connected tree spanning the router, every
shard and every engine refresh (property-tested in
``tests/obs/test_service_tracing.py``).

Design constraints, in order:

* **disabled-by-default cheap** -- the process-wide tracer slot holds
  ``None`` unless ``REPRO_TRACE`` is set or :func:`set_tracer` was called;
  every instrumentation site guards on one :func:`get_tracer` call and
  skips all span work when it returns ``None``;
* **deterministic** -- no RNG anywhere: span ids come from a monotone
  counter, and engine refreshes are recorded post-hoc via
  :meth:`Tracer.record` in the fixed engine registration order, so a
  single-threaded run produces an identical span log every time;
* **thread-safe** -- span starts/ends touch the tracer under one lock;
  parent linkage flows through a :mod:`contextvars` current-span slot
  within a thread and is passed explicitly across thread boundaries (the
  sharded scatter pool).

Export targets: :meth:`Tracer.chrome_trace` emits the Chrome trace-event
JSON object (open it in ``chrome://tracing`` or Perfetto), and
:meth:`Tracer.finished` returns the structured in-memory log tests
assert on.

>>> t = Tracer()
>>> with t.span("submit", changes=3) as root:
...     with t.span("batch", version=1):
...         pass
>>> [ (s["name"], s["parent_id"]) for s in t.finished() ]
[('batch', 1), ('submit', None)]
>>> t.chrome_trace()["traceEvents"][0]["ph"]
'X'
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
from pathlib import Path
from typing import Optional

from repro.util.timer import WallClock

__all__ = [
    "Span",
    "Tracer",
    "current_span",
    "get_tracer",
    "set_tracer",
    "span_if",
    "trace_enabled_from_env",
    "trace_output_path",
]

#: the thread/task-local parent slot: a span entered as a context manager
#: becomes the default parent of spans started in the same thread
_current: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "obs_current_span", default=None
)


def current_span() -> Optional["Span"]:
    """The innermost span entered (as a context manager) in this thread."""
    return _current.get()


class Span:
    """One named, timed interval; ends at most once.

    Use as a context manager (installs itself as the thread's current
    span, ends on exit, stamps an ``error`` attribute when exiting on an
    exception) or call :meth:`end` explicitly.
    """

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "t0", "attrs", "_token", "_ended")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int], t0: float, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.t0 = t0
        self.attrs = attrs
        self._token = None
        self._ended = False

    def set(self, **attrs) -> "Span":
        """Attach attributes to a live span (e.g. a result computed late)."""
        self.attrs.update(attrs)
        return self

    def end(self) -> None:
        if self._ended:
            return
        self._ended = True
        self._tracer._finish(self, WallClock.now() - self.t0)

    def __enter__(self) -> "Span":
        self._token = _current.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            _current.reset(self._token)
            self._token = None
        if exc is not None and "error" not in self.attrs:
            self.attrs["error"] = type(exc).__name__
        self.end()


class Tracer:
    """Thread-safe span collector with Chrome trace-event export.

    Finished spans accumulate as plain dicts (``name``, ``span_id``,
    ``parent_id``, ``t0``, ``duration``, ``attrs``) in *end* order --
    children before parents, exactly the order a post-order walk of the
    trace tree visits them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next_id = 1
        self._open = 0
        self._spans: list[dict] = []
        #: epoch all exported timestamps are relative to
        self.t_epoch = WallClock.now()

    # -- recording ------------------------------------------------------

    def span(self, name: str, parent: Optional[Span] = None, **attrs) -> Span:
        """Start a span now; parent defaults to the thread's current span."""
        if parent is None:
            parent = _current.get()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self._open += 1
        return Span(
            self, name, span_id,
            parent.span_id if parent is not None else None,
            WallClock.now(), attrs,
        )

    def record(self, name: str, t0: float, duration: float,
               parent: Optional[Span] = None, **attrs) -> int:
        """Append a span measured elsewhere (post-hoc; no open state).

        The serving layer times each engine refresh itself and records it
        here once the refresh returns or raises, with an explicit parent
        and a ``status`` attribute.  Returns the assigned span id.
        """
        if parent is None:
            parent = _current.get()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self._spans.append({
                "name": name,
                "span_id": span_id,
                "parent_id": parent.span_id if parent is not None else None,
                "t0": t0,
                "duration": duration,
                "attrs": attrs,
                "tid": threading.get_ident(),
            })
        return span_id

    def _finish(self, span: Span, duration: float) -> None:
        with self._lock:
            self._open -= 1
            self._spans.append({
                "name": span.name,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "t0": span.t0,
                "duration": duration,
                "attrs": span.attrs,
                "tid": threading.get_ident(),
            })

    # -- inspection -----------------------------------------------------

    @property
    def open_spans(self) -> int:
        """Spans started but not yet ended (0 after a quiescent service)."""
        with self._lock:
            return self._open

    def finished(self) -> list[dict]:
        """The structured span log (copies; ``tid`` omitted -- it is an
        export concern, not part of the deterministic record)."""
        with self._lock:
            return [{k: v for k, v in s.items() if k != "tid"} for s in self._spans]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def drain(self) -> list[dict]:
        """Atomically take and clear the finished-span log (``tid`` kept).

        The shard-worker RPC loop ships its spans back to the router in
        every reply envelope; drain-and-clear under one lock guarantees a
        span is shipped exactly once.
        """
        with self._lock:
            spans, self._spans = self._spans, []
            return spans

    def graft(self, spans: list[dict], parent: Optional[Span] = None) -> None:
        """Splice a *foreign* span log (a worker's :meth:`drain`) in here.

        Re-issues every span id from this tracer's counter so grafted ids
        never collide with local ones, rewrites parent links through the
        same map, and hangs the foreign roots (parentless spans, or spans
        whose parent was shipped in an earlier envelope) under ``parent``
        -- typically the router-side ``shard`` span that was open while
        the worker produced them.  Keeps the worker's end-order, so the
        merged log remains a post-order walk of one connected tree.
        """
        if not spans:
            return
        if parent is None:
            parent = _current.get()
        base = parent.span_id if parent is not None else None
        with self._lock:
            id_map: dict[int, int] = {}
            for s in spans:
                id_map[s["span_id"]] = self._next_id
                self._next_id += 1
            for s in spans:
                pid = s.get("parent_id")
                self._spans.append({
                    "name": s["name"],
                    "span_id": id_map[s["span_id"]],
                    "parent_id": id_map.get(pid, base) if pid is not None else base,
                    "t0": s["t0"],
                    "duration": s["duration"],
                    "attrs": dict(s.get("attrs") or {}),
                    "tid": s.get("tid", 0),
                })

    # -- export ---------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The Chrome trace-event JSON object (``chrome://tracing`` /
        Perfetto).  Spans become ``"ph": "X"`` complete events;
        microsecond timestamps are relative to the tracer epoch; thread
        ids are renumbered in first-seen order so a serial run exports
        identically every time."""
        with self._lock:
            spans = list(self._spans)
        tid_map: dict[int, int] = {}
        events = []
        for s in spans:
            tid = tid_map.setdefault(s.get("tid", 0), len(tid_map))
            args = {k: v for k, v in s["attrs"].items()}
            args["span_id"] = s["span_id"]
            if s["parent_id"] is not None:
                args["parent_id"] = s["parent_id"]
            events.append({
                "name": s["name"],
                "ph": "X",
                "ts": round((s["t0"] - self.t_epoch) * 1e6, 3),
                "dur": round(s["duration"] * 1e6, 3),
                "pid": 0,
                "tid": tid,
                "args": args,
            })
        events.sort(key=lambda e: (e["ts"], e["args"]["span_id"]))
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def dump(self, path) -> Path:
        """Write the Chrome trace JSON to ``path``; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
        return path


# ---------------------------------------------------------------------------
# the process-wide tracer slot (REPRO_TRACE)
# ---------------------------------------------------------------------------

_slot_lock = threading.Lock()
_slot: dict = {"tracer": None, "env_checked": False}

#: values of REPRO_TRACE that mean "disabled"
_OFF = ("", "0", "false", "no")
#: values that mean "enabled, in-memory only" (anything else is a dump path)
_ON = ("1", "true", "yes")


def trace_enabled_from_env() -> bool:
    """True when ``REPRO_TRACE`` asks for tracing (any non-off value)."""
    return os.environ.get("REPRO_TRACE", "").strip().lower() not in _OFF


def trace_output_path() -> Optional[str]:
    """The Chrome-trace dump path when ``REPRO_TRACE`` names one.

    ``REPRO_TRACE=1`` traces in memory only; ``REPRO_TRACE=trace.json``
    (any value that is not a plain on/off token) additionally makes
    ``GraphService.close()`` / ``ShardedGraphService.close()`` dump the
    accumulated trace there.
    """
    raw = os.environ.get("REPRO_TRACE", "").strip()
    if raw.lower() in _OFF + _ON:
        return None
    return raw


def get_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is disabled.

    This is THE hot-path guard: instrumentation sites call it once per
    operation and do nothing when it returns ``None``.  Lazily installs a
    tracer on first call when ``REPRO_TRACE`` is set.
    """
    t = _slot["tracer"]
    if t is not None or _slot["env_checked"]:
        return t
    with _slot_lock:
        if not _slot["env_checked"]:
            _slot["env_checked"] = True
            if trace_enabled_from_env():
                _slot["tracer"] = Tracer()
        return _slot["tracer"]


def set_tracer(tracer: Optional[Tracer]) -> None:
    """Install (or with ``None``, disable) the process-wide tracer."""
    with _slot_lock:
        _slot["tracer"] = tracer
        _slot["env_checked"] = True


def span_if(tracer: Optional[Tracer], name: str, parent: Optional[Span] = None,
            **attrs):
    """``tracer.span(...)`` or a shared no-op context when tracing is off.

    The one-liner instrumentation sites use so the disabled path costs a
    single ``None`` check and no allocation.
    """
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, parent=parent, **attrs)


class _NullSpan:
    """Inert stand-in for :class:`Span` (shared instance, no state)."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    def end(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()
