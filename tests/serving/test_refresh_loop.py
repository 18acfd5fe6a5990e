"""The engine refresh loop: serial, in registration order, fail-stop.

``GraphService._refresh_engines`` refreshes every registered engine on the
applying thread, one after another, and publishes each result before the
next engine starts.  These tests pin what that loop promises: the same
results as a service running each tool alone, ``refresh`` spans under
``batch`` in registration order, per-engine metrics, the earliest
registered failure surfaced, and nothing left running after a crash.
"""

from __future__ import annotations

import threading

import pytest

from repro.datagen import generate_benchmark_input
from repro.model.changes import AddUser
from repro.obs import Tracer, set_tracer
from repro.queries.engine import SERVED_TOOLS
from repro.serving import GraphService
from tests.conftest import _leaked_children, _leaked_threads

QUERIES = ("Q1", "Q2")
#: the two served query tools plus two analytics engines: four tools and
#: six engines on one refresh loop
ANALYTICS = ("components", "degree")
KW = dict(tools=SERVED_TOOLS, analytics=ANALYTICS)
#: every registered (query, tool) key, in registration order
REGISTRATION = [(q, t) for t in SERVED_TOOLS for q in QUERIES] + [
    (a, a) for a in ANALYTICS
]


def _stream():
    graph, change_sets = generate_benchmark_input(1, seed=42)
    return graph, [ch for cs in change_sets for ch in cs]


def _drive(service, changes):
    for ch in changes:
        service.submit(ch)
    service.flush()


def _poison(monkeypatch, engine, message):
    err = RuntimeError(message)
    monkeypatch.setattr(
        engine, "refresh", lambda *_a, _e=err: (_ for _ in ()).throw(_e)
    )


def test_four_tools_refresh_serially_like_one_tool_services(monkeypatch):
    started: list[str] = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        return real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    tracer = Tracer()
    set_tracer(tracer)
    try:
        graph, changes = _stream()
        with GraphService(graph, **KW, max_batch=16,
                          max_delay_ms=1e9) as svc:
            _drive(svc, changes)
            spans = tracer.finished()
            served = {(q, t): svc.query(q, t) for q, t in REGISTRATION}
            version = svc.version
    finally:
        set_tracer(None)
    assert not [name for name in started if name.startswith("engine-refresh")]

    batches = [s for s in spans if s["name"] == "batch"]
    assert len(batches) == version
    for batch in batches:
        refreshes = sorted(
            (s for s in spans
             if s["name"] == "refresh" and s["parent_id"] == batch["span_id"]),
            key=lambda s: s["span_id"],
        )
        order = [(r["attrs"]["query"], r["attrs"]["tool"]) for r in refreshes]
        assert order == REGISTRATION
        assert all(r["attrs"]["status"] == "ok" for r in refreshes)

    alone_kw = [dict(tools=(t,)) for t in SERVED_TOOLS] + [
        dict(tools=(), queries=(), analytics=(a,)) for a in ANALYTICS
    ]
    for kw in alone_kw:
        graph, changes = _stream()
        with GraphService(graph, **kw, max_batch=16,
                          max_delay_ms=1e9) as alone:
            _drive(alone, changes)
            assert alone.version == version
            for key in alone._engines:
                a, b = served[key], alone.query(*key)
                assert (a.result_string, a.top, a.version) == (
                    b.result_string, b.top, b.version
                ), key


def test_per_engine_refresh_metrics_preserved():
    graph, changes = _stream()
    with GraphService(graph, **KW, max_batch=16,
                      max_delay_ms=1e9) as svc:
        _drive(svc, changes)
        ops = svc.stats()["metrics"]["repro_op_latency_seconds"]
        for _, t in REGISTRATION:
            assert ops[f'op="refresh[{t}]"']["count"] >= 1


def test_failure_order_is_deterministic(monkeypatch):
    """Two poisoned engines: the one earliest in registration order is the
    error surfaced, and nothing registered after it is refreshed."""
    graph, _ = _stream()
    svc = GraphService(graph, **KW, max_batch=1)
    for key, msg in ((("degree", "degree"), "later"),
                     (("Q1", "graphblas-incremental"), "first")):
        _poison(monkeypatch, svc._engines[key], msg)
    next_engine = svc._engines[("Q2", "graphblas-incremental")]
    calls = []
    monkeypatch.setattr(next_engine, "refresh", lambda delta: calls.append(delta))
    with pytest.raises(RuntimeError, match="first"):
        svc.submit(AddUser(user_id=987655, name="crash"))
    assert svc._failed
    assert calls == []


def test_crashed_apply_leaves_no_children(monkeypatch):
    graph, _ = _stream()
    svc = GraphService(graph, **KW, max_batch=1)
    _poison(monkeypatch, svc._engines[("components", "components")], "boom")
    with pytest.raises(RuntimeError, match="boom"):
        svc.submit(AddUser(user_id=987654, name="crash"))
    # fail-stopped, and nothing was started that could outlive it
    assert svc._failed
    assert _leaked_children() == []
    assert _leaked_threads() == []
