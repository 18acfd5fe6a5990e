"""End-to-end tracing through the serving stack.

The PR's acceptance property lives here: one micro-batch submitted to a
``ShardedGraphService(shards=2)`` yields ONE connected trace tree
spanning the router, both shards and every engine refresh, exported as
valid Chrome trace-event JSON.
"""

from __future__ import annotations

import json

import pytest

from repro.model.changes import AddComment, AddLike, AddPost, AddUser
from repro.obs import Tracer, set_tracer
from repro.serving.service import GraphService
from repro.sharding.router import ShardedGraphService

TOOLS = ("graphblas-incremental",)


@pytest.fixture(autouse=True)
def _fresh_tracer():
    t = Tracer()
    set_tracer(t)
    yield t
    set_tracer(None)


def _one_batch():
    return [
        AddUser(1),
        AddUser(2),
        AddPost(10, 1, 1),
        AddComment(20, 2, 1, 10),
        AddLike(2, 20),
    ]


def _tree(spans):
    """{span_id: span} plus a child-id adjacency map."""
    by_id = {s["span_id"]: s for s in spans}
    children: dict = {}
    for s in spans:
        if s["parent_id"] is not None:
            children.setdefault(s["parent_id"], []).append(s["span_id"])
    return by_id, children


class TestShardedAcceptance:
    """A single micro-batch -> one connected tree across the whole stack."""

    def test_single_batch_connected_tree(self, _fresh_tracer, tmp_path):
        t = _fresh_tracer
        svc = ShardedGraphService(
            shards=2, tools=TOOLS, analytics=("degree",),
            max_batch=10**9, max_delay_ms=1e9,
            data_dir=tmp_path,  # so the tree includes wal spans
        )
        t.clear()  # construction (initial evaluations) is not the batch
        svc.submit(_one_batch())
        svc.flush()
        svc.query("Q1")
        assert t.open_spans == 0
        spans = t.finished()
        by_id, children = _tree(spans)

        # every parent link resolves in-log
        for s in spans:
            assert s["parent_id"] is None or s["parent_id"] in by_id

        # three roots: the enqueue-only submit, the flush (the whole write
        # path hangs off it), and the query
        roots = [s for s in spans if s["parent_id"] is None]
        assert sorted(s["name"] for s in roots) == ["flush", "query", "submit"]
        flush = next(s for s in roots if s["name"] == "flush")

        # the flush tree is connected and spans router + both shards +
        # every engine refresh
        reach = set()
        stack = [flush["span_id"]]
        while stack:
            sid = stack.pop()
            reach.add(sid)
            stack.extend(children.get(sid, []))
        reached = [by_id[sid] for sid in reach]
        names = sorted(s["name"] for s in reached)
        shard_ids = sorted(
            s["attrs"]["shard"] for s in reached if s["name"] == "shard"
        )
        assert shard_ids == [0, 1]
        # router batch + 2 shard batches, all inside the one submit tree
        assert names.count("batch") == 3
        assert names.count("scatter") == 1
        assert names.count("wal") == 3  # router WAL + one per shard
        # every engine refresh: 2 shards x (Q1, Q2, degree)
        refreshes = [s for s in reached if s["name"] == "refresh"]
        assert len(refreshes) == 6
        assert all(r["attrs"]["status"] == "ok" for r in refreshes)
        tools = {(r["attrs"]["query"], r["attrs"]["tool"]) for r in refreshes}
        assert tools == {
            ("Q1", "graphblas-incremental"),
            ("Q2", "graphblas-incremental"),
            ("degree", "degree"),
        }
        # all spans except the submit and query roots belong to the flush tree
        assert len(reach) == len(spans) - 2

        # exported trace is valid Chrome trace-event JSON
        doc = json.loads(json.dumps(t.chrome_trace()))
        events = doc["traceEvents"]
        assert len(events) == len(spans)
        ids = {ev["args"]["span_id"] for ev in events}
        for ev in events:
            assert ev["ph"] == "X"
            assert ev["dur"] >= 0 and isinstance(ev["ts"], (int, float))
            assert ev["args"].get("parent_id") is None or ev["args"]["parent_id"] in ids
        svc.close()

    def test_trace_dump_on_close(self, _fresh_tracer, tmp_path, monkeypatch):
        out = tmp_path / "trace.json"
        monkeypatch.setenv("REPRO_TRACE", str(out))
        svc = ShardedGraphService(
            shards=2, tools=TOOLS, max_batch=1
        )
        svc.submit([AddUser(1)])
        svc.close()
        with open(out) as fh:
            doc = json.load(fh)
        assert any(ev["name"] == "batch" for ev in doc["traceEvents"])


class TestSingleServiceTaxonomy:
    def test_write_path_span_nesting(self, _fresh_tracer):
        t = _fresh_tracer
        svc = GraphService(tools=TOOLS, max_batch=10**9, max_delay_ms=1e9)
        t.clear()
        svc.submit([AddUser(1), AddUser(2)])
        svc.flush()
        spans = t.finished()
        by_name: dict = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(s)
        # submit and flush are separate calls, so separate roots
        assert by_name["submit"][0]["parent_id"] is None
        assert by_name["flush"][0]["parent_id"] is None
        # flush > batch > {apply, commit, refresh x2}
        flush_id = by_name["flush"][0]["span_id"]
        batch = by_name["batch"][0]
        assert batch["parent_id"] == flush_id
        assert batch["attrs"] == {"version": 1, "changes": 2}
        for name in ("apply", "commit"):
            assert by_name[name][0]["parent_id"] == batch["span_id"]
        assert len(by_name["refresh"]) == 2  # Q1 + Q2
        for r in by_name["refresh"]:
            assert r["parent_id"] == batch["span_id"]
        assert by_name["submit"][0]["attrs"] == {"changes": 2, "flushed": False}
        svc.close()

    def test_span_log_deterministic_across_runs(self, tmp_path):
        def run():
            t = Tracer()
            set_tracer(t)
            svc = GraphService(
                tools=TOOLS, analytics=("degree",),
                max_batch=10**9, max_delay_ms=1e9,
            )
            t.clear()
            svc.submit(_one_batch())
            svc.flush()
            svc.query("Q2")
            svc.close()
            return [
                (s["name"], s["span_id"], s["parent_id"], s["attrs"])
                for s in t.finished()
            ]

        assert run() == run()

    def test_no_tracer_no_spans_service_still_works(self):
        set_tracer(None)
        svc = GraphService(tools=TOOLS, max_batch=1)
        svc.submit([AddUser(1)])
        assert svc.query("Q1").version == 1
        svc.close()
