"""GraphService: serving semantics, caching, validation, lifecycle.

``test_e2e_stream_matches_batch_at_every_version`` is the PR's acceptance
check: a >=1k-change stream with interleaved reads, where the cached
``query()`` results must match a fresh ``graphblas-batch`` evaluation at
every applied version, followed by a kill/``recover()`` round trip that
must reproduce the same final top-k.
"""

from __future__ import annotations

import time

import pytest

from repro.datagen import generate_benchmark_input, generate_change_sets
from repro.model import ChangeSet, SocialGraph
from repro.model.changes import AddFriendship, AddLike, AddPost, AddUser
from repro.queries import Q1Batch, Q2Batch
from repro.serving import GraphService
from repro.util.validation import ReproError


def small_graph() -> SocialGraph:
    g = SocialGraph()
    for u in (1, 2, 3):
        g.add_user(u)
    g.add_post(10, 0, 1)
    g.add_comment(20, 1, 2, 10)
    g.add_like(1, 20)
    g.add_friendship(1, 2)
    return g


GB_TOOLS = ("graphblas-incremental", "graphblas-batch")


class TestServingBasics:
    def test_initial_results_cached_at_v0(self):
        with GraphService(small_graph(), tools=GB_TOOLS, max_delay_ms=1e9) as svc:
            r = svc.query("Q1")
            assert r.version == 0
            assert r.tool == "graphblas-incremental"
            assert r.result_string == Q1Batch(svc.graph).result_string()

    def test_submit_below_batch_size_stays_pending(self):
        with GraphService(
            small_graph(), tools=GB_TOOLS, max_batch=100, max_delay_ms=1e9
        ) as svc:
            svc.submit(AddUser(50))
            assert svc.version == 0
            assert svc.stats()["pending"] == 1
            # the read still serves v0 -- pending changes are invisible
            assert svc.query("Q1").version == 0

    def test_flush_applies_and_bumps_version(self):
        with GraphService(
            small_graph(), tools=GB_TOOLS, max_batch=100, max_delay_ms=1e9
        ) as svc:
            svc.submit(AddUser(50))
            svc.submit(AddPost(60, 5, 50))
            assert svc.flush() == 1
            r = svc.query("Q1")
            assert r.version == 1
            assert 60 in r.ids  # a fresh post can enter a tiny top-k

    def test_batch_size_triggers_apply(self):
        with GraphService(
            small_graph(), tools=GB_TOOLS, max_batch=2, max_delay_ms=1e9
        ) as svc:
            svc.submit(AddUser(50))
            assert svc.version == 0
            svc.submit(AddUser(51))
            assert svc.version == 1

    def test_expired_pending_applied_at_read(self, monkeypatch):
        from repro.util.timer import WallClock

        t = [1000.0]
        monkeypatch.setattr(WallClock, "now", staticmethod(lambda: t[0]))
        svc = GraphService(
            small_graph(), tools=GB_TOOLS, max_batch=100, max_delay_ms=50
        )
        svc.submit(AddUser(50))
        assert svc.query("Q1").version == 0
        t[0] += 0.060  # max_delay_ms exceeded
        assert svc.query("Q1").version == 1
        svc.close()

    def test_all_tools_cached_and_agree(self):
        """Every served tool's cached Q1/Q2 equals the batch oracles on the
        service's graph, after every change set."""
        graph, stream = generate_benchmark_input(1, seed=3, num_change_sets=2)
        with GraphService(
            graph, tools=GB_TOOLS, max_batch=10_000, max_delay_ms=1e9
        ) as svc:
            for cs in [ChangeSet([])] + list(stream):
                svc.submit(cs)
                svc.flush()
                want = {
                    "Q1": Q1Batch(svc.graph).result_string(),
                    "Q2": Q2Batch(svc.graph, algorithm="unionfind").result_string(),
                }
                for query, oracle in want.items():
                    for tool in svc.tools:
                        got = svc.query(query, tool)
                        assert got.version == svc.version
                        assert got.result_string == oracle, (query, tool)

    @pytest.mark.parametrize("sharded", [False, True])
    def test_default_serves_the_incremental_engine_only(self, sharded):
        """The served path is one engine per query; the NMF baselines are
        Fig. 5 tools and a service refuses them."""
        from repro.sharding import ShardedGraphService

        def make(**kw):
            if sharded:
                return ShardedGraphService(small_graph(), shards=2, **kw)
            return GraphService(small_graph(), **kw)

        with make() as svc:
            stats = svc.stats()
            for st in stats["per_shard"] if sharded else [stats]:
                registered = {(q, t) for q in st["queries"] for t in st["tools"]}
                assert registered | set(st["analytics"]) == {
                    ("Q1", "graphblas-incremental"),
                    ("Q2", "graphblas-incremental"),
                }
        with pytest.raises(ReproError, match="make_engine"):
            make(tools=("nmf-batch",))

    def test_stats_shape(self):
        with GraphService(small_graph(), tools=GB_TOOLS, max_delay_ms=1e9) as svc:
            svc.submit(AddUser(50))
            svc.flush()
            svc.query("Q1")
            s = svc.stats()
            assert s["version"] == 1
            assert s["submitted"] == 1
            assert s["applied_batches"] == 1
            assert s["graph"]["users"] == 4
            ops = s["metrics"]["repro_op_latency_seconds"]
            assert ops['op="apply"']["count"] == 1
            assert ops['op="query"']["count"] == 1
            assert ops['op="refresh[graphblas-batch]"']["count"] == 2  # Q1+Q2
            assert "ops" not in s and s["cache"]["hits"] == 1


class TestValidation:
    def test_unknown_reference_rejected_before_enqueue(self):
        with GraphService(small_graph(), tools=GB_TOOLS, max_delay_ms=1e9) as svc:
            with pytest.raises(ReproError, match="unknown user"):
                svc.submit(AddLike(999, 20))
            with pytest.raises(ReproError, match="unknown comment"):
                svc.submit(AddLike(1, 999))
            with pytest.raises(ReproError, match="self-friendship"):
                svc.submit(AddFriendship(1, 1))
            with pytest.raises(ReproError, match="duplicate user"):
                svc.submit(AddUser(1))
            assert svc.stats()["pending"] == 0  # nothing half-enqueued

    def test_pending_entity_referencable(self):
        with GraphService(
            small_graph(), tools=GB_TOOLS, max_batch=100, max_delay_ms=1e9
        ) as svc:
            svc.submit(AddUser(50))
            svc.submit(AddPost(60, 5, 50))  # references the pending user
            assert svc.flush() == 1

    def test_intra_set_references_accepted(self):
        """A single submitted ChangeSet may reference entities it
        introduces itself (the paper's Fig. 3b shape)."""
        with GraphService(
            small_graph(), tools=GB_TOOLS, max_batch=100, max_delay_ms=1e9
        ) as svc:
            svc.submit(ChangeSet([AddUser(70), AddPost(71, 5, 70)]))
            assert svc.flush() == 1
            assert 71 in svc.query("Q1").ids

    def test_intra_set_duplicate_rejected_and_rolled_back(self):
        with GraphService(
            small_graph(), tools=GB_TOOLS, max_batch=100, max_delay_ms=1e9
        ) as svc:
            with pytest.raises(ReproError, match="duplicate user"):
                svc.submit(ChangeSet([AddUser(80), AddUser(80)]))
            assert svc.stats()["pending"] == 0
            # the rejected set's phantom pending id must not linger
            svc.submit(AddUser(80))
            assert svc.flush() == 1

    def test_engine_failure_fail_stops_the_service(self):
        svc = GraphService(
            small_graph(), tools=GB_TOOLS, max_batch=100, max_delay_ms=1e9
        )

        def boom(_delta):
            raise RuntimeError("engine exploded")

        next(iter(svc._engines.values())).refresh = boom
        svc.submit(AddUser(90))
        with pytest.raises(RuntimeError, match="engine exploded"):
            svc.flush()
        with pytest.raises(ReproError, match="fail-stopped"):
            svc.query("Q1")
        with pytest.raises(ReproError, match="fail-stopped"):
            svc.submit(AddUser(91))
        svc.close()  # close still succeeds (and must not re-apply)

    def test_unknown_query_and_tool(self):
        with GraphService(small_graph(), tools=GB_TOOLS, max_delay_ms=1e9) as svc:
            with pytest.raises(ReproError):
                svc.query("Q3")
            with pytest.raises(ReproError):
                GraphService(small_graph(), tools=("not-a-tool",))

    def test_closed_service_rejects_ops(self):
        svc = GraphService(small_graph(), tools=GB_TOOLS, max_delay_ms=1e9)
        svc.close()
        with pytest.raises(ReproError, match="closed"):
            svc.submit(AddUser(50))
        with pytest.raises(ReproError, match="closed"):
            svc.query("Q1")
        svc.close()  # idempotent


class TestAutoFlush:
    def test_background_flusher_applies_overdue_batch(self):
        svc = GraphService(
            small_graph(),
            tools=("graphblas-incremental",),
            max_batch=100,
            max_delay_ms=20,
            auto_flush=True,
        )
        try:
            svc.submit(AddUser(50))
            deadline = time.time() + 5.0
            while svc.version == 0 and time.time() < deadline:
                time.sleep(0.01)
            assert svc.version == 1  # flushed without any further submit/read
        finally:
            svc.close()


class TestE2E:
    def test_e2e_stream_matches_batch_at_every_version(self, tmp_path):
        """Acceptance: >=1k changes, interleaved reads, per-version batch
        equivalence, then kill + recover reproduces the final top-k."""
        graph, _ = generate_benchmark_input(1, seed=11)
        stream = generate_change_sets(
            graph, total_inserts=1100, num_change_sets=1, seed=11,
            removal_fraction=0.15,
        )
        changes = list(stream[0])
        assert len(changes) >= 1000

        # reference graph fed the exact same coalesced batches
        ref_graph, _ = generate_benchmark_input(1, seed=11)

        svc = GraphService(
            graph,
            tools=GB_TOOLS,
            max_batch=128,
            max_delay_ms=1e9,
            data_dir=tmp_path,
            snapshot_every=4,
        )
        seen_version = svc.version
        pending: list = []
        versions_checked = 0
        for i, ch in enumerate(changes):
            pending.append(ch)
            svc.submit(ch)
            if i % 97 == 0:  # interleaved reads never fail or go backwards
                assert svc.query("Q1").version == svc.version
            if svc.version != seen_version:
                seen_version = svc.version
                ref_graph.apply(ChangeSet(pending))
                pending = []
                assert (
                    svc.query("Q1").result_string
                    == Q1Batch(ref_graph).result_string()
                )
                assert (
                    svc.query("Q2").result_string
                    == Q2Batch(ref_graph, algorithm="unionfind").result_string()
                )
                versions_checked += 1
        svc.flush()
        if pending:
            ref_graph.apply(ChangeSet(pending))
        assert versions_checked >= 7
        final_q1 = svc.query("Q1").result_string
        final_q2 = svc.query("Q2").result_string
        assert final_q1 == Q1Batch(ref_graph).result_string()
        assert final_q2 == Q2Batch(ref_graph, algorithm="unionfind").result_string()
        final_version = svc.version

        # kill (no close -- the WAL is fsynced per applied batch) + recover
        del svc
        rec = GraphService.recover(tmp_path, tools=GB_TOOLS, max_delay_ms=1e9)
        try:
            assert rec.version == final_version
            assert rec.query("Q1").result_string == final_q1
            assert rec.query("Q2").result_string == final_q2
        finally:
            rec.close()
