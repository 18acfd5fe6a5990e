"""Router unit behaviour: construction, validation, batching, reads, env."""

from __future__ import annotations

import pytest

from repro.model.changes import (
    AddComment,
    AddFriendship,
    AddLike,
    AddPost,
    AddUser,
)
from repro.queries.engine import SERVED_TOOLS, make_engine
from repro.serving import GraphService
from repro.sharding import ShardedGraphService, default_shards
from repro.util.validation import ReproError
from tests.conftest import build_paper_graph, datagen_stream, paper_update

KW = dict(tools=("graphblas-incremental",), max_batch=10**9, max_delay_ms=1e9)


class TestConstruction:
    def test_nmf_tools_rejected(self):
        with pytest.raises(ReproError, match="Fig. 5 baseline"):
            ShardedGraphService(shards=2, tools=("nmf-batch",))

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ReproError, match="shards must be >= 1"):
            ShardedGraphService(shards=0)

    def test_env_knob_is_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "3")
        assert default_shards() == 3
        svc = ShardedGraphService(**KW)
        try:
            assert svc.num_shards == 3
        finally:
            svc.close()
        monkeypatch.setenv("REPRO_SHARDS", "zero")
        with pytest.raises(ReproError, match="bad REPRO_SHARDS"):
            default_shards()
        monkeypatch.setenv("REPRO_SHARDS", "0")
        with pytest.raises(ReproError, match=">= 1"):
            default_shards()

    def test_dirty_data_dir_refused(self, tmp_path):
        svc = ShardedGraphService(shards=2, data_dir=tmp_path, **KW)
        svc.close()
        with pytest.raises(ReproError, match="already holds sharded"):
            ShardedGraphService(shards=2, data_dir=tmp_path, **KW)

    def test_unsharded_state_in_data_dir_refused(self, tmp_path):
        """A directory holding plain GraphService state must not be adopted:
        appending router frames into the old WAL would interleave two
        version histories."""
        svc = GraphService(data_dir=tmp_path, **KW)
        svc.submit(AddUser(1))
        svc.flush()
        svc.close()
        with pytest.raises(ReproError, match="unsharded.*GraphService state"):
            ShardedGraphService(shards=2, data_dir=tmp_path, **KW)
        # the refusal left the original state recoverable
        rec = GraphService.recover(tmp_path, **KW)
        try:
            assert rec.version == 1
        finally:
            rec.close()

    def test_failed_construction_does_not_poison_data_dir(self, tmp_path):
        """router.json is written only once every shard constructed, and a
        failed attempt removes the shard directories it created -- so a
        corrected retry succeeds instead of hitting the dirty-dir guard."""
        with pytest.raises(ReproError, match="unknown analytics tool"):
            ShardedGraphService(
                shards=2, data_dir=tmp_path, analytics=("bogus",), **KW
            )
        assert not (tmp_path / "router.json").exists()
        svc = ShardedGraphService(shards=2, data_dir=tmp_path, **KW)
        try:
            svc.submit(AddUser(1))
            assert svc.flush() == 1
        finally:
            svc.close()

    def test_recover_shard_count_pinned(self, tmp_path):
        svc = ShardedGraphService(shards=2, data_dir=tmp_path, **KW)
        svc.submit(AddUser(1))
        svc.flush()
        svc.close()
        with pytest.raises(ReproError, match="partitioned with shards=2"):
            ShardedGraphService.recover(tmp_path, shards=4, **KW)
        rec = ShardedGraphService.recover(tmp_path, **KW)
        try:
            assert rec.num_shards == 2 and rec.version == 1
        finally:
            rec.close()

    def test_recover_without_state_raises(self, tmp_path):
        with pytest.raises(ReproError, match="no sharded service state"):
            ShardedGraphService.recover(tmp_path)

    def test_paper_example_served_sharded(self):
        svc = ShardedGraphService(build_paper_graph(), shards=2, **KW)
        unsharded = GraphService(build_paper_graph(), **KW)
        try:
            for q in ("Q1", "Q2"):
                assert svc.query(q).top == unsharded.query(q).top
            svc.submit(list(paper_update()))
            svc.flush()
            unsharded.submit(list(paper_update()))
            unsharded.flush()
            for q in ("Q1", "Q2"):
                assert svc.query(q).top == unsharded.query(q).top
        finally:
            svc.close()
            unsharded.close()


class TestValidation:
    def _svc(self):
        return ShardedGraphService(shards=2, max_batch=10**9, max_delay_ms=1e9, **{
            k: v for k, v in KW.items() if k == "tools"
        })

    def test_router_gate_rejects_at_the_edge(self):
        svc = self._svc()
        try:
            with pytest.raises(ReproError, match="unknown user"):
                svc.submit(AddPost(10, 0, 999))
            svc.submit(AddUser(1))
            with pytest.raises(ReproError, match="duplicate user"):
                svc.submit(AddUser(1))  # still pending, caught via the gate
            svc.flush()
            with pytest.raises(ReproError, match="duplicate user"):
                svc.submit(AddUser(1))  # applied now, caught via shard 0
            with pytest.raises(ReproError, match="unknown parent"):
                svc.submit(AddComment(20, 1, 1, 555))
            with pytest.raises(ReproError, match="unknown comment"):
                svc.submit(AddLike(1, 555))
        finally:
            svc.close()

    def test_rejected_set_rolls_back_whole(self):
        """All-or-nothing: ids introduced by a rejected set must not leak
        into the pending-id tracking."""
        svc = self._svc()
        try:
            svc.submit(AddUser(1))
            with pytest.raises(ReproError, match="unknown parent"):
                svc.submit([AddUser(2), AddComment(30, 1, 2, 777)])
            # user 2 must not have leaked; referencing it still fails
            with pytest.raises(ReproError, match="unknown user"):
                svc.submit(AddFriendship(1, 2))
            svc.submit(AddUser(2))  # and re-adding it is not a duplicate
            assert svc.flush() == 1
        finally:
            svc.close()

    def test_intra_batch_references_route_together(self):
        """Fig. 3b's insert-comment-then-like-it pattern inside ONE submit:
        the like must land on the comment's shard even though the comment
        is not applied anywhere yet when the like is validated."""
        svc = self._svc()
        try:
            svc.submit([AddUser(1), AddUser(2)])
            svc.submit(
                [
                    AddPost(10, 0, 1),
                    AddComment(20, 1, 2, 10),
                    AddLike(1, 20),
                    AddLike(2, 20),
                    AddFriendship(1, 2),
                ]
            )
            svc.flush()
            assert svc.query("Q1").result_string == "10"
            assert svc.query("Q2").top[0] == (20, 4)  # {u1,u2} component, 2^2
        finally:
            svc.close()


class TestReadsAndOps:
    def test_micro_batching_at_the_router(self):
        svc = ShardedGraphService(
            shards=2, tools=("graphblas-incremental",), max_batch=3, max_delay_ms=1e9
        )
        try:
            svc.submit(AddUser(1))
            svc.submit(AddUser(2))
            assert svc.version == 0  # below max_batch: still pending
            svc.submit(AddUser(3))  # trips the threshold
            assert svc.version == 1
            assert [s.version for s in svc._shards] == [1, 1]
        finally:
            svc.close()

    def test_merged_result_fields(self):
        svc = ShardedGraphService(build_paper_graph(), shards=2, **KW)
        try:
            r = svc.query("Q1")
            assert (r.query, r.tool) == ("Q1", "graphblas-incremental")
            assert r.version == 0 and r.computed_version == 0
            assert r.ids == tuple(int(x) for x in r.result_string.split("|"))
        finally:
            svc.close()

    def test_stats_and_repr(self):
        svc = ShardedGraphService(shards=2, **KW)
        try:
            svc.submit(AddUser(1))
            svc.flush()
            s = svc.stats()
            assert s["version"] == 1 and s["shards"] == 2
            assert s["shard_versions"] == [1, 1]
            assert len(s["per_shard"]) == 2
            ops = s["metrics"]["repro_op_latency_seconds"]
            assert ops['op="scatter"']["count"] == 1
            assert "shards=2" in repr(svc)
        finally:
            svc.close()

    def test_snapshot_covers_every_shard(self, tmp_path):
        from repro.serving.persistence import SnapshotStore

        svc = ShardedGraphService(shards=2, data_dir=tmp_path, **KW)
        try:
            svc.submit(AddUser(1))
            svc.flush()
            assert svc.snapshot() == 1
            for i in range(2):
                assert 1 in SnapshotStore(tmp_path / f"shard-{i:02d}").versions()
        finally:
            svc.close()

    def test_closed_and_context_manager(self):
        with ShardedGraphService(shards=2, **KW) as svc:
            svc.submit(AddUser(1))
        with pytest.raises(ReproError, match="closed"):
            svc.query("Q1")
        with pytest.raises(ReproError, match="closed"):
            svc.submit(AddUser(2))

    def test_auto_flush_applies_overdue_batches(self):
        import time

        svc = ShardedGraphService(
            shards=2,
            tools=("graphblas-incremental",),
            max_batch=10**9,
            max_delay_ms=10.0,
            auto_flush=True,
        )
        try:
            svc.submit(AddUser(1))
            deadline = time.time() + 5.0
            while svc.version == 0 and time.time() < deadline:
                time.sleep(0.01)
            assert svc.version == 1
        finally:
            svc.close()


class TestMergeProtocolSurface:
    def test_nmf_engines_are_unshardable(self):
        """The NMF baselines predate the protocol (no ``partial`` hook);
        EngineBase subclasses that forget to implement it get the
        explanatory default instead."""
        from repro.queries.engine import EngineBase

        e = make_engine("nmf-batch", "Q1")
        assert not hasattr(e, "partial")
        with pytest.raises(ReproError, match="mergeable-result"):
            EngineBase().partial()
        with pytest.raises(ReproError, match="mergeable-result"):
            EngineBase.merge_partials([], 3)

    def test_unpartitioned_analytics_partial_raises(self):
        from repro.analytics import make_analytics_engine
        from repro.model.graph import SocialGraph

        eng = make_analytics_engine("degree")
        eng.load(SocialGraph())
        eng.initial()
        with pytest.raises(ReproError, match="no partition"):
            eng.partial()

    def test_bad_partition_tuple_rejected(self):
        from repro.analytics import make_analytics_engine

        with pytest.raises(ReproError, match="bad partition"):
            make_analytics_engine("degree", partition=(2, 2))

    def test_graphservice_exposes_engine_accessors(self):
        fresh, _ = datagen_stream(3)
        svc = GraphService(fresh(), **KW)
        try:
            eng = svc.engine("Q1")
            assert eng.partial() == eng.last_entries
            with pytest.raises(ReproError, match="no engine"):
                svc.engine("Q1", "nmf-batch")
        finally:
            svc.close()

    def test_served_tools_constant(self):
        """One list of servable tools for the service and the router."""
        assert SERVED_TOOLS == ("graphblas-incremental", "graphblas-batch")
        with ShardedGraphService(shards=2, tools=SERVED_TOOLS) as svc:
            assert svc.tools == SERVED_TOOLS
