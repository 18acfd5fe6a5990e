"""Unit coverage for the partition function, graph split, and merge maths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.model.graph import SocialGraph
from repro.queries import Q1Batch, Q2Batch
from repro.sharding import (
    merge_partition_partials,
    merge_topk_entries,
    merge_vertex_partials,
    partition_graph,
    shard_of,
    shard_of_array,
)
from tests.conftest import build_paper_graph, datagen_stream


class TestShardOf:
    def test_scalar_and_array_agree(self):
        ids = np.array([0, 1, 42, 10**12, 2**63 - 1], dtype=np.int64)
        for n in (1, 2, 3, 4, 7):
            assert shard_of_array(ids, n).tolist() == [
                shard_of(int(i), n) for i in ids
            ]

    def test_range_and_determinism(self):
        for n in (1, 2, 4):
            owners = {shard_of(i, n) for i in range(200)}
            assert owners <= set(range(n))
            assert shard_of(123, n) == shard_of(123, n)

    def test_sequential_ids_spread(self):
        """The splitmix64 mix decorrelates sequential external ids; a naive
        ``id % K`` would be fooled by strided id allocation."""
        counts = np.bincount(shard_of_array(np.arange(0, 40_000, 4), 4), minlength=4)
        assert counts.min() > 0.8 * counts.mean()


class TestPartitionGraph:
    def test_single_shard_is_identity(self):
        g = build_paper_graph()
        shards, post_shard, comment_shard = partition_graph(g, 1)
        assert shards[0] is g
        assert set(post_shard.values()) == {0} and set(comment_shard.values()) == {0}

    @pytest.mark.parametrize("n", [2, 4])
    def test_split_replicates_users_and_partitions_content(self, n):
        fresh, _ = datagen_stream(13)
        g = fresh()
        shards, post_shard, comment_shard = partition_graph(g, n)
        want_users = g.users.external_array().tolist()
        total_posts, total_comments, total_likes = 0, 0, 0
        for i, sg in enumerate(shards):
            assert sg.users.external_array().tolist() == want_users
            assert sg.stats()["friendships"] == g.stats()["friendships"]
            for p in sg.posts.external_array().tolist():
                assert post_shard[p] == i == shard_of(p, n)
            for c in sg.comments.external_array().tolist():
                assert comment_shard[c] == i
            s = sg.stats()
            total_posts += s["posts"]
            total_comments += s["comments"]
            total_likes += s["likes"]
        full = g.stats()
        assert (total_posts, total_comments, total_likes) == (
            full["posts"], full["comments"], full["likes"],
        )

    def test_per_shard_queries_cover_disjoint_exact_scores(self):
        """Each shard's batch Q1/Q2 scores equal the full graph's scores
        restricted to the shard's content -- the exactness the top-k merge
        builds on."""
        fresh, _ = datagen_stream(19)
        g = fresh()
        shards, _, _ = partition_graph(g, 3)
        full_q1 = {ext: s for ext, s, _ in _all_entries_q1(g)}
        full_q2 = {ext: s for ext, s, _ in _all_entries_q2(g)}
        seen_posts, seen_comments = set(), set()
        for sg in shards:
            for ext, score, _ in _all_entries_q1(sg):
                assert full_q1[ext] == score
                seen_posts.add(ext)
            for ext, score, _ in _all_entries_q2(sg):
                assert full_q2[ext] == score
                seen_comments.add(ext)
        assert seen_posts == set(full_q1) and seen_comments == set(full_q2)


def _all_entries_q1(g):
    q = Q1Batch(g, k=g.num_posts or 1)
    return q.evaluate_entries()


def _all_entries_q2(g):
    q = Q2Batch(g, k=g.num_comments or 1, algorithm="unionfind")
    return q.evaluate_entries()


class TestChangeStreamExport:
    def test_roundtrip_rebuilds_identical_graph(self):
        fresh, stream = datagen_stream(29, removal_fraction=0.0)
        g = fresh()
        for cs in stream[:2]:
            g.apply(cs)
        from repro.model.changes import ChangeSet

        rebuilt = SocialGraph(storage=g.backend)
        rebuilt.apply(ChangeSet(list(g.to_change_stream())))
        assert rebuilt.stats() == g.stats()
        assert rebuilt.users.external_array().tolist() == g.users.external_array().tolist()
        assert rebuilt.posts.external_array().tolist() == g.posts.external_array().tolist()
        assert rebuilt.comments.external_array().tolist() == g.comments.external_array().tolist()
        np.testing.assert_array_equal(rebuilt.post_timestamps, g.post_timestamps)
        np.testing.assert_array_equal(rebuilt.comment_timestamps, g.comment_timestamps)
        assert Q1Batch(rebuilt).evaluate() == Q1Batch(g).evaluate()
        assert (
            Q2Batch(rebuilt, algorithm="unionfind").evaluate()
            == Q2Batch(g, algorithm="unionfind").evaluate()
        )


class TestMergeFunctions:
    def test_topk_contest_ordering(self):
        # score desc, then timestamp desc, then external id asc
        a = [(11, 9, 2), (14, 1, 9)]
        b = [(12, 9, 3), (13, 9, 2)]
        top, rs = merge_topk_entries([a, b], k=3)
        assert top == [(12, 9), (11, 9), (13, 9)]
        assert rs == "12|11|13"

    def test_topk_empty_partials(self):
        assert merge_topk_entries([[], []], k=3) == ([], "")

    def test_vertex_score_then_id(self):
        top, rs = merge_vertex_partials([[(5, 2.5)], [(1, 2.5), (9, 7.0)]], k=3)
        assert top == [(9, 7.0), (1, 2.5), (5, 2.5)]
        assert rs == "9|1|5"

    def test_partition_min_label_join_sums_counts(self):
        a = [(0, 0, 101, 2), (7, 7, 108, 1)]
        b = [(0, 0, 101, 3)]
        c = [(7, 7, 108, 2)]
        top, rs = merge_partition_partials([a, b, c], k=2)
        assert top == [(101, 5), (108, 3)]
        assert rs == "101|108"

    def test_partition_size_tie_breaks_toward_smaller_min_member(self):
        a = [(4, 4, 205, 2)]
        b = [(2, 2, 203, 2)]
        top, _ = merge_partition_partials([a, b], k=2)
        assert top == [(203, 2), (205, 2)]
