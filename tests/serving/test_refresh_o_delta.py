"""The served engines' refresh does work proportional to the change set.

Counts, not timings: across like-only, comment-only and removal batches
that leave the served top-3 alone, no engine refresh re-freezes
``root_post`` or calls a whole-vector kernel (``Matrix.mxv``,
``Vector.ewise_add``, ``np.lexsort``), and a removal that lowers no served
score never reselects the top-k.

Q2 re-scores with ``unionfind`` here: FastSV runs its own ``mxv`` on each
affected comment's induced liker subgraph -- work in Σ deg(u), which
DESIGN.md ("engine refresh state") lists as not O(Δ) -- and that would hide
a whole-vector call in the tail all four ``algorithm=`` values share.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.datagen import generate_graph
from repro.graphblas import dynamic
from repro.graphblas.dynamic import DynamicMatrix
from repro.graphblas.matrix import Matrix
from repro.graphblas.vector import Vector
from repro.model.changes import (
    AddComment,
    AddLike,
    ChangeSet,
    RemoveFriendship,
    RemoveLike,
)
from repro.queries import Q1Batch, Q2Batch, topk
from repro.queries.engine import QueryEngine
from repro.serving import GraphService


@pytest.fixture
def counted(monkeypatch):
    """A service plus a Counter of the guarded calls made inside refresh."""
    calls: Counter = Counter()
    depth = {"refresh": 0}
    freezing: list = []  # the DynamicMatrix whose freeze() is running

    def count_in_refresh(owner, attr, key):
        real = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if depth["refresh"]:
                calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    count_in_refresh(Matrix, "mxv", "mxv")
    count_in_refresh(Vector, "ewise_add", "ewise_add")
    count_in_refresh(np, "lexsort", "lexsort")
    count_in_refresh(topk, "top_k_entries", "top_k_entries")

    real_refresh = QueryEngine.refresh

    def refresh(self, delta):
        depth["refresh"] += 1
        try:
            return real_refresh(self, delta)
        finally:
            depth["refresh"] -= 1

    monkeypatch.setattr(QueryEngine, "refresh", refresh)

    real_freeze = DynamicMatrix.freeze

    def freeze(self):
        freezing.append(self)
        try:
            return real_freeze(self)
        finally:
            freezing.pop()

    monkeypatch.setattr(DynamicMatrix, "freeze", freeze)
    real_merge = dynamic.merge_dirty_rows

    def merge_dirty_rows(*args, **kwargs):
        calls["merge_dirty_rows", id(freezing[-1])] += 1
        return real_merge(*args, **kwargs)

    monkeypatch.setattr(dynamic, "merge_dirty_rows", merge_dirty_rows)

    svc = GraphService(
        generate_graph(1, seed=3),
        tools=("graphblas-incremental",),
        q2_algorithm="unionfind",
        concurrent_refresh=False,
        max_delay_ms=1e9,
    )
    yield svc, calls
    svc.close()


def _apply(svc: GraphService, changes) -> None:
    svc.submit(ChangeSet(list(changes)))
    svc.flush()


def _served_ids(svc: GraphService) -> tuple[set, set]:
    """External ids of the served Q1 posts and Q2 comments."""
    return (
        {ext for ext, _ in svc.query("Q1").top},
        {ext for ext, _ in svc.query("Q2").top},
    )


def _off_podium_likes(svc: GraphService):
    """Existing (user, comment) likes, external ids, whose comment is not
    served by Q2 and whose root post is not served by Q1."""
    g = svc.graph
    top_posts, top_comments = _served_ids(svc)
    root = g.posts.external_array()[g.comment_root_posts()]
    comment_ext = g.comments.external_array()
    user_ext = g.users.external_array()
    for c, u in sorted(g._like_keys):
        if int(comment_ext[c]) not in top_comments and int(root[c]) not in top_posts:
            yield int(user_ext[u]), int(comment_ext[c])


def _strangers(svc: GraphService):
    """Befriended (a, b), external ids, with no commonly liked comment."""
    g = svc.graph
    user_ext = g.users.external_array()
    for a, b in sorted(g._friend_keys):
        if g.comments_liked_by_both(a, b).size == 0:
            yield int(user_ext[a]), int(user_ext[b])


def _assert_matches_batch(svc: GraphService) -> None:
    g = svc.graph
    assert svc.query("Q1").result_string == Q1Batch(g).result_string()
    assert (
        svc.query("Q2").result_string
        == Q2Batch(g, algorithm="unionfind").result_string()
    )


def test_refresh_runs_no_whole_vector_kernel(counted):
    svc, calls = counted
    g = svc.graph
    users = g.users.external_array().tolist()
    root_post_arena = g._rel["root_post"]._dm

    # 50 like-only batches: a user who does not yet like the comment
    liked = {(u, c) for u, c in _off_podium_likes(svc)}
    targets = sorted({c for _, c in liked})
    for i in range(50):
        comment = targets[i % len(targets)]
        user = next(u for u in users if (u, comment) not in liked)
        liked.add((user, comment))
        _apply(svc, [AddLike(user, comment)])

    # 50 comment-only batches, replying all over the graph
    posts = g.posts.external_array().tolist()
    for i in range(50):
        _apply(svc, [AddComment(9_000_000 + i, 10**9 + i, users[i], posts[i % len(posts)])])

    # 50 removal batches that leave the served top-3 alone
    for i in range(50):
        if i % 2:
            _apply(svc, [RemoveFriendship(*next(_strangers(svc)))])
        else:
            _apply(svc, [RemoveLike(*next(_off_podium_likes(svc)))])

    assert svc.version == 150
    # before the batch oracle below freezes root_post for itself
    assert calls["merge_dirty_rows", id(root_post_arena)] == 0
    assert {k: calls[k] for k in ("mxv", "ewise_add", "lexsort", "top_k_entries")} == {
        "mxv": 0, "ewise_add": 0, "lexsort": 0, "top_k_entries": 0,
    }
    _assert_matches_batch(svc)


def test_unfriend_that_moves_no_score_does_not_reselect(counted):
    svc, calls = counted
    users = svc.graph.users.external_array().tolist()
    posts = svc.graph.posts.external_array().tolist()
    # (a) a mixed batch whose only removal is a RemoveFriendship
    _apply(
        svc,
        [
            AddComment(9_100_000, 10**9, users[0], posts[-1]),
            AddLike(users[1], 9_100_000),
            RemoveFriendship(*next(_strangers(svc))),
        ],
    )
    # (b) an unfriend of two users with no commonly liked comment, alone
    _apply(svc, [RemoveFriendship(*next(_strangers(svc)))])
    assert calls["top_k_entries"] == calls["lexsort"] == 0
    _assert_matches_batch(svc)


def test_a_served_score_that_falls_does_reselect(counted):
    """The other side of the rule: the guard above is not vacuous."""
    svc, calls = counted
    g = svc.graph
    top_comment = svc.query("Q2").top[0][0]
    c = g.comments.index(top_comment)
    liker = int(g.users.external_array()[g.likers_of(c)[0]])
    _apply(svc, [RemoveLike(liker, top_comment)])
    assert calls["top_k_entries"] >= 1  # Q2's leader lost a liker
    _assert_matches_batch(svc)
