"""Property: delta-targeted affected-comment detection == incidence SpGEMM.

Q2's step 1-5 detection was reformulated from ``Likes ⊕.⊗ NewFriends`` +
``select(==2)`` (O(nnz(Likes)) per batch) to per-pair like-set intersection
off the maintained likes-transpose index (O(deg(a)+deg(b)) per pair).  The
two must produce the identical ``ac`` set on arbitrary change streams,
removals included -- this is the acceptance property of the rebuild-free
update path PR.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import generate_change_sets, generate_graph
from repro.model import (
    AddComment,
    AddFriendship,
    AddLike,
    AddPost,
    AddUser,
    ChangeSet,
    RemoveFriendship,
    RemoveLike,
    SocialGraph,
)
from repro.queries.q2 import (
    affected_comments_delta,
    affected_comments_incidence,
)

from tests.conftest import build_paper_graph, paper_update


def test_paper_example():
    g = build_paper_graph()
    delta = g.apply(paper_update())
    got = affected_comments_delta(g, delta)
    want = affected_comments_incidence(g, delta)
    assert got.tolist() == want.tolist()
    # Fig. 3b: new comment c4 (idx 3), liked comments c2 (idx 1), c4, and
    # the u1-u4 friendship joins likers of c2
    assert got.tolist() == [1, 3]


@pytest.mark.parametrize("seed", [2, 9, 31])
@pytest.mark.parametrize("removal_fraction", [0.0, 0.4])
def test_datagen_streams(seed, removal_fraction):
    g = generate_graph(1, seed=seed)
    stream = generate_change_sets(
        g,
        total_inserts=220,
        num_change_sets=10,
        seed=seed + 7,
        removal_fraction=removal_fraction,
    )
    saw_friendships = 0
    for cs in stream:
        delta = g.apply(cs)
        saw_friendships += delta.new_friendships[0].size
        saw_friendships += delta.removed_friendships[0].size
        got = affected_comments_delta(g, delta)
        want = affected_comments_incidence(g, delta)
        assert got.tolist() == want.tolist()
    assert saw_friendships > 0  # the property actually exercised step 1-5


_edge_ops = st.lists(
    st.tuples(
        st.sampled_from(["like", "unlike", "friend", "unfriend"]),
        st.integers(0, 4),
        st.integers(0, 3),
    ),
    max_size=30,
)


@given(ops_seq=_edge_ops)
@settings(max_examples=50, deadline=None)
def test_random_streams(ops_seq):
    g = SocialGraph()
    g.apply(
        ChangeSet(
            [AddUser(100 + i) for i in range(5)]
            + [AddPost(10, 1, 100)]
            + [AddComment(20 + i, 2 + i, 100 + i % 5, 10) for i in range(4)]
        )
    )
    changes = []
    for kind, u, x in ops_seq:
        if kind == "like":
            changes.append(AddLike(100 + u, 20 + x))
        elif kind == "unlike":
            changes.append(RemoveLike(100 + u, 20 + x))
        elif kind == "friend" and u != x:
            changes.append(AddFriendship(100 + u, 100 + x))
        elif kind == "unfriend" and u != x:
            changes.append(RemoveFriendship(100 + u, 100 + x))
    half = max(1, len(changes) // 2)
    for lo in range(0, len(changes), half):
        delta = g.apply(ChangeSet(changes[lo : lo + half]))
        got = affected_comments_delta(g, delta)
        want = affected_comments_incidence(g, delta)
        assert got.tolist() == want.tolist()
        assert got.dtype == np.int64
