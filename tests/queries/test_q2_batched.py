"""The block-diagonal Q2 kernel (``q2_batched``) against the per-comment oracle.

``batched_comment_scores`` is the served initial pass of ``Q2Incremental``
and the ``algorithm="batched"`` re-scoring path.  Its contract: an ``int64``
array aligned with the requested comments (all comments by default), with
an explicit 0 for a comment nobody likes.  The oracle is the independent
per-comment loop, ``Q2Batch(algorithm="unionfind")``.

The friend expansion runs in slices of at most ``_EXPAND_CHUNK`` gathered
entries; the properties also run with the chunk at 1 and 3, so slices cut
through one like slot's friend list, and a spy checks every slice's size.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model import SocialGraph
from repro.queries import Q2Batch, Q2Incremental, q2_batched
from repro.queries.q2 import score_comments
from repro.queries.q2_batched import batched_comment_scores

CHUNKS = [1, 3, q2_batched._EXPAND_CHUNK]


@st.composite
def liker_graphs(draw):
    """A small graph: some comments without likes, maybe no friendships,
    and a requested subset of comments (repeats allowed)."""
    n_users = draw(st.integers(1, 8))
    n_comments = draw(st.integers(1, 6))
    likes = draw(
        st.sets(st.tuples(st.integers(0, n_comments - 1), st.integers(0, n_users - 1)))
    )
    friends = draw(
        st.sets(st.tuples(st.integers(0, n_users - 1), st.integers(0, n_users - 1)))
    )
    g = SocialGraph()
    for u in range(n_users):
        g.add_user(100 + u)
    g.add_post(10, 0, 100)
    for c in range(n_comments):
        g.add_comment(20 + c, 1 + c, 100, 10)
    for c, u in sorted(likes):
        g.add_like(100 + u, 20 + c)
    for a, b in sorted(friends):
        if a != b:
            g.add_friendship(100 + a, 100 + b)
    subset = draw(st.lists(st.integers(0, n_comments - 1), max_size=n_comments + 2))
    return g, subset


def _oracle(g: SocialGraph) -> np.ndarray:
    return Q2Batch(g, algorithm="unionfind").scores().to_dense()


class _ExpansionSpy:
    """Wraps ``q2_batched.iter_row_ranges``; records every slice's size."""

    def __init__(self):
        self.sizes: list[int] = []
        self._real = q2_batched.iter_row_ranges

    def __call__(self, indptr, row_ids, chunk):
        for entry_idx, group in self._real(indptr, row_ids, chunk):
            assert entry_idx.size == group.size <= q2_batched._EXPAND_CHUNK
            self.sizes.append(int(entry_idx.size))
            yield entry_idx, group


@pytest.fixture
def spy(monkeypatch):
    s = _ExpansionSpy()
    monkeypatch.setattr(q2_batched, "iter_row_ranges", s)
    return s


@pytest.mark.parametrize("chunk", CHUNKS)
@given(case=liker_graphs())
def test_batched_equals_per_comment_oracle(chunk, case):
    g, subset = case
    expected = _oracle(g)
    with mock.patch.object(q2_batched, "_EXPAND_CHUNK", chunk):
        full = batched_comment_scores(g)
        part = batched_comment_scores(g, subset)
        q = Q2Incremental(g, algorithm="fastsv")
        q.initial()
    assert full.dtype == np.int64
    assert full.tolist() == expected.tolist()
    assert part.tolist() == expected[subset].tolist()
    assert q.scores.to_dense().tolist() == expected.tolist()
    assert q.result_string() == Q2Batch(g, algorithm="unionfind").result_string()


@pytest.mark.parametrize("chunk", [1, 3])
def test_slices_stay_within_the_chunk(chunk, spy, paper_graph):
    # Fig. 3a: u3 has two friends, so a chunk of 1 splits a slot's list
    with mock.patch.object(q2_batched, "_EXPAND_CHUNK", chunk):
        assert batched_comment_scores(paper_graph).tolist() == [4, 5, 0]
    fi = paper_graph.friends.indptr
    likers = paper_graph.likes._cols
    assert sum(spy.sizes) == int((fi[likers + 1] - fi[likers]).sum())
    assert len(spy.sizes) == -(-sum(spy.sizes) // chunk)


def test_a_subset_expands_only_its_own_likers(spy, paper_graph):
    """A request gathers the requested comments' like slots only, so its
    expansion is Σ deg(u) over their likers -- not over all of Likes."""
    g = paper_graph
    c1 = g.comments.index(21)
    fi = g.friends.indptr
    likers = g.likers_of(c1)
    assert batched_comment_scores(g, [c1]).tolist() == [4]
    assert sum(spy.sizes) == int((fi[likers + 1] - fi[likers]).sum())
    assert sum(spy.sizes) < int(np.diff(fi)[g.likes._cols].sum())


def test_explicit_zeros_and_request_order(paper_graph):
    g = paper_graph
    c1, c2, c3 = (g.comments.index(c) for c in (21, 22, 23))
    assert batched_comment_scores(g, [c3, c1, c3, c2]).tolist() == [0, 4, 0, 5]
    assert batched_comment_scores(g, []).tolist() == []
    assert score_comments(g, [c3, c1], algorithm="batched") == {c3: 0, c1: 4}
    assert score_comments(g, [c3, c1], algorithm="batched") == score_comments(
        g, [c3, c1], algorithm="unionfind"
    )


def test_no_likes_and_no_friendships():
    g = SocialGraph()
    g.add_user(1)
    g.add_user(2)
    g.add_post(10, 0, 1)
    g.add_comment(20, 1, 1, 10)
    g.add_comment(21, 2, 1, 10)
    assert batched_comment_scores(g).tolist() == [0, 0]
    g.add_like(1, 20)
    g.add_like(2, 20)
    # two likers, no friendship: two singleton components
    assert batched_comment_scores(g).tolist() == [2, 0]
