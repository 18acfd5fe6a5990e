"""Property: the two SocialGraph storage strategies are indistinguishable.

A Matrix-backed (legacy log-flush) and a DynamicMatrix-backed (rebuild-free)
graph driven through the same change stream -- inserts, removals, duplicate
and cancelling ops -- must expose identical canonical COO for all four
relations and identical Q1/Q2 top-k at every step.  This is the oracle that
lets the serving path default to the dynamic storage.
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
from repro.queries import Q1Batch, Q2Batch

RELATIONS = ("root_post", "likes", "friends", "commented")


def assert_graphs_equal(a: SocialGraph, b: SocialGraph) -> None:
    for name in RELATIONS:
        ma, mb = getattr(a, name), getattr(b, name)
        assert ma.shape == mb.shape, name
        for x, y in zip(ma.to_coo(), mb.to_coo()):
            assert np.array_equal(x, y), name
    # the dynamic strategy's likes-transpose index must mirror likes exactly
    for g in (a, b):
        likes_t = getattr(g, "_likes_t", None)
        if likes_t is not None:
            lt = likes_t.view()
            assert lt.isequal(g.likes.T)
    assert Q1Batch(a).result_string() == Q1Batch(b).result_string()
    assert (
        Q2Batch(a, algorithm="unionfind").result_string()
        == Q2Batch(b, algorithm="unionfind").result_string()
    )


def _run_datagen_equivalence(storage, seed, removal_fraction):
    dyn = generate_graph(1, seed=seed, storage=storage)
    mat = generate_graph(1, seed=seed, storage="matrix")
    stream = generate_change_sets(
        dyn,
        total_inserts=200,
        num_change_sets=8,
        seed=seed + 1,
        removal_fraction=removal_fraction,
    )
    assert_graphs_equal(dyn, mat)
    for cs in stream:
        d1 = dyn.apply(cs)
        d2 = mat.apply(cs)
        # the deltas the incremental engines consume must agree too
        for field in ("new_likes", "new_friendships", "removed_likes",
                      "removed_friendships", "new_root_post_edges"):
            p1, p2 = getattr(d1, field), getattr(d2, field)
            assert sorted(zip(*map(np.ndarray.tolist, p1))) == sorted(
                zip(*map(np.ndarray.tolist, p2))
            ), field
        assert_graphs_equal(dyn, mat)


@pytest.mark.parametrize("seed", [3, 11, 23])
@pytest.mark.parametrize("removal_fraction", [0.0, 0.35])
def test_datagen_streams_agree(seed, removal_fraction):
    _run_datagen_equivalence("dynamic", seed, removal_fraction)


@pytest.mark.parametrize("backend", ["mmap", "sqlite"])
def test_file_backed_arenas_agree_with_matrix_oracle(backend):
    """The out-of-core backends run the same equivalence gauntlet the
    heap arena does -- one grid point each; the wider sweep lives in
    tests/storage/test_backend_conformance.py."""
    _run_datagen_equivalence(backend, seed=3, removal_fraction=0.35)


# -- hypothesis: adversarial tiny streams (duplicates, cancelling ops) -----

_edge_ops = st.lists(
    st.tuples(
        st.sampled_from(["like", "unlike", "friend", "unfriend"]),
        st.integers(0, 3),   # user slot
        st.integers(0, 2),   # comment slot / second user slot
    ),
    max_size=40,
)


def _seed(storage: str) -> SocialGraph:
    g = SocialGraph(storage=storage)
    cs = ChangeSet(
        [AddUser(100 + i) for i in range(4)]
        + [AddPost(10, 1, 100)]
        + [AddComment(20 + i, 2 + i, 100 + i % 4, 10) for i in range(3)]
    )
    g.apply(cs)
    return g


def _seed_pair() -> tuple[SocialGraph, SocialGraph]:
    return _seed("dynamic"), _seed("matrix")


def _to_changes(ops_seq) -> list:
    changes = []
    for kind, u, x in ops_seq:
        if kind == "like":
            changes.append(AddLike(100 + u, 20 + x))
        elif kind == "unlike":
            changes.append(RemoveLike(100 + u, 20 + x))
        elif kind == "friend" and u % 4 != x:
            changes.append(AddFriendship(100 + u, 100 + x))
        elif kind == "unfriend" and u % 4 != x:
            changes.append(RemoveFriendship(100 + u, 100 + x))
    return changes


@given(ops_seq=_edge_ops)
@settings(max_examples=50, deadline=None)
def test_random_edge_ops_agree(ops_seq):
    dyn, mat = _seed_pair()
    changes = _to_changes(ops_seq)
    # split into a few change sets so flush boundaries are exercised
    third = max(1, len(changes) // 3)
    for lo in range(0, len(changes), third):
        cs = ChangeSet(changes[lo : lo + third])
        dyn.apply(cs)
        mat.apply(cs)
        assert_graphs_equal(dyn, mat)


@given(load=_edge_ops, follow=_edge_ops)
@settings(max_examples=40, deadline=None)
def test_bulk_first_flush_agrees_with_per_row_flushes(load, follow):
    """Edges that reach the arenas in one first flush -- the one-pass
    layout a CSV/snapshot load takes -- equal the same edges flushed one
    change at a time through the per-row path, and keep agreeing under a
    follow-up stream."""
    bulk, per_row, mat = _seed("dynamic"), _seed("dynamic"), _seed("matrix")
    changes = _to_changes(load)
    bulk.apply(ChangeSet(changes))
    for ch in changes:
        per_row.apply(ChangeSet([ch]))
        mat.apply(ChangeSet([ch]))
    assert_graphs_equal(bulk, per_row)
    for ch in _to_changes(follow):
        for g in (bulk, per_row, mat):
            g.apply(ChangeSet([ch]))
    assert_graphs_equal(bulk, per_row)
    assert_graphs_equal(bulk, mat)


def test_unknown_storage_rejected():
    from repro.util.validation import ReproError

    with pytest.raises(ReproError, match="unknown storage"):
        SocialGraph(storage="hologram")
