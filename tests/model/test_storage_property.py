"""Property: every arena backend stores exactly what a plain-set model says.

A SocialGraph on each backend (``heap``, ``mmap``, ``sqlite``) driven
through a change stream -- inserts, removals, duplicate and cancelling
ops -- must expose the canonical COO of the edge model's oracle matrices
(``tests/model/edge_model.py``) for all four relations and the
likes-transpose index, and each applied change set must report the
model's edge delta.  Graphs fed the same edges through different flush
paths (one bulk first flush vs per-row flushes) also serve identical
Q1/Q2 top-k.
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
from tests.model.edge_model import RELATIONS, EdgeModel

BACKENDS = ("heap", "mmap", "sqlite")


def assert_matches_model(g: SocialGraph, model: EdgeModel) -> None:
    for name in RELATIONS + ("likes_t",):
        got = g._likes_t.view() if name == "likes_t" else getattr(g, name)
        want = model.matrix(name)
        assert got.shape == want.shape, name
        for x, y in zip(got.to_coo(), want.to_coo()):
            assert np.array_equal(x, y), name


def assert_delta_matches(delta, expected: dict) -> None:
    for field, pairs in expected.items():
        got = set(zip(*map(np.ndarray.tolist, getattr(delta, field))))
        assert got == pairs, field


def assert_queries_equal(a: SocialGraph, b: SocialGraph) -> None:
    assert Q1Batch(a).result_string() == Q1Batch(b).result_string()
    assert (
        Q2Batch(a, algorithm="unionfind").result_string()
        == Q2Batch(b, algorithm="unionfind").result_string()
    )


def _run_datagen_against_model(storage, seed, removal_fraction):
    g = generate_graph(1, seed=seed, storage=storage)
    model = EdgeModel()
    model.apply(g.to_change_stream())
    stream = generate_change_sets(
        g,
        total_inserts=200,
        num_change_sets=8,
        seed=seed + 1,
        removal_fraction=removal_fraction,
    )
    assert_matches_model(g, model)
    for cs in stream:
        assert_delta_matches(g.apply(cs), model.apply(cs))
        assert_matches_model(g, model)
    return g, stream


@pytest.mark.parametrize("seed", [3, 11, 23])
@pytest.mark.parametrize("removal_fraction", [0.0, 0.35])
def test_datagen_streams_agree(seed, removal_fraction):
    _run_datagen_against_model("heap", seed, removal_fraction)


@pytest.mark.parametrize("backend", ["mmap", "sqlite"])
def test_file_backed_arenas_agree_with_matrix_oracle(backend):
    """The out-of-core backends run the same gauntlet against the model's
    oracle matrices as the heap arena -- one grid point each; the wider
    sweep lives in tests/storage/test_backend_conformance.py -- and serve
    the heap graph's Q1/Q2."""
    g, stream = _run_datagen_against_model(backend, seed=3, removal_fraction=0.35)
    heap = generate_graph(1, seed=3, storage="heap")
    for cs in stream:
        heap.apply(cs)
    assert_queries_equal(g, heap)


# -- hypothesis: adversarial tiny streams (duplicates, cancelling ops) -----

_edge_ops = st.lists(
    st.tuples(
        st.sampled_from(["like", "unlike", "friend", "unfriend"]),
        st.integers(0, 3),   # user slot
        st.integers(0, 2),   # comment slot / second user slot
    ),
    max_size=40,
)


_SEED = ChangeSet(
    [AddUser(100 + i) for i in range(4)]
    + [AddPost(10, 1, 100)]
    + [AddComment(20 + i, 2 + i, 100 + i % 4, 10) for i in range(3)]
)


def _seed(storage: str) -> SocialGraph:
    g = SocialGraph(storage=storage)
    g.apply(_SEED)
    return g


def _seed_model() -> EdgeModel:
    model = EdgeModel()
    model.apply(_SEED)
    return model


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


@given(ops_seq=_edge_ops, backend=st.sampled_from(BACKENDS))
@settings(max_examples=50, deadline=None)
def test_random_edge_ops_agree(ops_seq, backend):
    g, model = _seed(backend), _seed_model()
    changes = _to_changes(ops_seq)
    # split into a few change sets so flush boundaries are exercised
    third = max(1, len(changes) // 3)
    for lo in range(0, len(changes), third):
        cs = ChangeSet(changes[lo : lo + third])
        assert_delta_matches(g.apply(cs), model.apply(cs))
        assert_matches_model(g, model)
    g.close()


@given(load=_edge_ops, follow=_edge_ops, backend=st.sampled_from(BACKENDS))
@settings(max_examples=40, deadline=None)
def test_bulk_first_flush_agrees_with_per_row_flushes(load, follow, backend):
    """Edges that reach the arenas in one first flush -- the one-pass
    layout a CSV/snapshot load takes -- and the same edges flushed one
    change at a time through the per-row path both match the model, and
    keep matching it (and each other's Q1/Q2) under a follow-up stream."""
    bulk, per_row, model = _seed(backend), _seed(backend), _seed_model()
    changes = _to_changes(load)
    bulk.apply(ChangeSet(changes))
    for ch in changes:
        per_row.apply(ChangeSet([ch]))
    model.apply(changes)
    for g in (bulk, per_row):
        assert_matches_model(g, model)
    for ch in _to_changes(follow):
        for g in (bulk, per_row):
            g.apply(ChangeSet([ch]))
        model.apply([ch])
    for g in (bulk, per_row):
        assert_matches_model(g, model)
    assert_queries_equal(bulk, per_row)
    bulk.close()
    per_row.close()


def test_unknown_storage_rejected():
    from repro.util.validation import ReproError

    with pytest.raises(ReproError, match="unknown storage"):
        SocialGraph(storage="hologram")
