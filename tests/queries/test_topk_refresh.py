"""The removal-proof top-k rule and the engines' dense score arrays.

Three properties, each against a reference kept here:

* :meth:`TopKTracker.refresh` after every step of a signed score stream
  equals a full lexsort over every entity (the pre-partition
  ``top_k_entries``, kept below as the oracle);
* the partition path of ``top_k_entries`` equals that lexsort on all-zero,
  all-equal and heavy-tie inputs;
* the engines' score arrays stay equal to the batch scores while their
  capacity doubles at least twice under mixed insert/remove change sets.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.changes import (
    AddComment,
    AddFriendship,
    AddLike,
    AddPost,
    AddUser,
    ChangeSet,
    RemoveFriendship,
    RemoveLike,
)
from repro.model.graph import SocialGraph
from repro.queries.q1 import Q1Batch, Q1Incremental
from repro.queries.q2 import Q2Batch, Q2Incremental
from repro.queries.topk import TopKTracker, grow_scores, top_k_entries


def lexsort_top_k_entries(scores, timestamps, external_ids, k):
    """The oracle: order every entity, keep the first k."""
    scores, ts, ext = map(np.asarray, (scores, timestamps, external_ids))
    order = np.lexsort((ext, -ts, -scores))[:k]
    return [(int(ext[i]), int(scores[i]), int(ts[i])) for i in order.tolist()]


KS = st.sampled_from([1, 3, 5])

#: one step: how many entities appear, then (entity pick, signed delta) pairs;
#: the narrow delta range keeps scores colliding
STEP = st.tuples(
    st.integers(0, 2),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(-3, 3)), max_size=4),
)


@given(KS, st.integers(0, 3), st.lists(STEP, min_size=1, max_size=40), st.randoms())
@settings(max_examples=200, deadline=None)
def test_refresh_equals_full_lexsort_on_signed_streams(k, n0, steps, rnd):
    cap = n0 + 2 * len(steps)
    # ids in an order unrelated to the index, timestamps from three values:
    # ties on score and timestamp are the rule, the id decides them
    ext = np.asarray(rnd.sample(range(100, 100 + cap), cap), dtype=np.int64)
    ts = np.asarray([rnd.randrange(3) for _ in range(cap)], dtype=np.int64)
    n = n0  # may start below k, or empty
    scores = np.zeros(n, dtype=np.int64)
    tracker = TopKTracker(k)
    tracker.reseed(top_k_entries(scores, ts[:n], ext[:n], k))
    for n_new, bumps in steps:
        changed = list(range(n, n + n_new))
        n += n_new
        scores = grow_scores(scores, n)
        for pick, by in bumps if n else ():
            scores[pick % n] += by
            changed.append(pick % n)
        top = tracker.refresh(
            scores[:n], ts[:n], ext[:n], np.asarray(changed, dtype=np.int64)
        )
        want = lexsort_top_k_entries(scores[:n], ts[:n], ext[:n], k)
        assert top == [(e, s) for e, s, _ in want]
        assert tracker.top_entries() == want


@given(
    KS,
    st.integers(0, 40),
    st.sampled_from([(0, 0), (7, 7), (0, 2), (-1, 1)]),
    st.integers(1, 3),
    st.randoms(),
)
@settings(max_examples=200, deadline=None)
def test_partition_path_equals_full_lexsort_under_ties(k, n, score_range, n_ts, rnd):
    lo, hi = score_range  # (0, 0): all zero; (7, 7): all equal; else heavy ties
    scores = np.asarray([rnd.randint(lo, hi) for _ in range(n)], dtype=np.int64)
    ts = np.asarray([rnd.randrange(n_ts) for _ in range(n)], dtype=np.int64)
    ext = np.asarray(rnd.sample(range(n), n), dtype=np.int64)
    assert top_k_entries(scores, ts, ext, k) == lexsort_top_k_entries(scores, ts, ext, k)


def _growing_stream(seed: int, n_sets: int):
    """A one-post, one-comment graph and change sets that each add a post
    and a comment (so both score arrays outgrow their capacity again and
    again) between random likes, friendships and removals of either."""
    rng = np.random.default_rng(seed)
    g = SocialGraph()
    users = [100, 101, 102]
    for u in users:
        g.add_user(u)
    g.add_post(200, 0, 100)
    g.add_comment(300, 1, 101, 200)
    posts, comments = [200], [300]
    likes: set = set()
    friends: set = set()

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    change_sets = []
    for i in range(n_sets):
        ts = 2 + i // 2  # consecutive entities share timestamps
        cs = ChangeSet([AddPost(201 + i, ts, pick(users))])
        posts.append(201 + i)
        cs.append(AddComment(301 + i, ts, pick(users), pick(posts + comments)))
        comments.append(301 + i)
        for _ in range(int(rng.integers(0, 6))):
            kind = int(rng.integers(5))
            if kind == 0:
                users.append(103 + len(users))
                cs.append(AddUser(users[-1]))
            elif kind == 1:
                key = (pick(users), pick(comments))
                if key not in likes:
                    likes.add(key)
                    cs.append(AddLike(*key))
            elif kind == 2:
                a, b = sorted((pick(users), pick(users)))
                if a != b and (a, b) not in friends:
                    friends.add((a, b))
                    cs.append(AddFriendship(a, b))
            elif kind == 3 and likes:
                key = pick(sorted(likes))
                likes.discard(key)
                cs.append(RemoveLike(*key))
            elif kind == 4 and friends:
                key = pick(sorted(friends))
                friends.discard(key)
                cs.append(RemoveFriendship(*key))
        change_sets.append(cs)
    return g, change_sets


@given(st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_engine_arrays_equal_batch_across_capacity_doublings(seed):
    g, change_sets = _growing_stream(seed, n_sets=9)
    q1 = Q1Incremental(g)
    q2 = Q2Incremental(g, algorithm="unionfind")
    assert q1.initial() == Q1Batch(g).evaluate()
    assert q2.initial() == Q2Batch(g, algorithm="unionfind").evaluate()
    capacities = {(q1._scores.size, q2._scores.size)}
    for cs in change_sets:
        delta = g.apply(cs)
        assert q1.update(delta) == Q1Batch(g).evaluate()
        assert q2.update(delta) == Q2Batch(g, algorithm="unionfind").evaluate()
        np.testing.assert_array_equal(
            q1._scores[: g.num_posts], Q1Batch(g).scores().to_dense()
        )
        np.testing.assert_array_equal(
            q2._scores[: g.num_comments],
            Q2Batch(g, algorithm="unionfind").scores().to_dense(),
        )
        # what lies beyond the last entity is zero: the next one starts there
        assert not q1._scores[g.num_posts :].any()
        assert not q2._scores[g.num_comments :].any()
        capacities.add((q1._scores.size, q2._scores.size))
    # 1 -> 2 -> 4 -> 8 -> 16 entities of each kind
    assert len(capacities) >= 4
    np.testing.assert_array_equal(q1.scores.to_dense(), Q1Batch(g).scores().to_dense())
