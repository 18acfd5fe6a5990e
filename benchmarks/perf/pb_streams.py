"""Change-stream generator for the perf harness.

``repro.datagen.generate_change_sets`` draws one Zipf sample per pick over
the whole pool (an O(pool) ``rng.choice(p=...)``) and sorts the key set per
removal, which costs seconds for the stream lengths this harness needs.
Here every random draw and every pool-index computation is one numpy
expression over the whole stream; only the state-coupled part -- dropping
duplicate edges and choosing which live edge a removal hits -- runs as a
plain Python loop over pre-drawn numbers.

Same kind mix as ``repro.datagen.updates.DEFAULT_MIX`` and the same
heavy-tailed (Zipf-Mandelbrot, early = popular) targets.  Every prefix of
the returned list is valid against the graph it was generated for: a change
only references entities that exist at its position, edge inserts are never
duplicates and removals always hit a live edge, so ``SubmitGate`` rejects
nothing and every change has an effect.
"""

from __future__ import annotations

import numpy as np

from repro.datagen.updates import DEFAULT_MIX
from repro.model.changes import (
    AddComment,
    AddFriendship,
    AddLike,
    AddPost,
    AddUser,
    RemoveFriendship,
    RemoveLike,
)

USER, POST, COMMENT, LIKE, FRIEND, UNLIKE, UNFRIEND = range(7)

#: Zipf exponents, as in repro.datagen.updates
_USER_EXP, _PARENT_EXP, _LIKED_EXP = 0.7, 0.8, 0.85
#: extra draws kept per change for re-picking a duplicate edge
_RETRIES = 3


def zipf_pick(u, n, exponent: float, shift: float = 2.0):
    """Inverse-CDF pick in ``[0, n)`` under weights ``(rank + shift)^-exponent``.

    ``u`` (uniform draws) and ``n`` (pool size at each position) broadcast;
    the continuous inverse of the Zipf-Mandelbrot CDF replaces
    ``rng.choice(n, p=weights)`` so a growing pool costs nothing.
    """
    a = 1.0 - exponent
    lo = shift**a
    hi = (n + shift) ** a
    rank = (u * (hi - lo) + lo) ** (1.0 / a) - shift
    return np.minimum(rank.astype(np.int64), n - 1)


def _kind_probs(removal_share: float) -> np.ndarray:
    """DEFAULT_MIX with ``removal_share`` of all changes turned into edge
    removals, taken out of the like/friendship budget in proportion."""
    like, friend = DEFAULT_MIX["like"], DEFAULT_MIX["friendship"]
    if not 0.0 <= removal_share <= like + friend:
        raise ValueError(f"removal_share must be in [0, {like + friend}]")
    unlike = removal_share * like / (like + friend)
    unfriend = removal_share - unlike
    probs = np.array([
        DEFAULT_MIX["user"], DEFAULT_MIX["post"], DEFAULT_MIX["comment"],
        like - unlike, friend - unfriend, unlike, unfriend,
    ])
    return probs / probs.sum()


def _live_edges(graph):
    """(likes as (user_id, comment_id), friendships as (lo_id, hi_id))."""
    users = graph.users.external_array()
    comments = graph.comments.external_array()
    c_idx, u_idx, _ = graph.likes.to_coo()
    likes = list(zip(users[u_idx].tolist(), comments[c_idx].tolist()))
    a_idx, b_idx, _ = graph.friends.to_coo()
    keep = a_idx < b_idx  # the relation is stored symmetrically
    friends = list(zip(users[a_idx[keep]].tolist(), users[b_idx[keep]].tolist()))
    return likes, friends


def make_stream(graph, n_changes: int, seed: int, removal_share: float = 0.0) -> list:
    """``n_changes`` (minus a few dropped duplicates) changes for ``graph``.

    The graph is read, not modified.  Deterministic in ``seed``.
    """
    rng = np.random.default_rng(seed)
    kinds = rng.choice(7, size=n_changes, p=_kind_probs(removal_share))
    u_a = rng.random((1 + _RETRIES, n_changes))
    u_b = rng.random((1 + _RETRIES, n_changes))
    u_rm = rng.random(n_changes)

    users0 = graph.users.external_array()
    posts0 = graph.posts.external_array()
    comments0 = graph.comments.external_array()

    def pool(is_new, existing):
        """(ids in creation order, pool size before each position)."""
        first_new = int(existing.max()) + 1 if existing.size else 1
        count = np.cumsum(is_new)
        ids = np.concatenate([existing, first_new + np.arange(int(count[-1]))])
        return ids, existing.size + count - is_new

    is_user, is_post, is_comment = kinds == USER, kinds == POST, kinds == COMMENT
    user_ids, n_users = pool(is_user, users0)
    post_ids, _ = pool(is_post, posts0)
    comment_ids, n_comments = pool(is_comment, comments0)
    new_id = np.zeros(n_changes, dtype=np.int64)
    new_id[is_user] = user_ids[users0.size:]
    new_id[is_post] = post_ids[posts0.size:]
    new_id[is_comment] = comment_ids[comments0.size:]
    is_sub = is_post | is_comment
    sub_ids = np.concatenate([posts0, comments0, new_id[is_sub]])
    n_subs = posts0.size + comments0.size + np.cumsum(is_sub) - is_sub

    ts0 = 1
    if graph.num_comments:
        ts0 = max(ts0, int(graph.comment_timestamps.max()) + 1)
    if graph.num_posts:
        ts0 = max(ts0, int(graph.post_timestamps.max()) + 1)
    stamp = (ts0 + np.cumsum(is_sub) - is_sub).tolist()

    # picks for every position and retry round at once; a position only
    # reads the columns its kind needs
    user_a = user_ids[zipf_pick(u_a, n_users, _USER_EXP)]
    user_b = user_ids[zipf_pick(u_b, n_users, _USER_EXP)]
    parent = sub_ids[zipf_pick(u_b[0], n_subs, _PARENT_EXP)].tolist()
    liked = comment_ids[zipf_pick(u_b, np.maximum(n_comments, 1), _LIKED_EXP)]
    user_a, user_b, liked = user_a.T.tolist(), user_b.T.tolist(), liked.T.tolist()
    new_id, u_rm = new_id.tolist(), u_rm.tolist()

    like_pool, friend_pool = _live_edges(graph)
    like_set, friend_set = set(like_pool), set(friend_pool)

    def take(pool_list, live, u):
        """Swap-remove a uniformly chosen live edge."""
        j = int(u * len(pool_list))
        edge = pool_list[j]
        pool_list[j] = pool_list[-1]
        pool_list.pop()
        live.discard(edge)
        return edge

    out: list = []
    for i, kind in enumerate(kinds.tolist()):
        if kind == USER:
            out.append(AddUser(new_id[i], f"user{new_id[i]}"))
        elif kind == POST:
            out.append(AddPost(new_id[i], stamp[i], user_a[i][0]))
        elif kind == COMMENT:
            out.append(AddComment(new_id[i], stamp[i], user_a[i][0], parent[i]))
        elif kind == LIKE:
            for edge in zip(user_a[i], liked[i]):
                if edge not in like_set:
                    like_set.add(edge)
                    like_pool.append(edge)
                    out.append(AddLike(*edge))
                    break
        elif kind == FRIEND:
            for a, b in zip(user_a[i], user_b[i]):
                edge = (a, b) if a < b else (b, a)
                if a != b and edge not in friend_set:
                    friend_set.add(edge)
                    friend_pool.append(edge)
                    out.append(AddFriendship(*edge))
                    break
        elif kind == UNLIKE:
            if like_pool:
                out.append(RemoveLike(*take(like_pool, like_set, u_rm[i])))
        elif friend_pool:
            out.append(RemoveFriendship(*take(friend_pool, friend_set, u_rm[i])))
    return out
