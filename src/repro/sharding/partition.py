"""User/content partitioning for the sharded serving layer.

The router (:class:`repro.sharding.ShardedGraphService`) splits the model
across K shards along two axes:

* **Users are hash-partitioned**: :func:`shard_of` maps an external user id
  to its *owner* shard.  Ownership governs which shard's analytics partial
  reports a user (so per-shard partials are disjoint and their merge is
  exact -- see :mod:`repro.sharding.merge`), not which shards know about
  the user: ``AddUser`` / ``Add-``/``RemoveFriendship`` changes are
  replicated to every shard, because Q2 scores a comment by friendships
  among its likers and a liker can live anywhere.  The friends graph is by
  far the smallest relation of the workload (Table II: likes outnumber
  friendships ~10:1 at every scale factor), which is what makes
  replication the right trade -- the same call LDBC-style systems make for
  small dimension tables.

* **Content is hash-partitioned by root post**: a post lives on
  ``shard_of(post_id)``, and its entire comment tree plus every like on
  those comments follow it.  Both queries score content whose inputs
  (comment counts, like counts, liker-induced friend subgraphs) are then
  entirely shard-local, so per-shard Q1/Q2 scores are *exact* and the
  global top-k is a pure merge of per-shard top-k partials.

:func:`partition_graph` applies the same split to an already-built
:class:`~repro.model.graph.SocialGraph` (the router's initial-load path).
"""

from __future__ import annotations

import numpy as np

from repro.model.changes import (
    AddComment,
    AddFriendship,
    AddLike,
    AddPost,
    AddUser,
)
from repro.model.graph import SocialGraph

__all__ = ["shard_of", "shard_of_array", "partition_graph"]

#: splitmix64's multiplicative constant -- one 64-bit mix is enough to
#: decorrelate the (often sequential) external ids from the modulus
_MIX = np.uint64(0x9E3779B97F4A7C15)
_SHIFT = np.uint64(31)
_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def shard_of(external_id: int, num_shards: int) -> int:
    """Owner shard of one external id (user or post), in ``[0, num_shards)``.

    Deterministic and shared by the router, the analytics partials, and
    recovery -- the partition IS this function.

    >>> shard_of(42, 1)
    0
    >>> all(0 <= shard_of(i, 4) < 4 for i in range(100))
    True
    """
    if num_shards == 1:
        return 0
    x = (int(external_id) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return x % num_shards


def shard_of_array(external_ids: np.ndarray, num_shards: int) -> np.ndarray:
    """Vectorised :func:`shard_of` over an array of external ids."""
    if num_shards == 1:
        return np.zeros(np.asarray(external_ids).size, dtype=np.int64)
    with np.errstate(over="ignore"):  # uint64 wraparound is the mix
        x = (np.asarray(external_ids).astype(np.uint64) * _MIX) & _MASK
    x ^= x >> _SHIFT
    return (x % np.uint64(num_shards)).astype(np.int64)


def partition_graph(
    graph: SocialGraph, num_shards: int
) -> tuple[list[SocialGraph], dict[int, int], dict[int, int]]:
    """Split an initial graph into per-shard graphs plus routing tables.

    Returns ``(shard_graphs, post_shard, comment_shard)`` where the dicts
    map external content ids to their owner shard.  With ``num_shards ==
    1`` the input graph is passed through *by reference* (no replay), so a
    single-shard router is bit-identical to an unsharded service over the
    same graph object.

    Users and friendships are replayed onto every shard **in the original
    internal-index order**, so every shard's user
    :class:`~repro.model.entities.IdMap` is identical to the unsharded
    one -- the property the analytics merge's internal-index tie-breaks
    rely on.
    """
    post_shard: dict[int, int] = {}
    comment_shard: dict[int, int] = {}
    for p in graph.posts.external_array().tolist():
        post_shard[p] = shard_of(p, num_shards)
    roots = graph.comment_root_posts()
    post_ext = graph.posts.external_array()
    for i, c in enumerate(graph.comments.external_array().tolist()):
        comment_shard[c] = post_shard[int(post_ext[roots[i]])]

    if num_shards == 1:
        return [graph], post_shard, comment_shard

    shards = [SocialGraph(storage=graph.backend) for _ in range(num_shards)]
    for ch in graph.to_change_stream():
        if isinstance(ch, (AddUser, AddFriendship)):
            targets = range(num_shards)
        elif isinstance(ch, AddPost):
            targets = (post_shard[ch.post_id],)
        elif isinstance(ch, AddComment):
            targets = (comment_shard[ch.comment_id],)
        elif isinstance(ch, AddLike):
            targets = (comment_shard[ch.comment_id],)
        else:  # pragma: no cover - to_change_stream emits only Add* kinds
            raise AssertionError(f"unexpected change {ch!r}")
        for s in targets:
            _apply_one(shards[s], ch)
    return shards, post_shard, comment_shard


def _apply_one(g: SocialGraph, ch) -> None:
    if isinstance(ch, AddUser):
        g.add_user(ch.user_id, ch.name)
    elif isinstance(ch, AddPost):
        g.add_post(ch.post_id, ch.timestamp, ch.user_id)
    elif isinstance(ch, AddComment):
        g.add_comment(ch.comment_id, ch.timestamp, ch.user_id, ch.parent_id)
    elif isinstance(ch, AddLike):
        g.add_like(ch.user_id, ch.comment_id)
    elif isinstance(ch, AddFriendship):
        g.add_friendship(ch.user1_id, ch.user2_id)
