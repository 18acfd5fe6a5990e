"""A plain-set model of SocialGraph's relations: the storage property oracle.

Replays :class:`~repro.model.changes.ChangeSet`\\ s into Python sets of
internal-index pairs with the graph's semantics -- ids numbered in arrival
order, a duplicate add or an absent remove is a no-op, friendships are
symmetric, ``root_post``/``commented`` follow the comment's parent -- and
serves each relation as a canonical :class:`Matrix`.  :meth:`apply` returns
the edge fields the matching :class:`~repro.model.graph.GraphDelta` must
carry: the before -> after difference of each edge set.
"""

from __future__ import annotations

from repro.graphblas.matrix import Matrix
from repro.graphblas.types import BOOL
from repro.model import AddComment, AddFriendship, AddLike, AddPost, AddUser, RemoveLike

RELATIONS = ("root_post", "likes", "friends", "commented")


class EdgeModel:
    def __init__(self) -> None:
        self.ids = {"user": {}, "post": {}, "comment": {}}
        self.root: list[int] = []
        self.edges = {name: set() for name in RELATIONS}

    def _add(self, kind: str, ext: int) -> int:
        return self.ids[kind].setdefault(ext, len(self.ids[kind]))

    def apply(self, changes) -> dict:
        before = {name: set(e) for name, e in self.edges.items()}
        users, posts, comments = (self.ids[k] for k in ("user", "post", "comment"))
        for ch in changes:
            if isinstance(ch, AddUser):
                self._add("user", ch.user_id)
            elif isinstance(ch, AddPost):
                self._add("post", ch.post_id)
            elif isinstance(ch, AddComment):
                c = self._add("comment", ch.comment_id)
                if ch.parent_id in posts:
                    self.root.append(posts[ch.parent_id])
                else:
                    parent = comments[ch.parent_id]
                    self.root.append(self.root[parent])
                    self.edges["commented"].add((c, parent))
                self.edges["root_post"].add((self.root[c], c))
            elif isinstance(ch, (AddLike, RemoveLike)):
                key = (comments[ch.comment_id], users[ch.user_id])
                op = set.add if isinstance(ch, AddLike) else set.discard
                op(self.edges["likes"], key)
            else:  # AddFriendship / RemoveFriendship
                a, b = users[ch.user1_id], users[ch.user2_id]
                op = set.add if isinstance(ch, AddFriendship) else set.discard
                op(self.edges["friends"], (a, b))
                op(self.edges["friends"], (b, a))

        def upper(pairs):
            return {(a, b) for a, b in pairs if a < b}

        likes, friends = self.edges["likes"], self.edges["friends"]
        return {
            "new_root_post_edges": self.edges["root_post"] - before["root_post"],
            "new_likes": likes - before["likes"],
            "removed_likes": before["likes"] - likes,
            "new_friendships": upper(friends - before["friends"]),
            "removed_friendships": upper(before["friends"] - friends),
        }

    def matrix(self, name: str) -> Matrix:
        """``name`` (a relation or ``"likes_t"``) as a canonical BOOL Matrix."""
        nu, np_, nc = (len(self.ids[k]) for k in ("user", "post", "comment"))
        shape = {"root_post": (np_, nc), "likes": (nc, nu), "friends": (nu, nu),
                 "commented": (nc, nc), "likes_t": (nu, nc)}[name]
        pairs = self.edges[name] if name != "likes_t" else {
            (u, c) for c, u in self.edges["likes"]
        }
        rows = [r for r, _ in pairs]
        cols = [c for _, c in pairs]
        return Matrix.from_coo(rows, cols, True, *shape, dtype=BOOL)
