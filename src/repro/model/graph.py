"""The SocialGraph: matrix-backed storage of the case-study model.

All relations are served as GraphBLAS matrices sized exactly to the current
entity counts, exactly as the paper's Fig. 4 lays them out.  Single-element
inserts are buffered and flushed in one vectorised batch per relation
whenever a matrix is read, so loading a graph of any size is O(E log E),
not O(E * nnz).

Each relation lives in a :class:`~repro.graphblas.dynamic.DynamicMatrix`
arena (the paper's future-work item (1)): a flush costs O(Δ·degree) block
updates, and the served compute ``Matrix`` is refreshed through the
dirty-row freeze (only rows touched since the last read are
re-canonicalised -- no O(nnz log nnz) rebuild, and the cached
``indptr``/transpose survive reads that change nothing).  A
likes-*transpose* arena (|users| x |comments|) is maintained alongside,
giving :meth:`SocialGraph.comments_liked_by` the O(degree) per-user index
the delta-targeted Q2 detection reads.  The ``storage=`` ctor arg picks
where the arena arrays live (``heap``/``mmap``/``sqlite``, see
:mod:`repro.storage`); the property suites check the graph against a
plain-set edge model (``tests/model/edge_model.py``).

:meth:`SocialGraph.apply` consumes a :class:`~repro.model.changes.ChangeSet`
and returns a :class:`GraphDelta`, the exact inputs the paper's incremental
algorithms need: new entities, the new rootPost edges (``ΔRootPost``), new
likes edges (for ``likesCount+``) and new friendships (the ``NewFriends``
incidence matrix).
"""

from __future__ import annotations

import shutil
import tempfile
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from repro.graphblas import types as _gbtypes
from repro.graphblas.dynamic import DynamicMatrix
from repro.graphblas.matrix import Matrix
from repro.storage import make_store, resolve_storage
from repro.model.changes import (
    AddComment,
    AddFriendship,
    AddLike,
    AddPost,
    AddUser,
    Change,
    ChangeSet,
    RemoveFriendship,
    RemoveLike,
)
from repro.model.entities import EntityKind, IdMap
from repro.util.buffers import IntArrayList
from repro.util.validation import ReproError

__all__ = ["SocialGraph", "GraphDelta"]


class _Relation:
    """One relation: a DynamicMatrix arena served through the dirty-row freeze."""

    __slots__ = ("_dm",)

    def __init__(self, store=None) -> None:
        self._dm = DynamicMatrix(_gbtypes.BOOL, 0, 0, store=store)

    def adopt(self, src) -> None:
        """Swap in flushed arena files from a snapshot (file-backed only)."""
        store = self._dm.store
        store.adopt_from(src)
        self._dm = DynamicMatrix.open(store)

    def resize(self, nrows: int, ncols: int) -> None:
        self._dm.resize(nrows, ncols)

    def add(self, rows, cols) -> None:
        self._dm.assign_coo(rows, cols, True)

    def remove(self, rows, cols) -> None:
        self._dm.remove_coo(rows, cols)

    def view(self) -> Matrix:
        return self._dm.freeze()

    @property
    def nvals(self) -> int:
        return self._dm.nvals

    def row_cols(self, i: int) -> np.ndarray:
        return self._dm.row(i)[0]


@dataclass
class GraphDelta:
    """What one applied ChangeSet added, in internal indices.

    Attributes mirror the paper's incremental-algorithm inputs:

    * ``new_root_post_edges`` -> ``ΔRootPost``
    * ``new_likes``           -> ``likesCount+`` (after per-comment counting)
    * ``new_friendships``     -> ``NewFriends`` incidence matrix columns
    """

    n_posts_before: int
    n_comments_before: int
    n_users_before: int
    n_posts_after: int
    n_comments_after: int
    n_users_after: int
    new_post_idx: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    new_comment_idx: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    new_user_idx: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    #: (post_idx, comment_idx) pairs
    new_root_post_edges: tuple = (np.zeros(0, np.int64), np.zeros(0, np.int64))
    #: (comment_idx, user_idx) pairs
    new_likes: tuple = (np.zeros(0, np.int64), np.zeros(0, np.int64))
    #: (user_idx_a, user_idx_b) pairs, a < b, already deduplicated
    new_friendships: tuple = (np.zeros(0, np.int64), np.zeros(0, np.int64))
    #: extension (future-work removals): (comment_idx, user_idx) pairs
    removed_likes: tuple = (np.zeros(0, np.int64), np.zeros(0, np.int64))
    #: extension: (user_idx_a, user_idx_b) pairs, a < b
    removed_friendships: tuple = (np.zeros(0, np.int64), np.zeros(0, np.int64))

    @property
    def is_empty(self) -> bool:
        return (
            self.new_post_idx.size == 0
            and self.new_comment_idx.size == 0
            and self.new_user_idx.size == 0
            and self.new_likes[0].size == 0
            and self.new_friendships[0].size == 0
            and not self.has_removals
        )

    @property
    def has_removals(self) -> bool:
        """True when the change set removed edges (scores may *decrease*)."""
        return self.removed_likes[0].size > 0 or self.removed_friendships[0].size > 0

    def delta_root_post(self) -> Matrix:
        """``ΔRootPost`` at the post-update dimensions (Alg. 2 input)."""
        p, c = self.new_root_post_edges
        return Matrix.from_coo(
            p, c, True, self.n_posts_after, self.n_comments_after, dtype=_gbtypes.BOOL
        )

    @staticmethod
    def _incidence(pairs: tuple, n_users: int) -> Matrix:
        a, b = pairs
        k = a.size
        rows = np.concatenate([a, b])
        cols = np.concatenate(
            [np.arange(k, dtype=np.int64), np.arange(k, dtype=np.int64)]
        )
        return Matrix.from_coo(rows, cols, 1, n_users, k, dtype=_gbtypes.INT64)

    def new_friends_incidence(self) -> Matrix:
        """The ``NewFriends`` incidence matrix of Q2's step 1.

        |users'| x |new friendships|; each column holds two 1s marking the
        endpoints of one inserted friendship.
        """
        return self._incidence(self.new_friendships, self.n_users_after)

    def removed_friends_incidence(self) -> Matrix:
        """Incidence matrix of removed friendships (extension).

        Used by the removal-aware affected-comment detection: a removed
        friendship can *split* a component of any comment both ex-friends
        like, exactly dual to the insertion case.
        """
        return self._incidence(self.removed_friendships, self.n_users_after)


class SocialGraph:
    """Users, Posts, Comments and their relations, stored as matrices."""

    def __init__(self, storage: Optional[str] = None, *, storage_dir=None) -> None:
        #: the arena backend ("heap"/"mmap"/"sqlite"); None defers to
        #: REPRO_STORAGE (see repro.storage.resolve_storage), so one env
        #: knob flips every default-constructed graph in the process
        self.backend = resolve_storage(storage)
        self._storage_dir = None
        self._dir_finalizer = None
        if self.backend != "heap":
            if storage_dir is None:
                d = tempfile.mkdtemp(prefix="repro-arenas-")
                # owned temp dir: reclaimed at GC (or an explicit close());
                # POSIX keeps mapped/open files readable past the unlink
                self._dir_finalizer = weakref.finalize(
                    self, shutil.rmtree, d, ignore_errors=True
                )
            else:
                d = str(storage_dir)
                Path(d).mkdir(parents=True, exist_ok=True)
            self._storage_dir = d
        self.users = IdMap(EntityKind.USER)
        self.posts = IdMap(EntityKind.POST)
        self.comments = IdMap(EntityKind.COMMENT)

        self._post_ts = IntArrayList()
        self._comment_ts = IntArrayList()
        self._user_names: list[str] = []
        #: submitter of each post / comment (internal user idx)
        self._post_author: list[int] = []
        self._comment_author: list[int] = []
        #: parent of each comment: (is_post, internal idx of parent)
        self._comment_parent: list[tuple[bool, int]] = []
        #: root post of each comment (internal post idx) -- the rootPost pointer
        self._comment_root = IntArrayList()

        self._rel = {
            name: _Relation(self._make_store(name))
            for name in ("root_post", "likes", "friends", "commented")
        }
        #: |users| x |comments| mirror of likes, the per-user index behind
        #: :meth:`comments_liked_by`
        self._likes_t = _Relation(self._make_store("likes_t"))

        self._pending: dict[str, list] = {
            "root_post": [],
            "likes": [],
            "friends": [],
            "commented": [],
        }
        self._friend_keys: set[tuple[int, int]] = set()
        self._like_keys: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # storage seam (repro.storage)
    # ------------------------------------------------------------------

    def _make_store(self, name: str):
        return make_store(self.backend, directory=self._storage_dir, name=name)

    def _arena_relations(self) -> dict:
        return {**self._rel, "likes_t": self._likes_t}

    def storage_bytes(self) -> int:
        """Resident arena bytes (file bytes for file-backed backends)."""
        self._flush()
        return sum(
            rel._dm.store.nbytes() for rel in self._arena_relations().values()
        )

    def flush_storage(self) -> bool:
        """Persist every arena through its store; False when not file-backed."""
        if self.backend == "heap":
            return False
        self._flush()
        for rel in self._arena_relations().values():
            rel._dm.flush_storage()
        return True

    def snapshot_arenas(self, dest) -> Optional[str]:
        """Flush + copy every arena into ``dest``; the backend name, or
        None when this graph has no durable arenas (heap -- the snapshot
        store then relies on the CSV serialisation alone)."""
        if not self.flush_storage():
            return None
        dest = Path(dest)
        for name, rel in self._arena_relations().items():
            rel._dm.store.snapshot_to(dest / name)
        return self.backend

    def adopt_arenas(self, src) -> None:
        """Adopt flushed arena files from a snapshot directory.

        The inverse of :meth:`snapshot_arenas`, for a graph whose
        *entities* are already loaded: relations and the likes-transpose
        mirror remap onto the copied files (no CSV edge replay), pending
        edge ops are discarded, and the edge key sets are rebuilt from
        the adopted arenas.
        """
        src = Path(src)
        for name, rel in self._arena_relations().items():
            rel.adopt(src / name)
        for ops in self._pending.values():
            ops.clear()
        lr, lc, _ = self._rel["likes"]._dm.to_coo()
        self._like_keys = set(zip(lr.tolist(), lc.tolist()))
        fr, fc, _ = self._rel["friends"]._dm.to_coo()
        self._friend_keys = {
            (a, b) for a, b in zip(fr.tolist(), fc.tolist()) if a < b
        }

    def close(self) -> None:
        """Release arena file handles and reclaim an owned temp directory.

        Optional (the weakref finalizer reclaims at GC); live matrix
        views keep working afterwards -- POSIX keeps unlinked files
        readable while mapped -- but further flushes/snapshots will fail.
        """
        for rel in self._arena_relations().values():
            rel._dm.store.close()
        if self._dir_finalizer is not None:
            self._dir_finalizer()

    # ------------------------------------------------------------------
    # entity counts / attribute views
    # ------------------------------------------------------------------

    @property
    def num_users(self) -> int:
        return len(self.users)

    @property
    def num_posts(self) -> int:
        return len(self.posts)

    @property
    def num_comments(self) -> int:
        return len(self.comments)

    @property
    def post_timestamps(self) -> np.ndarray:
        return self._post_ts.array()

    @property
    def comment_timestamps(self) -> np.ndarray:
        return self._comment_ts.array()

    def comment_root_posts(self) -> np.ndarray:
        """rootPost pointer per comment (internal post idx)."""
        return self._comment_root.array()

    # ------------------------------------------------------------------
    # single-element mutators (buffered)
    # ------------------------------------------------------------------

    def add_user(self, user_id: int, name: str = "") -> int:
        idx = self.users.add(user_id)
        self._user_names.append(name)
        return idx

    def add_post(self, post_id: int, timestamp: int, user_id: int) -> int:
        if post_id in self.comments:
            raise ReproError(f"submission id {post_id} already used by a comment")
        idx = self.posts.add(post_id)
        self._post_ts.append(int(timestamp))
        self._post_author.append(self.users.index(user_id))
        return idx

    def add_comment(
        self, comment_id: int, timestamp: int, user_id: int, parent_id: int
    ) -> int:
        if comment_id in self.posts:
            raise ReproError(f"submission id {comment_id} already used by a post")
        if parent_id in self.posts:
            parent = (True, self.posts.index(parent_id))
            root = parent[1]
        elif parent_id in self.comments:
            pidx = self.comments.index(parent_id)
            parent = (False, pidx)
            root = self._comment_root[pidx]
        else:
            raise ReproError(f"comment {comment_id}: unknown parent {parent_id}")
        idx = self.comments.add(comment_id)
        self._comment_ts.append(int(timestamp))
        self._comment_author.append(self.users.index(user_id))
        self._comment_parent.append(parent)
        self._comment_root.append(root)
        self._pending["root_post"].append((root, idx))
        if not parent[0]:
            self._pending["commented"].append((idx, parent[1]))
        return idx

    def add_like(self, user_id: int, comment_id: int) -> tuple[int, int] | None:
        """Insert a likes edge; returns (comment_idx, user_idx) or None if dup."""
        c = self.comments.index(comment_id)
        u = self.users.index(user_id)
        if (c, u) in self._like_keys:
            return None
        self._like_keys.add((c, u))
        self._pending["likes"].append(("+", (c, u)))
        return (c, u)

    def remove_like(self, user_id: int, comment_id: int) -> tuple[int, int] | None:
        """Remove a likes edge (extension); returns the key or None if absent."""
        c = self.comments.index(comment_id)
        u = self.users.index(user_id)
        if (c, u) not in self._like_keys:
            return None
        self._like_keys.discard((c, u))
        self._pending["likes"].append(("-", (c, u)))
        return (c, u)

    def add_friendship(self, user1_id: int, user2_id: int) -> tuple[int, int] | None:
        """Insert a symmetric friends edge; returns (min_idx, max_idx) or None."""
        a = self.users.index(user1_id)
        b = self.users.index(user2_id)
        if a == b:
            raise ReproError(f"self-friendship for user {user1_id}")
        key = (min(a, b), max(a, b))
        if key in self._friend_keys:
            return None
        self._friend_keys.add(key)
        self._pending["friends"].append(("+", key))
        return key

    def remove_friendship(self, user1_id: int, user2_id: int) -> tuple[int, int] | None:
        """Remove a friends edge (extension); returns the key or None if absent."""
        a = self.users.index(user1_id)
        b = self.users.index(user2_id)
        key = (min(a, b), max(a, b))
        if key not in self._friend_keys:
            return None
        self._friend_keys.discard(key)
        self._pending["friends"].append(("-", key))
        return key

    # ------------------------------------------------------------------
    # matrix views (flushed on demand)
    # ------------------------------------------------------------------

    def _flush(self) -> None:
        pend = self._pending
        dirty = any(pend.values())
        np_, nc, nu = self.num_posts, self.num_comments, self.num_users
        rel = self._rel
        # resizes are strict no-ops when the entity counts are unchanged,
        # so a read-after-read flush costs four integer comparisons and
        # destroys no matrix caches
        rel["root_post"].resize(np_, nc)
        rel["likes"].resize(nc, nu)
        rel["friends"].resize(nu, nu)
        rel["commented"].resize(nc, nc)
        self._likes_t.resize(nu, nc)
        if not dirty:
            return
        if pend["root_post"]:
            arr = np.asarray(pend["root_post"], dtype=np.int64)
            rel["root_post"].add(arr[:, 0], arr[:, 1])
            pend["root_post"].clear()
        if pend["likes"]:
            adds, removes = self._resolve_ops(pend["likes"])
            if adds.size:
                rel["likes"].add(adds[:, 0], adds[:, 1])
                self._likes_t.add(adds[:, 1], adds[:, 0])
            if removes.size:
                rel["likes"].remove(removes[:, 0], removes[:, 1])
                self._likes_t.remove(removes[:, 1], removes[:, 0])
            pend["likes"].clear()
        if pend["friends"]:
            adds, removes = self._resolve_ops(pend["friends"])
            if adds.size:
                rows = np.concatenate([adds[:, 0], adds[:, 1]])
                cols = np.concatenate([adds[:, 1], adds[:, 0]])
                rel["friends"].add(rows, cols)
            if removes.size:
                rows = np.concatenate([removes[:, 0], removes[:, 1]])
                cols = np.concatenate([removes[:, 1], removes[:, 0]])
                rel["friends"].remove(rows, cols)
            pend["friends"].clear()
        if pend["commented"]:
            arr = np.asarray(pend["commented"], dtype=np.int64)
            rel["commented"].add(arr[:, 0], arr[:, 1])
            pend["commented"].clear()

    @staticmethod
    def _resolve_ops(log: list) -> tuple[np.ndarray, np.ndarray]:
        """Collapse an ordered (+/-, key) op log to final add/remove batches.

        For each key only the *last* operation decides the outcome -- an
        edge added and removed within one buffered window is a net no-op on
        a matrix that never contained it, and removing it is idempotent.
        """
        last: dict = {}
        for op, key in log:
            last[key] = op
        adds = [k for k, op in last.items() if op == "+"]
        removes = [k for k, op in last.items() if op == "-"]
        to_arr = lambda pairs: (
            np.asarray(pairs, dtype=np.int64)
            if pairs
            else np.zeros((0, 2), dtype=np.int64)
        )
        return to_arr(adds), to_arr(removes)

    @property
    def root_post(self) -> Matrix:
        """BOOL |posts| x |comments|: post is the root of comment."""
        self._flush()
        return self._rel["root_post"].view()

    @property
    def likes(self) -> Matrix:
        """BOOL |comments| x |users|: user likes comment."""
        self._flush()
        return self._rel["likes"].view()

    @property
    def friends(self) -> Matrix:
        """BOOL |users| x |users|, symmetric."""
        self._flush()
        return self._rel["friends"].view()

    @property
    def commented(self) -> Matrix:
        """BOOL |comments| x |comments|: reply -> parent comment."""
        self._flush()
        return self._rel["commented"].view()

    def likers_of(self, comment_idx: int) -> np.ndarray:
        """Sorted internal user indices liking the comment -- O(degree).

        Reads the likes arena directly, *without* forcing a freeze of the
        likes matrix: a like-only change set can be scored straight off the
        arena rows.
        """
        self._flush()
        users = self._rel["likes"].row_cols(comment_idx)
        users.sort()  # row_cols returns a copy; in-place is safe
        return users

    def comments_liked_by(self, user_idx: int) -> np.ndarray:
        """Internal indices of the comments ``user_idx`` likes.

        O(degree): reads a row of the maintained likes-transpose arena.
        The returned order is unspecified.
        """
        self._flush()
        return self._likes_t.row_cols(user_idx)

    def comments_liked_by_both(self, user_a: int, user_b: int) -> np.ndarray:
        """Comments that *both* users like -- O(deg(a) + deg(b)).

        The per-friendship kernel of the delta-targeted Q2 affected-comment
        detection (each entry is a comment whose induced liker subgraph
        gains or loses the (a, b) edge).
        """
        ca = self.comments_liked_by(user_a)
        cb = self.comments_liked_by(user_b)
        if ca.size == 0 or cb.size == 0:
            return np.zeros(0, dtype=np.int64)
        return np.intersect1d(ca, cb, assume_unique=True)

    # ------------------------------------------------------------------
    # change application
    # ------------------------------------------------------------------

    def apply(self, change_set: ChangeSet) -> GraphDelta:
        """Apply a batch of insertions; returns the delta for incremental queries."""
        np0, nc0, nu0 = self.num_posts, self.num_comments, self.num_users
        new_posts: list[int] = []
        new_comments: list[int] = []
        new_users: list[int] = []
        new_rp: list[tuple[int, int]] = []
        # Net effect per edge key over the change set: "+" inserted, "-"
        # removed; an insert-then-remove (or vice versa) cancels out so the
        # delta describes exactly the before -> after difference.
        like_net: dict[tuple[int, int], str] = {}
        friend_net: dict[tuple[int, int], str] = {}

        def _net(net: dict, key, op: str) -> None:
            prev = net.get(key)
            if prev is not None and prev != op:
                del net[key]
            else:
                net[key] = op

        for change in change_set:
            if isinstance(change, AddUser):
                new_users.append(self.add_user(change.user_id, change.name))
            elif isinstance(change, AddPost):
                new_posts.append(
                    self.add_post(change.post_id, change.timestamp, change.user_id)
                )
            elif isinstance(change, AddComment):
                idx = self.add_comment(
                    change.comment_id,
                    change.timestamp,
                    change.user_id,
                    change.parent_id,
                )
                new_comments.append(idx)
                new_rp.append((self._comment_root[idx], idx))
            elif isinstance(change, AddLike):
                edge = self.add_like(change.user_id, change.comment_id)
                if edge is not None:
                    _net(like_net, edge, "+")
            elif isinstance(change, AddFriendship):
                edge = self.add_friendship(change.user1_id, change.user2_id)
                if edge is not None:
                    _net(friend_net, edge, "+")
            elif isinstance(change, RemoveLike):
                edge = self.remove_like(change.user_id, change.comment_id)
                if edge is not None:
                    _net(like_net, edge, "-")
            elif isinstance(change, RemoveFriendship):
                edge = self.remove_friendship(change.user1_id, change.user2_id)
                if edge is not None:
                    _net(friend_net, edge, "-")
            else:  # pragma: no cover - defensive
                raise ReproError(f"unknown change type {type(change)}")

        self._flush()

        def _pairs(pairs: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
            if not pairs:
                return np.zeros(0, np.int64), np.zeros(0, np.int64)
            arr = np.asarray(pairs, dtype=np.int64)
            return arr[:, 0], arr[:, 1]

        return GraphDelta(
            n_posts_before=np0,
            n_comments_before=nc0,
            n_users_before=nu0,
            n_posts_after=self.num_posts,
            n_comments_after=self.num_comments,
            n_users_after=self.num_users,
            new_post_idx=np.asarray(new_posts, dtype=np.int64),
            new_comment_idx=np.asarray(new_comments, dtype=np.int64),
            new_user_idx=np.asarray(new_users, dtype=np.int64),
            new_root_post_edges=_pairs(new_rp),
            new_likes=_pairs([k for k, op in like_net.items() if op == "+"]),
            new_friendships=_pairs([k for k, op in friend_net.items() if op == "+"]),
            removed_likes=_pairs([k for k, op in like_net.items() if op == "-"]),
            removed_friendships=_pairs(
                [k for k, op in friend_net.items() if op == "-"]
            ),
        )

    # ------------------------------------------------------------------

    def to_change_stream(self) -> Iterator[Change]:
        """The graph as a canonical insert stream that rebuilds it exactly.

        Yields every entity and edge as the :mod:`repro.model.changes`
        insert that would create it, ordered so each change's references
        are already satisfied: users, then posts, then comments (internal
        order -- a parent comment always precedes its children), then
        friendships and likes (sorted by internal index pairs, so the
        stream is deterministic).  Replaying the stream into an empty
        graph reproduces identical id maps, timestamps and relations --
        the export the sharded router's initial-load partitioning
        (:func:`repro.sharding.partition.partition_graph`) splits.
        """
        user_ext = self.users.external_array()
        for i, u in enumerate(user_ext.tolist()):
            yield AddUser(u, self._user_names[i])
        post_ext = self.posts.external_array()
        for i, p in enumerate(post_ext.tolist()):
            yield AddPost(p, int(self._post_ts[i]), int(user_ext[self._post_author[i]]))
        comment_ext = self.comments.external_array()
        for i, c in enumerate(comment_ext.tolist()):
            is_post, pidx = self._comment_parent[i]
            parent = int(post_ext[pidx]) if is_post else int(comment_ext[pidx])
            yield AddComment(
                c, int(self._comment_ts[i]), int(user_ext[self._comment_author[i]]), parent
            )
        for a, b in sorted(self._friend_keys):
            yield AddFriendship(int(user_ext[a]), int(user_ext[b]))
        for c, u in sorted(self._like_keys):
            yield AddLike(int(user_ext[u]), int(comment_ext[c]))

    def stats(self) -> dict:
        """Node/edge counts in Table II's accounting (nodes + all edge kinds)."""
        self._flush()
        rel = self._rel
        n_edges = (
            rel["root_post"].nvals
            + rel["commented"].nvals
            + rel["likes"].nvals
            + len(self._friend_keys)
        )
        return {
            "users": self.num_users,
            "posts": self.num_posts,
            "comments": self.num_comments,
            "nodes": self.num_users + self.num_posts + self.num_comments,
            "edges": n_edges,
            "likes": rel["likes"].nvals,
            "friendships": len(self._friend_keys),
        }

    def storage_stats(self) -> dict:
        """Per-relation arena occupancy, backend and resident bytes."""
        return {
            "backend": self.backend,
            "bytes": self.storage_bytes(),
            "relations": {
                name: rel._dm.memory_stats()
                for name, rel in self._arena_relations().items()
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"SocialGraph<users={s['users']}, posts={s['posts']}, "
            f"comments={s['comments']}, edges={s['edges']}>"
        )
