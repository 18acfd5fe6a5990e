"""Q2 -- "influential comments" (paper Sec. III, Fig. 4b).

Score of a Comment = sum of squared connected-component sizes of the
subgraph induced by the users who like the comment, over the friends graph.

Batch pipeline (steps 1-4 of Fig. 4b, upper half):

1. ``extractTuples`` on the Likes matrix groups liker ids per comment
   (read straight off the CSR rows -- the matrix *is* that grouping);
2. ``extract`` the induced Friends submatrix per comment;
3. connected components of the submatrix (FastSV, as in the paper);
4. score = Σ component-size².

Incremental pipeline (steps 1-9, lower half): detect the comments an update
can affect -- new comments, comments with new likes, and comments where a
new friendship joins two likers (found with the NewFriends incidence-matrix
product, select(==2), row-wise OR) -- and re-score only those.

Per the paper's evaluation, the per-comment loop is parallelisable at
comment granularity: pass an :class:`~repro.parallel.Executor` (the Fig. 5
"8 thr" tools pass a fork-once pool).  Without one, scoring is serial.

``algorithm`` selects the component kernel:

* ``"fastsv"``     -- the paper's choice (LAGraph FastSV on GraphBLAS);
* ``"unionfind"``  -- pure-Python union-find (fast for tiny subgraphs);
* ``"batched"``    -- one FastSV over the block-diagonal like-slot graph of
  all requested comments (:mod:`repro.queries.q2_batched`, extension);
* ``"incremental"``-- only for :class:`Q2Incremental`: maintain components
  dynamically per comment (future-work item (2), Ediger-style).

:meth:`Q2Incremental.initial` with ``"fastsv"`` or ``"batched"`` and no
executor scores every comment in that one block-diagonal FastSV; the
per-comment loop stays the batch engine's, the executor path's and the
``"unionfind"`` oracle's.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.graphblas import monoid as _monoid
from repro.graphblas import ops as _ops
from repro.graphblas import semiring as _semiring
from repro.graphblas.matrix import Matrix
from repro.graphblas.types import BOOL, INT64
from repro.graphblas.vector import Vector
from repro.lagraph.cc_numpy import connected_components_numpy
from repro.lagraph.fastsv import fastsv
from repro.lagraph.incremental_cc import IncrementalCC
from repro.model.graph import GraphDelta, SocialGraph
from repro.parallel.executor import Executor, SerialExecutor, chunk_evenly
from repro.queries.q2_batched import batched_comment_scores
from repro.queries.topk import TopKTracker, grow_scores, top_k_entries
from repro.util.validation import ReproError

__all__ = [
    "Q2Batch",
    "Q2Incremental",
    "affected_comments_delta",
    "affected_comments_incidence",
    "score_comments",
]

_PLUS_TIMES = _semiring.get("plus_times")
_LOR = _monoid.lor_monoid

#: affected sets at or below this size are scored without freezing Likes
_SMALL_SCORE_SET = 32

#: friendship batches above this size fall back to the incidence SpGEMM --
#: the per-pair intersection's Python loop loses to one matrix product once
#: a change set carries many friendships (the offline bulk-load regime)
_DELTA_PAIR_LIMIT = 64


# ---------------------------------------------------------------------------
# per-comment scoring kernel (runs in workers; globals primed by _init_worker)
# ---------------------------------------------------------------------------

_W: dict = {}


def _init_worker(
    likes_indptr: np.ndarray,
    likes_users: np.ndarray,
    friends_indptr: np.ndarray,
    friends_cols: np.ndarray,
    algorithm: str,
) -> None:
    """Prime (process-local) read-only state: ships once per worker."""
    _W["likes_indptr"] = likes_indptr
    _W["likes_users"] = likes_users
    _W["friends_indptr"] = friends_indptr
    _W["friends_cols"] = friends_cols
    _W["algorithm"] = algorithm


def _induced_edges(users: np.ndarray, fi: np.ndarray, fc: np.ndarray):
    """Friend edges among ``users``, in local (0..len(users)-1) indices.

    ``users`` is sorted (CSR column order), so global->local mapping is one
    searchsorted -- no dict, no Python loop.  ``fi``/``fc`` are the friends
    CSR indptr and column arrays.
    """
    starts = fi[users]
    lengths = fi[users + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return (np.zeros(0, np.int64),) * 2
    src_local = np.repeat(np.arange(users.size, dtype=np.int64), lengths)
    out_starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    within = np.arange(total, dtype=np.int64) - np.repeat(out_starts, lengths)
    nb = fc[np.repeat(starts, lengths) + within]
    pos = np.searchsorted(users, nb)
    pos[pos == users.size] = 0
    valid = users[pos] == nb
    src, dst = src_local[valid], pos[valid]
    keep = src < dst  # one direction of the symmetric pair suffices
    return src[keep], dst[keep]


def _score_one(comment: int) -> int:
    """Σ component-size² for one comment's induced liker subgraph."""
    li = _W["likes_indptr"]
    users = _W["likes_users"][li[comment] : li[comment + 1]]
    return _score_users(
        users, _W["friends_indptr"], _W["friends_cols"], _W["algorithm"]
    )


def _score_users(users, fi, fc, algorithm) -> int:
    """Σ component-size² for a sorted liker set over the friends CSR."""
    n = users.size
    if n == 0:
        return 0
    src, dst = _induced_edges(users, fi, fc)
    if algorithm == "fastsv":
        if src.size == 0:
            return n  # n singleton components
        sub = Matrix.from_coo(
            np.concatenate([src, dst]),
            np.concatenate([dst, src]),
            True,
            n,
            n,
            dtype=BOOL,
            dup_op=_ops.lor,
        )
        labels = fastsv(sub).to_dense()
    elif algorithm == "unionfind":
        labels = connected_components_numpy(n, src, dst)
    else:  # pragma: no cover - guarded at construction
        raise ReproError(f"unknown Q2 algorithm {algorithm!r}")
    _, counts = np.unique(labels, return_counts=True)
    return int(np.sum(counts.astype(np.int64) ** 2))


def _score_chunk(comments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score a chunk; ndarray in/out keeps IPC pickling cost negligible."""
    comments = np.asarray(comments, dtype=np.int64)
    scores = np.empty(comments.size, dtype=np.int64)
    for k, c in enumerate(comments.tolist()):
        scores[k] = _score_one(c)
    return comments, scores


def score_comments(
    graph: SocialGraph,
    comments: Iterable[int],
    *,
    algorithm: str = "fastsv",
    executor: Optional[Executor] = None,
) -> dict[int, int]:
    """Scores for the given comment indices (the shared batch kernel of Q2).

    ``algorithm="batched"`` dispatches to the single-FastSV block-diagonal
    formulation (:mod:`repro.queries.q2_batched`) -- same results, no
    per-comment loop.
    """
    if algorithm not in ("fastsv", "unionfind", "batched"):
        raise ReproError(f"unknown Q2 algorithm {algorithm!r}")
    comments = np.asarray(list(comments), dtype=np.int64)
    if comments.size == 0:
        return {}
    if algorithm == "batched":
        scored = batched_comment_scores(graph, comments)
        return dict(zip(comments.tolist(), scored.tolist()))
    if comments.size <= _SMALL_SCORE_SET:
        # Delta-rescore fast path: a handful of affected comments does not
        # justify freezing the likes matrix or spinning the chunk machinery
        # -- read each liker set straight off the graph storage.
        friends = graph.friends
        fi, fc = friends.indptr, friends._cols
        return {
            int(c): _score_users(graph.likers_of(int(c)), fi, fc, algorithm)
            for c in comments.tolist()
        }
    likes = graph.likes
    friends = graph.friends
    initargs = (
        likes.indptr,
        likes._cols,
        friends.indptr,
        friends._cols,
        algorithm,
    )
    # A parallel region cannot amortise its spawn cost on small inputs
    # (the paper: updates are small, so parallel gains little there).
    if executor is None or comments.size < getattr(executor, "MIN_PARALLEL_ITEMS", 0):
        executor = SerialExecutor()
    n_chunks = max(1, min(executor.workers * 4, comments.size))
    # Strided (round-robin) chunking: comment popularity is heavy-tailed and
    # correlated with index (early = hot), so contiguous chunks would load a
    # single worker with all the expensive subgraphs.
    chunks = [comments[i::n_chunks] for i in range(n_chunks)]
    results = executor.map_chunks(
        _score_chunk, chunks, initializer=_init_worker, initargs=initargs
    )
    out: dict[int, int] = {}
    for ids, scores in results:
        out.update(zip(ids.tolist(), scores.tolist()))
    return out


# ---------------------------------------------------------------------------
# affected-comment detection (steps 1-5 of Fig. 4b, lower half)
# ---------------------------------------------------------------------------


def affected_comments_incidence(graph: SocialGraph, delta: GraphDelta) -> np.ndarray:
    """The ``ac`` set via the paper's incidence-matrix SpGEMM (reference).

    Step 1: ``AC = Likes ⊕.⊗ NewFriends`` (likers per friendship column);
    step 2: keep cells equal to 2 (both endpoints like the comment); step 3:
    row-wise OR; step 4/5: extract and union.  Cost is O(nnz(Likes)) per
    batch *regardless of batch size* -- which is why the serving path uses
    the delta-targeted formulation below; this one is kept as the
    property-test oracle (``tests/queries/test_affected_delta.py``).
    """
    affected = set(delta.new_comment_idx.tolist())        # Δcomments
    affected.update(delta.new_likes[0].tolist())          # Δlikes targets
    affected.update(delta.removed_likes[0].tolist())      # unlikes (ext.)
    for incidence_pairs, incidence in (
        (delta.new_friendships, delta.new_friends_incidence),
        (delta.removed_friendships, delta.removed_friends_incidence),
    ):
        if incidence_pairs[0].size:
            ac = graph.likes.mxm(incidence(), _PLUS_TIMES)
            ac2 = ac.select(_ops.valueeq, 2)
            hit = ac2.reduce_vector(_LOR, dtype=BOOL)
            affected.update(hit.to_coo()[0].tolist())
    return np.asarray(sorted(affected), dtype=np.int64)


def affected_comments_delta(graph: SocialGraph, delta: GraphDelta) -> np.ndarray:
    """The same ``ac`` set, delta-targeted: O(deg(a) + deg(b)) per pair.

    A friendship (a, b) -- inserted or removed -- can only affect comments
    *both* users like, so instead of multiplying the whole Likes matrix by
    the incidence matrix we intersect the two users' like sets off the
    graph's maintained likes-transpose index
    (:meth:`SocialGraph.comments_liked_by_both`).  Property-tested equal to
    :func:`affected_comments_incidence` on seeded random change streams,
    removals included.
    """
    n_pairs = delta.new_friendships[0].size + delta.removed_friendships[0].size
    if n_pairs > _DELTA_PAIR_LIMIT:
        # bulk regime: one SpGEMM beats thousands of per-pair intersections
        return affected_comments_incidence(graph, delta)
    affected = set(delta.new_comment_idx.tolist())
    affected.update(delta.new_likes[0].tolist())
    affected.update(delta.removed_likes[0].tolist())
    for pairs in (delta.new_friendships, delta.removed_friendships):
        for a, b in zip(pairs[0].tolist(), pairs[1].tolist()):
            affected.update(graph.comments_liked_by_both(a, b).tolist())
    return np.asarray(sorted(affected), dtype=np.int64)


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------


class Q2Batch:
    """Full evaluation of every comment's score, then top-3."""

    name = "Q2"

    def __init__(
        self,
        graph: SocialGraph,
        k: int = 3,
        algorithm: str = "fastsv",
        executor: Optional[Executor] = None,
    ):
        self.graph = graph
        self.k = k
        self.algorithm = algorithm
        self.executor = executor

    def scores(self) -> Vector:
        """Sparse scores vector over comments (absent = 0)."""
        g = self.graph
        scored = score_comments(
            g, range(g.num_comments), algorithm=self.algorithm, executor=self.executor
        )
        idx = np.fromiter(scored.keys(), dtype=np.int64, count=len(scored))
        vals = np.fromiter(scored.values(), dtype=np.int64, count=len(scored))
        return Vector.from_coo(idx, vals, g.num_comments, dtype=INT64)

    def evaluate_entries(self) -> list[tuple[int, int, int]]:
        """Top-k (comment_id, score, timestamp) triples, contest ordering."""
        g = self.graph
        dense = self.scores().to_dense()
        return top_k_entries(
            dense, g.comment_timestamps, g.comments.external_array(), self.k
        )

    def evaluate(self) -> list[tuple[int, int]]:
        return [(ext, score) for ext, score, _ in self.evaluate_entries()]

    def result_string(self) -> str:
        return "|".join(str(ext) for ext, _ in self.evaluate())


# ---------------------------------------------------------------------------
# incremental
# ---------------------------------------------------------------------------


class Q2Incremental:
    """Affected-comment detection + re-scoring (Fig. 4b, steps 1-9).

    ``algorithm="incremental"`` switches step 8 from a FastSV re-run to
    dynamically maintained per-comment components (future-work item (2)):
    each comment keeps an :class:`IncrementalCC` of its likers, updated in
    O(α) per inserted like/friendship, and Σ size² is read in O(1).
    """

    name = "Q2"

    def __init__(
        self,
        graph: SocialGraph,
        k: int = 3,
        algorithm: str = "fastsv",
        executor: Optional[Executor] = None,
    ):
        if algorithm not in ("fastsv", "unionfind", "incremental", "batched"):
            raise ReproError(f"unknown Q2 algorithm {algorithm!r}")
        self.graph = graph
        self.k = k
        self.algorithm = algorithm
        self.executor = executor
        #: dense scores over comments (see :func:`~repro.queries.topk.grow_scores`)
        self._scores: np.ndarray | None = None
        self.tracker = TopKTracker(k)
        # state for the "incremental" components mode
        self._cc: dict[int, IncrementalCC] = {}
        self._likers: dict[int, set[int]] = {}
        self._user_likes: dict[int, set[int]] = {}
        self._friend_adj: dict[int, set[int]] = {}

    @property
    def scores(self) -> Vector | None:
        """The maintained scores as a full vector, materialised on demand."""
        if self._scores is None:
            return None
        return Vector.from_dense(self._scores[: self.graph.num_comments])

    def _overwrite(self, scored: dict[int, int]) -> np.ndarray:
        """``scores<scored> <- scored``; returns the written indices."""
        idx = np.fromiter(scored.keys(), dtype=np.int64, count=len(scored))
        self._scores[idx] = np.fromiter(
            scored.values(), dtype=np.int64, count=len(scored)
        )
        return idx

    # -- phase 1 ----------------------------------------------------------

    def initial(self) -> list[tuple[int, int]]:
        g = self.graph
        self._scores = np.zeros(g.num_comments, dtype=np.int64)
        if self.algorithm == "incremental":
            self._build_dynamic_state()
            self._overwrite({c: cc.sum_squared_sizes for c, cc in self._cc.items()})
        elif self.executor is None and self.algorithm in ("fastsv", "batched"):
            # one block-diagonal FastSV over every like slot (q2_batched)
            self._scores = batched_comment_scores(g)
        else:
            self._overwrite(
                score_comments(
                    g,
                    range(g.num_comments),
                    algorithm=self.algorithm,
                    executor=self.executor,
                )
            )
        # vectorised seed (one top-k selection; see Q1Incremental.initial)
        self.tracker.reseed(
            top_k_entries(
                self._scores, g.comment_timestamps, g.comments.external_array(), self.k
            )
        )
        return self.tracker.top()

    def _build_dynamic_state(self) -> None:
        """Materialise the per-comment union-find state from the matrices."""
        g = self.graph
        likes = g.likes
        li = likes.indptr
        for c in range(g.num_comments):
            users = likes._cols[li[c] : li[c + 1]]
            if users.size == 0:
                continue
            self._likers[c] = set(users.tolist())
            for u in users.tolist():
                self._user_likes.setdefault(u, set()).add(c)
        friends = g.friends
        fi = friends.indptr
        for u in range(g.num_users):
            nbrs = friends._cols[fi[u] : fi[u + 1]]
            if nbrs.size:
                self._friend_adj[u] = set(nbrs.tolist())
        for c, likers in self._likers.items():
            cc = IncrementalCC()
            for u in likers:
                cc.add_vertex(u)
            for u in likers:
                for v in self._friend_adj.get(u, ()):
                    if v > u and v in likers:
                        cc.add_edge(u, v)
            self._cc[c] = cc

    # -- phase 2 ----------------------------------------------------------

    def _affected_comments(self, delta: GraphDelta) -> np.ndarray:
        """Steps 1-5 of Fig. 4b (lower half): the ``ac`` set, delta-targeted.

        Extension: removed likes and removed friendships affect comments by
        the exact dual argument -- an unlike shrinks the induced subgraph, an
        unfriend may *split* a component of any comment both users like --
        so the same per-pair intersection runs on the removed edges.
        """
        return affected_comments_delta(self.graph, delta)

    def _apply_dynamic(self, delta: GraphDelta) -> None:
        """Maintain per-comment components across one change set."""
        like_c, like_u = delta.new_likes
        for c, u in zip(like_c.tolist(), like_u.tolist()):
            cc = self._cc.get(c)
            if cc is None:
                cc = self._cc[c] = IncrementalCC()
            cc.add_vertex(u)
            likers = self._likers.setdefault(c, set())
            for f in self._friend_adj.get(u, set()) & likers:
                cc.add_edge(u, f)
            likers.add(u)
            self._user_likes.setdefault(u, set()).add(c)
        fa, fb = delta.new_friendships
        for a, b in zip(fa.tolist(), fb.tolist()):
            for c in self._user_likes.get(a, set()) & self._user_likes.get(b, set()):
                self._cc[c].add_edge(a, b)
            self._friend_adj.setdefault(a, set()).add(b)
            self._friend_adj.setdefault(b, set()).add(a)

    def _apply_dynamic_removals(self, delta: GraphDelta) -> None:
        """Extension: fold edge removals into the dynamic state.

        Union-find cannot split, so every comment whose subgraph *lost* an
        edge or vertex gets its structure rebuilt from the (already updated)
        index sets -- the standard decremental fallback of Ediger-style
        streaming CC.  Cost is proportional to the affected subgraphs only.
        """
        rebuild: set[int] = set()
        unlike_c, unlike_u = delta.removed_likes
        for c, u in zip(unlike_c.tolist(), unlike_u.tolist()):
            self._likers.get(c, set()).discard(u)
            self._user_likes.get(u, set()).discard(c)
            rebuild.add(c)
        fa, fb = delta.removed_friendships
        for a, b in zip(fa.tolist(), fb.tolist()):
            self._friend_adj.get(a, set()).discard(b)
            self._friend_adj.get(b, set()).discard(a)
            rebuild.update(
                self._user_likes.get(a, set()) & self._user_likes.get(b, set())
            )
        for c in rebuild:
            likers = self._likers.get(c, set())
            cc = IncrementalCC()
            for u in likers:
                cc.add_vertex(u)
            for u in likers:
                for v in self._friend_adj.get(u, ()):
                    if v > u and v in likers:
                        cc.add_edge(u, v)
            self._cc[c] = cc

    def update(self, delta: GraphDelta) -> list[tuple[int, int]]:
        """Steps 1-9 of Fig. 4b: detect the affected comments, re-score
        them, overwrite their scores, merge the top-3.

        Removals may lower scores; the merge stays exact under decreases
        (:meth:`~repro.queries.topk.TopKTracker.refresh`).
        """
        if self._scores is None:
            raise RuntimeError("call initial() before update()")
        if (
            delta.new_comment_idx.size == 0
            and delta.new_likes[0].size == 0
            and delta.new_friendships[0].size == 0
            and not delta.has_removals
        ):
            # Post-/user-only change set: no comment, like or friendship
            # moved, so no induced liker subgraph -- and no score -- changed.
            return self.tracker.top()
        g = self.graph
        affected = self._affected_comments(delta)

        # Steps 6-9: re-score the affected comments only.
        if self.algorithm == "incremental":
            if delta.has_removals:
                self._apply_dynamic_removals(delta)
            self._apply_dynamic(delta)
            scored = {
                int(c): self._cc[c].sum_squared_sizes if c in self._cc else 0
                for c in affected.tolist()
            }
        else:
            scored = score_comments(
                g, affected.tolist(), algorithm=self.algorithm, executor=self.executor
            )

        n_comments = g.num_comments
        self._scores = grow_scores(self._scores, n_comments)
        # scores' <- scores overwritten at changed positions ("new scores
        # overwrite existing ones", Sec. III)
        changed = self._overwrite(scored)
        return self.tracker.refresh(
            self._scores[:n_comments],
            g.comment_timestamps,
            g.comments.external_array(),
            changed,
        )

    def result_string(self) -> str:
        return self.tracker.result_string()
