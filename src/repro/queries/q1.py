"""Q1 -- "influential posts" (paper Sec. III, Alg. 1 and Alg. 2).

Score of a Post = 10 x (number of direct or indirect Comments)
                 + (number of likes on those Comments).

Because every Comment carries a ``rootPost`` pointer, the comment tree never
has to be traversed: the ``RootPost`` matrix (|posts| x |comments|) already
links each post to *all* its comments, and the whole query is two reductions
and one sparse matrix-vector product.
"""

from __future__ import annotations

import numpy as np

from repro.graphblas import monoid as _monoid
from repro.graphblas import ops as _ops
from repro.graphblas import semiring as _semiring
from repro.graphblas.types import INT64
from repro.graphblas.vector import Vector
from repro.model.graph import GraphDelta, SocialGraph
from repro.queries.topk import TopKTracker, grow_scores, top_k_entries

__all__ = ["Q1Batch", "Q1Incremental"]

_PLUS = _monoid.plus_monoid
_PLUS_TIMES = _semiring.get("plus_times")
_MUL10 = _ops.times.bind_second(np.int64(10))


def _likes_count(graph: SocialGraph) -> Vector:
    """likesCount ∈ N^{|comments|}: incoming likes per comment (row-wise sum)."""
    return graph.likes.reduce_vector(_PLUS, dtype=INT64)


def _scores_from(root_post, likes_count: Vector) -> Vector:
    """Alg. 1 lines 6-9 on an arbitrary RootPost matrix and likes vector."""
    # line 6: sum <- [⊕_j RootPost(:, j)]          (# comments per post)
    total = root_post.reduce_vector(_PLUS, dtype=INT64)
    # line 7: repliesScores <- 10 x sum            (GrB_apply, mul-by-10)
    replies_scores = total.apply(_MUL10)
    # line 8: likesScore <- RootPost ⊕.⊗ likesCount
    likes_score = root_post.mxv(likes_count, _PLUS_TIMES)
    # line 9: scores <- repliesScores ⊕ likesScore
    return replies_scores.ewise_add(likes_score, _ops.plus)


class Q1Batch:
    """Alg. 1: full evaluation of every post's score, then top-3."""

    name = "Q1"

    def __init__(self, graph: SocialGraph, k: int = 3):
        self.graph = graph
        self.k = k

    def scores(self) -> Vector:
        """The complete scores vector (sparse; absent = score 0)."""
        return _scores_from(self.graph.root_post, _likes_count(self.graph))

    def evaluate_entries(self) -> list[tuple[int, int, int]]:
        """Top-k (post_id, score, timestamp) triples, contest ordering."""
        g = self.graph
        dense = self.scores().to_dense()
        return top_k_entries(dense, g.post_timestamps, g.posts.external_array(), self.k)

    def evaluate(self) -> list[tuple[int, int]]:
        """Top-k (post_id, score) under the contest ordering."""
        return [(ext, score) for ext, score, _ in self.evaluate_entries()]

    def result_string(self) -> str:
        return "|".join(str(ext) for ext, _ in self.evaluate())


class Q1Incremental:
    """Alg. 2: maintain the scores vector and top-3 across updates.

    ``initial()`` performs one batch evaluation (the paper's GraphBLAS
    Incremental variant does the same on the first step); each ``update()``
    then costs O(|Δ|) instead of a full recomputation.  The scores live in
    one dense array (a full vector, :func:`~repro.queries.topk.grow_scores`)
    that updates accumulate into at the delta's indices.
    """

    name = "Q1"

    def __init__(self, graph: SocialGraph, k: int = 3):
        self.graph = graph
        self.k = k
        self._scores: np.ndarray | None = None
        self.tracker = TopKTracker(k)

    @property
    def scores(self) -> Vector | None:
        """The maintained scores as a full vector, materialised on demand."""
        if self._scores is None:
            return None
        return Vector.from_dense(self._scores[: self.graph.num_posts])

    # -- phase 1: initial full evaluation --------------------------------

    def initial(self) -> list[tuple[int, int]]:
        g = self.graph
        self._scores = _scores_from(g.root_post, _likes_count(g)).to_dense()
        # vectorised seed: the tracker only ever retains k survivors, so
        # one top-k selection replaces offering every post through Python
        self.tracker.reseed(
            top_k_entries(
                self._scores, g.post_timestamps, g.posts.external_array(), self.k
            )
        )
        return self.tracker.top()

    # -- phase 2: incremental maintenance (Alg. 2) -----------------------

    def update(self, delta: GraphDelta) -> list[tuple[int, int]]:
        """Lines 9-14 of Alg. 2, then the top-3 merge.

        The rootPost pointer column *is* RootPost' -- one entry per comment
        -- so ``RootPost' ⊕.⊗ likesCount+`` and ``10 x [⊕_j ΔRootPost(:, j)]``
        reduce to accumulating +10 per new comment and +1 per new like at
        the comment's root post (line 13, ``scores' <- scores ⊕ scores+``,
        restricted to the structure of scores+).

        Extension: a removed like (see :mod:`repro.model.changes`)
        accumulates -1 -- the algebra of Alg. 2 is signed and needs no
        other change.  The top-3 merge stays exact under decreases: see
        :meth:`~repro.queries.topk.TopKTracker.refresh`.
        """
        if self._scores is None:
            raise RuntimeError("call initial() before update()")
        if (
            delta.new_post_idx.size == 0
            and delta.new_comment_idx.size == 0
            and delta.new_likes[0].size == 0
            and delta.removed_likes[0].size == 0
        ):
            # Friendship-only (or user-only) change set: both Alg. 2 inputs
            # (ΔRootPost, likesCount+) are empty, so no score can move.
            return self.tracker.top()
        g = self.graph
        n_posts = delta.n_posts_after
        scores = self._scores = grow_scores(self._scores, n_posts)
        root = g.comment_root_posts()
        # line 14: Δscores<scores+> -- brand-new posts score 0 but may place
        changed = [delta.new_post_idx]
        for comments, weight in (
            (delta.new_comment_idx, 10),
            (delta.new_likes[0], 1),
            (delta.removed_likes[0], -1),
        ):
            if comments.size:
                posts = root[comments]
                np.add.at(scores, posts, weight)
                changed.append(posts)
        return self.tracker.refresh(
            scores[:n_posts],
            g.post_timestamps,
            g.posts.external_array(),
            np.concatenate(changed),
        )

    def result_string(self) -> str:
        return self.tracker.result_string()
