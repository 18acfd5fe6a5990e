"""Top-k selection and incremental top-k maintenance.

The case study orders both queries' results by score (descending), breaking
ties by timestamp (descending: newer wins) and finally by external id
(ascending) for full determinism.  ``k = 3`` throughout the contest.

:class:`TopKTracker` implements the paper's merge rule for incremental
evaluation: under the contest's original insert-only update language both
queries' scores are monotonically non-decreasing, so the new top-k is
always contained in ``previous top-k ∪ entities whose score changed``, and
feeding the tracker the changed scores per update maintains the exact
top-k in O(|changed| log k) instead of a full rescan.

**Removal extension** (``RemoveLike`` / ``RemoveFriendship``, see
:mod:`repro.model.changes`): with removals in the update stream scores are
no longer monotone, but the merge rule survives every change set that
lowers no *pooled* score: an unchanged outsider ranked below every pooled
entity before and still does, so the new top-k again lies in ``pool ∪
changed``.  :meth:`TopKTracker.refresh` applies exactly that rule and
reselects from the dense scores -- :func:`top_k_entries`, O(|entities|) --
only when a pooled entity lost score.
"""

from __future__ import annotations

import heapq
from typing import Iterable

import numpy as np

__all__ = ["top_k", "top_k_entries", "grow_scores", "TopKTracker"]


def _sort_key(entry: tuple[int, int, int]):
    score, ts, ext_id = entry
    return (-score, -ts, ext_id)


def top_k_entries(
    scores: np.ndarray, timestamps: np.ndarray, external_ids: np.ndarray, k: int = 3
) -> list[tuple[int, int, int]]:
    """Top-k (external_id, score, timestamp) triples, contest ordering.

    O(n) selection: ``np.partition`` finds the k-th highest score, and only
    the entities at or above it -- k plus the ties on that score -- are
    ordered by ``np.lexsort`` over (score desc, timestamp desc, external id
    asc).  This is the reselect path of the removal extension and of the
    incremental engines' initial evaluation.  The timestamp rides along so
    callers can reseed a :class:`TopKTracker` without building an
    entity->timestamp dict over the whole graph.
    """
    scores = np.asarray(scores)
    n = scores.size
    ts = np.asarray(timestamps)
    ext = np.asarray(external_ids)
    if 0 < k < n:
        at_or_above = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k])
    else:
        at_or_above = np.arange(n)
    s, t, e = scores[at_or_above], ts[at_or_above], ext[at_or_above]
    # lexsort: last key is primary; negate the descending keys
    order = np.lexsort((e, -t, -s))[:k]
    return list(zip(e[order].tolist(), s[order].tolist(), t[order].tolist()))


def top_k(
    scores: np.ndarray, timestamps: np.ndarray, external_ids: np.ndarray, k: int = 3
) -> list[tuple[int, int]]:
    """Top-k (external_id, score) pairs under the contest ordering.

    ``scores`` is a *dense* array over all entities (absent scores are 0 --
    a post with no comments still has a well-defined score of zero and may
    appear in the top-k of a small graph, as in the paper's Fig. 3 example
    where only two posts exist).
    """
    return [(ext, score) for ext, score, _ in top_k_entries(scores, timestamps, external_ids, k)]


def grow_scores(scores: np.ndarray, n: int) -> np.ndarray:
    """Dense ``int64`` scores with room for ``n`` entities.

    The incremental engines' state: a GraphBLAS *full* vector whose
    capacity doubles, so entity growth costs amortised O(1) per entity and
    an update touches the delta's indices only.  New slots score 0.
    """
    if n <= scores.size:
        return scores
    grown = np.zeros(max(n, 2 * scores.size), dtype=np.int64)
    grown[: scores.size] = scores
    return grown


class TopKTracker:
    """Maintains the exact top-k across score updates (see the module docstring)."""

    def __init__(self, k: int = 3):
        self.k = k
        #: best known (score, ts, ext_id) per candidate currently in the pool
        self._pool: dict[int, tuple[int, int, int]] = {}

    def offer(self, ext_id: int, score: int, timestamp: int) -> None:
        """Report a (possibly new) score for an entity."""
        prev = self._pool.get(ext_id)
        entry = (int(score), int(timestamp), int(ext_id))
        if prev is None or prev[0] < entry[0]:
            self._pool[ext_id] = entry

    def offer_many(self, items: Iterable[tuple[int, int, int]]) -> None:
        """Bulk :meth:`offer`; items are (ext_id, score, timestamp)."""
        for ext_id, score, ts in items:
            self.offer(ext_id, score, ts)

    def reseed(self, entries: Iterable[tuple[int, int, int]]) -> None:
        """Replace the pool outright; items are (ext_id, score, timestamp).

        For when the merge rule does not apply: a decrease of a pooled
        score can promote an entity pruned earlier, so the caller re-derives
        the candidate set from all scores (:meth:`refresh` does so itself).
        """
        self._pool = {
            int(ext): (int(score), int(ts), int(ext)) for ext, score, ts in entries
        }

    def refresh(
        self,
        scores: np.ndarray,
        timestamps: np.ndarray,
        external_ids: np.ndarray,
        changed: np.ndarray,
    ) -> list[tuple[int, int]]:
        """Exact top-k after the scores at indices ``changed`` moved, up or down.

        The three arrays are dense over all entities and hold the *new*
        values; ``changed`` names every entity whose score moved and every
        new entity.  While no pooled entity lost score the merge rule
        holds and the changed entities are offered at their current scores,
        O(|changed|); only when one did is the pool reselected from the
        dense scores with :func:`top_k_entries`.
        """
        pool = self._pool
        for score, ts, ext in zip(
            scores[changed].tolist(),
            timestamps[changed].tolist(),
            external_ids[changed].tolist(),
        ):
            prev = pool.get(ext)
            if prev is not None and score < prev[0]:
                self.reseed(top_k_entries(scores, timestamps, external_ids, self.k))
                break
            pool[ext] = (score, ts, ext)
        return self.top()

    def top(self) -> list[tuple[int, int]]:
        """Current top-k (external_id, score), contest ordering.

        Also prunes the pool to the k survivors: a pruned entity can only
        re-enter when its own score changes again, in which case it is
        re-offered, or when a pooled score falls, which reselects.
        """
        return [(ext, score) for ext, score, _ in self.top_entries()]

    def top_entries(self) -> list[tuple[int, int, int]]:
        """Current top-k as (external_id, score, timestamp) triples.

        Same pool-pruning contract as :meth:`top`.  The timestamp rides
        along for the sharded merge protocol: a router combining per-shard
        top-k partials needs the full contest ordering key
        (score desc, timestamp desc, external id asc) to reproduce the
        unsharded top-k exactly (see :mod:`repro.sharding.merge`).
        """
        entries = sorted(self._pool.values(), key=_sort_key)[: self.k]
        self._pool = {e[2]: e for e in entries}
        return [(ext, score, ts) for score, ts, ext in entries]

    def result_string(self) -> str:
        """The TTC framework's result format: ids joined by ``|``."""
        return "|".join(str(ext) for ext, _ in self.top())
