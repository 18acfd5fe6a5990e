"""Q2 scoring with ONE FastSV run over many comments (extension).

The published solution loops over comments, extracting each induced Friends
subgraph and running connected components on it -- and parallelises that
loop with OpenMP.  Linear algebra offers a better trick: make the loop a
*single* algebraic computation.

Construct the block-diagonal "liker graph": one vertex per **(comment, user)
like slot** -- a stored entry of the Likes matrix in a requested comment's
row -- and one edge between two vertices iff they belong to the same
comment and their users are friends.  Distinct comments can never connect
(their vertices differ in the comment coordinate), so the graph is a
disjoint union of every comment's induced subgraph, and one FastSV call
labels all components of all comments simultaneously.  Per-comment scores
are then a ``bincount`` away.

This is the served initial pass: :meth:`repro.queries.q2.Q2Incremental.initial`
scores every comment here (``algorithm`` ``"fastsv"`` or ``"batched"``, no
executor), and ``algorithm="batched"`` re-scores affected comments here.
The per-comment loop in :mod:`repro.queries.q2` stays the independent
oracle (``Q2Batch``, ``algorithm="unionfind"``, the executor path).

Complexity: O(nnz(requested likes) + Σ deg(u) over their likers), fully
vectorised -- the same work the per-comment loop does, minus every
per-comment constant (Matrix construction, FastSV setup, Python dispatch).
Memory: the friend expansion gathers Σ deg(u) entries (4.37 M for every
comment at SF128), so it runs in slices of at most ``_EXPAND_CHUNK``
gathered entries; only the induced edges it keeps outlive a slice.
"""

from __future__ import annotations

import numpy as np

from repro.graphblas import ops as _ops
from repro.graphblas import types as _gbtypes
from repro.graphblas._kernels.csr import iter_row_ranges, row_ranges
from repro.graphblas.matrix import Matrix
from repro.lagraph.fastsv import fastsv
from repro.model.graph import SocialGraph

__all__ = ["batched_comment_scores"]

#: gathered friend entries per expansion slice
_EXPAND_CHUNK = 1 << 14


def batched_comment_scores(graph: SocialGraph, comments=None) -> np.ndarray:
    """Scores of ``comments`` (default: all) via one FastSV run.

    Returns an ``int64`` array aligned with the request: ``out[k]`` is the
    score of ``comments[k]``, and a comment nobody likes scores an explicit
    0, as in :func:`repro.queries.q2.score_comments`.  With the default,
    ``out`` is the dense score vector over ``graph.num_comments``.
    """
    likes = graph.likes
    if comments is None:
        comments = np.arange(graph.num_comments, dtype=np.int64)
    comments = np.asarray(comments, dtype=np.int64)
    out = np.zeros(comments.size, dtype=np.int64)
    # one vertex per requested like slot, grouped by request position
    entries, slot_group = row_ranges(likes.indptr, comments)
    n_slots = entries.size
    if n_slots == 0:
        return out
    users = likes._cols[entries]
    src, dst = _slot_edges(graph.friends, slot_group, users, likes.ncols)
    if src.size:
        block = Matrix.from_coo(
            np.concatenate([src, dst]),
            np.concatenate([dst, src]),
            True,
            n_slots,
            n_slots,
            dtype=_gbtypes.BOOL,
            dup_op=_ops.lor,
        )
        labels = fastsv(block).to_dense()
    else:
        labels = np.arange(n_slots, dtype=np.int64)
    # FastSV labels every vertex with its component's minimum vertex id,
    # so sizes fall out of one bincount and each representative names
    # its component's comment
    sizes = np.bincount(labels, minlength=n_slots)
    reps = np.flatnonzero(sizes)
    np.add.at(out, slot_group[reps], sizes[reps].astype(np.int64) ** 2)
    return out


def _slot_edges(friends, slot_group, users, n_users):
    """Friend edges between like slots of the same group, ``src < dst``.

    Expands every slot's user over its friend list in bounded slices and
    locates each friend among the same group's slots by a searchsorted on
    the (group, user) keys, which ascend because groups are gathered in
    order and each CSR row's users are sorted.
    """
    keys = slot_group * np.int64(n_users) + users
    fc = friends._cols
    srcs, dsts = [], []
    for entry_idx, src in iter_row_ranges(friends.indptr, users, _EXPAND_CHUNK):
        want = slot_group[src] * np.int64(n_users) + fc[entry_idx]
        pos = np.searchsorted(keys, want)
        pos[pos == keys.size] = 0
        keep = (keys[pos] == want) & (src < pos)  # one direction per pair
        srcs.append(src[keep])
        dsts.append(pos[keep])
    if not srcs:
        return (np.zeros(0, np.int64),) * 2
    return np.concatenate(srcs), np.concatenate(dsts)
