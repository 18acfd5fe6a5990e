"""Q2 batch scoring with ONE FastSV run over all comments (extension).

The published solution loops over comments, extracting each induced Friends
subgraph and running connected components on it -- and parallelises that
loop with OpenMP.  Linear algebra offers a better trick: make the loop a
*single* algebraic computation.

Construct the block-diagonal "liker graph": one vertex per **(comment, user)
like pair** -- i.e. per stored entry of the Likes matrix -- and one edge
between two vertices iff they belong to the same comment and their users are
friends.  Distinct comments can never connect (their vertices differ in the
comment coordinate), so the graph is a disjoint union of every comment's
induced subgraph, and one FastSV call labels all components of all comments
simultaneously.  Per-comment scores are then two ``bincount``s away.

Complexity: O(nnz(Likes) + Σ_c induced-edges) fully vectorised -- the same
work the per-comment loop does, minus every per-comment constant (Matrix
construction, FastSV setup, Python dispatch).
"""

from __future__ import annotations

import numpy as np

from repro.graphblas import ops as _ops
from repro.graphblas import types as _gbtypes
from repro.graphblas._kernels.csr import expand_rows, row_ranges
from repro.graphblas.matrix import Matrix
from repro.lagraph.fastsv import fastsv
from repro.model.graph import SocialGraph

__all__ = ["batched_comment_scores"]


def batched_comment_scores(graph: SocialGraph, comments=None) -> dict[int, int]:
    """Scores for the given comments (default: all) via one FastSV run.

    Returns ``{comment_idx: score}`` for every requested comment that has at
    least one like; comments without likes score 0 and are omitted, matching
    :func:`repro.queries.q2.score_comments`.
    """
    likes = graph.likes
    friends = graph.friends
    nv = likes.nvals
    if nv == 0:
        return {}

    li = likes.indptr
    comment_of = expand_rows(li)  # per like-entry: its comment
    users = likes._cols  # per like-entry: its user
    n_users = likes.ncols

    if comments is not None:
        wanted = np.zeros(graph.num_comments, dtype=np.bool_)
        wanted[np.asarray(list(comments), dtype=np.int64)] = True
        entry_sel = wanted[comment_of]
    else:
        entry_sel = None

    # Expand every like-entry's user over its friend list (vectorised CSR
    # gather), then locate the friend *within the same comment's* like
    # entries by a searchsorted on the canonical (comment, user) keys.
    fi = friends.indptr
    fc = friends._cols
    entry_idx, src_entry = row_ranges(fi, users)
    nb = fc[entry_idx]

    like_keys = comment_of * np.int64(n_users) + users  # sorted (canonical)
    want = comment_of[src_entry] * np.int64(n_users) + nb
    pos = np.searchsorted(like_keys, want)
    pos[pos == nv] = 0
    valid = like_keys[pos] == want
    src = src_entry[valid]
    dst = pos[valid]
    keep = src < dst  # one direction; symmetrised below
    src, dst = src[keep], dst[keep]

    if entry_sel is not None:
        edge_keep = entry_sel[src]  # src and dst share a comment
        src, dst = src[edge_keep], dst[edge_keep]

    if src.size:
        block = Matrix.from_coo(
            np.concatenate([src, dst]),
            np.concatenate([dst, src]),
            True,
            nv,
            nv,
            dtype=_gbtypes.BOOL,
            dup_op=_ops.lor,
        )
        labels = fastsv(block).to_dense()
    else:
        labels = np.arange(nv, dtype=np.int64)

    # Component sizes: FastSV labels every vertex with its component's
    # minimum vertex id, so sizes fall out of one bincount; component ->
    # comment is read off any member (we use the representative itself).
    sizes = np.bincount(labels, minlength=nv)
    comp_ids = np.flatnonzero(sizes)
    comp_sizes = sizes[comp_ids].astype(np.int64)
    comp_comment = comment_of[comp_ids]
    if entry_sel is not None:
        sel = entry_sel[comp_ids]
        comp_sizes, comp_comment = comp_sizes[sel], comp_comment[sel]

    per_comment = np.zeros(graph.num_comments, dtype=np.int64)
    np.add.at(per_comment, comp_comment, comp_sizes**2)
    scored = np.flatnonzero(per_comment)
    out = dict(zip(scored.tolist(), per_comment[scored].tolist()))
    if comments is not None:
        # include requested comments that have likes but score computed 0?
        # (impossible: >=1 like => score >= 1), so restrict to request only.
        out = {c: s for c, s in out.items() if wanted[c]}
    return out
