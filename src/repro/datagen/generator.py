"""The synthetic graph generator (LDBC Datagen substitute).

Given a scale factor, produce a :class:`~repro.model.graph.SocialGraph`
whose node and edge counts match Table II and whose degree distributions are
Facebook-like (see :mod:`repro.datagen.distributions`), plus the insert
change sequence for the update phase.

Entity-count composition (calibrated on the edge budget identity)::

    nodes = U + P + C
    edges = C (rootPost) + replies (commented) + L (likes) + F (friends)

with U ≈ 0.28·nodes, P ≈ 0.08·nodes, replies ≈ 0.72·C, and the remaining
edge budget split 60/40 between likes and friendships.  External ids live in
disjoint ranges (users 1e6+, posts 2e6+, comments 3e6+) so the submission
namespace is collision-free.

Run as a module to write CSVs::

    python -m repro.datagen.generator --scale 4 --out data/sf4 --seed 42
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

import numpy as np

from repro.datagen.distributions import sample_pairs_without_replacement, sample_zipf
from repro.datagen.table2 import row_for
from repro.datagen.updates import generate_change_sets
from repro.model.graph import SocialGraph
from repro.model.loader import save_change_sets, save_graph
from repro.util.validation import ReproError

__all__ = ["GeneratorConfig", "generate_graph", "generate_benchmark_input", "main"]

USER_ID_BASE = 1_000_000
POST_ID_BASE = 2_000_000
COMMENT_ID_BASE = 3_000_000
TS_BASE = 1_000_000


@dataclass(frozen=True)
class GeneratorConfig:
    """Tunable knobs; defaults reproduce Table II's composition."""

    user_fraction: float = 0.28
    post_fraction: float = 0.08
    reply_fraction: float = 0.72  # comments whose parent is a comment
    like_edge_share: float = 0.60  # of the residual edge budget
    comment_popularity_exp: float = 0.85  # Zipf exponent for like targets
    user_activity_exp: float = 0.70  # Zipf exponent for user endpoints
    post_popularity_exp: float = 0.80  # Zipf exponent for comment placement


def _plan_counts(nodes: int, edges: int, cfg: GeneratorConfig) -> dict[str, int]:
    users = max(4, int(round(nodes * cfg.user_fraction)))
    posts = max(2, int(round(nodes * cfg.post_fraction)))
    comments = max(3, nodes - users - posts)
    replies = int(round(comments * cfg.reply_fraction))
    structural = comments + replies  # rootPost + commented edges
    residual = max(0, edges - structural)
    likes = int(round(residual * cfg.like_edge_share))
    friends = residual - likes
    return {
        "users": users,
        "posts": posts,
        "comments": comments,
        "replies": replies,
        "likes": likes,
        "friends": friends,
    }


def generate_graph(
    scale_factor: int,
    seed: int = 42,
    config: GeneratorConfig | None = None,
    storage: str | None = None,
) -> SocialGraph:
    """Initial graph for one scale factor (deterministic in ``seed``)."""
    row = row_for(scale_factor)
    cfg = config or GeneratorConfig()
    plan = _plan_counts(row.nodes, row.edges, cfg)
    rng = np.random.default_rng(seed + scale_factor)
    g = SocialGraph(storage=storage)

    n_users, n_posts, n_comments = plan["users"], plan["posts"], plan["comments"]

    for i in range(n_users):
        g.add_user(USER_ID_BASE + i, f"user{i}")

    ts = TS_BASE
    post_authors = sample_zipf(rng, n_users, n_posts, cfg.user_activity_exp)
    for i in range(n_posts):
        g.add_post(POST_ID_BASE + i, ts, USER_ID_BASE + int(post_authors[i]))
        ts += 1

    # Comment placement: each comment picks a post (Zipf-popular) or an
    # earlier comment (quadratically early-biased -> preferential-like trees).
    comment_authors = sample_zipf(rng, n_users, n_comments, cfg.user_activity_exp)
    reply_flags = rng.random(n_comments) < cfg.reply_fraction
    post_parents = sample_zipf(rng, n_posts, n_comments, cfg.post_popularity_exp)
    reply_positions = rng.random(n_comments) ** 2
    for i in range(n_comments):
        if reply_flags[i] and i > 0:
            parent_ext = COMMENT_ID_BASE + int(reply_positions[i] * i)
        else:
            parent_ext = POST_ID_BASE + int(post_parents[i])
        g.add_comment(
            COMMENT_ID_BASE + i, ts, USER_ID_BASE + int(comment_authors[i]), parent_ext
        )
        ts += 1

    # Likes: hot comments attract many likes (Q2's large subgraphs).
    like_c, like_u = sample_pairs_without_replacement(
        rng,
        n_comments,
        n_users,
        plan["likes"],
        cfg.comment_popularity_exp,
        cfg.user_activity_exp,
    )
    for c, u in zip(like_c.tolist(), like_u.tolist()):
        g.add_like(USER_ID_BASE + u, COMMENT_ID_BASE + c)

    # Friendships: heavy-tailed symmetric pairs.
    fr_a, fr_b = sample_pairs_without_replacement(
        rng,
        n_users,
        n_users,
        plan["friends"],
        cfg.user_activity_exp,
        cfg.user_activity_exp,
        symmetric=True,
    )
    for a, b in zip(fr_a.tolist(), fr_b.tolist()):
        g.add_friendship(USER_ID_BASE + a, USER_ID_BASE + b)

    return g


def generate_benchmark_input(
    scale_factor: int,
    seed: int = 42,
    num_change_sets: int = 10,
    config: GeneratorConfig | None = None,
    removal_fraction: float = 0.0,
):
    """(initial graph, change sequence) for one Fig. 5 data point.

    ``removal_fraction > 0`` generates the mixed insert/remove stream of the
    removal extension (paper future work).
    """
    g = generate_graph(scale_factor, seed=seed, config=config)
    row = row_for(scale_factor)
    change_sets = generate_change_sets(
        g,
        total_inserts=row.inserts,
        num_change_sets=num_change_sets,
        seed=seed + 7 * scale_factor,
        removal_fraction=removal_fraction,
    )
    return g, change_sets


def main(argv=None) -> int:
    """CLI: write a generated graph + changes to a directory as CSV."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", type=int, default=1, help="Table II scale factor")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--change-sets", type=int, default=10)
    ap.add_argument("--out", required=True, help="output directory")
    args = ap.parse_args(argv)
    graph, changes = generate_benchmark_input(
        args.scale, seed=args.seed, num_change_sets=args.change_sets
    )
    save_graph(args.out, graph)
    save_change_sets(args.out, changes)
    stats = graph.stats()
    print(
        f"SF{args.scale}: nodes={stats['nodes']} edges={stats['edges']} "
        f"inserts={sum(len(cs) for cs in changes)} -> {args.out}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
