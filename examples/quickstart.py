#!/usr/bin/env python
"""Quickstart: the paper's worked example (Fig. 3), end to end.

Builds the initial example graph, evaluates Q1 ("influential posts") and Q2
("influential comments") in batch mode, applies the six-element update of
Fig. 3b, and re-evaluates both incrementally -- printing every score the
paper states so you can check them against the figures.  A final section
runs the same update through the architecture the repo has grown into: a
:class:`~repro.serving.GraphService` serving the queries *and* a live
analytics tool from its versioned cache (see README.md and DESIGN.md).

Run:  python examples/quickstart.py
"""

from repro.model import (
    AddComment,
    AddFriendship,
    AddLike,
    ChangeSet,
    SocialGraph,
)
from repro.queries import Q1Batch, Q1Incremental, Q2Batch, Q2Incremental
from repro.serving import GraphService


def build_initial_graph() -> SocialGraph:
    """Fig. 3a: 4 users, 2 posts, 3 comments, 2 friendships, 5 likes."""
    g = SocialGraph()
    for uid, name in ((101, "u1"), (102, "u2"), (103, "u3"), (104, "u4")):
        g.add_user(uid, name)
    g.add_post(11, timestamp=10, user_id=101)          # p1
    g.add_post(12, timestamp=11, user_id=102)          # p2
    g.add_comment(21, 20, 102, parent_id=11)           # c1 under p1
    g.add_comment(22, 21, 101, parent_id=21)           # c2, reply to c1
    g.add_comment(23, 22, 103, parent_id=12)           # c3 under p2
    g.add_friendship(102, 103)                         # u2 -- u3
    g.add_friendship(103, 104)                         # u3 -- u4
    g.add_like(102, 21)                                # u2 likes c1
    g.add_like(103, 21)                                # u3 likes c1
    g.add_like(101, 22)                                # u1 likes c2
    g.add_like(103, 22)                                # u3 likes c2
    g.add_like(104, 22)                                # u4 likes c2
    return g


def fig3b_update() -> ChangeSet:
    """The update inserting six entities (Fig. 3b)."""
    return ChangeSet(
        [
            AddFriendship(101, 104),        # (1) friends u1 -- u4
            AddLike(102, 22),               # (2) u2 likes c2
            AddComment(24, 30, 103, 21),    # (3)-(5) c4 under c1, root p1
            AddLike(104, 24),               # (6) u4 likes c4
        ]
    )


def main() -> None:
    graph = build_initial_graph()
    print("Initial graph:", graph)

    print("\n-- Initial evaluation (batch) --")
    q1 = Q1Batch(graph)
    print("Q1 scores (p1, p2):", q1.scores().to_dense().tolist(), "(paper: [25, 10])")
    print("Q1 top-3:", q1.result_string())
    q2 = Q2Batch(graph)
    print("Q2 scores (c1..c3):", q2.scores().to_dense().tolist(), "(paper: [4, 5, 0])")
    print("Q2 top-3:", q2.result_string())

    print("\n-- Incremental evaluation across the Fig. 3b update --")
    graph2 = build_initial_graph()
    q1_inc = Q1Incremental(graph2)
    q2_inc = Q2Incremental(graph2)
    q1_inc.initial()
    q2_inc.initial()

    delta = graph2.apply(fig3b_update())
    print("applied:", fig3b_update().summary())
    print("Q1 top-3 after update:", "|".join(str(i) for i, _ in q1_inc.update(delta)))
    print("Q1 scores:", q1_inc.scores.to_dense().tolist(), "(paper: [37, 10])")
    print("Q2 top-3 after update:", "|".join(str(i) for i, _ in q2_inc.update(delta)))
    print("Q2 scores:", q2_inc.scores.to_dense().tolist(), "(paper: [4, 16, 0, 1])")

    print("\n-- The same update, served (GraphService + analytics) --")
    with GraphService(
        build_initial_graph(),
        tools=("graphblas-incremental",),
        analytics=("components",),
    ) as svc:
        svc.submit(fig3b_update())
        svc.flush()
        print("service:", svc)
        print("Q1 cached read:", svc.query("Q1").result_string)
        print("Q2 cached read:", svc.query("Q2").result_string)
        print("friend components (rep, size):", svc.query("components").top)


if __name__ == "__main__":
    main()
