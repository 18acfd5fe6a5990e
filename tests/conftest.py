"""Shared fixtures and generators: the paper's Fig. 3 example graph,
hypothesis profiles, and the change-stream/graph generators every
property suite (queries, serving, analytics, sharding) draws from."""

from __future__ import annotations

import gc
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.datagen import generate_change_sets, generate_graph
from repro.model import (
    AddComment,
    AddFriendship,
    AddLike,
    AddPost,
    AddUser,
    ChangeSet,
    RemoveFriendship,
    RemoveLike,
    SocialGraph,
)

settings.register_profile(
    "ci",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "thorough",
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


# External ids of the paper's example entities.
U1, U2, U3, U4 = 101, 102, 103, 104
P1, P2 = 11, 12
C1, C2, C3, C4 = 21, 22, 23, 24


def build_paper_graph() -> SocialGraph:
    """Fig. 3a: the initial example graph.

    Posts p1 (comments c1, c2) and p2 (comment c3); friendships u2-u3 and
    u3-u4; likes: c1 <- {u2, u3}, c2 <- {u1, u3, u4}.
    """
    g = SocialGraph()
    for uid, name in ((U1, "u1"), (U2, "u2"), (U3, "u3"), (U4, "u4")):
        g.add_user(uid, name)
    g.add_post(P1, 10, U1)
    g.add_post(P2, 11, U2)
    g.add_comment(C1, 20, U2, P1)
    g.add_comment(C2, 21, U1, C1)
    g.add_comment(C3, 22, U3, P2)
    g.add_friendship(U2, U3)
    g.add_friendship(U3, U4)
    g.add_like(U2, C1)
    g.add_like(U3, C1)
    g.add_like(U1, C2)
    g.add_like(U3, C2)
    g.add_like(U4, C2)
    return g


def paper_update() -> ChangeSet:
    """Fig. 3b: the six-element update.

    (1) friends u1-u4, (2) like u2 -> c2, (3)-(5) comment c4 under c1
    (rootPost p1 derived), (6) like u4 -> c4.
    """
    return ChangeSet(
        [
            AddFriendship(U1, U4),
            AddLike(U2, C2),
            AddComment(C4, 30, U3, C1),
            AddLike(U4, C4),
        ]
    )


# ---------------------------------------------------------------------------
# suite-wide leak check
#
# The repo forks child processes (comment-granularity executor pools,
# per-shard worker processes, the fault suites' crash simulations) and
# fans out over thread pools.  Every test must hand back a quiet process:
# no child process of any kind, no non-daemon threads.
# ---------------------------------------------------------------------------


def _leaked_children() -> list:
    """(pid, state) of live or zombie children of this process -- scanned
    from /proc so no psutil dependency."""
    me = os.getpid()
    leaked = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:  # raced a process exit
            continue
        fields = stat.rsplit(")", 1)[1].split()  # comm may contain spaces
        state, ppid = fields[0], int(fields[1])
        if ppid == me:
            leaked.append((int(entry), "zombie" if state == "Z" else state))
    return leaked


def _leaked_threads() -> list:
    return [
        t
        for t in threading.enumerate()
        if t is not threading.main_thread() and not t.daemon and t.is_alive()
    ]


@pytest.fixture(autouse=True)
def no_process_or_thread_leaks():
    """Assert every test leaves no orphaned children / non-daemon threads.

    Crash-simulation tests abandon services via ``del`` without closing;
    their worker processes and pool threads are reclaimed through
    finalizers, so on a first sighting this polls with ``gc.collect()``
    (triggering ``ProcessShardHandle.__del__`` reaping and executor
    finalizers) before declaring a leak.
    """
    yield
    procs, threads = _leaked_children(), _leaked_threads()
    if procs or threads:
        deadline = time.monotonic() + 5.0
        while (procs or threads) and time.monotonic() < deadline:
            gc.collect()
            time.sleep(0.05)
            procs, threads = _leaked_children(), _leaked_threads()
    assert not procs, f"orphaned child processes survived the test: {procs}"
    assert not threads, (
        "non-daemon threads survived the test: "
        f"{[t.name for t in threads]}"
    )


@pytest.fixture
def paper_graph() -> SocialGraph:
    return build_paper_graph()


@pytest.fixture
def paper_change_set() -> ChangeSet:
    return paper_update()


# ---------------------------------------------------------------------------
# shared change-stream generators
#
# One seeded generator + one hypothesis strategy, shared by the property
# suites under tests/queries, tests/serving, tests/analytics and
# tests/sharding (previously copy-pasted per directory with drift).
# ---------------------------------------------------------------------------


def random_graph_and_stream(
    seed: int, n_sets: int, *, removals: bool = False
) -> tuple[int, SocialGraph, list[ChangeSet]]:
    """A small random SocialGraph plus a random update stream.

    Deterministic in ``(seed, n_sets, removals)``, so calling it twice
    yields structurally identical graphs and streams -- which is how the
    equivalence suites feed the same workload to several engines or
    services.  With ``removals=True`` the stream mixes ``RemoveLike`` /
    ``RemoveFriendship`` of *existing* edges in (the extension's
    non-monotone regime).
    """
    rng = np.random.default_rng(seed)
    g = SocialGraph()
    users = [100 + i for i in range(int(rng.integers(2, 7)))]
    for u in users:
        g.add_user(u)
    posts = [200 + i for i in range(int(rng.integers(1, 4)))]
    for i, p in enumerate(posts):
        g.add_post(p, i, users[int(rng.integers(len(users)))])
    comments: list[int] = []
    submissions = list(posts)
    ts = 50
    for i in range(int(rng.integers(1, 9))):
        cid = 300 + i
        g.add_comment(
            cid,
            ts,
            users[int(rng.integers(len(users)))],
            submissions[int(rng.integers(len(submissions)))],
        )
        comments.append(cid)
        submissions.append(cid)
        ts += 1
    likes: set[tuple[int, int]] = set()
    for _ in range(int(rng.integers(0, 12))):
        u = users[int(rng.integers(len(users)))]
        c = comments[int(rng.integers(len(comments)))]
        if g.add_like(u, c) is not None:
            likes.add((u, c))
    friends: set[tuple[int, int]] = set()
    for _ in range(int(rng.integers(0, 8))):
        a, b = rng.integers(0, len(users), 2)
        if a != b and g.add_friendship(users[int(a)], users[int(b)]) is not None:
            friends.add(
                (min(users[int(a)], users[int(b)]), max(users[int(a)], users[int(b)]))
            )

    change_sets: list[ChangeSet] = []
    next_user, next_post, next_comment = 500, 250, 400
    n_kinds = 7 if removals else 5
    for _ in range(n_sets):
        cs = ChangeSet()
        for _ in range(int(rng.integers(1, 7))):
            kind = int(rng.integers(0, n_kinds))
            if kind == 0:
                cs.append(AddUser(next_user))
                users.append(next_user)
                next_user += 1
            elif kind == 1:
                cs.append(AddPost(next_post, ts, users[int(rng.integers(len(users)))]))
                submissions.append(next_post)
                next_post += 1
                ts += 1
            elif kind == 2:
                cs.append(
                    AddComment(
                        next_comment,
                        ts,
                        users[int(rng.integers(len(users)))],
                        submissions[int(rng.integers(len(submissions)))],
                    )
                )
                comments.append(next_comment)
                submissions.append(next_comment)
                next_comment += 1
                ts += 1
            elif kind == 3:
                u = users[int(rng.integers(len(users)))]
                c = comments[int(rng.integers(len(comments)))]
                if (u, c) not in likes:
                    likes.add((u, c))
                    cs.append(AddLike(u, c))
            elif kind == 4:
                a, b = rng.integers(0, len(users), 2)
                if a != b:
                    key = (
                        min(users[int(a)], users[int(b)]),
                        max(users[int(a)], users[int(b)]),
                    )
                    if key not in friends:
                        friends.add(key)
                        cs.append(AddFriendship(*key))
            elif kind == 5 and likes:
                u, c = sorted(likes)[int(rng.integers(len(likes)))]
                likes.discard((u, c))
                cs.append(RemoveLike(u, c))
            elif kind == 6 and friends:
                a, b = sorted(friends)[int(rng.integers(len(friends)))]
                friends.discard((a, b))
                cs.append(RemoveFriendship(a, b))
        change_sets.append(cs)
    return seed, g, change_sets


@st.composite
def graph_and_updates(draw, *, removals: bool = False, max_sets: int = 3):
    """Hypothesis wrapper over :func:`random_graph_and_stream`.

    Draws ``(seed, graph, change_sets)``; shrinking happens over the seed
    and stream length, the generator itself stays deterministic.
    """
    seed = draw(st.integers(0, 2**16))
    n_sets = draw(st.integers(1, max_sets))
    return random_graph_and_stream(seed, n_sets, removals=removals)


def clone_changes(change_sets: list[ChangeSet]) -> list[ChangeSet]:
    """Fresh ChangeSet shells over the same (frozen) change objects."""
    return [ChangeSet(list(cs.changes)) for cs in change_sets]


def datagen_stream(
    seed: int,
    *,
    removal_fraction: float = 0.3,
    total_inserts: int = 180,
    num_change_sets: int = 6,
    scale_factor: int = 1,
):
    """A datagen-scale workload: ``(fresh_graph, stream)``.

    ``fresh_graph()`` builds a *new* structurally identical initial graph
    on every call (deterministic in ``seed``), so equivalence tests can
    hand the same starting point to several services without sharing
    mutable state; ``stream`` is the matching update sequence.
    """

    def fresh_graph() -> SocialGraph:
        return generate_graph(scale_factor, seed=seed)

    stream = generate_change_sets(
        fresh_graph(),
        total_inserts=total_inserts,
        num_change_sets=num_change_sets,
        seed=seed + 1,
        removal_fraction=removal_fraction,
    )
    return fresh_graph, stream
