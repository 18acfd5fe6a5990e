"""Crash-recovery convergence property.

For random datagen graphs and random update streams -- including streams
with ``RemoveLike``/``RemoveFriendship`` -- a service that is killed after
its stream and rebuilt with ``GraphService.recover(snapshot + log tail)``
must serve top-k results identical to a fresh batch engine evaluated on
the final graph.  This is the serving layer's analogue of the repo's
incremental-vs-batch equivalence property: persistence must not be able to
lose, duplicate, or reorder any applied batch.
"""

from __future__ import annotations

import pytest

from repro.datagen import generate_graph
from repro.queries import Q1Batch, Q2Batch
from repro.serving import GraphService
from repro.serving.persistence import SnapshotStore
from repro.util.validation import ReproError
from tests.conftest import datagen_stream

TOOLS = ("graphblas-incremental",)


def _generate(seed: int, removal_fraction: float):
    fresh_graph, stream = datagen_stream(
        seed, removal_fraction=removal_fraction, total_inserts=240, num_change_sets=8
    )
    final_graph = fresh_graph()
    for cs in stream:
        final_graph.apply(cs)
    return fresh_graph(), stream, final_graph


@pytest.mark.parametrize("seed", [5, 17, 29])
@pytest.mark.parametrize("removal_fraction", [0.0, 0.3])
def test_recover_converges_to_fresh_batch(tmp_path, seed, removal_fraction):
    graph, stream, final_graph = _generate(seed, removal_fraction)
    svc = GraphService(
        graph,
        tools=TOOLS,
        max_batch=10_000,
        max_delay_ms=1e9,
        data_dir=tmp_path,
        snapshot_every=3,
        keep_snapshots=2,
    )
    for cs in stream:
        svc.submit(cs)  # each whole set coalesces into one applied batch
        svc.flush()
    assert svc.version == len(stream)
    del svc  # kill: no close(), the WAL frame per batch is already durable

    rec = GraphService.recover(tmp_path, tools=TOOLS, max_delay_ms=1e9)
    try:
        # the log tail really was replayed (snapshots stop at version 6)
        snap_version, replayed = rec._recovered_from
        assert replayed == rec.version - snap_version
        assert rec.version == len(stream)
        assert replayed > 0
        assert rec.query("Q1").result_string == Q1Batch(final_graph).result_string()
        assert (
            rec.query("Q2").result_string
            == Q2Batch(final_graph, algorithm="unionfind").result_string()
        )
        # recovered graphs are structurally identical, not just same top-k
        assert rec.graph.stats() == final_graph.stats()
    finally:
        rec.close()


def test_recover_continues_serving_and_logging(tmp_path):
    """A recovered service is a first-class service: it keeps appending to
    the same log and survives a second crash."""
    graph, stream, final_graph = _generate(5, 0.3)
    svc = GraphService(
        graph, tools=TOOLS, max_batch=10_000, max_delay_ms=1e9,
        data_dir=tmp_path, snapshot_every=100,
    )
    for cs in stream[:4]:
        svc.submit(cs)
        svc.flush()
    del svc

    svc2 = GraphService.recover(tmp_path, tools=TOOLS, max_delay_ms=1e9)
    for cs in stream[4:]:
        svc2.submit(cs)
        svc2.flush()
    assert svc2.version == len(stream)
    del svc2

    svc3 = GraphService.recover(tmp_path, tools=TOOLS, max_delay_ms=1e9)
    try:
        assert svc3.version == len(stream)
        assert svc3.query("Q1").result_string == Q1Batch(final_graph).result_string()
        assert svc3.graph.stats() == final_graph.stats()
    finally:
        svc3.close()


def test_crash_mid_append_then_keep_serving_then_recover_again(tmp_path):
    """A torn WAL tail (crash mid-append) must not poison the log: the
    recovered service keeps appending and a second recovery still works."""
    graph, stream, final_graph = _generate(29, 0.3)
    svc = GraphService(
        graph, tools=TOOLS, max_batch=10_000, max_delay_ms=1e9,
        data_dir=tmp_path, snapshot_every=100,
    )
    for cs in stream[:4]:
        svc.submit(cs)
        svc.flush()
    del svc
    # crash mid-append of batch 5: an unclosed frame at the tail
    with open(tmp_path / "wal.csv", "a", newline="") as fh:
        fh.write("BEGIN,5,2\nU,999999,\n")

    svc2 = GraphService.recover(tmp_path, tools=TOOLS, max_delay_ms=1e9)
    assert svc2.version == 4  # the torn batch never committed
    for cs in stream[4:]:
        svc2.submit(cs)
        svc2.flush()
    del svc2

    svc3 = GraphService.recover(tmp_path, tools=TOOLS, max_delay_ms=1e9)
    try:
        assert svc3.version == len(stream)
        assert svc3.query("Q1").result_string == Q1Batch(final_graph).result_string()
        assert svc3.graph.stats() == final_graph.stats()
    finally:
        svc3.close()


def test_fresh_service_refuses_dirty_dir(tmp_path):
    graph, stream, _ = _generate(5, 0.0)
    svc = GraphService(graph, tools=TOOLS, max_delay_ms=1e9, data_dir=tmp_path)
    svc.close()
    with pytest.raises(ReproError, match="already holds service state"):
        GraphService(generate_graph(1, seed=5), tools=TOOLS, data_dir=tmp_path)


def test_recover_without_state_raises(tmp_path):
    with pytest.raises(ReproError, match="no snapshot"):
        GraphService.recover(tmp_path)


def test_pruned_snapshots_still_recover(tmp_path):
    """Recovery only ever needs the newest snapshot; pruning must not
    break it even when the WAL predates the snapshot."""
    graph, stream, final_graph = _generate(17, 0.3)
    svc = GraphService(
        graph, tools=TOOLS, max_batch=10_000, max_delay_ms=1e9,
        data_dir=tmp_path, snapshot_every=2, keep_snapshots=1,
    )
    for cs in stream:
        svc.submit(cs)
        svc.flush()
    del svc
    assert len(SnapshotStore(tmp_path).versions()) == 1
    rec = GraphService.recover(tmp_path, tools=TOOLS, max_delay_ms=1e9)
    try:
        assert rec.query("Q1").result_string == Q1Batch(final_graph).result_string()
    finally:
        rec.close()


def _single_change_log(tmp_path, removal_fraction=0.3):
    """A durable service fed one change per frame; returns the final graph."""
    fresh_graph, stream = datagen_stream(
        17, removal_fraction=removal_fraction, total_inserts=700, num_change_sets=4
    )
    final_graph = fresh_graph()
    svc = GraphService(
        fresh_graph(), tools=TOOLS, max_delay_ms=1e9, data_dir=tmp_path, wal_sync=False
    )
    for cs in stream:
        final_graph.apply(cs)
        for change in cs:
            svc.submit(change)
            svc.flush()
    version = svc.version
    del svc
    return version, final_graph


def test_recover_replays_single_change_frames_in_coalesced_sets(tmp_path, monkeypatch):
    """The tail is applied in sets of at most 512 changes, not frame by
    frame, and lands on the same graph -- removals included, an edge
    inserted in one frame and removed in a later one of the same set too."""
    from repro.model.graph import SocialGraph

    frames, final_graph = _single_change_log(tmp_path)
    assert frames > 512
    sets: list[int] = []
    real_apply = SocialGraph.apply

    def apply(self, change_set):
        sets.append(len(change_set))
        return real_apply(self, change_set)

    monkeypatch.setattr(SocialGraph, "apply", apply)
    rec = GraphService.recover(tmp_path, tools=TOOLS, max_delay_ms=1e9)
    try:
        assert rec._recovered_from == (0, frames)
        assert sum(sets) == frames and max(sets) <= 512
        assert len(sets) == -(-frames // 512)
        assert rec.version == frames
        assert rec.graph.stats() == final_graph.stats()
        assert rec.query("Q1").result_string == Q1Batch(final_graph).result_string()
        assert (
            rec.query("Q2").result_string
            == Q2Batch(final_graph, algorithm="unionfind").result_string()
        )
    finally:
        rec.close()


def test_recover_still_checks_every_frame_for_a_version_gap(tmp_path):
    frames, _ = _single_change_log(tmp_path, removal_fraction=0.0)
    wal = tmp_path / "wal.csv"
    rows = wal.read_text().splitlines(keepends=True)
    # cut frame 100 out of the middle of a coalesced set
    start = next(i for i, r in enumerate(rows) if r.startswith("BEGIN,100,"))
    end = next(i for i, r in enumerate(rows) if r.startswith("BEGIN,101,"))
    wal.write_text("".join(rows[:start] + rows[end:]))
    with pytest.raises(ReproError, match="change log gap"):
        GraphService.recover(tmp_path, tools=TOOLS, max_delay_ms=1e9)
