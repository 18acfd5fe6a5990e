"""Recovery's cold start runs in vectorised passes, not per-row loops.

Counts, not timings, in the style of ``test_refresh_o_delta.py``: a
persistent SF2 service writes its baseline snapshot and a WAL tail, and
``GraphService.recover`` must

* lay the snapshot's edges into the arenas without one
  ``DynamicMatrix._assign_row`` call (the one-pass layout of a bulk
  ``assign_coo`` into an empty arena), and
* score every comment in Q2's ``initial()`` with one FastSV over the
  block-diagonal like-slot graph (``q2_batched``), not one per comment,

and still serve exactly what the batch oracle computes.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.graphblas.dynamic import DynamicMatrix
from repro.queries import Q1Batch, Q2Batch, q2, q2_batched
from repro.queries.q2 import Q2Incremental
from repro.serving import GraphService
from tests.conftest import datagen_stream

TOOLS = ("graphblas-incremental",)


@pytest.fixture
def counted(monkeypatch):
    """A Counter of ``_assign_row`` calls and of FastSV calls made while
    Q2's ``initial()`` runs."""
    calls: Counter = Counter()
    in_initial = {"depth": 0}

    real_assign_row = DynamicMatrix._assign_row

    def assign_row(self, *args, **kwargs):
        calls["assign_row"] += 1
        return real_assign_row(self, *args, **kwargs)

    monkeypatch.setattr(DynamicMatrix, "_assign_row", assign_row)

    def count_fastsv(module):
        real = module.fastsv

        def fastsv(*args, **kwargs):
            if in_initial["depth"]:
                calls["fastsv"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "fastsv", fastsv)

    count_fastsv(q2)
    count_fastsv(q2_batched)

    real_initial = Q2Incremental.initial

    def initial(self):
        in_initial["depth"] += 1
        try:
            return real_initial(self)
        finally:
            in_initial["depth"] -= 1

    monkeypatch.setattr(Q2Incremental, "initial", initial)
    return calls


def test_recover_lays_out_the_snapshot_and_scores_q2_in_one_fastsv(
    tmp_path, counted
):
    fresh_graph, stream = datagen_stream(
        7, removal_fraction=0.3, total_inserts=120, num_change_sets=4, scale_factor=2
    )
    final_graph = fresh_graph()
    for cs in stream:
        final_graph.apply(cs)
    # the tail fits one coalesced replay set (<= 512 changes), so every
    # edge -- snapshot and tail alike -- reaches the arenas in one flush
    assert sum(len(cs) for cs in stream) <= 512

    svc = GraphService(
        fresh_graph(), tools=TOOLS, max_batch=10_000, max_delay_ms=1e9,
        data_dir=tmp_path,
    )
    for cs in stream:
        svc.submit(cs)
        svc.flush()
    del svc  # kill: the baseline snapshot plus a WAL tail of len(stream) frames

    counted.clear()
    rec = GraphService.recover(tmp_path, tools=TOOLS, max_delay_ms=1e9)
    try:
        assert rec._recovered_from == (0, len(stream))
        assert counted["assign_row"] == 0
        assert counted["fastsv"] == 1
        assert rec.query("Q1").result_string == Q1Batch(final_graph).result_string()
        assert (
            rec.query("Q2").result_string
            == Q2Batch(final_graph, algorithm="unionfind").result_string()
        )
    finally:
        rec.close()
