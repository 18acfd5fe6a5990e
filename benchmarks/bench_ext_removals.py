"""Extension experiment E1 (paper future work): mixed insert/remove streams.

"It would be interesting to investigate the performance of the solution in
the presence of more realistic update operations, including both insertions
and removals."  This bench does exactly that: the update+reevaluation phase
under a stream where 30 % of the like/friendship changes are removals,
comparing batch recomputation against the removal-aware incremental engines
(whose top-k keeps the merge rule and reselects, in O(n), only when a served
score falls).
"""

from __future__ import annotations

import pytest

from conftest import SCALE_FACTORS
from repro.datagen import generate_benchmark_input
from repro.queries import Q1Batch, Q1Incremental, Q2Batch, Q2Incremental

REMOVAL_FRACTION = 0.3

VARIANTS = ("batch", "incremental", "incremental-cc")


def _mixed_input(scale_factor: int):
    return generate_benchmark_input(
        scale_factor, seed=42, removal_fraction=REMOVAL_FRACTION
    )


@pytest.mark.parametrize("variant", ("batch", "incremental"))
def test_q1_update_with_removals(benchmark, scale_factor, variant):
    benchmark.group = f"ext-removals-q1-sf{scale_factor}"

    def setup():
        graph, change_sets = _mixed_input(scale_factor)
        if variant == "incremental":
            q = Q1Incremental(graph)
            q.initial()
        else:
            q = Q1Batch(graph)
            q.evaluate()
        return (graph, q, change_sets), {}

    def phase(graph, q, change_sets):
        out = None
        for cs in change_sets:
            delta = graph.apply(cs)
            out = q.update(delta) if variant == "incremental" else q.evaluate()
        return out

    assert benchmark.pedantic(phase, setup=setup, rounds=3)


@pytest.mark.parametrize("variant", VARIANTS)
def test_q2_update_with_removals(benchmark, scale_factor, variant):
    benchmark.group = f"ext-removals-q2-sf{scale_factor}"

    def setup():
        graph, change_sets = _mixed_input(scale_factor)
        if variant == "batch":
            q = Q2Batch(graph, algorithm="unionfind")
            q.evaluate()
        else:
            algo = "incremental" if variant == "incremental-cc" else "unionfind"
            q = Q2Incremental(graph, algorithm=algo)
            q.initial()
        return (graph, q, change_sets), {}

    def phase(graph, q, change_sets):
        out = None
        for cs in change_sets:
            delta = graph.apply(cs)
            out = q.evaluate() if variant == "batch" else q.update(delta)
        return out

    assert benchmark.pedantic(phase, setup=setup, rounds=2)
