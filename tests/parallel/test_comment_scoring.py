"""Comment-granularity Q2 scoring: every executor scores like serial.

The paper's "8 thr" lines parallelise Q2 over comments.  Each executor kind
that can carry that loop, at several widths, must return exactly the
serial scores -- from :func:`~repro.queries.q2.score_comments` directly,
and through :func:`~repro.queries.engine.make_engine` over a change stream.
"""

import pytest

from repro.datagen import generate_benchmark_input
from repro.parallel import make_executor
from repro.queries.engine import make_engine
from repro.queries.q2 import score_comments


def _parallel_executor(kind, workers):
    ex = make_executor(kind, workers)
    ex.MIN_PARALLEL_ITEMS = 0  # force the parallel path at this size
    return ex


@pytest.mark.parametrize("algorithm", ["fastsv", "unionfind"])
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("kind", ["thread", "forkjoin", "persistent"])
def test_score_comments_matches_serial(kind, workers, algorithm):
    graph, _ = generate_benchmark_input(1, seed=42)
    comments = list(range(graph.num_comments))
    serial = score_comments(graph, comments, algorithm=algorithm)
    ex = _parallel_executor(kind, workers)
    try:
        parallel = score_comments(graph, comments, algorithm=algorithm, executor=ex)
    finally:
        ex.close()
    assert parallel == serial


def _results(tool, algorithm, executor=None):
    graph, change_sets = generate_benchmark_input(1, seed=42)
    engine = make_engine(tool, "Q2", executor=executor, q2_algorithm=algorithm)
    try:
        engine.load(graph)
        out = [engine.initial()]
        out.extend(engine.update(cs) for cs in change_sets)
    finally:
        engine.close()
    return out


@pytest.mark.parametrize("algorithm", ["fastsv", "unionfind"])
@pytest.mark.parametrize("kind", ["forkjoin", "persistent"])
@pytest.mark.parametrize("tool", ["graphblas-batch", "graphblas-incremental"])
def test_engine_with_executor_matches_serial(tool, kind, algorithm):
    want = _results(tool, algorithm)
    got = _results(tool, algorithm, _parallel_executor(kind, 2))
    assert got == want
