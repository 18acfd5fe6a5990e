"""repro.analytics -- online graph-analytics engines over the serving layer.

The paper's algorithm layer (:mod:`repro.lagraph`: FastSV, PageRank, CDLP,
triangles, LCC, k-core, ...) was only reachable offline; this package turns
each algorithm into a long-running, incrementally-maintained serving engine.
An :class:`AnalyticsEngine` speaks the same
:class:`~repro.queries.engine.EngineBase` protocol as the Fig. 5 query
engines (``load`` / ``initial`` / ``refresh(delta)`` / ``last_top`` /
``close``), so :class:`~repro.serving.service.GraphService` registers
analytics tools next to Q1/Q2 and refreshes them with every applied batch --
versioned result cache, per-op metrics and WAL/snapshot recovery unchanged.

Maintenance is policy-driven per algorithm (see
:data:`~repro.analytics.engine.ANALYTICS_NAMES` and the matrix in
``DESIGN.md``): truly incremental where the structure allows (connected
components via union-find, degree by frontier counting), dirty-threshold
recompute elsewhere (PageRank, CDLP, triangles, LCC, k-core recompute only
once accumulated delta nnz crosses a configurable fraction of the graph,
serving the last committed result with a staleness tag meanwhile).
"""

from repro.analytics.engine import (
    ANALYTICS_NAMES,
    AnalyticsEngine,
    friends_view,
    make_analytics_engine,
)

__all__ = [
    "AnalyticsEngine",
    "make_analytics_engine",
    "friends_view",
    "ANALYTICS_NAMES",
]
