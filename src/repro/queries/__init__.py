"""The paper's contribution: GraphBLAS Q1/Q2, batch and incremental.

* :class:`~repro.queries.q1.Q1Batch` -- Alg. 1 of the paper
* :class:`~repro.queries.q1.Q1Incremental` -- Alg. 2 of the paper
* :class:`~repro.queries.q2.Q2Batch` -- Sec. III "Q2 Batch" (Fig. 4b top)
* :class:`~repro.queries.q2.Q2Incremental` -- Sec. III "Q2 Incremental"
  (Fig. 4b bottom, steps 1-9), with an optional extension mode that
  maintains connected components incrementally (future-work item (2))

plus the :class:`~repro.queries.engine.EngineBase` serving protocol
(``load`` / ``initial`` / ``refresh(delta)`` / ``last_top`` / ``close``,
shared with :mod:`repro.analytics`) and the
:class:`~repro.queries.engine.QueryEngine` facade implementing it for the
TTC phase sequence (load -> initial evaluation -> update -> reevaluation).
"""

from repro.queries.topk import TopKTracker, top_k
from repro.queries.q1 import Q1Batch, Q1Incremental
from repro.queries.q2 import Q2Batch, Q2Incremental
from repro.queries.engine import (
    EngineBase,
    QueryEngine,
    make_engine,
    SERVED_TOOLS,
    TOOL_NAMES,
)

__all__ = [
    "TopKTracker",
    "top_k",
    "Q1Batch",
    "Q1Incremental",
    "Q2Batch",
    "Q2Incremental",
    "EngineBase",
    "QueryEngine",
    "make_engine",
    "SERVED_TOOLS",
    "TOOL_NAMES",
]
