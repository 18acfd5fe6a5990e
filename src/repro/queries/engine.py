"""QueryEngine: the tool facade the benchmark harness drives.

One engine = one (query, variant) configuration of Fig. 5:

* ``graphblas-batch``        -- full re-evaluation every step (Alg. 1 / Q2 batch)
* ``graphblas-incremental``  -- initial full evaluation, then incremental
  maintenance (Alg. 2 / Q2 steps 1-9)

with an optional executor for the paper's "8 threads" configurations, plus
the NMF reference variants (constructed by :func:`make_engine`, implemented
in :mod:`repro.nmf`).

The TTC phase protocol:

=================  =====================================================
``load(graph)``    adopt the initial model
``initial()``      first evaluation; returns the top-3 result string
``update(cs)``     apply one change set and re-evaluate; returns top-3
=================  =====================================================
"""

from __future__ import annotations

from typing import Optional

from repro.model.changes import ChangeSet
from repro.model.graph import GraphDelta, SocialGraph
from repro.parallel.executor import Executor
from repro.queries.q1 import Q1Batch, Q1Incremental
from repro.queries.q2 import Q2Batch, Q2Incremental
from repro.util.validation import ReproError

__all__ = ["EngineBase", "QueryEngine", "make_engine", "SERVED_TOOLS", "TOOL_NAMES"]

#: the Fig. 5 tool names (NMF variants are created through make_engine too)
TOOL_NAMES = (
    "graphblas-batch",
    "graphblas-incremental",
    "nmf-batch",
    "nmf-incremental",
)

#: the tools a service may serve: the paper's answer (incremental) and its
#: specification (batch), side by side as an in-service reference.  Both
#: speak ``refresh(delta)`` and the mergeable-partial protocol; the NMF
#: baselines stay Fig. 5 tools, off the served path.
SERVED_TOOLS = ("graphblas-incremental", "graphblas-batch")


def require_served(tools) -> None:
    """Raise :class:`ReproError` unless every name is in :data:`SERVED_TOOLS`."""
    for t in tools:
        if t in SERVED_TOOLS:
            continue
        if t in TOOL_NAMES:
            raise ReproError(
                f"tool {t!r} is a Fig. 5 baseline and is not served; build "
                "it with repro.queries.make_engine or run it through "
                "repro.benchmark.runner"
            )
        raise ReproError(f"unknown tool {t!r}; expected one of {SERVED_TOOLS}")


class EngineBase:
    """The engine protocol every served tool speaks.

    :class:`~repro.serving.service.GraphService` drives any object with
    this surface -- the served query engines here and the analytics
    engines in :mod:`repro.analytics`.  (The NMF baselines of
    :mod:`repro.nmf` speak only ``load``/``initial``/``update`` and run
    through :func:`make_engine` and :mod:`repro.benchmark`, never served.)

    ========================  ============================================
    ``load(graph)``           adopt the shared :class:`SocialGraph`
    ``initial()``             first full evaluation; returns the result
                              string
    ``refresh(delta)``        maintain the result across one *already
                              applied* :class:`~repro.model.graph
                              .GraphDelta`
    ``last_top``              the latest ``(external_id, score)`` pairs,
                              what the serving cache stores
    ``partial()``             mergeable summary of the served result for
                              the sharded scatter-gather (optional; see
                              :mod:`repro.sharding.merge`)
    ``merge_partials(ps, k)`` fold one ``partial()`` per shard back into
                              ``(top, result_string)`` (optional)
    ``close()``               release private resources (executors,
                              pools)
    ========================  ============================================

    ``update(change_set)`` is the single-engine convenience that applies
    the change set to the engine's own graph and then refreshes -- the
    serving layer never calls it on a GraphBLAS engine because several
    engines share one graph and the batch must apply exactly once.

    >>> class CountEngine(EngineBase):
    ...     def load(self, graph): self.graph = graph
    ...     def initial(self):
    ...         self.last_top = [(0, self.graph.num_users)]
    ...         return self.format_top(self.last_top)
    ...     def refresh(self, delta):
    ...         self.last_top = [(0, delta.n_users_after)]
    ...         return self.format_top(self.last_top)
    >>> from repro.model.graph import SocialGraph
    >>> e = CountEngine(); e.load(SocialGraph()); e.initial()
    '0'
    """

    graph: Optional[SocialGraph] = None
    #: the most recent top-k as (external_id, score) pairs -- the serving
    #: layer caches this instead of re-parsing result strings.  Immutable
    #: class default: implementations *assign* a fresh list per evaluation
    #: (mutating a shared class-level list would cross-contaminate engines)
    last_top: tuple | list = ()
    #: refreshes since the served result was last exact; query engines are
    #: exact every batch, dirty-threshold analytics engines may lag
    staleness: int = 0

    def load(self, graph: SocialGraph) -> None:
        raise NotImplementedError

    def initial(self) -> str:
        raise NotImplementedError

    def refresh(self, delta: GraphDelta) -> str:
        raise NotImplementedError

    def update(self, change_set: ChangeSet) -> str:
        if self.graph is None:
            raise ReproError("engine not loaded; call load(graph) first")
        return self.refresh(self.graph.apply(change_set))

    def close(self) -> None:
        """Release engine-private resources; default engines hold none."""

    # -- mergeable-result protocol (sharded serving) -------------------

    def partial(self):
        """Mergeable summary of the served result (sharded scatter-gather).

        Engines that can be sharded return a partial restricted to the
        entities their shard owns; the router folds one partial per shard
        through :meth:`merge_partials`.  The base implementation declares
        the engine unshardable.
        """
        raise ReproError(
            f"{type(self).__name__} does not implement the mergeable-result "
            "protocol and cannot be served sharded"
        )

    @staticmethod
    def merge_partials(partials, k: int):
        """Fold one :meth:`partial` per shard into ``(top, result_string)``."""
        raise ReproError(
            "engine does not implement the mergeable-result protocol"
        )

    @staticmethod
    def format_top(top) -> str:
        """The TTC framework's ``id|id|id`` result line."""
        return "|".join(str(ext) for ext, _ in top)


class QueryEngine(EngineBase):
    """Drives one query in either batch or incremental mode.

    >>> from repro.model.graph import SocialGraph
    >>> g = SocialGraph()
    >>> g.add_user(1)
    0
    >>> g.add_post(10, timestamp=0, user_id=1)
    0
    >>> e = QueryEngine("Q1", "batch")
    >>> e.load(g); e.initial()       # a post with no comments scores 0
    '10'
    >>> e.last_top
    [(10, 0)]
    """

    def __init__(
        self,
        query: str,
        variant: str,
        *,
        k: int = 3,
        q2_algorithm: str = "fastsv",
        executor: Optional[Executor] = None,
    ):
        if query not in ("Q1", "Q2"):
            raise ReproError(f"unknown query {query!r}")
        if variant not in ("batch", "incremental"):
            raise ReproError(f"unknown variant {variant!r}")
        self.query = query
        self.variant = variant
        self.k = k
        self.q2_algorithm = q2_algorithm
        self.executor = executor
        if executor is not None and hasattr(executor, "start"):
            # persistent pools fork their workers here, in the TTC
            # Initialization phase -- where OpenMP pays its thread spawn
            executor.start()
        self.graph: Optional[SocialGraph] = None
        self._impl = None
        #: the most recent top-k as (external_id, score) pairs -- the
        #: serving layer caches this instead of re-parsing result strings
        self.last_top: list[tuple[int, int]] = []
        #: same top-k as (external_id, score, timestamp) triples -- the
        #: mergeable partial of the sharded scatter-gather (the timestamp
        #: completes the contest ordering key a cross-shard merge needs)
        self.last_entries: list[tuple[int, int, int]] = []

    # -- TTC phases -------------------------------------------------------

    def load(self, graph: SocialGraph) -> None:
        self.graph = graph
        if self.query == "Q1":
            self._impl = (
                Q1Batch(graph, self.k)
                if self.variant == "batch"
                else Q1Incremental(graph, self.k)
            )
        else:
            if self.variant == "batch":
                self._impl = Q2Batch(
                    graph, self.k, algorithm=self._batch_algorithm(), executor=self.executor
                )
            else:
                self._impl = Q2Incremental(
                    graph, self.k, algorithm=self.q2_algorithm, executor=self.executor
                )

    def _batch_algorithm(self) -> str:
        # "incremental" is only meaningful for the incremental variant.
        return "fastsv" if self.q2_algorithm == "incremental" else self.q2_algorithm

    def initial(self) -> str:
        self._require_loaded()
        if self.variant == "incremental":
            self._impl.initial()
            entries = self._impl.tracker.top_entries()
        else:
            entries = self._impl.evaluate_entries()
        return self._commit(entries)

    def refresh(self, delta: GraphDelta) -> str:
        """Re-evaluate against a delta the caller already applied.

        The serving layer (:class:`repro.serving.GraphService`) owns one
        graph shared by several engines, so it applies each change set
        exactly once and hands every engine the resulting
        :class:`~repro.model.graph.GraphDelta`; :meth:`update` is the
        single-engine convenience that applies-then-refreshes.
        """
        self._require_loaded()
        if self.variant == "incremental":
            self._impl.update(delta)
            entries = self._impl.tracker.top_entries()
        else:
            entries = self._impl.evaluate_entries()
        return self._commit(entries)

    def _commit(self, entries: list[tuple[int, int, int]]) -> str:
        self.last_entries = entries
        self.last_top = [(ext, score) for ext, score, _ in entries]
        return self.format_top(self.last_top)

    # -- mergeable-result protocol ----------------------------------------

    def partial(self) -> list[tuple[int, int, int]]:
        """The shard's top-k as (external_id, score, timestamp) triples.

        Content (posts and their comment trees) is hash-partitioned by
        root post, so per-shard top-k lists cover disjoint entity sets and
        any global top-k member appears in its owner shard's partial.
        """
        return list(self.last_entries)

    @staticmethod
    def merge_partials(partials, k: int):
        from repro.sharding.merge import merge_topk_entries

        return merge_topk_entries(partials, k)

    # ----------------------------------------------------------------------

    def _require_loaded(self) -> None:
        if self._impl is None:
            raise ReproError("engine not loaded; call load(graph) first")

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()


def make_engine(
    tool: str,
    query: str,
    *,
    k: int = 3,
    executor: Optional[Executor] = None,
    q2_algorithm: str = "fastsv",
):
    """Factory covering every Fig. 5 tool (GraphBLAS and NMF variants)."""
    if tool == "graphblas-batch":
        return QueryEngine(
            query, "batch", k=k, executor=executor, q2_algorithm=q2_algorithm
        )
    if tool == "graphblas-incremental":
        return QueryEngine(
            query, "incremental", k=k, executor=executor, q2_algorithm=q2_algorithm
        )
    if tool == "nmf-batch":
        from repro.nmf.batch import NmfBatchEngine

        return NmfBatchEngine(query, k=k)
    if tool == "nmf-incremental":
        from repro.nmf.incremental import NmfIncrementalEngine

        return NmfIncrementalEngine(query, k=k)
    raise ReproError(f"unknown tool {tool!r}; expected one of {TOOL_NAMES}")
