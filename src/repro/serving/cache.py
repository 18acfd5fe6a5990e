"""Versioned top-k result cache: reads are O(1) between updates.

Every applied micro-batch bumps the service's version; each registered
engine's fresh top-k is stored here as an immutable :class:`CachedResult`
stamped with that version.  A read never touches the graph or an engine --
it returns the cached object for the requested (query, tool) pair, so read
latency is independent of graph size and update rate, exactly the
read-heavy/write-batched split of the serving exemplars (Sabine's ADR-001).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.util.validation import ReproError

__all__ = ["CachedResult", "ResultCache"]


@dataclass(frozen=True)
class CachedResult:
    """One query's top-k at one service version, under one tool.

    >>> r = CachedResult("Q1", "graphblas-incremental", 7,
    ...                  top=((11, 37), (12, 10)), result_string="11|12",
    ...                  compute_seconds=0.001, computed_version=5)
    >>> r.ids
    (11, 12)
    >>> r.staleness        # served at v7, last actually computed at v5
    2
    """

    query: str
    tool: str
    #: service version (number of applied batches) this result reflects
    version: int
    #: (external_id, score) pairs in contest order
    top: tuple
    #: the TTC framework's ``id|id|id`` result format
    result_string: str
    #: seconds the engine spent producing this result
    compute_seconds: float
    #: service version at which the result was last actually *computed*.
    #: Query engines are exact every batch, so it equals ``version``;
    #: dirty-threshold analytics engines may lag it (the staleness tag).
    #: ``None`` on records written before this field existed.
    computed_version: Optional[int] = None
    #: which node served this result (``"leader"``, ``"node-01"``, ...)
    #: when read through a :class:`~repro.replication.ReplicatedGraphService`;
    #: ``None`` on results served directly by a :class:`GraphService`.
    source: Optional[str] = None

    @property
    def ids(self) -> tuple:
        return tuple(ext for ext, _ in self.top)

    @property
    def staleness(self) -> int:
        """Batches between serving version and last compute (0 = exact)."""
        if self.computed_version is None:
            return 0
        return self.version - self.computed_version

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        stale = f" (stale {self.staleness})" if self.staleness else ""
        return f"{self.query}@v{self.version}[{self.tool}]{stale}: {self.result_string}"


class ResultCache:
    """(query, tool) -> latest :class:`CachedResult`.

    One entry per registered engine -- one per served (query, tool) pair
    plus one per analytics tool (keyed ``(name, name)``).

    Bookkeeping: every :meth:`get` counts as a hit or (raising) miss, and
    every :meth:`put` replacing an entry stamped with a *different* service
    version counts as an eviction -- the old result became unservable the
    moment the batch committed, so after one applied batch the eviction
    count equals the number of refreshed engines.  :meth:`stats` reports
    the totals plus a hit rate; the service reports it as
    ``stats()["cache"]`` and mirrors the totals into its registry's
    ``repro_cache_*`` counters at scrape time.

    >>> cache = ResultCache()
    >>> cache.put(CachedResult("Q2", "graphblas-incremental", 1, ((21, 4),), "21", 0.0))
    >>> cache.get("Q2", "graphblas-incremental").result_string
    '21'
    >>> cache.has("Q2", "graphblas-batch")
    False
    >>> cache.version()
    1
    >>> cache.stats()
    {'hits': 1, 'misses': 0, 'evictions': 0, 'entries': 1, 'hit_rate': 1.0}
    """

    def __init__(self) -> None:
        self._results: dict[tuple[str, str], CachedResult] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def put(self, result: CachedResult) -> None:
        key = (result.query, result.tool)
        old = self._results.get(key)
        if old is not None and old.version != result.version:
            self.evictions += 1
        self._results[key] = result

    def get(self, query: str, tool: str) -> CachedResult:
        try:
            out = self._results[(query, tool)]
        except KeyError:
            self.misses += 1
            raise ReproError(
                f"no cached result for query {query!r} under tool {tool!r}; "
                f"known: {sorted(self._results)}"
            ) from None
        self.hits += 1
        return out

    def has(self, query: str, tool: str) -> bool:
        return (query, tool) in self._results

    def tools(self, query: str) -> list[str]:
        return sorted(t for q, t in self._results if q == query)

    def version(self) -> Optional[int]:
        """The common version of all cached results (None when empty).

        The service refreshes every engine under one lock per applied
        batch, so a mixed-version cache indicates a bug; surfacing it here
        keeps the invariant checkable in tests.
        """
        versions = {r.version for r in self._results.values()}
        if not versions:
            return None
        if len(versions) > 1:
            raise ReproError(f"result cache is version-skewed: {sorted(versions)}")
        return versions.pop()

    def stats(self) -> dict:
        """Hit/miss/eviction totals and the realised hit rate."""
        looked = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._results),
            "hit_rate": round(self.hits / looked, 4) if looked else 0.0,
        }
