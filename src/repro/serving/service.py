"""GraphService: one shared graph, its engines, streamed updates, O(1) reads.

This is the component the ROADMAP's "serve heavy traffic" north star asks
for and the offline benchmark harness is not: a long-running owner of one
:class:`~repro.model.graph.SocialGraph` plus a registry of query engines
that

* serves the paper's answer: ``graphblas-incremental`` by default, one
  engine per query.  ``graphblas-batch`` -- the paper's specification --
  may be served beside it as an in-service reference; the NMF baselines
  are Fig. 5 tools only (:func:`~repro.queries.engine.make_engine`,
  :mod:`repro.benchmark.runner`) and are rejected here;

* ingests single :class:`~repro.model.changes.Change`\\ s or whole
  :class:`~repro.model.changes.ChangeSet`\\ s through a micro-batching
  queue (coalesce ``max_batch`` changes or ``max_delay_ms``, whichever
  first -- see :mod:`repro.serving.ingest`);
* applies each coalesced batch to the graph **exactly once** and hands
  the resulting :class:`~repro.model.graph.GraphDelta` to every engine in
  turn through ``refresh`` (the :class:`~repro.queries.engine.EngineBase`
  protocol);
* optionally serves the :mod:`repro.lagraph` algorithm layer the same way:
  ``analytics=("components", "pagerank", ...)`` registers
  :class:`~repro.analytics.AnalyticsEngine`\\ s that maintain their
  results incrementally or under a dirty-threshold recompute policy;
* caches every engine's top-k per applied version, so
  :meth:`query` never touches the graph and costs O(1) regardless of
  graph size or update rate;
* optionally persists: an append-only write-ahead change log written
  *before* each batch is applied, plus periodic point-in-time snapshots,
  so :meth:`recover` rebuilds an equivalent service after a crash
  (see :mod:`repro.serving.persistence` for the convergence argument);
* times every operation into its :class:`~repro.obs.metrics.MetricsRegistry`
  as ``repro_op_latency_seconds{op=...}`` histograms, read back through
  :meth:`stats` and :meth:`metrics_text`.

Consistency model: reads serve the last *applied* version; changes
pending in the micro-batcher are invisible until a flush, which is
bounded by ``max_delay_ms`` (enforced at the next submit or read, or by
the optional background flusher thread).  Durability boundary: an applied
batch is durable (its WAL frame is fsynced before apply); pending
changes are not.  Changes are validated at submit time against the graph
plus earlier pending changes, so a malformed change is rejected at the
edge instead of poisoning the log or a half-applied batch.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.analytics.engine import ANALYTICS_NAMES, make_analytics_engine
from repro.faults import fire as _fire_fault
from repro.faults import register_crash_point
from repro.model.changes import Change, ChangeSet
from repro.model.graph import SocialGraph
from repro.obs.metrics import MetricsRegistry, render_prometheus
from repro.obs.trace import current_span, get_tracer, span_if, trace_output_path
from repro.queries.engine import make_engine, require_served
from repro.serving.cache import CachedResult, ResultCache
from repro.serving.ingest import MicroBatcher, SubmitGate, coerce_changes
from repro.serving.persistence import ChangeLog, SnapshotStore, dir_bytes
from repro.util.timer import WallClock
from repro.util.validation import DeadlineExceeded, ReproError

__all__ = ["GraphService"]

_QUERIES = ("Q1", "Q2")

#: the window the fail-stop docstring below describes: the WAL frame is
#: durable but the in-memory graph has not mutated yet -- a crash here is
#: the canonical "committed write the crashed process never served"
CRASH_POST_APPEND = register_crash_point(
    "post-append-pre-apply",
    "GraphService._apply, after the WAL frame is fsynced but before the "
    "graph mutates",
)


class GraphService:
    """Streaming query-serving facade over the paper's engines.

    ``tools=`` names the served query engines, from
    :data:`~repro.queries.engine.SERVED_TOOLS`; the default serves the
    incremental engine alone.  Beyond the query tools, the service
    registers **analytics tools** (``analytics=`` ctor arg, names from
    :data:`repro.analytics.ANALYTICS_NAMES`): long-running
    :class:`~repro.analytics.AnalyticsEngine`\\ s maintaining a
    :mod:`repro.lagraph` algorithm over the friends graph.  They ride the
    same refresh loop, cache, metrics and recovery machinery; dirty-threshold
    tools may serve a slightly stale result, tagged on every read as
    :attr:`~repro.serving.cache.CachedResult.computed_version`.

    >>> from repro.model.changes import AddFriendship, AddUser
    >>> svc = GraphService(analytics=("components", "degree"), max_batch=1)
    >>> svc.submit([AddUser(1), AddUser(2), AddUser(3)])
    1
    >>> svc.submit(AddFriendship(1, 2))
    2
    >>> svc.query("components").top      # {1,2} then the {3} singleton
    ((1, 2), (3, 1))
    >>> svc.query("degree").result_string
    '1|2|3'
    >>> svc.query("Q1").version          # the query engines are still served
    2
    >>> svc.close()
    """

    def __init__(
        self,
        graph: Optional[SocialGraph] = None,
        *,
        storage: Optional[str] = None,
        queries: tuple = _QUERIES,
        tools: tuple = ("graphblas-incremental",),
        analytics: tuple = (),
        analytics_threshold: float = 0.1,
        k: int = 3,
        q2_algorithm: str = "fastsv",
        max_batch: int = 256,
        max_delay_ms: float = 50.0,
        max_pending: Optional[int] = None,
        data_dir=None,
        snapshot_every: int = 0,
        keep_snapshots: int = 2,
        wal_sync: bool = True,
        auto_flush: bool = False,
        shard: Optional[tuple[int, int]] = None,
        _start_version: int = 0,
        _allow_existing: bool = False,
    ):
        for q in queries:
            if q not in _QUERIES:
                raise ReproError(f"unknown query {q!r}")
        require_served(tools)
        for a in analytics:
            if a not in ANALYTICS_NAMES:
                raise ReproError(
                    f"unknown analytics tool {a!r}; expected one of {ANALYTICS_NAMES}"
                )
        if bool(queries) != bool(tools):
            raise ReproError(
                "queries and tools are configured together: pass both "
                "non-empty (query engines) or both empty (analytics-only)"
            )
        if not analytics and not tools:
            raise ReproError("need at least one query and one tool, or analytics")

        if graph is None:
            # file-backed arena storage lives inside the service's data
            # dir (so snapshots and arenas share a filesystem); without a
            # data_dir the graph owns a reclaimed-at-GC temp dir
            graph = SocialGraph(
                storage,
                storage_dir=(
                    Path(data_dir) / "arenas" if data_dir is not None else None
                ),
            )
        elif storage is not None:
            raise ReproError(
                "pass storage= only when the service builds its own graph; "
                "a pre-built graph already fixed its backend"
            )
        self.graph = graph
        self.queries = tuple(queries)
        self.tools = tuple(tools)
        self.analytics = tuple(analytics)
        #: the tool whose cached result :meth:`query` serves by default
        self.primary_tool = self.tools[0] if self.tools else None
        self.version = _start_version
        self.snapshot_every = snapshot_every
        self.keep_snapshots = keep_snapshots

        #: (shard_index, shard_count) when this service is one shard of a
        #: :class:`repro.sharding.ShardedGraphService`; forwarded to the
        #: analytics engines so their mergeable partials report only the
        #: users this shard owns
        self.shard = shard

        self._lock = threading.RLock()
        self._batcher = MicroBatcher(
            max_changes=max_batch, max_delay_ms=max_delay_ms,
            max_pending=max_pending,
        )
        self._cache = ResultCache()
        #: typed counters/gauges/histograms (repro.obs), per-op latencies
        #: included; merged into stats()["metrics"] and served by
        #: metrics_text().  Hot-path instruments are resolved once, here.
        self.registry = reg = MetricsRegistry()
        self._t_submit = reg.histogram("repro_op_latency_seconds", op="submit")
        self._t_apply = reg.histogram("repro_op_latency_seconds", op="apply")
        self._t_query = reg.histogram("repro_op_latency_seconds", op="query")
        self._queue_depth = reg.gauge("repro_ingest_queue_depth")
        self._batch_size = reg.histogram("repro_batch_size")
        #: synced from the ResultCache's own totals at scrape time, so a
        #: cached read pays no registry lock
        self._cache_counters = (
            (reg.counter("repro_cache_hits"), "hits"),
            (reg.counter("repro_cache_misses"), "misses"),
            (reg.counter("repro_cache_evictions"), "evictions"),
        )
        self._closed = False
        self._failed = False
        self._gate = SubmitGate(self._known_applied)
        self._recovered_from: Optional[tuple[int, int]] = None

        self._store: Optional[SnapshotStore] = None
        self._wal: Optional[ChangeLog] = None
        if data_dir is not None:
            self._store = SnapshotStore(data_dir)
            self._wal = ChangeLog(data_dir, sync=wal_sync)
            if not _allow_existing and (
                self._store.versions() or self._wal.path.exists()
            ):
                raise ReproError(
                    f"{data_dir} already holds service state; use "
                    "GraphService.recover(data_dir) to resume it"
                )
            self._t_wal = reg.histogram("repro_op_latency_seconds", op="wal")
            self._t_snapshot = reg.histogram(
                "repro_op_latency_seconds", op="snapshot"
            )
            self._wal_bytes = reg.counter("repro_wal_bytes_total")

        self._engines: dict[tuple[str, str], object] = {}
        for tool in self.tools:
            for query in self.queries:
                self._engines[(query, tool)] = make_engine(
                    tool, query, k=k, q2_algorithm=q2_algorithm
                )
        # analytics engines are registered under (name, name): the tool IS
        # the query, so query("pagerank") reads its cache entry directly
        for name in self.analytics:
            self._engines[(name, name)] = make_analytics_engine(
                name, k=k, recompute_threshold=analytics_threshold, partition=shard
            )
        self._t_refresh = {
            tool: reg.histogram("repro_op_latency_seconds", op=f"refresh[{tool}]")
            for _, tool in self._engines
        }
        self._staleness = {
            tool: reg.gauge("repro_engine_staleness", engine=tool)
            for _, tool in self._engines
        }

        self._load_engines()

        # a fresh persistent service writes its baseline snapshot so a
        # crash before the first periodic snapshot is still recoverable
        if self._store is not None and not self._store.versions():
            self.snapshot()

        self._flusher: Optional[_Flusher] = None
        if auto_flush:
            self._flusher = _Flusher(self, max(max_delay_ms, 1.0) / 2e3)
            self._flusher.start()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _load_engines(self) -> None:
        for (query, tool), engine in self._engines.items():
            with self.registry.histogram(
                "repro_op_latency_seconds", op=f"load[{tool}]"
            ).time():
                engine.load(self.graph)
                t0 = WallClock.now()
                result_string = engine.initial()
                dt = WallClock.now() - t0
            self._cache.put(
                CachedResult(
                    query=query,
                    tool=tool,
                    version=self.version,
                    top=tuple(engine.last_top),
                    result_string=result_string,
                    compute_seconds=dt,
                    computed_version=self.version,
                )
            )

    @classmethod
    def recover(cls, data_dir, **kwargs) -> "GraphService":
        """Rebuild a service from its data directory after a crash.

        Loads the newest snapshot, replays the committed tail of the
        change log onto it, and re-runs every engine's initial evaluation
        on the recovered graph -- converging to the same top-k as a
        service that never crashed (property-tested in
        ``tests/serving/test_recovery_property.py``).  Keyword arguments
        are the same as the constructor's and must name the same engine
        configuration the original service ran with (the data directory
        persists *state*, not configuration).
        """
        storage = kwargs.pop("storage", None)
        with span_if(get_tracer(), "recover") as sp:
            store = SnapshotStore(data_dir)
            snap_version = store.latest()
            if snap_version is None:
                raise ReproError(f"no snapshot to recover from in {data_dir}")
            graph = store.load(
                snap_version,
                storage=storage,
                storage_dir=Path(data_dir) / "arenas",
            )
            wal = ChangeLog(data_dir, sync=kwargs.get("wal_sync", True))
            # drop a torn trailing frame now: the recovered service appends to
            # this log, and writing after an unclosed frame would corrupt it
            wal.repair()
            version = snap_version
            replayed = 0
            # The deltas are discarded (every engine re-runs initial()
            # below), so consecutive frames are applied as one change set
            # of at most 512 changes: apply's fixed cost is paid per set,
            # not per frame.
            tail: list[Change] = []
            for v, batch in wal.replay(after_version=snap_version):
                if v != version + 1:
                    raise ReproError(
                        f"change log gap: snapshot v{snap_version}, then batch "
                        f"v{v} after v{version}"
                    )
                if tail and len(tail) + len(batch) > 512:
                    graph.apply(ChangeSet(tail))
                    tail = []
                tail.extend(batch)
                version = v
                replayed += 1
            if tail:
                graph.apply(ChangeSet(tail))
            sp.set(snapshot_version=snap_version, replayed=replayed)
            service = cls(
                graph,
                data_dir=data_dir,
                _start_version=version,
                _allow_existing=True,
                **kwargs,
            )
        service._recovered_from = (snap_version, replayed)
        return service

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def submit(
        self, changes: Union[Change, ChangeSet, Iterable[Change]]
    ) -> int:
        """Enqueue change(s); returns the current applied version.

        The batch is applied synchronously inside this call when it trips
        a coalescing threshold; otherwise it stays pending until a later
        submit, an expired read, :meth:`flush`, or the background flusher.
        On a bounded service (``max_pending``), an overflowing submission
        raises :class:`~repro.serving.ingest.QueueFull` *before*
        validation tracks anything -- backpressure, not buffering.
        """
        with self._lock:
            self._check_open()
            with span_if(get_tracer(), "submit") as sp:
                with self._t_submit.time():
                    items = coerce_changes(changes)
                    self._batcher.reserve(len(items))
                    # all-or-nothing validation + pending-id tracking (the
                    # Fig. 3b insert-then-like pattern) lives in SubmitGate
                    self._gate.admit(items)
                    batch = self._batcher.offer(items)
                sp.set(changes=len(items), flushed=batch is not None)
                if batch is not None:
                    self._apply(batch)
            self._queue_depth.set(self._batcher.pending)
            return self.version

    def apply_batch(self, changes: Union[Change, ChangeSet, Iterable[Change]]) -> int:
        """Validate and apply one pre-coalesced batch synchronously.

        The sharded router's scatter target: it batches at the router, so
        each shard must apply exactly the sub-batch it is handed -- even
        an *empty* one, which still advances the version and writes a WAL
        frame, keeping every shard's version aligned with the router's
        (the consistency barrier reads rely on).  Anything pending in
        this service's own micro-batcher is applied first, so the two
        write paths cannot interleave within a version.  Returns the new
        applied version.
        """
        with self._lock:
            self._check_open()
            with self._t_submit.time():
                items = coerce_changes(changes)
                self._gate.admit(items)
            pending = self._batcher.drain()
            if pending is not None:
                self._apply(pending)
            self._apply(ChangeSet(items))
            self._batcher.submitted += len(items)
            self._batcher.batches += 1
            self._queue_depth.set(self._batcher.pending)
            return self.version

    def flush(self) -> int:
        """Apply everything pending now; returns the new applied version."""
        with self._lock:
            self._check_open()
            batch = self._batcher.drain()
            if batch is not None:
                with span_if(get_tracer(), "flush"):
                    self._apply(batch)
            self._queue_depth.set(self._batcher.pending)
            return self.version

    def _apply(self, batch: ChangeSet) -> None:
        """WAL-log, apply, and re-evaluate one coalesced batch.

        Fail-stop: if the graph or an engine raises mid-apply, the
        in-memory state (graph partially mutated, cache possibly
        version-skewed) is unrecoverable, so the service marks itself
        failed and every later operation raises -- in particular no later
        batch can reuse this batch's WAL version number.  The durable
        state stays sound: the frame is already committed, and
        :meth:`recover` replays it in full.
        """
        next_version = self.version + 1
        tr = get_tracer()
        try:
            with span_if(tr, "batch", version=next_version, changes=len(batch)):
                self._batch_size.observe(len(batch))
                if self._wal is not None:
                    with self._t_wal.time():
                        with span_if(tr, "wal") as wsp:
                            nbytes = self._wal.append(next_version, batch)
                            wsp.set(nbytes=nbytes)
                    self._wal_bytes.inc(nbytes)
                    _fire_fault(
                        CRASH_POST_APPEND,
                        path=str(self._wal.path),
                        version=next_version,
                    )
                with self._t_apply.time():
                    with span_if(tr, "apply"):
                        delta = self.graph.apply(batch)
                    self._refresh_engines(delta, next_version)
        except BaseException:
            self._failed = True
            raise
        self.version = next_version
        self._gate.clear()
        if (
            self._store is not None
            and self.snapshot_every
            and self.version % self.snapshot_every == 0
        ):
            self.snapshot()

    # ------------------------------------------------------------------
    # engine refresh
    # ------------------------------------------------------------------

    def _refresh_engines(self, delta, next_version: int) -> None:
        """Refresh every engine with one applied delta and publish its result.

        One loop in engine registration order: refresh the engine, record
        its ``refresh`` span under the enclosing ``batch`` span, then its
        ``refresh[tool]`` latency, staleness gauge and versioned cache
        entry.  The first engine that raises propagates into the fail-stop
        path of :meth:`_apply`; later engines are not refreshed.
        """
        tr = get_tracer()
        parent = current_span()  # "batch": refresh spans hang beside "commit"
        with span_if(tr, "commit", version=next_version):
            for (query, tool), engine in self._engines.items():
                status = "err"
                t0 = WallClock.now()
                try:
                    result_string = engine.refresh(delta)
                    status = "ok"
                finally:
                    dt = WallClock.now() - t0
                    if tr is not None:
                        tr.record("refresh", t0, dt, parent=parent,
                                  query=query, tool=tool, status=status)
                self._t_refresh[tool].observe(dt)
                staleness = engine.staleness
                self._staleness[tool].set(staleness)
                self._cache.put(
                    CachedResult(
                        query=query,
                        tool=tool,
                        version=next_version,
                        top=tuple(engine.last_top),
                        result_string=result_string,
                        compute_seconds=dt,
                        # dirty-threshold analytics engines may serve a result
                        # computed `staleness` batches ago; query engines are
                        # exact every batch (staleness 0)
                        computed_version=next_version - staleness,
                    )
                )

    # ------------------------------------------------------------------
    # submit-time validation (keeps the WAL free of unappliable batches)
    # ------------------------------------------------------------------

    def _known_applied(self, kind: str, external_id: int) -> bool:
        """The :class:`~repro.serving.ingest.SubmitGate` membership hook."""
        idmap = {"user": self.graph.users, "post": self.graph.posts, "comment": self.graph.comments}[kind]
        return external_id in idmap

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def query(
        self,
        query: str,
        tool: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> CachedResult:
        """The cached top-k for ``query`` at the current applied version.

        ``query`` is ``"Q1"``/``"Q2"`` (``tool`` defaults to
        :attr:`primary_tool`) or an analytics tool name, which is its own
        cache key -- ``query("components")`` just works.  O(1) either
        way: a dict lookup plus one expired-deadline check (an overdue
        pending batch is applied first, so staleness stays bounded by
        ``max_delay_ms`` even on a submit-quiet service).

        ``deadline`` is an absolute :class:`~repro.util.timer.WallClock`
        instant: a read whose deadline has already passed raises
        :class:`~repro.util.validation.DeadlineExceeded` *before* doing
        any work (in particular before an overdue pending batch would be
        applied on its behalf) -- the gateway counts these as shed load.
        """
        with self._lock:
            self._check_open()
            if deadline is not None and WallClock.now() >= deadline:
                raise DeadlineExceeded(
                    f"read of {query!r} abandoned: deadline passed before serve"
                )
            if self._batcher.due():
                self._apply(self._batcher.drain())
            with self._t_query.time():
                if tool is None:
                    tool = query if query in self.analytics else self.primary_tool
                with span_if(get_tracer(), "query", query=query, tool=tool):
                    return self._cache.get(query, tool)

    def engine(self, query: str, tool: Optional[str] = None):
        """The registered engine behind a (query, tool) pair.

        Read-only accessor (the sharded router uses it to reach the
        engine's ``merge_partials`` hook); mutating a served engine from
        outside the service is undefined behaviour.
        """
        with self._lock:
            if tool is None:
                tool = query if query in self.analytics else self.primary_tool
            engine = self._engines.get((query, tool))
            if engine is None:
                raise ReproError(
                    f"no engine for query {query!r} under tool {tool!r}; "
                    f"known: {sorted(self._engines)}"
                )
            return engine

    def engine_partial(self, query: str, tool: Optional[str] = None):
        """The mergeable partial of one engine's *served* result.

        The sharded router's gather hook (see :mod:`repro.sharding`):
        returns whatever the engine's ``partial()`` reports at the current
        applied version, under the same lock the write path holds, so a
        scatter-gather read composed of per-shard partials observes each
        shard at a consistent version.
        """
        with self._lock:
            self._check_open()
            return self.engine(query, tool).partial()

    def result_and_partial(self, query: str, tool: Optional[str] = None):
        """One-sweep gather: ``(cached result, mergeable partial)``.

        What the sharded router reads per shard -- both halves under a
        single acquisition of this shard's lock, so they are guaranteed to
        describe the same applied version.
        """
        with self._lock:
            self._check_open()
            if tool is None:
                tool = query if query in self.analytics else self.primary_tool
            return self._cache.get(query, tool), self.engine(query, tool).partial()

    def stats(self) -> dict:
        """Operational snapshot: version, queue, graph, cache counters
        (``"cache"``) and the registry (``"metrics"``), per-op latencies
        under ``"repro_op_latency_seconds"``."""
        with self._lock:
            cache = self._sync_scraped_metrics()
            return {
                "version": self.version,
                "pending": self._batcher.pending,
                "submitted": self._batcher.submitted,
                "applied_batches": self._batcher.batches,
                "queries": list(self.queries),
                "tools": list(self.tools),
                "analytics": list(self.analytics),
                "primary_tool": self.primary_tool,
                "graph": self.graph.stats(),
                "storage": self.graph.storage_stats(),
                "cache": cache,
                "metrics": self.registry.snapshot(),
                "persistent": self._store is not None,
                "snapshots": self._store.versions() if self._store else [],
                "recovered_from": self._recovered_from,
            }

    def metrics_text(self, labels: Optional[dict] = None) -> str:
        """Prometheus text exposition of this service's registry, per-op
        latencies included.  ``labels`` are stamped onto every series (the
        sharded router passes its ``shard="i"`` tag)."""
        with self._lock:
            self._sync_scraped_metrics()
            return render_prometheus(self.registry, labels=labels)

    def _sync_scraped_metrics(self) -> dict:
        """Bring the series read only at scrape time up to date:
        ``repro_storage_bytes`` (labelled by arena backend) and the
        ``repro_cache_*`` counters, advanced to the cache's own totals.
        Returns the cache stats."""
        self.registry.gauge("repro_storage_bytes", backend=self.graph.backend).set(
            self.graph.storage_bytes()
        )
        cache = self._cache.stats()
        for counter, key in self._cache_counters:
            counter.inc(cache[key] - counter.value)
        return cache

    # ------------------------------------------------------------------
    # persistence / lifecycle
    # ------------------------------------------------------------------

    def snapshot(self) -> int:
        """Write a point-in-time snapshot at the current applied version.

        Pending (unapplied) changes are not part of a snapshot -- the
        durability boundary is the applied batch.  Returns the snapshot
        version.  Older snapshots beyond ``keep_snapshots`` are pruned;
        the change log is never truncated (replay always starts from the
        newest snapshot, so the tail before it is merely dead weight).
        """
        with self._lock:
            if self._store is None:
                raise ReproError("service has no data_dir; snapshots are disabled")
            with self._t_snapshot.time():
                with span_if(get_tracer(), "snapshot", version=self.version):
                    if self.version not in self._store.versions():
                        path = self._store.save(self.graph, self.version)
                        self.registry.gauge("repro_snapshot_bytes").set(
                            dir_bytes(path)
                        )
                    self._store.prune(self.keep_snapshots)
            return self.version

    def close(self) -> None:
        """Graceful shutdown: flush pending, stop the flusher, close files."""
        with self._lock:
            if self._closed:
                return
            if self._batcher.pending and not self._failed:
                self._apply(self._batcher.drain())
            self._closed = True
        if self._flusher is not None:
            self._flusher.stop()
            self._flusher = None
        if self._wal is not None:
            self._wal.close()
        for engine in self._engines.values():
            engine.close()
        # REPRO_TRACE=<path>: the accumulated Chrome trace lands on disk at
        # shutdown (idempotent across services sharing the process tracer)
        out = trace_output_path()
        if out:
            tr = get_tracer()
            if tr is not None:
                tr.dump(out)

    def _check_open(self) -> None:
        if self._failed:
            raise ReproError(
                "service failed mid-apply and is fail-stopped; rebuild it "
                "(persistent services: GraphService.recover(data_dir))"
            )
        if self._closed:
            raise ReproError("service is closed")

    def _tick(self) -> None:
        """Background-flusher hook: apply an overdue pending batch."""
        with self._lock:
            if not self._closed and not self._failed and self._batcher.due():
                self._apply(self._batcher.drain())

    def __enter__(self) -> "GraphService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphService<v{self.version}, pending={self._batcher.pending}, "
            f"tools={list(self.tools)}, persistent={self._store is not None}>"
        )


class _Flusher(threading.Thread):
    """Daemon thread enforcing ``max_delay_ms`` on a submit-quiet service."""

    def __init__(self, service: GraphService, interval_s: float):
        super().__init__(name="graphservice-flusher", daemon=True)
        self._service = service
        self._interval = interval_s
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self._interval):
            try:
                self._service._tick()
            except Exception:  # pragma: no cover - keep the flusher alive
                pass

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=5.0)
