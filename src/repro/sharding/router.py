"""ShardedGraphService: K independent GraphService shards behind one router.

The horizontal-scale axis of the ROADMAP's serving north star: the graph
itself is partitioned (see :mod:`repro.sharding.partition`) across K
:class:`~repro.serving.service.GraphService` shards -- each with its own
:class:`~repro.model.graph.SocialGraph` arenas, engine registry and WAL +
snapshot directory -- and a thin router owns the write
path, the consistency barrier and the scatter-gather read path:

writes
    Submitted changes pass the same :class:`~repro.serving.ingest
    .SubmitGate` validation and micro-batching as the single-process
    service; each coalesced batch is framed into the **router WAL**, split
    by partition key (users/friendships replicated, content routed by root
    post), and scattered -- concurrently when ``concurrent_scatter`` --
    to every shard via :meth:`GraphService.apply_batch`.  Every shard
    receives every batch (possibly empty), so shard versions advance in
    lockstep with the router's: that lockstep IS the versioned barrier.

reads
    :meth:`query` gathers one mergeable partial per shard (each under its
    shard's lock, all at the barrier version -- a torn read raises instead
    of lying) and folds them through the engine's ``merge_partials`` hook:
    exact global top-k from per-shard top-k for Q1/Q2, min-label join with
    summed per-shard member counts for components, disjoint owned top-k
    for vertex analytics.  The merged :class:`~repro.serving.cache
    .CachedResult` carries the *worst* staleness tag across shards, still
    monotone in the router version.

recovery
    Each shard recovers from its own snapshot + WAL tail; the router then
    replays its own WAL's committed frames to any shard that crashed
    behind the others (the only window where shards can diverge is
    mid-scatter), re-routing each frame deterministically.  Afterward all
    shards sit at the router WAL's last committed version -- the
    convergence property ``tests/sharding/test_fault_injection.py`` pins.

``shards=1`` routes everything to a single shard that *is* the caller's
graph object, and serves results bit-identical to an unsharded
:class:`GraphService` (property-tested for shards ∈ {1, 2, 4} in
``tests/sharding/``).
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.model.changes import (
    AddComment,
    AddFriendship,
    AddLike,
    AddPost,
    AddUser,
    Change,
    ChangeSet,
    RemoveFriendship,
    RemoveLike,
)
from repro.model.graph import SocialGraph
from repro.obs.metrics import MetricsRegistry, merge_expositions, render_prometheus
from repro.replication.service import ReplicatedGraphService
from repro.obs.trace import current_span, get_tracer, span_if
from repro.serving.cache import CachedResult
from repro.serving.ingest import MicroBatcher, SubmitGate, coerce_changes
from repro.serving.persistence import ChangeLog
from repro.serving.service import GraphService, _Flusher
from repro.obs.trace import trace_output_path
from repro.sharding.handle import (
    InProcessShardHandle,
    ProcessShardHandle,
    default_shard_backend,
    validate_backend,
)
from repro.sharding.partition import partition_graph, shard_of
from repro.util.timer import WallClock
from repro.util.validation import DeadlineExceeded, ReproError

__all__ = ["SHARDABLE_TOOLS", "ShardedGraphService", "default_shards"]

#: tools implementing the mergeable-result protocol (the NMF baselines
#: predate it and keep running unsharded)
SHARDABLE_TOOLS = ("graphblas-batch", "graphblas-incremental")

_META_FILE = "router.json"
_META_SCHEMA = 1


def default_shards() -> int:
    """Shard count from the ``REPRO_SHARDS`` environment knob (default 1)."""
    try:
        n = int(os.environ.get("REPRO_SHARDS", "1"))
    except ValueError as exc:
        raise ReproError(f"bad REPRO_SHARDS: {exc}") from None
    if n < 1:
        raise ReproError(f"REPRO_SHARDS must be >= 1, got {n}")
    return n


class _ShardBuilder:
    """Deferred construction of one shard's service.

    Under the ``"inproc"`` backend it runs immediately in the router's
    process; under ``"process"`` it runs *inside the freshly forked
    worker*, so the partitioned shard graph it closes over travels by
    copy-on-write pages, never through a pickle.
    """

    def __init__(self, graph, data_dir, replicas: int, shard_kwargs: dict):
        self.graph = graph
        self.data_dir = data_dir
        self.replicas = replicas
        self.shard_kwargs = shard_kwargs

    def __call__(self):
        if self.replicas:
            return ReplicatedGraphService(
                self.graph, replicas=self.replicas, data_dir=self.data_dir,
                **self.shard_kwargs,
            )
        return GraphService(
            self.graph, data_dir=self.data_dir, **self.shard_kwargs
        )


class _ShardRecoverer:
    """Deferred per-shard recovery (snapshot + WAL tail), backend-agnostic.

    The fenced restart: by the time this runs, the previous worker (if
    any) has been reaped, so exactly one process ever has the shard
    directory open for writing.
    """

    def __init__(self, shard_cls, shard_dir, shard: tuple, shard_kwargs: dict):
        self.shard_cls = shard_cls
        self.shard_dir = shard_dir
        self.shard = shard
        self.shard_kwargs = shard_kwargs

    def __call__(self):
        return self.shard_cls.recover(
            self.shard_dir, shard=self.shard, **self.shard_kwargs
        )


class ShardedGraphService:
    """Hash-partitioned serving: one router, K GraphService shards.

    Constructor arguments mirror :class:`~repro.serving.service
    .GraphService` (they configure every shard identically) plus
    ``shards`` -- the partition width, defaulting to the ``REPRO_SHARDS``
    environment knob -- and ``replicas``: when positive, each shard is a
    :class:`~repro.replication.ReplicatedGraphService` fleet (K shards ×
    R replicas; requires a ``data_dir``), so a shard's leader can die and
    be replaced via ``shard.promote()`` without repartitioning.  Barrier
    reads always come from shard leaders; replicas are each shard's
    failover capacity.

    The router never touches shard objects directly: every shard sits
    behind a :mod:`~repro.sharding.handle` chosen by ``backend`` --
    ``"inproc"`` (the default: shards live in this process) or
    ``"process"`` (one forked worker process per shard, escaping the GIL
    on multicore hosts), defaulting to the ``REPRO_SHARD_PROCS``
    environment knob.  Both backends serve bit-identical results (the
    cross-backend conformance suite in ``tests/sharding/`` is the
    oracle).

    >>> from repro.model.changes import AddFriendship, AddUser
    >>> svc = ShardedGraphService(shards=2, tools=("graphblas-incremental",),
    ...                           analytics=("components",), max_batch=1)
    >>> svc.submit([AddUser(1), AddUser(2), AddUser(3)])
    1
    >>> svc.submit(AddFriendship(1, 2))
    2
    >>> svc.query("components").top      # merged across both shards
    ((1, 2), (3, 1))
    >>> svc.query("components").version
    2
    >>> svc.close()
    """

    def __init__(
        self,
        graph: Optional[SocialGraph] = None,
        *,
        shards: Optional[int] = None,
        replicas: int = 0,
        backend: Optional[str] = None,
        queries: tuple = ("Q1", "Q2"),
        tools: tuple = SHARDABLE_TOOLS,
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
        concurrent_scatter: bool = True,
        _shard_services: Optional[list] = None,
    ):
        if shards is None:
            shards = default_shards()
        if shards < 1:
            raise ReproError(f"shards must be >= 1, got {shards}")
        if replicas < 0:
            raise ReproError(f"replicas must be >= 0, got {replicas}")
        if replicas and data_dir is None:
            raise ReproError(
                "replicated shards keep replica state on disk; pass data_dir "
                "when replicas > 0"
            )
        for t in tools:
            if t not in SHARDABLE_TOOLS:
                raise ReproError(
                    f"tool {t!r} does not implement the mergeable-result "
                    f"protocol; sharded serving supports {SHARDABLE_TOOLS}"
                )
        self.num_shards = shards
        self.num_replicas = replicas
        self.backend = validate_backend(backend or default_shard_backend())
        self.queries = tuple(queries)
        self.tools = tuple(tools)
        self.analytics = tuple(analytics)
        self.primary_tool = self.tools[0] if self.tools else None
        self.k = k
        self.version = 0

        self._lock = threading.RLock()
        self._batcher = MicroBatcher(
            max_changes=max_batch, max_delay_ms=max_delay_ms,
            max_pending=max_pending,
        )
        self._gate = SubmitGate(self._known_applied)
        #: router-level typed metrics and op latencies (each shard keeps
        #: its own registry); hot-path instruments are resolved once, here
        self.registry = reg = MetricsRegistry()
        self._t_submit = reg.histogram("repro_op_latency_seconds", op="submit")
        self._t_scatter = reg.histogram("repro_op_latency_seconds", op="scatter")
        self._t_query = reg.histogram("repro_op_latency_seconds", op="query")
        self._queue_depth = reg.gauge("repro_ingest_queue_depth")
        self._batch_size = reg.histogram("repro_batch_size")
        self._shard_changes = [
            reg.counter("repro_shard_changes_total", shard=str(i))
            for i in range(shards)
        ]
        self._scatter_skew = reg.histogram("repro_scatter_skew")
        self._closed = False
        self._failed = False
        #: external content id -> owner shard (the routing tables; comments
        #: inherit their root post's shard so each comment tree plus its
        #: likes is entirely shard-local)
        self._post_shard: dict[int, int] = {}
        self._comment_shard: dict[int, int] = {}
        #: users are replicated to every shard, so the router tracks them
        #: itself (the SubmitGate hook must not cost a shard RPC per
        #: submit under the process backend)
        self._users: set[int] = set()

        self._wal: Optional[ChangeLog] = None
        if data_dir is not None:
            data_dir = Path(data_dir)
            if _shard_services is None:
                if (data_dir / _META_FILE).exists():
                    raise ReproError(
                        f"{data_dir} already holds sharded service state; use "
                        "ShardedGraphService.recover(data_dir) to resume it"
                    )
                if (data_dir / ChangeLog.FILENAME).exists() or any(
                    data_dir.glob("snapshot-*")
                ):
                    # an unsharded GraphService lived here: appending router
                    # frames into its WAL would corrupt both histories
                    raise ReproError(
                        f"{data_dir} already holds (unsharded) GraphService "
                        "state; recover it with GraphService.recover or point "
                        "the sharded service at a fresh directory"
                    )

        if _shard_services is not None:
            # recovery path: adopt already-recovered shard handles and
            # rebuild the routing tables from what each shard actually owns
            self._shards = [
                svc if isinstance(svc, (InProcessShardHandle, ProcessShardHandle))
                else InProcessShardHandle(svc)
                for svc in _shard_services
            ]
            for i, handle in enumerate(self._shards):
                owned = handle.owned_ids()
                for p in owned["posts"]:
                    self._post_shard[p] = i
                for c in owned["comments"]:
                    self._comment_shard[c] = i
                if i == 0:
                    # users are replicated: any shard knows them all
                    self._users.update(owned["users"])
        else:
            source_graph = graph if graph is not None else SocialGraph()
            self._users.update(source_graph.users.external_array().tolist())
            shard_graphs, self._post_shard, self._comment_shard = partition_graph(
                source_graph, shards
            )
            self._shards = []
            created_dirs: list[Path] = []
            try:
                for i in range(shards):
                    shard_dir = None
                    if data_dir is not None:
                        shard_dir = data_dir / f"shard-{i:02d}"
                        if not shard_dir.exists():
                            created_dirs.append(shard_dir)
                    shard_kwargs = dict(
                        queries=queries,
                        tools=tools,
                        analytics=analytics,
                        analytics_threshold=analytics_threshold,
                        k=k,
                        q2_algorithm=q2_algorithm,
                        snapshot_every=snapshot_every,
                        keep_snapshots=keep_snapshots,
                        wal_sync=wal_sync,
                        shard=(i, shards),
                    )
                    build = _ShardBuilder(
                        shard_graphs[i], shard_dir, replicas, shard_kwargs
                    )
                    if self.backend == "process":
                        # fork now: the child builds the service from the
                        # copy-on-write shard graph -- nothing is pickled
                        self._shards.append(ProcessShardHandle(i, build))
                    else:
                        self._shards.append(InProcessShardHandle(build()))
            except BaseException:
                # a failed construction must not poison data_dir: drop the
                # shard directories this attempt created (router.json is
                # only written below, after every shard exists)
                for svc in self._shards:
                    svc.close()
                for d in created_dirs:
                    shutil.rmtree(d, ignore_errors=True)
                raise

        if data_dir is not None:
            data_dir.mkdir(parents=True, exist_ok=True)
            meta_path = data_dir / _META_FILE
            if not meta_path.exists():
                with open(meta_path, "w") as fh:
                    json.dump(
                        {"schema": _META_SCHEMA, "shards": shards,
                         "replicas": replicas},
                        fh,
                    )
            self._wal = ChangeLog(data_dir, sync=wal_sync)
            self._t_wal = reg.histogram("repro_op_latency_seconds", op="wal")
            self._wal_bytes = reg.counter("repro_wal_bytes_total")

        self._scatter_pool: Optional[ThreadPoolExecutor] = None
        if concurrent_scatter and shards > 1:
            self._scatter_pool = ThreadPoolExecutor(
                max_workers=shards, thread_name_prefix="shard-scatter"
            )

        self._flusher: Optional[_Flusher] = None
        if auto_flush:
            self._flusher = _Flusher(self, max(max_delay_ms, 1.0) / 2e3)
            self._flusher.start()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(cls, data_dir, **kwargs) -> "ShardedGraphService":
        """Rebuild a sharded service from its data directory after a crash.

        Every shard recovers independently (newest snapshot + committed
        tail of its own WAL); shards that crashed *behind* the router WAL
        -- the mid-scatter window -- are then caught up by re-routing the
        router WAL's committed frames to them, so all shards converge to
        the router WAL's last committed version.  Keyword arguments name
        the same engine configuration the original service ran with;
        ``shards`` is read back from the persisted ``router.json`` and
        must not be changed across a recovery (the partition is part of
        the durable state).
        """
        data_dir = Path(data_dir)
        meta_path = data_dir / _META_FILE
        if not meta_path.exists():
            raise ReproError(f"no sharded service state in {data_dir}")
        with open(meta_path) as fh:
            meta = json.load(fh)
        if meta.get("schema") != _META_SCHEMA:
            raise ReproError(f"router meta schema {meta.get('schema')} != {_META_SCHEMA}")
        shards = int(meta["shards"])
        asked = kwargs.pop("shards", None)
        if asked is not None and asked != shards:
            raise ReproError(
                f"cannot recover with shards={asked}: {data_dir} was "
                f"partitioned with shards={shards} (repartitioning is a "
                "rebuild, not a recovery)"
            )
        replicas = int(meta.get("replicas", 0))
        asked_r = kwargs.pop("replicas", None)
        if asked_r is not None and asked_r != replicas:
            raise ReproError(
                f"cannot recover with replicas={asked_r}: {data_dir} was laid "
                f"out with replicas={replicas} (resizing the fleet is a "
                "rebuild, not a recovery)"
            )
        wal_sync = kwargs.get("wal_sync", True)
        backend = validate_backend(
            kwargs.get("backend") or default_shard_backend()
        )
        kwargs["backend"] = backend
        shard_kwargs = {
            key: kwargs[key]
            for key in (
                "queries", "tools", "analytics", "analytics_threshold", "k",
                "q2_algorithm", "snapshot_every", "keep_snapshots", "wal_sync",
            )
            if key in kwargs
        }
        with span_if(get_tracer(), "recover", shards=shards) as sp:
            shard_cls = ReplicatedGraphService if replicas else GraphService
            services = []
            try:
                for i in range(shards):
                    build = _ShardRecoverer(
                        shard_cls, data_dir / f"shard-{i:02d}", (i, shards),
                        shard_kwargs,
                    )
                    if backend == "process":
                        services.append(ProcessShardHandle(i, build))
                    else:
                        services.append(InProcessShardHandle(build()))
            except BaseException:
                for svc in services:
                    svc.close()
                raise
            try:
                router_wal = ChangeLog(data_dir, sync=wal_sync)
                router_wal.repair()
                service = cls(
                    shards=shards, replicas=replicas, data_dir=data_dir,
                    _shard_services=services, **kwargs
                )
                base = min(svc.version for svc in services)
                target = max(
                    [router_wal.last_version()] + [svc.version for svc in services]
                )
                replayed = 0
                for v, batch in router_wal.replay(after_version=base):
                    subs = service._route(list(batch))
                    for i, svc in enumerate(services):
                        if svc.version < v:
                            svc.apply_batch(subs[i])
                            replayed += 1
                laggard = [svc.version for svc in services if svc.version != target]
                if laggard:
                    raise ReproError(
                        f"sharded recovery did not converge: shard versions "
                        f"{[svc.version for svc in services]}, router WAL at {target}"
                    )
                sp.set(replayed=replayed)
                service.version = target
                return service
            except BaseException:
                for svc in services:
                    svc.close()
                raise

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def submit(self, changes: Union[Change, ChangeSet, Iterable[Change]]) -> int:
        """Enqueue change(s); returns the current applied router version.

        On a bounded router (``max_pending``), an overflowing submission
        raises :class:`~repro.serving.ingest.QueueFull` before validation
        tracks anything -- same backpressure semantics as the unsharded
        service and the gateway.
        """
        with self._lock:
            self._check_open()
            with span_if(get_tracer(), "submit") as sp:
                with self._t_submit.time():
                    items = coerce_changes(changes)
                    self._batcher.reserve(len(items))
                    self._gate.admit(items)
                    batch = self._batcher.offer(items)
                sp.set(changes=len(items), flushed=batch is not None)
                if batch is not None:
                    self._apply(batch)
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
        """Router-WAL, route, scatter one batch; fail-stop on any error."""
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
                subs = self._route(list(batch))
                sizes = [len(sub) for sub in subs]
                for counter, n in zip(self._shard_changes, sizes):
                    counter.inc(n)
                if sum(sizes):
                    # fan-out balance: largest shard sub-batch / mean
                    # (1.0 = perfectly even split, num_shards = all-to-one)
                    self._scatter_skew.observe(
                        max(sizes) * len(sizes) / sum(sizes)
                    )
                with self._t_scatter.time():
                    with span_if(tr, "scatter", version=next_version):
                        self._scatter(subs, next_version)
        except BaseException:
            self._failed = True
            self._teardown_failed()
            raise
        self.version = next_version
        self._gate.clear()

    def _route(self, items: list[Change]) -> list[list[Change]]:
        """Split one batch by partition key; updates the routing tables.

        Users and friendship edges go to **every** shard (Q2 needs the
        friends graph among arbitrary likers; analytics partials re-slice
        it by ownership); a post goes to ``shard_of(post_id)``; comments
        and likes follow their root post.  Deterministic, so recovery can
        re-route a WAL frame and reach the same split.
        """
        subs: list[list[Change]] = [[] for _ in range(self.num_shards)]
        for ch in items:
            if isinstance(ch, (AddUser, AddFriendship, RemoveFriendship)):
                if isinstance(ch, AddUser):
                    self._users.add(ch.user_id)
                for sub in subs:
                    sub.append(ch)
                continue
            if isinstance(ch, AddPost):
                s = shard_of(ch.post_id, self.num_shards)
                self._post_shard[ch.post_id] = s
            elif isinstance(ch, AddComment):
                s = self._comment_shard.get(ch.parent_id)
                if s is None:
                    s = self._post_shard[ch.parent_id]
                self._comment_shard[ch.comment_id] = s
            elif isinstance(ch, (AddLike, RemoveLike)):
                s = self._comment_shard[ch.comment_id]
            else:
                raise ReproError(f"unroutable change type {type(ch)}")
            subs[s].append(ch)
        return subs

    def _scatter(self, subs: list[list[Change]], next_version: int) -> None:
        """Hand every shard its sub-batch; all must land on ``next_version``.

        Concurrent when the scatter pool exists -- shards are fully
        independent (own graph, own engines, own locks).  Failures are
        surfaced in shard order, deterministically, after every future
        settles; any failure fail-stops the router (shards may then
        disagree by one version, which is exactly what :meth:`recover`
        reconciles from the router WAL).
        """
        tr = get_tracer()
        # the enclosing "scatter" span, passed explicitly: the contextvar
        # does not propagate into the scatter pool's threads
        parent = current_span()
        if self._scatter_pool is None:
            results = [
                self._apply_shard(i, svc, sub, tr, parent)
                for i, (svc, sub) in enumerate(zip(self._shards, subs))
            ]
        else:
            futures = [
                self._scatter_pool.submit(self._apply_shard, i, svc, sub, tr, parent)
                for i, (svc, sub) in enumerate(zip(self._shards, subs))
            ]
            results, first_error = [], None
            for fut in futures:
                try:
                    results.append(fut.result())
                except BaseException as exc:
                    results.append(None)
                    if first_error is None:
                        first_error = exc
            if first_error is not None:
                raise first_error
        for i, got in enumerate(results):
            if got != next_version:
                raise ReproError(
                    f"shard {i} applied to v{got}, router expected v{next_version}"
                )

    @staticmethod
    def _apply_shard(i: int, svc, sub: list, tr, parent) -> int:
        """One shard's slice of a scatter, under its own ``shard`` span.

        ``svc`` is a shard *handle*.  Runs on a scatter-pool thread (or
        inline when serial); entering the span installs it as the
        thread's current span, so the shard service's own
        ``batch``/``wal``/``refresh`` spans hang off it -- directly for
        an in-process shard, grafted out of the reply envelope for a
        process shard -- and the whole scatter stays one connected trace
        tree.
        """
        with span_if(tr, "shard", parent=parent, shard=i, changes=len(sub)):
            return svc.apply_batch(sub)

    # ------------------------------------------------------------------
    # reads (scatter-gather)
    # ------------------------------------------------------------------

    def query(
        self,
        query: str,
        tool: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> CachedResult:
        """Merged top-k for ``query`` at a consistent cut across shards.

        Gathers every shard's cached result and mergeable partial at the
        barrier version (shards apply in lockstep with the router, so a
        version skew means a torn read and raises), then folds the
        partials through the engine's ``merge_partials`` hook.  The
        merged result's ``computed_version`` carries the worst per-shard
        staleness -- monotone in the router version, since each shard's
        own tag is monotone.

        ``deadline`` (absolute WallClock instant) is checked at entry and
        between per-shard gathers: a read that cannot finish in budget
        raises :class:`~repro.util.validation.DeadlineExceeded` rather
        than blocking the caller -- abandoned, not failed (the gathered
        shards did nothing torn; no state changed).
        """
        with self._lock:
            self._check_open()
            if deadline is not None and WallClock.now() >= deadline:
                raise DeadlineExceeded(
                    f"sharded read of {query!r} abandoned: deadline passed "
                    "before gather"
                )
            if self._batcher.due():
                self._apply(self._batcher.drain())
            with self._t_query.time(), span_if(
                get_tracer(), "query", query=query
            ):
                if tool is None:
                    tool = query if query in self.analytics else self.primary_tool
                gathered = []
                for svc in self._shards:
                    if deadline is not None and WallClock.now() >= deadline:
                        raise DeadlineExceeded(
                            f"sharded read of {query!r} abandoned after "
                            f"{len(gathered)}/{self.num_shards} shard gathers"
                        )
                    gathered.append(svc.result_and_partial(query, tool))
                shard_results = [r for r, _ in gathered]
                partials = [p for _, p in gathered]
                versions = sorted({r.version for r in shard_results})
                if versions != [self.version]:
                    raise ReproError(
                        f"torn sharded read: shard versions {versions} vs "
                        f"router v{self.version}"
                    )
                top, result_string = self._shards[0].merge_partials(
                    query, tool, partials, self.k
                )
                return CachedResult(
                    query=query,
                    tool=tool,
                    version=self.version,
                    top=tuple(top),
                    result_string=result_string,
                    compute_seconds=max(r.compute_seconds for r in shard_results),
                    computed_version=self.version
                    - max(r.staleness for r in shard_results),
                )

    def stats(self) -> dict:
        """Router-level snapshot plus each shard's own stats()."""
        with self._lock:
            return {
                "version": self.version,
                "shards": self.num_shards,
                "replicas": self.num_replicas,
                "pending": self._batcher.pending,
                "submitted": self._batcher.submitted,
                "applied_batches": self._batcher.batches,
                "queries": list(self.queries),
                "tools": list(self.tools),
                "analytics": list(self.analytics),
                "primary_tool": self.primary_tool,
                "persistent": self._wal is not None,
                "metrics": self.registry.snapshot(),
                "shard_versions": [svc.version for svc in self._shards],
                "per_shard": [svc.stats() for svc in self._shards],
            }

    def metrics_text(self, labels: Optional[dict] = None) -> str:
        """Prometheus exposition: the router's own series merged with every
        shard's series stamped ``shard="i"`` (replicated shards further
        stamp ``node="node-0j"`` per fleet member).  ``labels`` are base
        labels the caller (e.g. the gateway) stamps onto every series;
        the merge groups series under one ``# TYPE`` line per metric and
        raises on any label collision, so the output always round-trips
        through a strict exposition parse.
        """
        with self._lock:
            base = dict(labels or {})
            parts = [render_prometheus(self.registry, labels=labels)]
            parts.extend(
                svc.metrics_text(labels={**base, "shard": str(i)})
                for i, svc in enumerate(self._shards)
            )
            return merge_expositions(parts)

    # ------------------------------------------------------------------
    # persistence / lifecycle
    # ------------------------------------------------------------------

    def snapshot(self) -> int:
        """Snapshot every shard at the current barrier version."""
        with self._lock:
            self._check_open()
            for svc in self._shards:
                svc.snapshot()
            return self.version

    def close(self) -> None:
        """Graceful shutdown: flush pending, close every shard."""
        with self._lock:
            if self._closed:
                return
            if self._batcher.pending and not self._failed:
                self._apply(self._batcher.drain())
            self._closed = True
        if self._flusher is not None:
            self._flusher.stop()
            self._flusher = None
        if self._scatter_pool is not None:
            self._scatter_pool.shutdown(wait=True, cancel_futures=True)
            self._scatter_pool = None
        if self._wal is not None:
            self._wal.close()
        for svc in self._shards:
            svc.close()
        # REPRO_TRACE=<path>: under the process backend the shard workers
        # scrub the dump path from their environment (their fragments are
        # grafted into this process's tree), so the router writes the
        # merged trace itself; idempotent alongside in-process shards'
        # own dumps of the same tracer
        out = trace_output_path()
        if out:
            tr = get_tracer()
            if tr is not None:
                tr.dump(out)

    def _known_applied(self, kind: str, external_id: int) -> bool:
        """SubmitGate hook: users are replicated (the router mirrors the
        set every shard holds), content is partitioned (the routing
        tables).  All router-local state -- the gate must not pay a shard
        round-trip per submitted change under the process backend."""
        if kind == "user":
            return external_id in self._users
        table = self._post_shard if kind == "post" else self._comment_shard
        return external_id in table

    def _teardown_failed(self) -> None:
        """Release threads/processes/files on fail-stop, best-effort.

        A fail-stopped router is dead weight until ``recover``; without
        this, an abandoned one leaks its scatter-pool threads, the healthy
        shards' open files and -- under the process backend -- whole
        worker processes (the suite-wide leak fixture is the regression
        test).  The flusher (daemon) is left to its ``_failed`` guard:
        joining it here could deadlock on the router lock.
        """
        if self._scatter_pool is not None:
            self._scatter_pool.shutdown(wait=True, cancel_futures=True)
            self._scatter_pool = None
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        for svc in self._shards:
            try:
                svc.close()
            except BaseException:  # pragma: no cover - best-effort teardown
                pass

    def _check_open(self) -> None:
        if self._failed:
            raise ReproError(
                "sharded service failed mid-scatter and is fail-stopped; "
                "rebuild it (persistent services: "
                "ShardedGraphService.recover(data_dir))"
            )
        if self._closed:
            raise ReproError("sharded service is closed")

    def _tick(self) -> None:
        """Background-flusher hook: apply an overdue pending batch."""
        with self._lock:
            if not self._closed and not self._failed and self._batcher.due():
                self._apply(self._batcher.drain())

    def __enter__(self) -> "ShardedGraphService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedGraphService<v{self.version}, shards={self.num_shards}, "
            f"pending={self._batcher.pending}, tools={list(self.tools)}>"
        )
