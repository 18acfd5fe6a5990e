"""ReplicatedGraphService: one leader, R WAL-tailing replicas, one front.

The read-scaling / fault-tolerance axis of the serving north star
(ROADMAP: "WAL-shipping read replicas").  The front owns a fleet of
``R + 1`` node directories under one ``data_dir``::

    data_dir/
      replication.json      # {schema, nodes, leader, epoch}
      node-00/              # the initial leader: WAL + snapshots
      node-01/ .. node-0R/  # replicas: rebuildable caches of node-00

writes
    Delegated to the leader :class:`~repro.serving.service.GraphService`
    unchanged -- same micro-batching, validation, WAL-before-apply
    durability.  Replicas see a write once its frame is committed
    (fsynced) in the leader's WAL; pending micro-batches are invisible to
    them, exactly as they are to leader reads.

reads
    :meth:`query` prefers replicas, round-robin, under a **bounded
    staleness** contract: a replica must sit within ``max_staleness``
    versions of the leader (catching up on demand through its shipper)
    and never below any version this front has already served (session
    monotonicity), so staleness tags stay monotone across replica
    switches.  A replica that errors or exceeds ``read_timeout_s`` goes
    into capped exponential backoff (``backoff_base_s`` doubling up to
    ``backoff_cap_s``, clocked by the patchable
    :class:`~repro.util.timer.WallClock`); with every replica down the
    front degrades gracefully to the leader.

failover
    :meth:`promote` elects the most-caught-up replica (or the one you
    name), fences the old leader's directory under ``epoch + 1``, drains
    the residual committed WAL into the new leader, and retargets the
    surviving replicas at it.  The old leader is *not* closed -- a
    network-partitioned zombie cannot be closed -- it is simply fenced:
    its next append raises :class:`~repro.serving.persistence.FencedError`
    and fail-stops it (``tests/replication/test_replicated_service.py`` keeps one
    alive on purpose to prove the rejection).

Telemetry: ``repro_replication_lag`` (gauge, per replica),
``repro_replica_reads_total`` / ``repro_replica_errors_total`` (counters,
per replica) and ``repro_leader_read_fallbacks_total`` live in the
front's registry, surfaced through ``stats()["metrics"]`` and
:meth:`metrics_text`.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.model.changes import Change, ChangeSet
from repro.model.graph import SocialGraph
from repro.obs.metrics import MetricsRegistry, merge_expositions, render_prometheus
from repro.replication.replica import Replica
from repro.replication.shipper import DirectoryWalShipper
from repro.serving.cache import CachedResult
from repro.serving.service import GraphService
from repro.util.timer import WallClock
from repro.util.validation import DeadlineExceeded, ReproError

__all__ = ["ReplicatedGraphService", "default_replicas"]

_META_FILE = "replication.json"
_META_SCHEMA = 1

#: front-level knobs that must not leak into GraphService kwargs
_FRONT_KEYS = ("max_staleness", "read_timeout_s", "backoff_base_s",
               "backoff_cap_s")


def default_replicas() -> int:
    """Replica count from the ``REPRO_REPLICAS`` environment knob (default 1)."""
    try:
        n = int(os.environ.get("REPRO_REPLICAS", "1"))
    except ValueError as exc:
        raise ReproError(f"bad REPRO_REPLICAS: {exc}") from None
    if n < 0:
        raise ReproError(f"REPRO_REPLICAS must be >= 0, got {n}")
    return n


class ReplicatedGraphService:
    """Leader + replica fleet behind one service facade.

    Constructor arguments mirror :class:`~repro.serving.service
    .GraphService` (they configure the leader and every replica
    identically) plus the replication knobs: ``replicas`` (defaulting to
    the ``REPRO_REPLICAS`` environment knob; 0 is a leader-only
    degenerate fleet), ``max_staleness`` (versions a replica read may
    trail the leader; 0 = read-your-writes), ``read_timeout_s`` and the
    backoff pair.

    >>> import tempfile
    >>> from repro.model.changes import AddFriendship, AddUser
    >>> svc = ReplicatedGraphService(replicas=1, data_dir=tempfile.mkdtemp(),
    ...                              max_batch=1)
    >>> svc.submit([AddUser(1), AddUser(2)])
    1
    >>> svc.submit(AddFriendship(1, 2))
    2
    >>> r = svc.query("Q1")          # served by the replica, fully caught up
    >>> (r.version, r.source)
    (2, 'node-01')
    >>> svc.stats()["replicas"]["node-01"]["lag"]
    0
    >>> svc.close()
    """

    def __init__(
        self,
        graph: Optional[SocialGraph] = None,
        *,
        replicas: Optional[int] = None,
        data_dir,
        max_staleness: int = 0,
        read_timeout_s: float = 1.0,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 5.0,
        _leader: Optional[GraphService] = None,
        _leader_index: int = 0,
        _epoch: int = 0,
        **service_kwargs,
    ):
        if replicas is None:
            replicas = default_replicas()
        if replicas < 0:
            raise ReproError(f"replicas must be >= 0, got {replicas}")
        if max_staleness < 0:
            raise ReproError(f"max_staleness must be >= 0, got {max_staleness}")
        self.data_dir = Path(data_dir)
        self.max_staleness = max_staleness
        self.read_timeout_s = read_timeout_s
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.epoch = _epoch
        self._nodes = replicas + 1
        self._leader_index = _leader_index
        self._service_kwargs = dict(service_kwargs)

        self._lock = threading.RLock()
        self.registry = MetricsRegistry()
        self._closed = False
        #: deposed leaders, kept un-closed on purpose (zombie semantics);
        #: reaped at :meth:`close`
        self._deposed: list[GraphService] = []
        self._rr = 0
        #: session-monotonicity floor: no read is ever served below it
        self._floor = 0
        self._backoff: dict[str, dict] = {}

        leader_dir = self.data_dir / f"node-{_leader_index:02d}"
        if _leader is not None:
            self._leader = _leader  # the recover() path
        else:
            if (self.data_dir / _META_FILE).exists():
                raise ReproError(
                    f"{self.data_dir} already holds replicated service state; "
                    "use ReplicatedGraphService.recover(data_dir) to resume it"
                )
            self._leader = GraphService(graph, data_dir=leader_dir,
                                        **service_kwargs)
        self._leader_dir = leader_dir

        self._replicas: list[Replica] = []
        try:
            for i in range(self._nodes):
                if i == _leader_index:
                    continue
                self._replicas.append(
                    Replica(
                        DirectoryWalShipper(leader_dir),
                        data_dir=self.data_dir / f"node-{i:02d}",
                        **service_kwargs,
                    )
                )
        except BaseException:
            for rep in self._replicas:
                rep.close()
            self._leader.close()
            raise
        self._write_meta()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(cls, data_dir, **kwargs) -> "ReplicatedGraphService":
        """Rebuild a replicated service from its data directory.

        The leader node recovers exactly like an unreplicated
        :meth:`GraphService.recover` (newest snapshot + committed WAL
        tail, under the persisted epoch); replicas are rebuildable caches
        and are simply re-seeded from the recovered leader.  ``replicas``
        is read back from ``replication.json`` and must not be changed
        across a recovery.
        """
        data_dir = Path(data_dir)
        meta_path = data_dir / _META_FILE
        if not meta_path.exists():
            raise ReproError(f"no replicated service state in {data_dir}")
        with open(meta_path) as fh:
            meta = json.load(fh)
        if meta.get("schema") != _META_SCHEMA:
            raise ReproError(
                f"replication meta schema {meta.get('schema')} != {_META_SCHEMA}"
            )
        nodes = int(meta["nodes"])
        leader_index = int(meta["leader"])
        epoch = int(meta["epoch"])
        asked = kwargs.pop("replicas", None)
        if asked is not None and asked != nodes - 1:
            raise ReproError(
                f"cannot recover with replicas={asked}: {data_dir} was laid "
                f"out with {nodes - 1} (resizing the fleet is a rebuild)"
            )
        front = {k: kwargs.pop(k) for k in list(kwargs) if k in _FRONT_KEYS}
        leader = GraphService.recover(
            data_dir / f"node-{leader_index:02d}", **kwargs
        )
        leader._wal.epoch = epoch
        return cls(
            replicas=nodes - 1,
            data_dir=data_dir,
            _leader=leader,
            _leader_index=leader_index,
            _epoch=epoch,
            **front,
            **kwargs,
        )

    def _write_meta(self) -> None:
        tmp = self.data_dir / (_META_FILE + ".tmp")
        with open(tmp, "w") as fh:
            json.dump(
                {"schema": _META_SCHEMA, "nodes": self._nodes,
                 "leader": self._leader_index, "epoch": self.epoch},
                fh,
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.rename(tmp, self.data_dir / _META_FILE)

    # ------------------------------------------------------------------
    # writes (leader-routed)
    # ------------------------------------------------------------------

    def submit(self, changes: Union[Change, ChangeSet, Iterable[Change]]) -> int:
        """Enqueue change(s) on the leader; returns its applied version."""
        with self._lock:
            self._check_open()
            return self._leader.submit(changes)

    def apply_batch(self, changes: Union[Change, ChangeSet, Iterable[Change]]) -> int:
        """Apply one pre-coalesced batch on the leader (the sharded
        router's scatter target when shards are replicated fleets)."""
        with self._lock:
            self._check_open()
            return self._leader.apply_batch(changes)

    def flush(self) -> int:
        """Apply everything pending on the leader now."""
        with self._lock:
            self._check_open()
            return self._leader.flush()

    @property
    def version(self) -> int:
        """The leader's applied version (the fleet's write frontier)."""
        return self._leader.version

    @property
    def graph(self) -> SocialGraph:
        """The leader's graph (routing/adoption hooks read it)."""
        return self._leader.graph

    # ------------------------------------------------------------------
    # reads (replica-preferred, bounded staleness)
    # ------------------------------------------------------------------

    def query(
        self,
        query: str,
        tool: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> CachedResult:
        """A cached result within ``max_staleness`` of the leader.

        Round-robins the replicas, skipping any in backoff; the chosen
        replica catches up through its shipper when it trails the
        staleness bound or the session floor.  Failures and over-timeout
        reads push the replica into capped exponential backoff and the
        next candidate is tried; when none can serve, the read degrades
        to the leader (counted in ``repro_leader_read_fallbacks_total``).

        ``deadline`` is an *absolute* WallClock instant bounding the whole
        read, retries included: each attempt's effective timeout is
        ``min(read_timeout_s, deadline - now)`` so per-attempt timeouts
        cannot compound past the caller's budget, no further attempt
        starts once the budget is spent, and an exhausted budget raises
        :class:`~repro.util.validation.DeadlineExceeded` instead of
        falling back to the leader.  An attempt that failed only because
        the *deadline* squeezed its timeout below ``read_timeout_s`` does
        not push that replica into backoff -- the replica was not slow,
        the caller was in a hurry.
        """
        with self._lock:
            self._check_open()
            leader = self._leader
            leader_ok = not (leader._failed or leader._closed)
            if deadline is not None and WallClock.now() >= deadline:
                raise DeadlineExceeded(
                    f"replicated read of {query!r} abandoned: deadline "
                    "passed before any attempt"
                )
            if leader_ok and leader._batcher.due():
                leader.flush()
            target = leader.version
            floor = max(self._floor, target - self.max_staleness)
            n = len(self._replicas)
            order = [(self._rr + j) % n for j in range(n)] if n else []
            if n:
                self._rr = (self._rr + 1) % n
            for idx in order:
                rep = self._replicas[idx]
                state = self._backoff.setdefault(
                    rep.name, {"failures": 0, "retry_at": 0.0}
                )
                now = WallClock.now()
                if deadline is not None and now >= deadline:
                    raise DeadlineExceeded(
                        f"replicated read of {query!r} abandoned: budget "
                        "exhausted mid-retry, no leader fallback past deadline"
                    )
                if state["retry_at"] > now:
                    continue
                timeout = self.read_timeout_s
                if deadline is not None:
                    timeout = min(timeout, deadline - now)
                t0 = now
                deadline_squeezed = False
                try:
                    if rep.version < floor:
                        rep.catch_up()
                    if rep.version < floor:
                        raise ReproError(
                            f"replica {rep.name} still at v{rep.version} < "
                            f"v{floor} after catch-up"
                        )
                    result = rep.query(query, tool)
                    elapsed = WallClock.now() - t0
                    if elapsed > timeout:
                        deadline_squeezed = elapsed <= self.read_timeout_s
                        raise ReproError(
                            f"replica {rep.name} read took {elapsed:.3f}s > "
                            f"effective timeout {timeout:.3f}s"
                        )
                except Exception:
                    if not deadline_squeezed:
                        state["failures"] += 1
                        state["retry_at"] = WallClock.now() + min(
                            self.backoff_base_s * 2 ** (state["failures"] - 1),
                            self.backoff_cap_s,
                        )
                        self.registry.counter(
                            "repro_replica_errors_total", replica=rep.name
                        ).inc()
                    continue
                state["failures"] = 0
                state["retry_at"] = 0.0
                self.registry.counter(
                    "repro_replica_reads_total", replica=rep.name
                ).inc()
                self.registry.gauge(
                    "repro_replication_lag", replica=rep.name
                ).set(target - rep.version)
                self._floor = max(self._floor, result.version)
                return result
            # graceful degradation: every replica down or in backoff
            if deadline is not None and WallClock.now() >= deadline:
                raise DeadlineExceeded(
                    f"replicated read of {query!r} abandoned: budget spent "
                    "across replica attempts, not degrading to the leader"
                )
            if not leader_ok:
                raise ReproError(
                    "no replica can serve and the leader is failed; promote a "
                    "replica (ReplicatedGraphService.promote) or recover"
                )
            self.registry.counter("repro_leader_read_fallbacks_total").inc()
            result = replace(leader.query(query, tool), source="leader")
            self._floor = max(self._floor, result.version)
            return result

    def engine(self, query: str, tool: Optional[str] = None):
        """The leader's registered engine (merge hooks for sharding)."""
        return self._leader.engine(query, tool)

    def result_and_partial(self, query: str, tool: Optional[str] = None):
        """Exact-version gather pair, always from the leader.

        The sharded router's barrier demands the *exact* router version,
        which only the leader is guaranteed to sit at -- replicas serve
        the bounded-staleness :meth:`query` path instead.
        """
        with self._lock:
            self._check_open()
            result, partial = self._leader.result_and_partial(query, tool)
            return replace(result, source="leader"), partial

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------

    def promote(self, index: Optional[int] = None) -> int:
        """Fail over to a replica; returns the new leader's version.

        Elects the most-caught-up reachable replica (ties to the lowest
        node index) unless ``index`` picks one explicitly, promotes it
        under ``epoch + 1`` (fence old leader -> drain residual WAL ->
        adopt epoch, see :meth:`Replica.promote`), retargets the
        surviving replicas at the new leader's directory and persists the
        new regime.  The old leader is left un-closed and fenced: if it
        is a zombie that still takes writes, its next append raises
        ``FencedError`` instead of forking history.
        """
        with self._lock:
            self._check_open()
            if not self._replicas:
                raise ReproError("no replicas to promote")
            if index is not None:
                if not 0 <= index < len(self._replicas):
                    raise ReproError(
                        f"promote index {index} out of range "
                        f"[0, {len(self._replicas)})"
                    )
                self._replicas[index].catch_up()
                chosen_i = index
            else:
                candidates = []
                for i, rep in enumerate(self._replicas):
                    try:
                        rep.catch_up()
                    except Exception:
                        continue  # unreachable: not a candidate
                    candidates.append(i)
                if not candidates:
                    raise ReproError("no reachable replica to promote")
                chosen_i = min(
                    candidates, key=lambda i: (-self._replicas[i].version, i)
                )
            chosen = self._replicas[chosen_i]
            new_epoch = self.epoch + 1
            # promote first, pop after: a promote that dies part-way (e.g.
            # at the ``promote`` crash point) leaves the fleet intact and
            # the whole call safely retryable
            service = chosen.promote(new_epoch)
            self._replicas.pop(chosen_i)
            self.epoch = new_epoch
            self._deposed.append(self._leader)
            self._leader = service
            self._leader_dir = chosen.data_dir
            self._leader_index = int(chosen.data_dir.name.split("-")[-1])
            for rep in self._replicas:
                rep.shipper.retarget(chosen.data_dir)
            self._rr = 0
            self._backoff.clear()
            self._write_meta()
            return service.version

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Fleet snapshot; refreshes the per-replica lag gauges so
        ``stats()["metrics"]`` always carries ``repro_replication_lag``."""
        with self._lock:
            target = self._leader.version
            for rep in self._replicas:
                self.registry.gauge(
                    "repro_replication_lag", replica=rep.name
                ).set(target - rep.version)
            return {
                "version": target,
                "epoch": self.epoch,
                "leader": f"node-{self._leader_index:02d}",
                "replicas": {
                    rep.name: {
                        "version": rep.version,
                        "lag": target - rep.version,
                        "epoch": rep.epoch,
                    }
                    for rep in self._replicas
                },
                "max_staleness": self.max_staleness,
                "deposed": len(self._deposed),
                "metrics": self.registry.snapshot(),
                "leader_stats": self._leader.stats(),
            }

    def metrics_text(self, labels: Optional[dict] = None) -> str:
        """Prometheus exposition: the front's replication series merged
        with the leader's and every replica's series, each stamped
        ``node="..."`` so no two fleet members collide on a series; one
        ``# TYPE`` line per metric across the whole fleet."""
        with self._lock:
            target = self._leader.version
            for rep in self._replicas:
                self.registry.gauge(
                    "repro_replication_lag", replica=rep.name
                ).set(target - rep.version)
            base = dict(labels or {})
            parts = [render_prometheus(self.registry, labels=labels)]
            parts.append(
                self._leader.metrics_text(
                    labels={**base, "node": f"node-{self._leader_index:02d}"}
                )
            )
            parts.extend(
                rep.service.metrics_text(labels={**base, "node": rep.name})
                for rep in self._replicas
            )
            return merge_expositions(parts)

    # ------------------------------------------------------------------
    # persistence / lifecycle
    # ------------------------------------------------------------------

    def snapshot(self) -> int:
        """Snapshot the leader at its current applied version."""
        with self._lock:
            self._check_open()
            return self._leader.snapshot()

    def catch_up(self) -> list[int]:
        """Drain every replica to the leader's committed frontier;
        returns the replicas' versions afterwards."""
        with self._lock:
            self._check_open()
            for rep in self._replicas:
                rep.catch_up()
            return [rep.version for rep in self._replicas]

    def close(self) -> None:
        """Close the fleet: replicas, deposed zombies, then the leader."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for rep in self._replicas:
            rep.close()
        for svc in self._deposed:
            try:
                svc.close()
            except Exception:
                # a fenced zombie's close-time flush is *supposed* to be
                # rejected; reaping it must not mask that
                pass
        try:
            self._leader.close()
        except Exception:
            if not self._leader._failed:
                raise

    def _check_open(self) -> None:
        if self._closed:
            raise ReproError("replicated service is closed")

    def __enter__(self) -> "ReplicatedGraphService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplicatedGraphService<v{self._leader.version}, "
            f"leader=node-{self._leader_index:02d}, "
            f"replicas={len(self._replicas)}, epoch={self.epoch}>"
        )
