"""Gateway core: the transport-agnostic admission-control pipeline.

:class:`Gateway` wraps any of the engine-owning services --
:class:`~repro.serving.service.GraphService`,
:class:`~repro.sharding.ShardedGraphService`,
:class:`~repro.replication.ReplicatedGraphService`; they share the same
``submit`` / ``query(..., deadline=)`` / ``metrics_text(labels=)``
surface -- and puts every request through the same pipeline before the
service sees it::

    accept ──► rate limit ──► queue bound ──► enqueue        (writes)
       │        (429)           (429)            │
       │                                     pump_once ──► service.submit
       │                                                      │
       │                                           publish to subscribers
       │
       └──► rate limit ──► breaker ──► deadline ──► service.query   (reads)
              (429)         (503)       (504)

Design invariants, in order of importance:

* **bounded everywhere** -- the ingest queue has a hard ``queue_limit``
  and every subscriber a bounded drop-oldest buffer; under overload the
  gateway sheds (with a ``Retry-After`` hint), it never buffers without
  bound;
* **admitted writes are never lost** -- once :meth:`submit` returns a
  ticket, the envelope survives until a pump applies it (drain flushes
  the queue before closing; a crash mid-drain leaves the queue intact
  and :meth:`drain` is retryable);
* **deterministic** -- the clock is injected, admission decisions are
  pure functions of (clock, request sequence), and crash points
  ``gateway-accept`` / ``gateway-enqueue`` / ``gateway-drain`` let a
  :class:`~repro.faults.FaultPlan` kill the gateway at exact pipeline
  stages;
* **reads past their deadline are shed, not errors** -- they count
  against neither the breaker window nor a half-open probe's verdict
  (see :meth:`~repro.gateway.admission.CircuitBreaker.record_abandon`).

>>> from repro.model.changes import AddUser
>>> from repro.serving import GraphService
>>> svc = GraphService(max_batch=1)
>>> gw = Gateway(svc, queue_limit=4)
>>> gw.submit([AddUser(1)])
1
>>> gw.pump_once()
1
>>> gw.read("Q1").version
1
>>> gw.drain()["applied"]
1
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Iterable, List, Optional, Tuple, Union

from repro.faults import fire as _fire_fault
from repro.faults import register_crash_point
from repro.gateway.admission import (
    CircuitBreaker,
    CircuitOpen,
    Draining,
    RateLimited,
    TokenBucket,
)
from repro.model.changes import Change, ChangeSet
from repro.obs.metrics import MetricsRegistry, merge_expositions, render_prometheus
from repro.obs.trace import get_tracer, span_if
from repro.serving.ingest import QueueFull, coerce_changes
from repro.util.timer import WallClock
from repro.util.validation import DeadlineExceeded, ReproError

__all__ = ["Envelope", "Gateway", "Subscription"]

#: the front edge: a request has arrived but no admission decision exists
#: yet -- a crash here models death in the accept loop
GATEWAY_ACCEPT = register_crash_point(
    "gateway-accept",
    "Gateway.submit/read entry, before any admission decision",
)

#: between admission and the queue append: the client was told nothing
#: yet, so a crash here is safe to retry from the client's side
GATEWAY_ENQUEUE = register_crash_point(
    "gateway-enqueue",
    "Gateway.submit, after admission but before the envelope is queued",
)

#: once per drain iteration while the queue flushes -- the failover suite
#: kills the gateway mid-drain and asserts the queue survives
GATEWAY_DRAIN = register_crash_point(
    "gateway-drain",
    "Gateway.drain, before each pump of the remaining queue",
)

#: breaker state encoded for the ``repro_gateway_breaker_state`` gauge
_BREAKER_CODE = {"closed": 0, "half_open": 1, "open": 2}


class Envelope:
    """One admitted write waiting in the ingest queue."""

    __slots__ = ("changes", "client", "ticket", "enqueued_at",
                 "on_applied", "on_error")

    def __init__(self, changes, client, ticket, enqueued_at,
                 on_applied=None, on_error=None):
        self.changes = changes
        self.client = client
        self.ticket = ticket
        self.enqueued_at = enqueued_at
        #: called with the service version after this envelope applies
        self.on_applied = on_applied
        #: called with the exception if the service *rejects* the envelope
        self.on_error = on_error

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Envelope<ticket={self.ticket}, client={self.client!r}, "
                f"changes={len(self.changes)}>")


class Subscription:
    """A bounded, lossy stream of versioned top-k results.

    The pump publishes into :attr:`_buf` after every commit it observes;
    when the buffer is full the **oldest** entry is dropped (and counted
    in :attr:`dropped`) so a slow subscriber can never stall the commit
    path or grow memory.  Consumers :meth:`poll` whole buffered batches;
    ``notify`` (if set) is invoked after each publish, outside the
    gateway lock, so an async server can park on an event instead of
    spinning.
    """

    __slots__ = ("query", "tool", "buffer", "dropped", "published",
                 "closed", "notify", "_buf", "_lock")

    def __init__(self, query: str, tool: Optional[str], buffer: int):
        if buffer < 1:
            raise ReproError(f"subscription buffer must be >= 1, got {buffer}")
        self.query = query
        self.tool = tool
        self.buffer = buffer
        self.dropped = 0
        self.published = 0
        self.closed = False
        #: optional post-publish hook (e.g. a threadsafe asyncio wake-up)
        self.notify: Optional[Callable[[], None]] = None
        self._buf: deque = deque()
        self._lock = threading.Lock()

    def _publish(self, event: dict) -> None:
        with self._lock:
            if self.closed:
                return
            if len(self._buf) >= self.buffer:
                self._buf.popleft()
                self.dropped += 1
            self._buf.append(event)
            self.published += 1
        if self.notify is not None:
            self.notify()

    def poll(self) -> List[dict]:
        """Drain and return everything buffered (oldest first)."""
        with self._lock:
            out = list(self._buf)
            self._buf.clear()
        return out

    def close(self) -> None:
        with self._lock:
            self.closed = True
            self._buf.clear()


class Gateway:
    """Admission-controlled front door over one engine-owning service.

    ``classes`` maps client-class names to ``(rate, burst)`` token-bucket
    parameters; requests tag themselves with ``client=`` and unknown
    classes fall back to ``"default"``.  A ``None`` rate disables rate
    limiting for that class.  All time comes from the injected ``clock``.

    The write path is split in two on purpose: :meth:`submit` is the
    cheap, lock-protected admission decision (what the accept loop runs
    inline), :meth:`pump_once` is the single-consumer drain step the
    server runs on its one pump thread -- so service apply cost never
    sits inside the accept path.
    """

    def __init__(
        self,
        service,
        *,
        queue_limit: int = 1024,
        classes: Optional[dict] = None,
        default_deadline_s: Optional[float] = None,
        breaker_window: int = 16,
        breaker_trip_ratio: float = 0.5,
        breaker_min_samples: int = 4,
        breaker_cooldown_s: float = 1.0,
        clock: Callable[[], float] = WallClock.now,
    ):
        if queue_limit < 1:
            raise ReproError(f"queue_limit must be >= 1, got {queue_limit}")
        self.service = service
        self.queue_limit = queue_limit
        self.default_deadline_s = default_deadline_s
        self._clock = clock
        self._lock = threading.Lock()
        self._queue: deque = deque()
        self._tickets = 0
        self._applied = 0
        self._rejected = 0
        self._state = "accepting"  # accepting | draining | closed
        self._subs: List[Subscription] = []
        self._last_published = getattr(service, "version", 0)

        #: gateway metrics and op latencies; hot-path instruments are
        #: resolved once, here
        self.registry = reg = MetricsRegistry()
        self._t_admit = reg.histogram("repro_op_latency_seconds", op="admit")
        self._t_pump = reg.histogram("repro_op_latency_seconds", op="pump")
        self._t_read = reg.histogram("repro_op_latency_seconds", op="read")
        self._queue_depth = reg.gauge("repro_gateway_queue_depth")
        self._queue_wait = reg.histogram("repro_gateway_queue_wait_seconds")
        self._admitted_submit = reg.counter(
            "repro_gateway_admitted_total", kind="submit"
        )
        self._admitted_read = reg.counter(
            "repro_gateway_admitted_total", kind="read"
        )

        self._buckets: dict = {}
        for name, (rate, burst) in dict(classes or {"default": (None, 1)}).items():
            self._buckets[name] = (
                None if rate is None else TokenBucket(rate, burst, clock=clock)
            )
        if "default" not in self._buckets:
            self._buckets["default"] = None

        self.breaker = CircuitBreaker(
            window=breaker_window,
            trip_ratio=breaker_trip_ratio,
            min_samples=breaker_min_samples,
            cooldown_s=breaker_cooldown_s,
            clock=clock,
            on_transition=self._on_breaker_transition,
        )
        self.registry.gauge("repro_gateway_breaker_state").set(0)

    # ------------------------------------------------------------------
    # admission helpers
    # ------------------------------------------------------------------

    def _on_breaker_transition(self, prev: str, state: str) -> None:
        self.registry.gauge("repro_gateway_breaker_state").set(
            _BREAKER_CODE[state]
        )
        self.registry.counter(
            "repro_gateway_breaker_transitions_total",
            transition=f"{prev}->{state}",
        ).inc()

    def _shed(self, kind: str, reason: str) -> None:
        self.registry.counter(
            "repro_gateway_shed_total", kind=kind, reason=reason
        ).inc()

    def _bucket(self, client: str) -> Optional[TokenBucket]:
        return self._buckets.get(client, self._buckets["default"])

    def _rate_check(self, kind: str, client: str) -> None:
        bucket = self._bucket(client)
        if bucket is not None and not bucket.try_acquire():
            self._shed(kind, "rate_limited")
            raise RateLimited(
                f"client class {client!r} over its token budget",
                retry_after=bucket.retry_after(),
            )

    def _deadline_for(self, deadline: Optional[float]) -> Optional[float]:
        if deadline is not None:
            return deadline
        if self.default_deadline_s is not None:
            return self._clock() + self.default_deadline_s
        return None

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def submit(
        self,
        changes: Union[Change, ChangeSet, Iterable[Change]],
        *,
        client: str = "default",
        on_applied: Optional[Callable[[int], None]] = None,
        on_error: Optional[Callable[[BaseException], None]] = None,
    ) -> int:
        """Admit change(s) into the bounded ingest queue; returns a ticket.

        Sheds with :class:`~repro.gateway.admission.RateLimited` (token
        budget), :class:`~repro.serving.ingest.QueueFull` (queue bound,
        with a ``retry_after`` sized to one pump interval) or
        :class:`~repro.gateway.admission.Draining`.  An accepted ticket
        is a durability promise at gateway scope: the envelope will be
        applied before :meth:`drain` completes.
        """
        _fire_fault(GATEWAY_ACCEPT, path="gateway", kind="submit")
        with self._lock:
            with span_if(get_tracer(), "admit", kind="submit", client=client):
                with self._t_admit.time():
                    if self._state != "accepting":
                        self._shed("submit", "draining")
                        raise Draining(f"gateway is {self._state}")
                    self._rate_check("submit", client)
                    items = coerce_changes(changes)
                    depth = len(self._queue)
                    if depth + 1 > self.queue_limit:
                        self._shed("submit", "queue_full")
                        raise QueueFull(
                            f"gateway ingest queue full: {depth} queued "
                            f">= queue_limit={self.queue_limit}",
                            pending=depth,
                            limit=self.queue_limit,
                            retry_after=self._pump_interval_hint(),
                        )
                    _fire_fault(GATEWAY_ENQUEUE, path="gateway", depth=depth)
                    self._tickets += 1
                    env = Envelope(
                        items, client, self._tickets, self._clock(),
                        on_applied=on_applied, on_error=on_error,
                    )
                    self._queue.append(env)
                    self._admitted_submit.inc()
                    self._queue_depth.set(len(self._queue))
                    return env.ticket

    def _pump_interval_hint(self) -> float:
        """Retry-After hint for a full queue: the mean observed pump time."""
        if self._t_pump.count:
            return max(self._t_pump.mean(), 1e-3)
        return 0.05

    def pump_once(self, max_batch: int = 64) -> int:
        """Apply up to ``max_batch`` queued envelopes to the service.

        The single-consumer step: pops envelopes under the lock, applies
        them outside it (service calls can be slow; the accept path must
        not wait), then publishes the new version to every subscriber.
        A service-side *rejection* (:class:`ReproError` while the service
        is still healthy) fails only that envelope -- its ``on_error``
        fires and the pump continues.  An injected crash or a fail-stopped
        service re-raises: that is process death, not a bad request.
        Returns the number of envelopes applied.
        """
        batch: List[Envelope] = []
        with self._lock:
            while self._queue and len(batch) < max_batch:
                batch.append(self._queue.popleft())
            self._queue_depth.set(len(self._queue))
        if not batch:
            return 0
        applied = 0
        with span_if(get_tracer(), "pump", envelopes=len(batch)):
            with self._t_pump.time():
                for env in batch:
                    try:
                        version = self.service.submit(env.changes)
                    except ReproError as exc:
                        if getattr(self.service, "_failed", False):
                            raise  # fail-stop propagates: the engine is gone
                        with self._lock:
                            self._rejected += 1
                        self.registry.counter(
                            "repro_gateway_rejected_total"
                        ).inc()
                        if env.on_error is not None:
                            env.on_error(exc)
                        continue
                    applied += 1
                    with self._lock:
                        self._applied += 1
                    self._queue_wait.observe(
                        max(self._clock() - env.enqueued_at, 0.0)
                    )
                    if env.on_applied is not None:
                        env.on_applied(version)
                    # per barrier commit, not per pump: subscribers see
                    # every version the service actually advanced through
                    self._publish_commits()
        return applied

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def read(
        self,
        query: str,
        tool: Optional[str] = None,
        *,
        client: str = "default",
        deadline: Optional[float] = None,
    ):
        """Admission-controlled read: rate limit, breaker, deadline, serve.

        The deadline (absolute; defaulted from ``default_deadline_s``)
        propagates into the service's ``query`` so a sharded gather or a
        replica retry loop abandons work the moment the budget runs out.
        :class:`~repro.util.validation.DeadlineExceeded` is accounted as
        *shed* -- it releases a half-open probe without a verdict and
        never feeds the breaker's error window.
        """
        _fire_fault(GATEWAY_ACCEPT, path="gateway", kind="read")
        with span_if(get_tracer(), "read", query=query, client=client):
            with self._t_read.time():
                if self._state == "closed":
                    self._shed("read", "draining")
                    raise Draining("gateway is closed")
                self._rate_check("read", client)
                if not self.breaker.allow():
                    self._shed("read", "circuit_open")
                    raise CircuitOpen(
                        f"read circuit {self.breaker.state}; engine reads "
                        "are failing",
                        retry_after=self.breaker.retry_after(),
                    )
                eff_deadline = self._deadline_for(deadline)
                try:
                    result = self.service.query(query, tool, deadline=eff_deadline)
                except DeadlineExceeded:
                    self.breaker.record_abandon()
                    self._shed("read", "deadline")
                    raise
                except ReproError:
                    self.breaker.record_failure()
                    self.registry.counter(
                        "repro_gateway_read_errors_total"
                    ).inc()
                    raise
                self.breaker.record_success()
                self._admitted_read.inc()
                return result

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------

    def subscribe(
        self, query: str, tool: Optional[str] = None, *, buffer: int = 8
    ) -> Subscription:
        """Register a bounded lossy stream of (version, top-k) events."""
        sub = Subscription(query, tool, buffer)
        with self._lock:
            if self._state == "closed":
                raise Draining("gateway is closed")
            self._subs.append(sub)
            self.registry.gauge("repro_gateway_subscribers").set(
                len(self._subs)
            )
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        sub.close()
        with self._lock:
            if sub in self._subs:
                self._subs.remove(sub)
            self.registry.gauge("repro_gateway_subscribers").set(
                len(self._subs)
            )

    def _publish_commits(self) -> None:
        """Push the newly committed version's top-k to every subscriber.

        Runs on the pump thread *after* the service applied; a slow or
        wedged subscriber costs one bounded deque append (drop-oldest),
        never a stall of the commit path.
        """
        version = getattr(self.service, "version", 0)
        with self._lock:
            if version <= self._last_published:
                return
            self._last_published = version
            subs = list(self._subs)
        dropped = 0
        for sub in subs:
            if sub.closed:
                continue
            try:
                result = self.service.query(sub.query, sub.tool)
            except ReproError:
                continue  # e.g. unknown query for this service's toolset
            before = sub.dropped
            sub._publish({
                "version": getattr(result, "version", version),
                "query": sub.query,
                "tool": getattr(result, "tool", sub.tool),
                "top": list(getattr(result, "top", ())),
                "result": getattr(result, "result_string", ""),
            })
            dropped += sub.dropped - before
        if dropped:
            self.registry.counter("repro_gateway_sub_dropped_total").inc(dropped)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def drain(self, close_service: bool = False) -> dict:
        """Graceful shutdown: stop accepting, flush the queue, close.

        Retryable by construction: the very first step flips the state to
        ``draining`` (so no new envelope can slip in), and the queue is
        only consumed through :meth:`pump_once`'s pop-then-apply -- a
        crash at the ``gateway-drain`` point (fired before each pump
        iteration) leaves every unapplied envelope queued and the state
        ``draining``; calling :meth:`drain` again finishes the flush.
        """
        with self._lock:
            if self._state == "closed":
                return self.stats()
            self._state = "draining"
        with span_if(get_tracer(), "drain"):
            while True:
                with self._lock:
                    remaining = len(self._queue)
                if remaining == 0:
                    break
                _fire_fault(GATEWAY_DRAIN, path="gateway", remaining=remaining)
                self.pump_once()
            if hasattr(self.service, "flush"):
                self.service.flush()
            self._publish_commits()
            with self._lock:
                self._state = "closed"
                subs = list(self._subs)
            for sub in subs:
                sub.close()
        if close_service:
            self.service.close()
        return self.stats()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        metrics = self.registry.snapshot()
        shed = metrics.get("repro_gateway_shed_total", {})
        with self._lock:
            return {
                "state": self._state,
                "queue_depth": len(self._queue),
                "queue_limit": self.queue_limit,
                "tickets": self._tickets,
                "applied": self._applied,
                "rejected": self._rejected,
                "breaker": {
                    "state": self.breaker.state,
                    "transitions": list(self.breaker.transitions),
                },
                "shed": shed if isinstance(shed, dict) else {},
                "subscribers": len(self._subs),
                "metrics": metrics,
                "service_version": getattr(self.service, "version", None),
            }

    def metrics_text(self) -> str:
        """One merged Prometheus exposition for the whole stack.

        The gateway's own series are stamped ``node="gateway"`` and the
        wrapped service renders under ``node="service"`` (its own layers
        add ``shard=`` / ``replica=`` beneath that), so the merged output
        has a single ``# TYPE`` per metric and no ``(name, labels)``
        collisions -- verified by round-trip through
        :func:`~repro.obs.metrics.parse_exposition`.
        """
        own = render_prometheus(self.registry, labels={"node": "gateway"})
        svc = self.service.metrics_text(labels={"node": "service"})
        return merge_expositions([own, svc])
