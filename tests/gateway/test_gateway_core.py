"""Gateway core pipeline: admission, pump, drain, subscriptions, faults.

Runs against a fake in-memory service (exact control over versions and
failures) plus a real :class:`GraphService` where end-to-end wiring
matters.  All clocks injected; crash schedules via FaultPlan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultPlan, InjectedCrash, inject
from repro.gateway import Draining, Gateway, RateLimited
from repro.gateway.admission import CircuitOpen
from repro.model import AddUser
from repro.serving import GraphService
from repro.serving.ingest import QueueFull
from repro.util.validation import DeadlineExceeded, ReproError


class _Clock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def tick(self, dt):
        self.t += dt


class _Result:
    def __init__(self, version, query="Q1", tool="fake"):
        self.query = query
        self.tool = tool
        self.version = version
        self.computed_version = version
        self.top = ((1, 2),)
        self.result_string = f"v{version}"


class FakeService:
    """Engine-owning service surface with scriptable read failures."""

    def __init__(self):
        self.version = 0
        self.applied = []
        self.read_errors = 0  # next N queries raise ReproError
        self._seen_users = set()
        self._failed = False

    def submit(self, changes):
        items = list(changes)
        ids = {c.user_id for c in items}
        if ids & self._seen_users:
            raise ReproError("duplicate user id")
        self._seen_users |= ids
        self.applied.append(items)
        self.version += 1
        return self.version

    def query(self, query, tool=None, deadline=None):
        if self.read_errors > 0:
            self.read_errors -= 1
            raise ReproError("engine read failed")
        return _Result(self.version, query, tool or "fake")

    def flush(self):
        return self.version

    def metrics_text(self, labels=None):
        lab = ",".join(f'{k}="{v}"' for k, v in sorted((labels or {}).items()))
        lab = "{" + lab + "}" if lab else ""
        return f"# TYPE fake_version gauge\nfake_version{lab} {self.version}\n"

    def close(self):
        pass


def _gw(svc=None, clock=None, **kw):
    kw.setdefault("queue_limit", 4)
    return Gateway(svc or FakeService(), clock=clock or _Clock(), **kw)


class TestSubmitAdmission:
    def test_tickets_are_sequential_and_applied_in_order(self):
        gw = _gw()
        assert [gw.submit([AddUser(i)]) for i in range(3)] == [1, 2, 3]
        assert gw.queue_depth == 3
        assert gw.pump_once() == 3
        assert gw.queue_depth == 0
        assert [c[0].user_id for c in gw.service.applied] == [0, 1, 2]

    def test_queue_full_at_exact_boundary(self):
        gw = _gw(queue_limit=2)
        gw.submit([AddUser(0)])
        gw.submit([AddUser(1)])
        with pytest.raises(QueueFull) as exc:
            gw.submit([AddUser(2)])
        assert exc.value.pending == 2
        assert exc.value.limit == 2
        assert exc.value.retry_after > 0
        # shedding lost nothing admitted: both queued envelopes apply
        assert gw.pump_once() == 2
        gw.submit([AddUser(2)])  # and the queue accepts again

    def test_queue_full_hint_is_mean_pump_time_without_percentiles(
        self, monkeypatch
    ):
        gw = _gw(queue_limit=1)
        gw.submit([AddUser(0)])
        pump = gw.registry.histogram("repro_op_latency_seconds", op="pump")
        for seconds in (0.02, 0.04, 0.06):
            pump.observe(seconds)
        calls = []
        real = np.percentile
        monkeypatch.setattr(
            np, "percentile", lambda *a, **kw: calls.append(a) or real(*a, **kw)
        )
        with pytest.raises(QueueFull) as exc:
            gw.submit([AddUser(1)])
        assert exc.value.retry_after == pytest.approx(0.04)
        assert calls == []  # the shed path summarises no reservoir

    def test_rate_limit_sheds_nth_request_exactly(self):
        clock = _Clock()
        gw = _gw(clock=clock, classes={"default": (2.0, 2.0)})
        gw.submit([AddUser(0)])
        gw.submit([AddUser(1)])
        with pytest.raises(RateLimited) as exc:
            gw.submit([AddUser(2)])
        assert exc.value.retry_after == pytest.approx(0.5)
        clock.tick(0.5)  # exactly one token minted
        gw.submit([AddUser(2)])
        with pytest.raises(RateLimited):
            gw.submit([AddUser(3)])

    def test_client_classes_have_independent_buckets(self):
        clock = _Clock()
        gw = _gw(clock=clock, classes={
            "default": (1.0, 1.0), "batch": (1.0, 2.0),
        })
        gw.submit([AddUser(0)], client="interactive")  # unknown -> default
        with pytest.raises(RateLimited):
            gw.submit([AddUser(1)], client="interactive")
        gw.submit([AddUser(1)], client="batch")
        gw.submit([AddUser(2)], client="batch")

    def test_service_rejection_fails_envelope_not_pump(self):
        gw = _gw()
        errors = []
        gw.submit([AddUser(0)])
        gw.submit([AddUser(0)], on_error=errors.append)  # duplicate id
        gw.submit([AddUser(1)])
        # the fake rejects the 2nd envelope; pump still applies 1st + 3rd
        assert gw.pump_once() == 2
        assert len(errors) == 1
        assert gw.stats()["rejected"] == 1

    def test_on_applied_callback_sees_service_version(self):
        gw = _gw()
        seen = []
        gw.submit([AddUser(0)], on_applied=seen.append)
        gw.submit([AddUser(1)], on_applied=seen.append)
        gw.pump_once()
        assert seen == [1, 2]


class TestReadPath:
    def test_read_serves_and_closes_breaker_loop(self):
        gw = _gw()
        gw.submit([AddUser(0)])
        gw.pump_once()
        assert gw.read("Q1").version == 1

    def test_breaker_trips_on_error_rate_then_probes(self):
        clock = _Clock()
        gw = _gw(clock=clock, breaker_window=4, breaker_min_samples=2,
                 breaker_trip_ratio=0.5, breaker_cooldown_s=1.0)
        gw.service.read_errors = 2
        for _ in range(2):
            with pytest.raises(ReproError):
                gw.read("Q1")
        assert gw.breaker.state == "open"
        with pytest.raises(CircuitOpen) as exc:
            gw.read("Q1")
        assert exc.value.retry_after == pytest.approx(1.0)
        clock.tick(1.0)
        assert gw.read("Q1").version == 0  # the probe succeeds
        assert gw.breaker.state == "closed"

    def test_deadline_shed_is_not_a_breaker_failure(self, monkeypatch):
        clock = _Clock(t=100.0)
        gw = _gw(clock=clock, breaker_window=4, breaker_min_samples=1,
                 breaker_trip_ratio=0.5)

        def expired_query(query, tool=None, deadline=None):
            raise DeadlineExceeded("too late")

        monkeypatch.setattr(gw.service, "query", expired_query)
        for _ in range(8):
            with pytest.raises(DeadlineExceeded):
                gw.read("Q1", deadline=clock() - 1.0)
        assert gw.breaker.state == "closed"
        shed = gw.stats()["shed"]
        assert shed['kind="read",reason="deadline"'] == 8

    def test_default_deadline_is_stamped_from_clock(self):
        clock = _Clock(t=50.0)
        seen = {}
        gw = _gw(clock=clock, default_deadline_s=0.25)

        def capture(query, tool=None, deadline=None):
            seen["deadline"] = deadline
            return _Result(0)

        gw.service.query = capture
        gw.read("Q1")
        assert seen["deadline"] == pytest.approx(50.25)
        gw.read("Q1", deadline=51.0)  # explicit beats default
        assert seen["deadline"] == 51.0


class TestDrain:
    def test_drain_flushes_queue_then_refuses(self):
        gw = _gw()
        gw.submit([AddUser(0)])
        gw.submit([AddUser(1)])
        stats = gw.drain()
        assert stats["state"] == "closed"
        assert stats["applied"] == 2
        assert stats["queue_depth"] == 0
        with pytest.raises(Draining):
            gw.submit([AddUser(2)])
        with pytest.raises(Draining):
            gw.read("Q1")

    def test_crash_mid_drain_preserves_queue_and_is_retryable(self):
        gw = _gw(queue_limit=8)
        for i in range(6):
            gw.submit([AddUser(i)])
        plan = FaultPlan().crash("gateway-drain", hit=1)
        with inject(plan):
            with pytest.raises(InjectedCrash):
                gw.drain()
        # killed before the first pump: every admitted envelope survives
        assert gw.state == "draining"
        assert gw.queue_depth == 6
        stats = gw.drain()  # retry completes the flush
        assert stats["state"] == "closed"
        assert stats["applied"] == 6
        assert gw.service.version == 6

    def test_crash_points_accept_and_enqueue(self):
        gw = _gw()
        with inject(FaultPlan().crash("gateway-accept", hit=2)):
            gw.submit([AddUser(0)])
            with pytest.raises(InjectedCrash):
                gw.submit([AddUser(1)])
        with inject(FaultPlan().crash("gateway-enqueue", hit=1)):
            with pytest.raises(InjectedCrash):
                gw.submit([AddUser(1)])
        # the enqueue crash happened before the append: ticket not burned
        assert gw.queue_depth == 1
        assert gw.submit([AddUser(1)]) == 2

    def test_drain_schedule_reproduces_bit_identically(self):
        def run():
            gw = _gw(queue_limit=8)
            for i in range(4):
                gw.submit([AddUser(i)])
            plan = FaultPlan().crash("gateway-drain", hit=1)
            try:
                with inject(plan):
                    gw.drain()
            except InjectedCrash:
                pass
            gw.drain()
            return [(p, dict(ctx)) for p, ctx in plan.hits], gw.stats()["applied"]

        assert run() == run()


class TestSubscriptions:
    def test_publish_on_commit_with_versions(self):
        gw = _gw()
        sub = gw.subscribe("Q1", buffer=8)
        gw.submit([AddUser(0)])
        gw.pump_once()
        gw.submit([AddUser(1)])
        gw.pump_once()
        events = sub.poll()
        assert [e["version"] for e in events] == [1, 2]
        assert sub.poll() == []

    def test_slow_subscriber_drops_oldest_never_blocks(self):
        gw = _gw(queue_limit=64)
        sub = gw.subscribe("Q1", buffer=2)
        for i in range(5):
            gw.submit([AddUser(i)])
            gw.pump_once()
        assert sub.dropped == 3
        assert [e["version"] for e in sub.poll()] == [4, 5]
        snap = gw.registry.snapshot()
        assert snap["repro_gateway_sub_dropped_total"] == 3

    def test_unsubscribe_stops_publishing(self):
        gw = _gw()
        sub = gw.subscribe("Q1")
        gw.unsubscribe(sub)
        gw.submit([AddUser(0)])
        gw.pump_once()
        assert sub.poll() == []
        assert gw.stats()["subscribers"] == 0

    def test_drain_closes_subscribers_after_final_flush(self):
        gw = _gw()
        sub = gw.subscribe("Q1", buffer=8)
        gw.submit([AddUser(0)])
        drained = []
        sub.notify = lambda: drained.append([e["version"] for e in sub.poll()])
        gw.drain()
        assert drained == [[1]]
        assert sub.closed


class TestAgainstRealService:
    def test_end_to_end_with_graphservice(self):
        svc = GraphService(tools=("graphblas-incremental",), max_batch=1)
        gw = Gateway(svc, queue_limit=16)
        sub = gw.subscribe("Q1")
        for i in range(3):
            gw.submit([AddUser(i)])
        assert gw.pump_once() == 3
        assert gw.read("Q1").version == 3
        assert [e["version"] for e in sub.poll()] == [1, 2, 3]
        stats = gw.drain(close_service=True)
        assert stats["applied"] == 3
        assert stats["service_version"] == 3

    def test_fail_stopped_service_propagates_from_pump(self):
        svc = GraphService(tools=("graphblas-incremental",), max_batch=1)
        try:
            gw = Gateway(svc, queue_limit=16)
            gw.submit([AddUser(1)])
            gw.pump_once()
            svc._failed = True  # simulate a crashed apply (fail-stop)
            gw.submit([AddUser(2)])
            with pytest.raises(ReproError):
                gw.pump_once()
        finally:
            svc._failed = False
            svc.close()
