"""The shard worker: child-side serve loop behind a ProcessShardHandle.

One worker process hosts one shard service (a
:class:`~repro.serving.service.GraphService`, or a
:class:`~repro.replication.ReplicatedGraphService` fleet when the router
runs replicated shards).  The parent forks us with a ``build`` closure
over either the partitioned shard graph (fresh start; the graph arrives
by copy-on-write, never pickled) or the shard's data directory
(recovery); we build the service, report ``("ready", version, spans)``
and then answer :mod:`repro.sharding.handle` RPC frames until a
``shutdown`` request or EOF on the command pipe (the parent died).

Fork hygiene, in request order of importance:

* **exit only via ``os._exit``** -- the parent's ``atexit`` registry is
  inherited and must never run here (it would close any
  :class:`~repro.parallel.PersistentWorkerPool` the parent started, out
  from under the parent);
* **close inherited parent-side pipe ends** of every sibling handle, so
  a dead parent/sibling produces EOF instead of orphaned workers;
* **own the telemetry locally** -- the inherited tracer's span log is
  cleared at boot (the parent keeps the originals) and drained into
  every reply envelope; ``REPRO_TRACE`` is scrubbed from the child
  environment so ``service.close()`` cannot clobber the parent's trace
  dump with a per-shard fragment;
* **fault plans are per-request state** -- each request carries either a
  fresh pickled :class:`~repro.faults.FaultPlan`, an uninstall, or an
  "unchanged" sentinel; crash points then fire *inside this process*,
  and each reply ships the plan copy's new hits / fired triggers back
  for the router-side plan to absorb.
"""

from __future__ import annotations

import os
import pickle
import traceback
from typing import Callable, Optional

from repro import faults
from repro.obs import trace as _trace
from repro.parallel.pool import recv_frame, send_frame
from repro.util.validation import ReproError

__all__ = ["serve"]


class WorkerError(ReproError):
    """Replacement for a worker-side exception that would not pickle.

    Carries the original traceback text so the failure stays debuggable
    from the router side.
    """


def _boot_telemetry():
    """Give the child a clean tracer and a dump-free environment."""
    tr = _trace.get_tracer()  # may lazily install from inherited REPRO_TRACE
    # the parent keeps every span recorded before the fork; keeping the
    # inherited copies here would duplicate them through the first graft
    if tr is not None:
        tr.clear()
    # the parent span that was current at fork time is meaningless here;
    # worker-side roots hang under it only via the router's graft base
    _trace._current.set(None)
    # per-shard workers must never write the process-wide trace dump:
    # that file belongs to the router's merged tree
    os.environ.pop("REPRO_TRACE", None)
    return tr


def _owned_ids(service) -> dict:
    g = service.graph
    return {
        "users": g.users.external_array().tolist(),
        "posts": g.posts.external_array().tolist(),
        "comments": g.comments.external_array().tolist(),
    }


def _drain_spans(want_trace: bool):
    tr = _trace.get_tracer()
    if want_trace and tr is None:
        # the router turned tracing on after the fork (set_tracer): start
        # collecting from this request onward
        _trace.set_tracer(_trace.Tracer())
        return []
    if tr is None:
        return []
    spans = tr.drain()
    return spans if want_trace else []


def _apply_plan_directive(directive, state: dict) -> None:
    from repro.sharding.handle import PLAN_UNCHANGED

    if directive == PLAN_UNCHANGED:
        return
    faults.set_active_plan(directive)
    state["plan"] = directive
    # the shipped copy arrives pre-loaded with every hit the router-side
    # plan had already seen; report only hits that happen *here*
    state["hits_sent"] = 0 if directive is None else len(directive.hits)


def _plan_events(state: dict):
    plan = state.get("plan")
    if plan is None:
        return None
    events = plan.events_since(state.get("hits_sent", 0))
    state["hits_sent"] = state.get("hits_sent", 0) + len(events[0])
    return events


def _safe_exc(exc: BaseException) -> BaseException:
    """The exception itself when it pickles, a ``WorkerError`` otherwise."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except BaseException:
        return WorkerError(
            f"shard worker raised unpicklable {type(exc).__name__}: {exc}\n"
            + "".join(traceback.format_exception(exc))
        )


def serve(cmd_r: int, res_w: int, build: Callable[[], object],
          *, close_fds=()) -> None:
    """Child-side main: build the shard service, answer RPC until told to
    stop.  Never returns -- exits the process via ``os._exit``."""
    status = 0
    try:
        for fd in close_fds:
            try:
                os.close(fd)
            except OSError:
                pass
        want_trace_boot = _boot_telemetry() is not None
        try:
            service = build()
        except BaseException as exc:
            send_frame(res_w, ("boot-err", _safe_exc(exc), []))
            os._exit(0)
        send_frame(
            res_w, ("ready", service.version, _drain_spans(want_trace_boot))
        )
        state: dict = {"plan": None, "hits_sent": 0}
        while True:
            try:
                request, plan_directive, want_trace = recv_frame(cmd_r)
            except EOFError:
                # the parent is gone; nothing to reply to -- just vanish
                # (durable state is safe: recovery replays snapshot+WAL)
                break
            _apply_plan_directive(plan_directive, state)
            op = request[0]
            try:
                if op == "call":
                    name, args = request[1], request[2]
                    kwargs = request[3] if len(request) > 3 else {}
                    value = getattr(service, name)(*args, **kwargs)
                elif op == "version":
                    value = service.version
                elif op == "merge":
                    _, query, tool, partials, k = request
                    value = service.engine(query, tool).merge_partials(
                        partials, k
                    )
                elif op == "owned_ids":
                    value = _owned_ids(service)
                elif op == "shutdown":
                    faults.set_active_plan(None)
                    service.close()
                    send_frame(
                        res_w,
                        ("ok", None, _drain_spans(want_trace),
                         _plan_events(state)),
                    )
                    break
                else:
                    raise ReproError(f"unknown shard RPC op {op!r}")
            except BaseException as exc:
                send_frame(
                    res_w,
                    ("err", _safe_exc(exc), _drain_spans(want_trace),
                     _plan_events(state)),
                )
            else:
                send_frame(
                    res_w,
                    ("ok", value, _drain_spans(want_trace),
                     _plan_events(state)),
                )
    except BaseException:  # pragma: no cover - last-ditch child failure
        status = 1
    finally:
        os._exit(status)
