"""ShardHandle: the router's only doorway to a shard, local or remote.

PR 5's router held *direct object references* to its shards -- fine for
one process, fatal for scaling: every scatter fanned out over threads in
one GIL-bound interpreter (a single-core bench once measured shards=4 at
0.38x the updates/s of shards=1).  This
module tears that coupling apart.  The router now speaks a small
**handle protocol** -- exactly the shard surface it actually uses -- and
two interchangeable backends implement it:

:class:`InProcessShardHandle`
    A thin wrapper over a live :class:`~repro.serving.service
    .GraphService` / :class:`~repro.replication.ReplicatedGraphService`
    in this process.  The default; zero behaviour change (unknown
    attributes pass through to the wrapped service, so diagnostic pokes
    like ``handle.graph`` keep working).

:class:`ProcessShardHandle`
    The shard lives in its **own worker process**.  The handle forks the
    worker at construction (fork-once + copy-on-write shipping of the
    already-partitioned shard graph, the same discipline as
    :class:`repro.parallel.pool.PersistentWorkerPool`) and afterwards
    speaks a length-prefixed pickle RPC over two pipes
    (:func:`repro.parallel.pool.send_frame` frames, ``<Q length><pickle
    payload>``)::

        router -> worker:  (op, ...) request, stamped with the current
                           FaultPlan delta and a tracing on/off flag
        worker -> router:  ("ok", value, spans, plan_events)
                         | ("err", exception, spans, plan_events)

    Every reply envelope carries the worker tracer's drained spans
    (grafted under the router-side span that was open during the call,
    so one submit still yields one connected trace tree) and the worker
    plan copy's new fault hits / fired triggers (absorbed into the
    router-side plan, so ``plan.fired()`` assertions hold across the
    boundary).  A worker that dies -- crash point inside the child, or a
    plain SIGKILL -- surfaces as :class:`ShardCrashed` at the next RPC:
    the router fail-stops exactly as it does for an in-process shard
    failure, and :meth:`ShardedGraphService.recover` rebuilds fresh
    workers from each shard's snapshot + WAL (the fenced restart: the
    old worker is reaped before the directory is re-opened, so no
    zombie writer can race the replacement).

The backend is chosen per service via the ``backend=`` constructor
argument, defaulting to the ``REPRO_SHARD_PROCS`` environment knob
(``1`` selects ``"process"``); the cross-backend conformance suite in
``tests/sharding/`` proves both backends bit-identical to the unsharded
service at every batch.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Callable, Optional

from repro import faults
from repro.obs.trace import get_tracer
from repro.parallel.pool import recv_frame, send_frame
from repro.util.validation import ReproError

__all__ = [
    "InProcessShardHandle",
    "ProcessShardHandle",
    "ShardCrashed",
    "default_shard_backend",
]

#: accepted backend names, in the order the docs present them
BACKENDS = ("inproc", "process")


class ShardCrashed(ReproError):
    """A shard worker process died mid-conversation (EOF on its pipes).

    Raised by :class:`ProcessShardHandle` in place of whatever reply the
    worker owed; the router reacts exactly as to any other shard apply
    failure -- it fail-stops, leaving recovery to
    ``ShardedGraphService.recover``.
    """


def default_shard_backend() -> str:
    """Backend from the ``REPRO_SHARD_PROCS`` environment knob.

    ``REPRO_SHARD_PROCS=1`` (or ``true``/``yes``) selects the
    ``"process"`` backend -- one worker process per shard; unset/``0``
    keeps shards in-process.
    """
    raw = os.environ.get("REPRO_SHARD_PROCS", "").strip().lower()
    if raw in ("", "0", "false", "no"):
        return "inproc"
    if raw in ("1", "true", "yes"):
        return "process"
    raise ReproError(f"bad REPRO_SHARD_PROCS: {raw!r} (want 0/1)")


def validate_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ReproError(
            f"unknown shard backend {backend!r}; supported: {BACKENDS}"
        )
    return backend


# ---------------------------------------------------------------------------
# in-process backend
# ---------------------------------------------------------------------------


class InProcessShardHandle:
    """The shard is a live service object in this process (the default).

    Implements the handle protocol by direct delegation; anything outside
    the protocol (``.graph``, ``.promote``, a test poking ``._engines``)
    passes through to the wrapped service, which is what keeps this
    backend a pure refactor of the PR 5 router.
    """

    backend = "inproc"

    def __init__(self, service):
        self._service = service

    # -- the handle protocol -------------------------------------------

    @property
    def version(self) -> int:
        return self._service.version

    def apply_batch(self, changes: list) -> int:
        return self._service.apply_batch(changes)

    def result_and_partial(self, query: str, tool: Optional[str] = None):
        return self._service.result_and_partial(query, tool)

    def merge_partials(self, query: str, tool: Optional[str], partials: list,
                       k: int):
        """Fold per-shard partials through this shard's engine (the merge
        hook lives on engine instances; shard 0's handle hosts the fold)."""
        return self._service.engine(query, tool).merge_partials(partials, k)

    def owned_ids(self) -> dict:
        """External ids this shard owns -- the recovery path rebuilds the
        router's routing tables and replicated-user set from these."""
        g = self._service.graph
        return {
            "users": g.users.external_array().tolist(),
            "posts": g.posts.external_array().tolist(),
            "comments": g.comments.external_array().tolist(),
        }

    def stats(self) -> dict:
        return self._service.stats()

    def metrics_text(self, labels: Optional[dict] = None) -> str:
        return self._service.metrics_text(labels=labels)

    def snapshot(self) -> int:
        return self._service.snapshot()

    def close(self) -> None:
        self._service.close()

    # -- escape hatch ---------------------------------------------------

    def __getattr__(self, name):
        # delegation for everything beyond the protocol (only reachable
        # for names not defined above; __getattr__ is the miss path)
        return getattr(self._service, name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InProcessShardHandle<{self._service!r}>"


# ---------------------------------------------------------------------------
# process backend
# ---------------------------------------------------------------------------

#: parent-side pipe ends of every live worker, so a newly forked worker
#: can close the fds it inherited for its *siblings* -- otherwise a dead
#: parent (or sibling) never produces EOF and workers linger as orphans
_PARENT_FDS: set[int] = set()
_SPAWN_LOCK = threading.Lock()

#: request sentinel meaning "fault plan unchanged since last call"
PLAN_UNCHANGED = "__plan_unchanged__"


class ProcessShardHandle:
    """One shard = one forked worker process speaking pipe RPC.

    ``build`` runs **in the child** right after the fork: for a fresh
    service it closes over the already-partitioned shard graph (shipped
    by copy-on-write, never pickled), for recovery it closes over the
    shard directory.  The parent blocks on the worker's boot report --
    ``("ready", version, spans)`` or ``("boot-err", exc)`` -- so a
    constructor error inside the child surfaces synchronously, same as
    the in-process backend.
    """

    backend = "process"

    def __init__(self, index: int, build: Callable[[], object]):
        from repro.sharding import worker as _worker

        self.index = index
        self.pid: Optional[int] = None
        self._last_pid: Optional[int] = None
        self._dead = False
        self._closed = False
        #: id() of the FaultPlan last shipped (None = none installed)
        self._plan_token: Optional[int] = None
        with _SPAWN_LOCK:
            cmd_r, cmd_w = os.pipe()
            res_r, res_w = os.pipe()
            inherited = set(_PARENT_FDS)
            pid = os.fork()
            if pid == 0:  # child: never returns
                _worker.serve(
                    cmd_r, res_w,
                    build,
                    close_fds=inherited | {cmd_w, res_r},
                )
            os.close(cmd_r)
            os.close(res_w)
            self.pid = self._last_pid = pid
            self._cmd_w = cmd_w
            self._res_r = res_r
            _PARENT_FDS.update((cmd_w, res_r))
        try:
            status, payload, spans = recv_frame(self._res_r)
        except (EOFError, OSError):
            self._reap(kill=True)
            raise ShardCrashed(
                f"shard {index} worker died during boot"
            ) from None
        if status != "ready":
            exc = payload
            self._reap(kill=False)  # child already _exit()ed after reporting
            raise exc
        self._graft(spans)
        self._cached_version = payload

    # -- RPC plumbing ---------------------------------------------------

    def _graft(self, spans) -> None:
        tr = get_tracer()
        if tr is not None and spans:
            tr.graft(spans)

    def _plan_directive(self):
        """What to tell the worker about the current fault plan.

        Ships the full (pickled) plan when the installed plan object
        changed since the last call, an explicit ``None`` when a plan was
        uninstalled, and a cheap sentinel otherwise.
        """
        plan = faults.active_plan()
        token = id(plan) if plan is not None else None
        if token == self._plan_token:
            return PLAN_UNCHANGED
        self._plan_token = token
        # hold the shipped plan so its id() cannot be recycled by a new
        # plan while the token still claims it is installed
        self._plan_ref = plan
        return plan

    def _call(self, *request):
        if self._closed:
            raise ReproError(f"shard {self.index} handle is closed")
        if self._dead:
            raise ShardCrashed(
                f"shard {self.index} worker (pid {self._last_pid}) is dead; "
                "recover the sharded service to respawn it"
            )
        plan = faults.active_plan()
        trace = get_tracer() is not None
        try:
            send_frame(self._cmd_w, (request, self._plan_directive(), trace))
            status, payload, spans, plan_events = recv_frame(self._res_r)
        except (EOFError, OSError, BrokenPipeError):
            self._reap(kill=True)
            raise ShardCrashed(
                f"shard {self.index} worker (pid {self._last_pid}) died "
                f"mid-{request[0]}; the router fail-stops and "
                "ShardedGraphService.recover respawns from snapshot+WAL"
            ) from None
        self._graft(spans)
        if plan is not None and plan_events is not None:
            plan.absorb(*plan_events)
        if status == "err":
            raise payload
        return payload

    # -- the handle protocol -------------------------------------------

    @property
    def version(self) -> int:
        return self._call("version")

    def apply_batch(self, changes: list) -> int:
        return self._call("call", "apply_batch", (changes,))

    def result_and_partial(self, query: str, tool: Optional[str] = None):
        return self._call("call", "result_and_partial", (query, tool))

    def merge_partials(self, query: str, tool: Optional[str], partials: list,
                       k: int):
        return self._call("merge", query, tool, partials, k)

    def owned_ids(self) -> dict:
        return self._call("owned_ids")

    def stats(self) -> dict:
        return self._call("call", "stats", ())

    def metrics_text(self, labels: Optional[dict] = None) -> str:
        return self._call("call", "metrics_text", (), {"labels": labels})

    def snapshot(self) -> int:
        return self._call("call", "snapshot", ())

    def close(self) -> None:
        """Graceful shutdown: the worker closes its service (flushing WAL
        buffers) and exits; falls back to SIGKILL if it is already gone."""
        if self._closed:
            return
        if not self._dead:
            try:
                self._call("shutdown")
            except (ShardCrashed, ReproError):
                pass  # worker died first; _call already reaped it
            except BaseException:
                self._reap(kill=True)
                raise
        self._reap(kill=False)
        self._closed = True

    # -- failure machinery ---------------------------------------------

    def kill(self) -> None:
        """SIGKILL the worker (the fault suites' hard process death).

        The next RPC raises :class:`ShardCrashed`; until then the handle
        is indistinguishable from one whose worker died on its own.
        """
        self._reap(kill=True)

    def _reap(self, *, kill: bool) -> None:
        with _SPAWN_LOCK:
            for fd in (getattr(self, "_cmd_w", None), getattr(self, "_res_r", None)):
                if fd is not None:
                    _PARENT_FDS.discard(fd)
                    try:
                        os.close(fd)
                    except OSError:
                        pass
            self._cmd_w = self._res_r = None
        if self.pid is not None:
            if kill:
                try:
                    os.kill(self.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            try:
                os.waitpid(self.pid, 0)
            except ChildProcessError:
                pass
            self.pid = None
        self._dead = True

    def __del__(self):  # pragma: no cover - exercised via gc in tests
        # an abandoned handle (crash-simulating `del svc`) must not leak
        # its worker: hard-kill, matching the process death it simulates
        if not self._closed and self.pid is not None:
            self._reap(kill=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else ("dead" if self._dead else "live")
        return f"ProcessShardHandle<shard={self.index}, pid={self.pid}, {state}>"
