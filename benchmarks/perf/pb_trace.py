"""Span recorder for the traced pass: wraps a fixed table of public callables.

Nothing under ``src/`` is edited.  :func:`install` replaces each callable in
the stage table by a wrapper that records one span per call -- stage, start,
end, parent -- into an in-memory buffer of the calling thread.  It runs
before the harness forks anything, so shard workers and the gateway child
inherit the wrappers; each process writes its buffers to
``spans-<pid>.npy`` when asked (:func:`dump` in the harness process,
``SIGUSR1`` in a child, because a shard worker offers no other way in and
is killed, not closed, at the end of the stream).  :func:`stage_table`
turns the files into ``<layer>.<stage>.calls`` / ``.self_ms``.

A span's self time is its duration minus the part of it that its child
spans cover (their union, so children running in parallel on pool threads
are not subtracted twice).
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import threading
import time
from array import array
from pathlib import Path

import numpy as np

#: stage names, in reporting order; a span stores the index
STAGES = (
    "harness.op",  # the harness's own timed calls: the blocking path
    "datagen.graph", "datagen.stream",
    "model.apply",
    "graphblas.arena_assign", "graphblas.arena_remove", "graphblas.freeze",
    "graphblas.ops",
    "queries.initial", "queries.q1_refresh", "queries.q2_refresh",
    "queries.batch_eval",
    "lagraph.cc",
    "serving.gate", "serving.batcher", "serving.wal_append",
    "serving.wal_fsync", "serving.cache_put", "serving.cache_get",
    "serving.snapshot_save", "serving.snapshot_load", "serving.wal_replay",
    "serving.service",
    "storage.resize",
    "sharding.partition", "sharding.worker_boot", "sharding.route",
    "sharding.rpc_apply",
    "sharding.rpc_read", "sharding.worker_apply", "sharding.merge",
    "gateway.admit", "gateway.pump", "gateway.read", "gateway.wire",
    "obs.span",
)
_SID = {name: i for i, name in enumerate(STAGES)}
_SID_BITS = 6  # a stack entry is (span id << 6) | stage id
assert len(STAGES) < 1 << _SID_BITS

#: Matrix / Vector operations counted as ``graphblas.ops``
_MATRIX_OPS = (
    "from_coo", "mxm", "mxv", "ewise_add", "ewise_mult", "apply", "select",
    "reduce_vector", "reduce_scalar", "transpose", "extract", "assign",
    "to_dense", "dup", "resize",
)
_VECTOR_OPS = (
    "from_coo", "from_dense", "ewise_add", "ewise_mult", "apply", "select",
    "reduce", "vxm", "extract", "assign", "scatter_min", "to_dense", "dup",
    "resize",
)

#: counters and gauges a process keeps beside its spans (``*_max`` merge by
#: max, everything else by sum); written to ``aux-<pid>.json`` by dump()
AUX: dict = {}

_ids = itertools.count(1)
_tls = threading.local()
_buffers: list = []  # every thread's span buffer, for dump()
_driver_stack: list = []  # the installing thread's open spans
#: pool threads whose spans hang under the span the driver thread has open
_ADOPTING = ("shard-scatter", "engine-refresh")
_now = time.perf_counter
_installed = False
_quiet = False  # inside a quiet span: wrapped callables record nothing


def _thread_state():
    buf = array("d")
    thread = threading.current_thread()
    if thread is threading.main_thread():
        stack = _driver_stack
    else:
        stack = []
    _tls.stack, _tls.buf = stack, buf
    _tls.adopts = thread.name.startswith(_ADOPTING)
    _buffers.append(buf)
    return stack, buf


def _open(sid: int):
    """Push a span; returns what :func:`_close` needs."""
    try:
        stack, buf = _tls.stack, _tls.buf
    except AttributeError:
        stack, buf = _thread_state()
    parent = 0
    if stack:
        parent = stack[-1]
    elif _tls.adopts:
        try:
            parent = _driver_stack[-1]
        except IndexError:  # the driver closed its span meanwhile
            pass
    gid = next(_ids)
    stack.append((gid << _SID_BITS) | sid)
    return stack, buf, sid, parent, gid, _now()


def _close(state) -> None:
    stack, buf, sid, parent, gid, t0 = state
    t1 = _now()
    stack.pop()
    buf.extend((sid, t0, t1, parent, gid))


class span:
    """Context manager for the harness's own spans (``with span("...")``).

    ``quiet=True`` is for work the harness does for itself with the
    system's code -- generating inputs, running the oracle: the span is
    recorded whole, and the wrapped callables under it record nothing, so
    ``model.apply`` and the rest count the system under test only; with
    ``stage=None`` nothing at all is recorded.  Only the driving thread
    opens quiet spans, and only while nothing else runs.
    """

    __slots__ = ("_sid", "_state", "_quiet")

    def __init__(self, stage, quiet: bool = False):
        self._sid = _SID[stage] if stage is not None else None
        self._quiet = quiet

    def __enter__(self):
        global _quiet
        record = _installed and self._sid is not None
        self._state = _open(self._sid) if record else None
        _quiet = _quiet or self._quiet
        return self

    def __exit__(self, *exc) -> None:
        global _quiet
        if self._quiet:
            _quiet = False
        if self._state is not None:
            _close(self._state)


def _traced(fn, stage, pre=None):
    """Wrapper recording one span per call.  ``stage`` is a name or a
    callable picking the name from the call's arguments; ``pre`` sees the
    arguments first (counters)."""
    fixed = _SID[stage] if isinstance(stage, str) else None

    def wrapper(*args, **kwargs):
        if _quiet:
            return fn(*args, **kwargs)
        if pre is not None:
            pre(*args, **kwargs)
        state = _open(fixed if fixed is not None else _SID[stage(*args)])
        try:
            return fn(*args, **kwargs)
        finally:
            _close(state)

    wrapper.__wrapped__ = fn
    return wrapper


def _traced_generator(fn, stage):
    """For a generator function: one span per item produced, so time the
    consumer spends between items is not charged to the producer."""
    sid = _SID[stage]

    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            state = _open(sid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                _close(state)
            yield item

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap(owner, attr: str, stage, pre=None, make=_traced) -> None:
    """Replace ``owner.attr`` (function, classmethod or staticmethod on a
    class, or a module global) by its traced form."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    extra = (pre,) if pre is not None else ()
    if isinstance(raw, (classmethod, staticmethod)):
        wrapped = type(raw)(make(raw.__func__, stage, *extra))
    else:
        wrapped = make(raw, stage, *extra)
    setattr(owner, attr, wrapped)


def _count(key: str, n=1) -> None:
    AUX[key] = AUX.get(key, 0) + n


def _note_scatter(handle, changes) -> None:
    _count("sharding.rpcs")
    if not changes:
        _count("sharding.rpcs_empty")
    _count(f"sharding.changes.{handle.index}", len(changes))


def _note_queue_depth(gateway, *args, **kwargs) -> None:
    AUX["gateway.queue_depth_max"] = max(
        AUX.get("gateway.queue_depth_max", 0), gateway.queue_depth
    )


def _refresh_stage(engine, delta) -> str:
    return "queries.q1_refresh" if engine.query == "Q1" else "queries.q2_refresh"


def install() -> None:
    """Wrap every callable of the stage table.  Call once, before forking."""
    global _installed
    from repro.gateway.core import Gateway
    from repro.graphblas.dynamic import DynamicMatrix
    from repro.graphblas.matrix import Matrix
    from repro.graphblas.vector import Vector
    from repro.model.graph import SocialGraph
    from repro.obs.trace import Span, Tracer
    from repro.queries import q2
    from repro.queries.engine import QueryEngine
    from repro.serving import persistence
    from repro.serving.cache import ResultCache
    from repro.serving.ingest import MicroBatcher, SubmitGate
    from repro.serving.persistence import ChangeLog, SnapshotStore
    from repro.serving.service import GraphService
    from repro.sharding import router
    from repro.sharding.handle import ProcessShardHandle
    from repro.sharding.router import ShardedGraphService
    from repro.storage.heap import HeapArena

    _wrap(SocialGraph, "apply", "model.apply")
    _wrap(DynamicMatrix, "assign_coo", "graphblas.arena_assign")
    _wrap(DynamicMatrix, "remove_coo", "graphblas.arena_remove")
    _wrap(DynamicMatrix, "freeze", "graphblas.freeze")
    for cls, names in ((Matrix, _MATRIX_OPS), (Vector, _VECTOR_OPS)):
        for name in names:
            _wrap(cls, name, "graphblas.ops")
    _wrap(QueryEngine, "initial", "queries.initial")
    _wrap(QueryEngine, "refresh", _refresh_stage)
    # Q2 binds the component kernels by name at import
    _wrap(q2, "fastsv", "lagraph.cc")
    _wrap(q2, "connected_components_numpy", "lagraph.cc")
    _wrap(SubmitGate, "admit", "serving.gate")
    _wrap(MicroBatcher, "offer", "serving.batcher")
    _wrap(MicroBatcher, "drain", "serving.batcher")
    _wrap(ChangeLog, "append", "serving.wal_append")
    _wrap(ChangeLog, "replay_frames", "serving.wal_replay", make=_traced_generator)
    _wrap(ResultCache, "put", "serving.cache_put")
    _wrap(ResultCache, "get", "serving.cache_get")
    _wrap(SnapshotStore, "save", "serving.snapshot_save")
    _wrap(SnapshotStore, "load", "serving.snapshot_load")
    for name in ("__init__", "submit", "flush", "query", "snapshot", "recover",
                 "result_and_partial", "close"):
        _wrap(GraphService, name, "serving.service")
    _wrap(GraphService, "apply_batch", "sharding.worker_apply")
    _wrap(HeapArena, "resize", "storage.resize")
    _wrap(router, "partition_graph", "sharding.partition")
    for name in ("__init__", "submit", "flush", "query", "snapshot", "recover",
                 "close"):
        _wrap(ShardedGraphService, name, "sharding.route")
    # fork one worker and wait for its boot report
    _wrap(ProcessShardHandle, "__init__", "sharding.worker_boot")
    _wrap(ProcessShardHandle, "apply_batch", "sharding.rpc_apply", pre=_note_scatter)
    _wrap(ProcessShardHandle, "result_and_partial", "sharding.rpc_read")
    _wrap(ProcessShardHandle, "merge_partials", "sharding.merge")
    _wrap(Gateway, "submit", "gateway.admit", pre=_note_queue_depth)
    _wrap(Gateway, "pump_once", "gateway.pump")
    _wrap(Gateway, "read", "gateway.read")
    _wrap(Tracer, "span", "obs.span")
    _wrap(Tracer, "record", "obs.span")
    _wrap(Span, "end", "obs.span")

    # the fsync under ChangeLog.append; persistence.py calls os.fsync, so
    # the module gets its own ``os`` whose fsync is traced inside an append
    wal_sid = _SID["serving.wal_append"]
    raw_fsync = os.fsync
    traced_fsync = _traced(raw_fsync, "serving.wal_fsync")

    def fsync(fd):
        stack = getattr(_tls, "stack", None)
        if stack and stack[-1] & ((1 << _SID_BITS) - 1) == wal_sid:
            return traced_fsync(fd)
        return raw_fsync(fd)

    class _Os:
        def __getattr__(self, name):
            return getattr(os, name)

    persistence.os = _Os()
    persistence.os.fsync = fsync
    os.register_at_fork(after_in_child=_forget_parent)
    _installed = True


def _forget_parent() -> None:
    """A forked child starts with no spans: what the parent recorded, and
    the spans it had open at the fork, stay the parent's."""
    _buffers.clear()
    _driver_stack.clear()
    _tls.__dict__.clear()
    AUX.clear()


# ---------------------------------------------------------------------------
# writing out
# ---------------------------------------------------------------------------


def dump(directory) -> None:
    """Write this process's spans and counters (atomically: a reader polls
    for the final names)."""
    directory = Path(directory)
    pid = os.getpid()
    # tobytes() copies in one step: a view would lock the array against
    # an extend() from the thread that owns it
    raw = b"".join(buf.tobytes() for buf in list(_buffers))
    rows = np.frombuffer(raw, dtype=np.float64).reshape(-1, 5)
    tmp = directory / f"spans-{pid}.tmp"
    with open(tmp, "wb") as fh:
        np.save(fh, rows)
    os.replace(tmp, directory / f"spans-{pid}.npy")
    tmp = directory / f"aux-{pid}.tmp"
    tmp.write_text(json.dumps(AUX))
    os.replace(tmp, directory / f"aux-{pid}.json")


def dump_on_signal(directory) -> None:
    """Make SIGUSR1 dump this process -- and, being inherited, every
    process forked from it -- into ``directory``."""
    signal.signal(signal.SIGUSR1, lambda signum, frame: dump(directory))


def collect_child(pid: int, directory, timeout: float = 20.0) -> None:
    """Ask a forked child for its spans and wait until they are on disk."""
    target = Path(directory) / f"aux-{pid}.json"
    target.unlink(missing_ok=True)
    os.kill(pid, signal.SIGUSR1)
    deadline = time.monotonic() + timeout
    while not target.exists():
        if time.monotonic() > deadline:
            raise TimeoutError(f"process {pid} did not dump its spans")
        time.sleep(0.005)


# ---------------------------------------------------------------------------
# reading back
# ---------------------------------------------------------------------------


def _self_times(rows: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the union of its children."""
    t0, t1 = rows[:, 1], rows[:, 2]
    parent = rows[:, 3].astype(np.int64) >> _SID_BITS
    gid = rows[:, 4].astype(np.int64)
    self_s = t1 - t0
    kids = np.flatnonzero(parent > 0)
    if kids.size == 0:
        return self_s
    order = kids[np.lexsort((t0[kids], parent[kids]))]
    p, a, b = parent[order], t0[order], t1[order]
    first = np.r_[True, p[1:] != p[:-1]]
    group = np.cumsum(first) - 1
    # running max of earlier siblings' ends, restarted per parent: offset
    # each group by more than the run lasts so groups cannot interact
    span_s = float(t1.max() - t0.min()) + 1.0
    shifted = (b - t0.min()) + group * span_s
    seen = np.maximum.accumulate(shifted) - group * span_s + t0.min()
    prev_end = np.r_[-np.inf, seen[:-1]]
    prev_end[first] = -np.inf
    covered = np.maximum(b - np.maximum(a, prev_end), 0.0)
    per_parent = np.bincount(group, weights=covered)
    parent_gid = p[first]
    by_gid = np.argsort(gid)
    pos = np.minimum(np.searchsorted(gid[by_gid], parent_gid), gid.size - 1)
    # a parent still open at the dump (or adopted across a fork) has no row
    found = gid[by_gid][pos] == parent_gid
    self_s[by_gid[pos[found]]] -= per_parent[found]
    return self_s


def stage_table(directory, harness_pid: int) -> dict:
    """Aggregate every ``spans-*.npy`` / ``aux-*.json`` under ``directory``.

    Returns ``{"calls": {stage: n}, "self_ms": {stage: ms}, "aux": {...},
    "op_wall_ms": ms}``.  ``op_wall_ms`` is the wall the harness process
    spent inside its own timed calls.

    Across a process boundary "minus the child spans" is done in sum: the
    wire's self time is the client round trips minus the time inside the
    gateway's handlers, the apply RPC's is the router-side calls minus the
    worker-side applies (pickle + pipe).
    """
    directory = Path(directory)
    n = len(STAGES)
    calls, self_ms, total_ms = np.zeros(n), np.zeros(n), np.zeros(n)
    op_wall_ms = 0.0
    for path in sorted(directory.glob("spans-*.npy")):
        rows = np.load(path)
        if rows.size == 0:
            continue
        sid = rows[:, 0].astype(np.int64)
        calls += np.bincount(sid, minlength=n)
        self_ms += np.bincount(sid, weights=_self_times(rows), minlength=n) * 1e3
        inclusive = np.bincount(sid, weights=rows[:, 2] - rows[:, 1], minlength=n) * 1e3
        total_ms += inclusive
        if path.name == f"spans-{harness_pid}.npy":
            op_wall_ms = float(inclusive[_SID["harness.op"]])
    for outer, inner in (("gateway.wire", ("gateway.admit", "gateway.read")),
                         ("sharding.rpc_apply", ("sharding.worker_apply",))):
        self_ms[_SID[outer]] = total_ms[_SID[outer]] - sum(total_ms[_SID[i]] for i in inner)
    aux: dict = {}
    for path in sorted(directory.glob("aux-*.json")):
        for key, value in json.loads(path.read_text()).items():
            if key.endswith("_max"):
                aux[key] = max(aux.get(key, 0), value)
            else:
                aux[key] = aux.get(key, 0) + value
    return {
        "calls": dict(zip(STAGES, calls.tolist())),
        "self_ms": dict(zip(STAGES, self_ms.tolist())),
        "aux": aux,
        "op_wall_ms": op_wall_ms,
    }
