"""The four workloads: topology, closed-loop drive, kill/recover, oracle.

One run of one workload is :func:`run_workload`: generate the inputs from
the seed, set the topology up (several times; the median is ``setup_s``),
warm up, drive the stream for the measured seconds, snapshot, apply a
fixed-length tail, kill without a final snapshot, recover, and compare
what was served with the paper's batch engines on an oracle graph that
received the same changes.

The recovery tail has a fixed length, not "whatever the measured phase
applied", so a faster write path does not lengthen the log it later has to
replay and thereby worsen ``recover_s``.
"""

from __future__ import annotations

import gc
import http.client
import json
import multiprocessing
import os
import pickle
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

import pb_trace
from pb_streams import make_stream
from pb_trace import span

from repro.datagen import generate_graph
from repro.model.changes import ChangeSet
from repro.model.loader import change_to_row
from repro.queries.q1 import Q1Batch
from repro.queries.q2 import Q2Batch

TOOLS = ("graphblas-incremental",)
READS_PER_BLOCK = 16  # 8 x Q1 + 8 x Q2 timed together: one read sample
SEGMENTS = 8  # updates_per_s is the median of this many equal time slices
WARMUP_SHARE = 0.05  # of the measured seconds, driven first and discarded
_now = time.perf_counter


@dataclass(frozen=True)
class Spec:
    name: str
    topology: str  # "direct" | "shards" | "gateway"
    sf: int  # Table II scale factor of the initial graph
    batch: int  # changes per write
    removal_share: float  # share of all changes that remove an edge
    rate_hint: int  # changes/s the stream is sized for (above what is measured)
    tail_writes: int  # writes between the last snapshot and the kill
    reads_every: int = 1  # one read block per this many writes (inline drives)
    snapshots_in_stream: bool = False  # snapshot at 1/4, 1/2, 3/4 of the run
    repeats: int = 3  # set-ups, and recoveries, timed per run (median)


SPECS = {
    s.name: s
    for s in (
        Spec("ttc_batches", "direct", sf=128, batch=32, removal_share=0.0,
             rate_hint=7000, tail_writes=64),
        Spec("serve_single", "direct", sf=16, batch=1, removal_share=0.25,
             reads_every=16, rate_hint=2500, tail_writes=2048,
             snapshots_in_stream=True),
        Spec("shards_proc", "shards", sf=64, batch=8, removal_share=0.2,
             rate_hint=2500, tail_writes=128),
        Spec("gateway_http", "gateway", sf=16, batch=4, removal_share=0.25,
             rate_hint=5000, tail_writes=512),
    )
}


def smoke_spec(spec: Spec) -> Spec:
    """SF1 and a handful of writes: exercises every code path in seconds."""
    return replace(spec, sf=1, rate_hint=20_000, repeats=1,
                   tail_writes=max(4, 32 // spec.batch))


class Ops:
    """Operations attempted and failed, as the result line reports them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str, n: int = 1) -> bool:
        self.attempted += n
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


# ---------------------------------------------------------------------------
# topologies: the same five verbs over three deployments
# ---------------------------------------------------------------------------


class DirectTopology:
    """A bare durable ``GraphService`` in this process."""

    shed = 0  # writes refused and retried: only a gateway refuses

    def __init__(self, spec: Spec, data_dir):
        self.spec, self.data_dir = spec, data_dir
        self.kwargs = dict(tools=TOOLS, max_batch=spec.batch, wal_sync=True)
        self.svc = None

    def start(self, graph) -> None:
        from repro.serving import GraphService

        self.svc = GraphService(graph, data_dir=self.data_dir, **self.kwargs)

    def recover(self) -> None:
        from repro.serving import GraphService

        self.svc = GraphService.recover(self.data_dir, **self.kwargs)

    def write(self, changes: list) -> None:
        self.svc.submit(changes)
        self.svc.flush()

    def read(self, query: str):
        r = self.svc.query(query)
        return r.version, r.result_string

    def snapshot(self) -> None:
        self.svc.snapshot()

    def storage_bytes(self) -> int:
        return self.svc.graph.storage_bytes()

    def collect_traces(self, directory) -> None:
        pass  # everything ran in this process

    def stop(self) -> None:
        self.svc.close()
        self.svc = None

    # there is no process to kill; close() writes nothing (every applied
    # batch is already fsynced, and close takes no snapshot), so what is
    # left on disk is what a kill would leave
    kill = stop


class ShardsTopology(DirectTopology):
    """``ShardedGraphService`` over two forked shard workers."""

    def __init__(self, spec: Spec, data_dir):
        super().__init__(spec, data_dir)
        self.kwargs.update(backend="process")

    def start(self, graph) -> None:
        from repro.sharding import ShardedGraphService

        self.svc = ShardedGraphService(
            graph, shards=2, data_dir=self.data_dir, **self.kwargs
        )

    def recover(self) -> None:
        from repro.sharding import ShardedGraphService

        self.svc = ShardedGraphService.recover(self.data_dir, **self.kwargs)

    def storage_bytes(self) -> int:
        return sum(s["storage"]["bytes"] for s in self.svc.stats()["per_shard"])

    def collect_traces(self, directory) -> None:
        for handle in self.svc._shards:
            pb_trace.collect_child(handle.pid, directory)

    def kill(self) -> None:
        for handle in self.svc._shards:
            handle.kill()  # SIGKILL + reap
        self.svc.close()  # router threads and WAL handle; workers are gone
        self.svc = None


def _gateway_child(conn, graph, data_dir, kwargs) -> None:
    """Body of the gateway process: service + Gateway + GatewayServer, a
    live tracer drained once a second, and a control pipe for the two
    things HTTP does not offer (snapshot now; stop)."""
    import asyncio

    from repro.gateway import Gateway, GatewayServer
    from repro.obs.trace import Tracer, set_tracer
    from repro.serving import GraphService

    tracer = Tracer()
    set_tracer(tracer)
    if graph is None:
        service = GraphService.recover(data_dir, **kwargs)
    else:
        service = GraphService(graph, data_dir=data_dir, **kwargs)
    gateway = Gateway(service)
    stopped = threading.Event()

    def drain_telemetry() -> None:
        while not stopped.wait(1.0):
            pb_trace.AUX["obs.spans_drained"] = (
                pb_trace.AUX.get("obs.spans_drained", 0) + len(tracer.drain())
            )

    async def serve() -> None:
        server = await GatewayServer(gateway).start()
        loop = asyncio.get_running_loop()
        done = asyncio.Event()

        def control() -> None:
            while True:
                command = conn.recv()
                if command == "snapshot":
                    conn.send(service.snapshot())
                else:
                    loop.call_soon_threadsafe(done.set)
                    return

        threading.Thread(target=control, daemon=True).start()
        threading.Thread(target=drain_telemetry, daemon=True).start()
        conn.send(server.port)
        await done.wait()
        await server.stop(drain=True)

    gc.collect()
    gc.freeze()
    asyncio.run(serve())
    stopped.set()
    service.close()
    conn.send("stopped")


class GatewayTopology:
    """The front door in its own process, spoken to over loopback HTTP."""

    def __init__(self, spec: Spec, data_dir):
        self.spec, self.data_dir = spec, data_dir
        self.kwargs = dict(tools=TOOLS, max_batch=spec.batch, wal_sync=True)
        self.proc = self.conn = self.port = self.http = None
        self.shed = 0

    def start(self, graph) -> None:
        ctx = multiprocessing.get_context("fork")  # the graph goes by COW
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(
            target=_gateway_child,
            args=(child_conn, graph, self.data_dir, self.kwargs),
        )
        self.proc.start()
        child_conn.close()
        self.port = self.conn.recv()
        self.http = self.connect()

    def recover(self) -> None:
        self.start(None)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    @staticmethod
    def get(conn, path: str):
        with span("gateway.wire"):
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
        if resp.status != 200:
            raise RuntimeError(f"GET {path} -> {resp.status} {body[:200]!r}")
        return body

    def post_changes(self, conn, body: bytes) -> None:
        """POST /submit until admitted; a 429 sleeps ``Retry-After``."""
        while True:
            with span("gateway.wire"):
                conn.request("POST", "/submit", body,
                             {"Content-Type": "application/json"})
                resp = conn.getresponse()
                reply = resp.read()
            if resp.status == 202:
                return
            if resp.status != 429:
                raise RuntimeError(f"POST /submit -> {resp.status} {reply[:200]!r}")
            self.shed += 1
            time.sleep(float(resp.getheader("Retry-After", "0.01")))

    def read(self, query: str, conn=None):
        doc = json.loads(self.get(conn or self.http, f"/read?query={query}"))
        return doc["version"], doc["result"]

    def wait_applied(self, timeout: float = 120.0) -> None:
        """Block until every admitted write has been applied."""
        deadline = time.monotonic() + timeout
        while True:
            stats = json.loads(self.get(self.http, "/stats"))
            if stats["applied"] + stats["rejected"] >= stats["tickets"]:
                return
            if time.monotonic() > deadline:
                raise TimeoutError(f"gateway did not drain: {stats}")
            time.sleep(0.002)

    def snapshot(self) -> None:
        self.wait_applied()
        self.conn.send("snapshot")
        self.conn.recv()

    def storage_bytes(self) -> int:
        for line in self.get(self.http, "/metrics").decode().splitlines():
            if line.startswith("repro_storage_bytes"):
                return int(float(line.rsplit(" ", 1)[1]))
        return 0

    def collect_traces(self, directory) -> None:
        pb_trace.collect_child(self.proc.pid, directory)

    def _reap(self) -> None:
        self.proc.join()
        self.conn.close()
        self.proc = self.conn = self.http = None

    def kill(self) -> None:
        self.http.close()
        self.proc.kill()
        self._reap()

    def stop(self) -> None:
        self.http.close()  # first: the server cancels connections still open
        self.conn.send("stop")
        if self.conn.recv() != "stopped":
            raise RuntimeError("gateway child did not stop cleanly")
        self._reap()


TOPOLOGIES = {
    "direct": DirectTopology, "shards": ShardsTopology, "gateway": GatewayTopology,
}


def encode_body(changes: list) -> bytes:
    return json.dumps({"changes": [change_to_row(c) for c in changes]}).encode()


# ---------------------------------------------------------------------------
# driving a stream
# ---------------------------------------------------------------------------


class Samples:
    """What the measured phase records."""

    def __init__(self) -> None:
        #: (time the call returned, seconds the caller was blocked)
        self.write_s: list[tuple[float, float]] = []
        #: (time the block ended, mean seconds per read of the block)
        self.read_block_s: list[tuple[float, float]] = []
        #: (time, changes visible by then), for the throughput slices
        self.progress: list[tuple[float, int]] = []


def read_block(topo, ops: Ops, at_least: int, at_most=None, conn=None):
    """16 back-to-back reads; returns (mean seconds per read, last version).
    Versions must not go backwards and must lie in [at_least, at_most]."""
    kwargs = {"conn": conn} if conn is not None else {}
    seen = [at_least]
    t0 = _now()
    with span("harness.op"):
        for _ in range(READS_PER_BLOCK // 2):
            seen.append(topo.read("Q1", **kwargs)[0])
            seen.append(topo.read("Q2", **kwargs)[0])
    dt = (_now() - t0) / READS_PER_BLOCK
    ok = seen == sorted(seen) and (at_most is None or seen[-1] <= at_most)
    ops.check(ok, f"read block saw versions {seen[1:]}, wanted {at_least}..{at_most}",
              n=READS_PER_BLOCK)
    return dt, seen[-1]


def drive_inline(topo, batches, start: int, version: int, ops: Ops, *,
                 seconds=None, writes=None, samples=None) -> int:
    """Closed loop in this thread: write, and every ``reads_every`` writes a
    read block.  Stops after ``seconds`` or ``writes`` (or when the stream
    runs out).  Returns the index of the next unsent batch."""
    spec = topo.spec
    t_start = _now()
    deadline = t_start + seconds if seconds is not None else float("inf")
    stop_at = min(len(batches), start + writes if writes is not None else len(batches))
    snapshot_due = (
        [t_start + seconds * q for q in (0.25, 0.5, 0.75)]
        if seconds is not None and spec.snapshots_in_stream else []
    )
    k = start
    done = 0
    if samples is not None:
        samples.progress.append((t_start, 0))
    while k < stop_at:
        t0 = _now()
        if t0 >= deadline:
            break
        batch = batches[k]
        with span("harness.op"):
            topo.write(batch)  # an exception here ends the run: no result
        ops.attempted += 1
        t1 = _now()
        k += 1
        done += len(batch)
        if samples is not None:
            samples.write_s.append((t1, t1 - t0))
            samples.progress.append((t1, done))
        if (k - start) % spec.reads_every == 0:
            at = version + (k - start)
            dt, _ = read_block(topo, ops, at, at)
            if samples is not None:
                samples.read_block_s.append((_now(), dt))
        if snapshot_due and t1 >= snapshot_due[0]:
            snapshot_due.pop(0)
            with span("harness.op"):
                topo.snapshot()
    return k


def drive_gateway(topo, bodies, start: int, ops: Ops, *, seconds=None,
                  writes=None, samples=None) -> int:
    """Two keep-alive connections side by side: a writer POSTing change
    sets, a reader GETting read blocks until the writer is done."""
    t_start = _now()
    deadline = t_start + seconds if seconds is not None else float("inf")
    stop_at = min(len(bodies), start + writes if writes is not None else len(bodies))
    writer_done = threading.Event()
    sent = [start]
    errors: list = []

    def writer() -> None:
        conn = topo.connect()
        try:
            k = start
            while k < stop_at:
                t0 = _now()
                if t0 >= deadline:
                    break
                with span("harness.op"):
                    topo.post_changes(conn, bodies[k])
                k += 1
                if samples is not None:
                    t1 = _now()
                    samples.write_s.append((t1, t1 - t0))
            sent[0] = k
        except Exception as exc:
            errors.append(exc)
        finally:
            writer_done.set()
            conn.close()

    def reader() -> None:
        conn = topo.connect()
        version = 0
        try:
            while not writer_done.is_set():
                dt, version = read_block(topo, ops, version, conn=conn)
                if samples is not None:
                    t1 = _now()
                    samples.read_block_s.append((t1, dt))
                    samples.progress.append((t1, version * topo.spec.batch))
        except Exception as exc:
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    ops.attempted += sent[0] - start
    return sent[0]


def segment_percentile(timed, q: float, t0: float, seconds: float) -> float:
    """The ``q``-th percentile of each of SEGMENTS equal time slices, and of
    those the median: a disturbance of the machine that lasts a part of the
    run moves a few slices, not the figure."""
    times = np.array([t for t, _ in timed])
    values = np.array([v for _, v in timed])
    slot = np.minimum(((times - t0) / seconds * SEGMENTS).astype(int), SEGMENTS - 1)
    per_slice = [np.percentile(values[slot == i], q)
                 for i in range(SEGMENTS) if np.any(slot == i)]
    return float(np.median(per_slice))


def updates_per_s(progress, t0: float, seconds: float) -> float:
    """Median over SEGMENTS equal slices of [t0, t0 + seconds] of the changes
    that became visible per second in the slice."""
    times = np.array([t for t, _ in progress])
    visible = np.array([n for _, n in progress], dtype=np.float64)
    edges = t0 + np.linspace(0.0, seconds, SEGMENTS + 1)
    # a write that straddles an edge counts on each side in proportion
    at_edge = np.interp(edges, times, visible)
    return float(np.median(np.diff(at_edge) / (seconds / SEGMENTS)))


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def oracle_results(graph) -> tuple[str, str]:
    with span("queries.batch_eval", quiet=True):
        return (
            Q1Batch(graph).result_string(),
            Q2Batch(graph, algorithm="unionfind").result_string(),
        )


def served_results(topo) -> tuple[int, str, str]:
    v1, r1 = topo.read("Q1")
    v2, r2 = topo.read("Q2")
    if v1 != v2:
        raise RuntimeError(f"Q1 served at v{v1}, Q2 at v{v2}")
    return v1, r1, r2


def peak_rss_mb() -> float:
    """This interpreter's high-water mark plus the largest of the children
    it reaped (shard workers, the gateway process)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + reaped) / 1024.0


def run_workload(name: str, seed: int, seconds: float, workdir, *,
                 traced: bool = False, smoke: bool = False) -> dict:
    """Run one workload once; returns ``{"ops": Ops, "metrics": {...},
    "counts": {...}}`` (metrics as plain floats, keyed by metric name)."""
    spec = SPECS[name]
    if smoke:
        spec = smoke_spec(spec)
    if traced:
        spec = replace(spec, repeats=1)
    ops = Ops()
    warmup_s = seconds * WARMUP_SHARE

    with span("datagen.graph", quiet=True):
        graph = generate_graph(spec.sf, seed=seed)
        # flush the generator's edge log now, so set-up times the topology
        # and not the tail of data generation
        _ = graph.likes, graph.friends, graph.root_post, graph.commented
    pristine = pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL)
    n_changes = int(spec.rate_hint * (seconds + warmup_s)) + spec.tail_writes * spec.batch
    with span("datagen.stream", quiet=True):
        stream = make_stream(graph, n_changes, seed, spec.removal_share)
    batches = [stream[i:i + spec.batch]
               for i in range(0, len(stream) - spec.batch + 1, spec.batch)]
    payloads = [encode_body(b) for b in batches] if spec.topology == "gateway" else batches
    del graph

    # whatever earlier runs left dirty (snapshots, deleted work dirs) is
    # written back now, not during this run's fsyncs
    os.sync()

    # -- set-up, several times; the last one is kept ---------------------
    setup_times = []
    for i in range(spec.repeats):
        data_dir = workdir / f"data-{i}"
        topo = TOPOLOGIES[spec.topology](spec, data_dir)
        fresh = pickle.loads(pristine)
        t0 = _now()
        with span("harness.op"):
            topo.start(fresh)
            version, q1, q2 = served_results(topo)
        setup_times.append(_now() - t0)
        del fresh
        if i < spec.repeats - 1:
            topo.stop()
            shutil.rmtree(data_dir)
    oracle = pickle.loads(pristine)
    del pristine
    ops.check((q1, q2) == oracle_results(oracle) and version == 0,
              f"initial results {q1!r}, {q2!r} at v{version} differ from the oracle")

    # -- warm-up, measured stream, snapshot, tail ------------------------
    samples = Samples()
    if spec.topology == "gateway":
        drive = lambda start, **kw: drive_gateway(topo, payloads, start, ops, **kw)
    else:
        drive = lambda start, **kw: drive_inline(
            topo, payloads, start, version + start, ops, **kw)
    sent = drive(0, seconds=warmup_s)
    warm = sent
    gc.collect()
    gc.freeze()
    t_measured = _now()
    sent = drive(sent, seconds=seconds, samples=samples)
    measured_s = _now() - t_measured
    measured_writes = sent - warm
    with span("harness.op"):
        topo.snapshot()
    sent = drive(sent, writes=spec.tail_writes)
    if spec.topology == "gateway":
        topo.wait_applied()
    ops.check(sent - warm - measured_writes == spec.tail_writes,
              f"stream ran out: tail of {sent - warm - measured_writes} writes, "
              f"wanted {spec.tail_writes} (raise rate_hint)")

    # -- what was served, against the batch engines on the oracle --------
    final = served_results(topo)
    applied = stream[:sent * spec.batch]
    with span(None, quiet=True):
        for i in range(0, len(applied), 512):  # in chunks: the state is the same
            oracle.apply(ChangeSet(applied[i:i + 512]))
    expected = (version + sent, *oracle_results(oracle))
    ops.check(final == expected, f"served {final}, oracle says {expected}")
    storage_bytes = topo.storage_bytes()
    if traced:
        topo.collect_traces(workdir)

    # -- kill, recover, first read; again from the same files ------------
    recover_times = []
    for _ in range(spec.repeats):
        topo.kill()
        t0 = _now()
        with span("harness.op"):
            topo.recover()
            recovered = served_results(topo)
        recover_times.append(_now() - t0)
        ops.check(recovered == final,
                  f"recovered {recovered}, served before the kill {final}")
    if traced:
        topo.collect_traces(workdir)
    shed = topo.shed
    topo.stop()
    gc.unfreeze()

    pct = lambda timed, q: segment_percentile(timed, q, t_measured, seconds)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "updates_per_s": updates_per_s(samples.progress, t_measured, seconds),
        "write_p50_ms": pct(samples.write_s, 50) * 1e3,
        "write_p95_ms": pct(samples.write_s, 95) * 1e3,
        "read_p50_us": pct(samples.read_block_s, 50) * 1e6,
        "read_p95_us": pct(samples.read_block_s, 95) * 1e6,
        "recover_s": statistics.median(recover_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    counts = {
        "write_samples": len(samples.write_s),
        "read_samples": len(samples.read_block_s),
        "measured_s": measured_s,
        "measured_changes": measured_writes * spec.batch,
        "repeats": spec.repeats,
        "storage.bytes": storage_bytes,
        "gateway.shed": shed,
    }
    return {"ops": ops, "metrics": metrics, "counts": counts}
