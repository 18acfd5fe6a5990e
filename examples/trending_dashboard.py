#!/usr/bin/env python
"""Scenario: a live "trending content" dashboard served by GraphService.

This is the workload the paper's introduction motivates -- serving
trending recommendations over connected data that changes continuously.
Where earlier revisions of this example drove the query engines by hand,
it now runs the real serving stack (:class:`repro.serving.GraphService`):
a synthetic social network is stood up behind a persistent service, a
stream of single changes arrives (tripping the micro-batcher's coalescing
thresholds), dashboard reads are served O(1) from the versioned result
cache, and at the end the service is killed and recovered from its
snapshot + change log to show the crash story.

The per-batch cost of an engine that recomputes from scratch is printed
alongside for comparison, as before.

Run:  python examples/trending_dashboard.py [scale_factor]
"""

import shutil
import sys
import tempfile
import time

from repro.datagen import generate_benchmark_input
from repro.queries import Q1Batch, Q2Batch
from repro.serving import GraphService


def main(scale_factor: int = 4) -> None:
    print(f"generating synthetic network at scale factor {scale_factor} ...")
    graph, stream = generate_benchmark_input(
        scale_factor, seed=2024, num_change_sets=8
    )
    stats = graph.stats()
    print(
        f"network: {stats['users']} users, {stats['posts']} posts, "
        f"{stats['comments']} comments, {stats['edges']} edges\n"
    )

    data_dir = tempfile.mkdtemp(prefix="trending-dashboard-")
    service = GraphService(
        graph,
        tools=("graphblas-incremental",),
        max_batch=64,
        max_delay_ms=25.0,
        data_dir=data_dir,
        snapshot_every=4,
    )
    try:
        t0 = time.perf_counter()
        q1 = service.query("Q1")
        q2 = service.query("Q2")
        print(f"service up in {time.perf_counter() - t0:.3f}s (version {q1.version})")
        print(f"  trending posts:    {q1.result_string}")
        print(f"  trending comments: {q2.result_string}\n")

        batch_total = 0.0
        shown_version = 0
        for step, batch in enumerate(stream, start=1):
            t0 = time.perf_counter()
            for change in batch:  # one submit per change, like live traffic
                service.submit(change)
            service.flush()
            ingest_dt = time.perf_counter() - t0

            # the dashboard read: O(1) against the cached current version
            top_posts = service.query("Q1")
            top_comments = service.query("Q2")

            # what a recomputing engine would have paid for the freshness
            t0 = time.perf_counter()
            Q1Batch(service.graph).evaluate()
            Q2Batch(service.graph, algorithm="unionfind").evaluate()
            batch_dt = time.perf_counter() - t0
            batch_total += batch_dt

            print(
                f"step {step}: +{len(batch)} changes -> v{top_posts.version} | "
                f"ingest {ingest_dt * 1e3:6.1f} ms vs recompute "
                f"{batch_dt * 1e3:6.1f} ms | posts {top_posts.result_string} | "
                f"comments {top_comments.result_string}"
            )
            shown_version = top_posts.version

        ops = service.stats()["metrics"]["repro_op_latency_seconds"]
        reads = ops['op="query"']
        inc_total = ops['op="apply"']["sum"]
        speedup = batch_total / max(inc_total, 1e-9)
        print(
            f"\nstream total: service apply {inc_total:.3f}s, "
            f"recomputation {batch_total:.3f}s  ({speedup:.1f}x saved)"
        )
        print(
            f"reads: {reads['count']} served, "
            f"p50 {reads['p50'] * 1e3:.4f} ms, "
            f"p99 {reads['p99'] * 1e3:.4f} ms"
        )
        final_q1 = service.query("Q1").result_string

        # -- the crash story -------------------------------------------
        print("\nkilling the service (no clean shutdown) ...")
        del service
        service = None
        t0 = time.perf_counter()
        recovered = GraphService.recover(
            data_dir, tools=("graphblas-incremental",), max_batch=64
        )
        snap, replayed = recovered._recovered_from
        print(
            f"recovered in {time.perf_counter() - t0:.3f}s from snapshot "
            f"v{snap} + {replayed} replayed batch(es) -> v{recovered.version}"
        )
        same = recovered.query("Q1").result_string == final_q1
        assert recovered.version == shown_version and same
        print(f"dashboard identical after recovery: {same}")
        recovered.close()
    finally:
        if service is not None:
            service.close()
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
