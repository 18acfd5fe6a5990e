#!/usr/bin/env python
"""Scenario: the algorithm layer served live against a change stream.

Earlier revisions of this example ran the ``repro.lagraph`` algorithms
once, offline, on a synthetic matrix.  The repo now serves them: a
:class:`~repro.serving.GraphService` registers the analytics tools next to
the paper's Q2, ingests a generated social-network change stream in
micro-batches, and answers every read from its versioned cache --
incremental tools (``components``, ``degree``) exact at every version,
dirty-threshold tools (``pagerank``, ``cdlp``, ``triangles``) recomputing
only when enough of the friends graph changed, serving staleness-tagged
results in between.

Run:  PYTHONPATH=src python examples/graph_analytics.py
"""

from repro.datagen import generate_benchmark_input
from repro.serving import GraphService

ANALYTICS = ("components", "degree", "pagerank", "cdlp", "triangles")


def fmt(result) -> str:
    top = ", ".join(
        f"{ext}:{score:.3f}" if isinstance(score, float) else f"{ext}:{score}"
        for ext, score in result.top
    )
    stale = f"  [stale {result.staleness} batch(es)]" if result.staleness else ""
    return f"[{top}]{stale}"


def dashboard(svc: GraphService) -> None:
    print(f"  v{svc.version:<3} "
          f"users={svc.graph.num_users} friendships={svc.graph.stats()['friendships']}")
    print(f"    Q2 influential comments  {svc.query('Q2').result_string}")
    print(f"    largest components       {fmt(svc.query('components'))}")
    print(f"    top degree               {fmt(svc.query('degree'))}")
    print(f"    top pagerank             {fmt(svc.query('pagerank'))}")
    print(f"    largest communities      {fmt(svc.query('cdlp'))}")
    print(f"    most triangles           {fmt(svc.query('triangles'))}")


def main() -> None:
    graph, change_sets = generate_benchmark_input(scale_factor=4, seed=7)
    changes = [ch for cs in change_sets for ch in cs]
    print(f"initial graph: {graph}")
    print(f"streaming {len(changes)} changes through {len(ANALYTICS)} analytics "
          f"tools + Q2...\n")

    svc = GraphService(
        graph,
        queries=("Q2",),
        tools=("graphblas-incremental",),
        analytics=ANALYTICS,
        analytics_threshold=0.01,  # dirty tools recompute at 1% graph churn
        max_batch=8,
        max_delay_ms=1e9,
    )
    try:
        report_every = max(1, len(changes) // (4 * 8)) * 8
        for i, ch in enumerate(changes):
            svc.submit(ch)
            if (i + 1) % report_every == 0:
                dashboard(svc)
        svc.flush()
        print("\nfinal state:")
        dashboard(svc)

        ops = svc.stats()["metrics"]["repro_op_latency_seconds"]
        print("\nmaintenance cost per applied batch (p50 ms):")
        for name in ANALYTICS:
            s = ops[f'op="refresh[{name}]"']
            print(f"  {name:<12} {s['p50'] * 1e3:>8.3f}  (count {s['count']})")
        apply, read = ops['op="apply"'], ops['op="query"']
        print(f"  apply p50 {apply['p50'] * 1e3:.3f} ms, "
              f"read p99 {read['p99'] * 1e3:.4f} ms")
    finally:
        svc.close()


if __name__ == "__main__":
    main()
