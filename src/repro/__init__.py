"""repro -- an incremental GraphBLAS solution for the TTC 2018 Social Media case study.

A complete, pure-Python reproduction of Elekes & Szárnyas (2020) -- the
GraphBLAS substrate, the LAGraph algorithm layer, the case-study data
model and generators, the paper's batch and incremental query algorithms,
the NMF reference baseline, and the benchmark framework regenerating the
paper's Fig. 5 and Table II -- grown, per ``ROADMAP.md``, into a serving
system: streaming ingest with crash recovery, rebuild-free dynamic
storage, online graph analytics, and hash-partitioned sharded serving
with exact scatter-gather top-k.

Layer map (see DESIGN.md for the full inventory):

=====================  =====================================================
``repro.graphblas``    sparse linear algebra over semirings (GrB_* API)
                       and DynamicMatrix updatable storage
``repro.lagraph``      FastSV CC, BFS, PageRank, triangles, SSSP, CDLP,
                       k-core, k-truss, LCC, betweenness, SCC, incremental
                       CC, plus ``online``: uniform servable entry points
                       with on_delta incremental maintainers
``repro.model``        SocialGraph (dynamic arenas + dirty-row freeze),
                       ChangeSets incl. removals, CSV + EMF/XMI IO
``repro.queries``      Q1/Q2 batch + incremental (the paper's contribution)
                       and the EngineBase serving protocol
``repro.nmf``          reference baseline: object-graph traversal (batch)
                       and a dynamic dependency graph engine (incremental)
``repro.datagen``      LDBC-style synthetic graphs (Table II targets)
``repro.parallel``     executors for the Fig. 5 "8 thr" lines: a fork-once
                       pool + /dev/shm; its frame format is the shard RPC
``repro.benchmark``    TTC phase harness, Fig. 5 / Table II / contest logs
``repro.analytics``    the lagraph algorithms as servable, incrementally
                       maintained analytics engines (policy-driven: exact
                       incremental or dirty-threshold recompute)
``repro.serving``      GraphService: micro-batched streaming ingest of
                       query + analytics engines, O(1) cached reads,
                       snapshot + change-log crash recovery
``repro.sharding``     ShardedGraphService: K hash-partitioned shards
                       behind a router (``REPRO_SHARDS``) -- router WAL,
                       versioned consistency barrier, exact scatter-gather
                       merge of per-shard partials, orchestrated recovery
``repro.replication``  ReplicatedGraphService: leader + WAL-shipping read
                       replicas (``REPRO_REPLICAS``) -- bounded-staleness
                       replica reads, epoch-fenced ``promote()`` failover
``repro.faults``       deterministic fault injection: named crash points,
                       explicit FaultPlan schedules (no RNG)
=====================  =====================================================

Quick start (see README.md)::

    from repro import GraphService
    from repro.model.changes import AddFriendship, AddUser

    svc = GraphService(analytics=("components", "pagerank"))
    svc.submit([AddUser(1), AddUser(2), AddFriendship(1, 2)])
    svc.flush()
    print(svc.query("Q1").result_string, svc.query("components").top)
    svc.close()
"""

from repro.analytics import ANALYTICS_NAMES, AnalyticsEngine, make_analytics_engine
from repro.model import ChangeSet, SocialGraph
from repro.queries import (
    Q1Batch,
    Q1Incremental,
    Q2Batch,
    Q2Incremental,
    QueryEngine,
    make_engine,
)
from repro.replication import ReplicatedGraphService
from repro.serving import GraphService
from repro.sharding import ShardedGraphService

__version__ = "1.4.0"

__all__ = [
    "SocialGraph",
    "ChangeSet",
    "Q1Batch",
    "Q1Incremental",
    "Q2Batch",
    "Q2Incremental",
    "QueryEngine",
    "make_engine",
    "AnalyticsEngine",
    "make_analytics_engine",
    "ANALYTICS_NAMES",
    "GraphService",
    "ReplicatedGraphService",
    "ShardedGraphService",
    "__version__",
]
