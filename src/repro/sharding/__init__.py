"""repro.sharding -- partitioned serving with scatter-gather top-k.

The horizontal-scale layer over :mod:`repro.serving`:

* :mod:`repro.sharding.partition` -- the partition function (users hashed,
  content by root post, friendships replicated) and initial-graph split;
* :mod:`repro.sharding.merge` -- pure merge functions behind the
  mergeable-result protocol on
  :class:`~repro.queries.engine.EngineBase`;
* :mod:`repro.sharding.handle` -- the :class:`ShardHandle` protocol the
  router speaks to its shards, with in-process and process-per-shard
  backends (``backend=`` / ``REPRO_SHARD_PROCS``) and the worker-side
  serve loop in :mod:`repro.sharding.worker`;
* :mod:`repro.sharding.router` -- :class:`ShardedGraphService`, the
  router owning the write path, router WAL, versioned consistency
  barrier, scatter-gather reads, and orchestrated per-shard recovery.

The router is exported lazily (PEP 562): the engine layers import the
leaf modules above, and an eager router import here would cycle back
through :mod:`repro.serving`.
"""

from repro.sharding.handle import (
    InProcessShardHandle,
    ProcessShardHandle,
    ShardCrashed,
    default_shard_backend,
)
from repro.sharding.merge import (
    merge_partition_partials,
    merge_topk_entries,
    merge_vertex_partials,
)
from repro.sharding.partition import partition_graph, shard_of, shard_of_array

__all__ = [
    "InProcessShardHandle",
    "ProcessShardHandle",
    "ShardCrashed",
    "ShardedGraphService",
    "default_shard_backend",
    "default_shards",
    "merge_partition_partials",
    "merge_topk_entries",
    "merge_vertex_partials",
    "partition_graph",
    "shard_of",
    "shard_of_array",
]

_ROUTER_EXPORTS = ("ShardedGraphService", "default_shards")


def __getattr__(name: str):
    if name in _ROUTER_EXPORTS:
        from repro.sharding import router

        return getattr(router, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
