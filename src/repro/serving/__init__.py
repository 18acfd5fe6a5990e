"""repro.serving -- the streaming query-serving subsystem.

Turns the paper's engines into a long-running service: one shared
:class:`~repro.model.graph.SocialGraph`, a registry of query *and
analytics* engines (:mod:`repro.analytics`), micro-batched ingest,
versioned O(1) cached reads with staleness tags, per-operation latency
accounting (in the :mod:`repro.obs.metrics` registry), and snapshot +
write-ahead-change-log persistence with crash recovery.  See
:mod:`repro.serving.service` for the consistency and durability model and
``DESIGN.md`` for where this layer sits.
"""

from repro.serving.cache import CachedResult, ResultCache
from repro.serving.ingest import MicroBatcher
from repro.serving.persistence import ChangeLog, SnapshotStore
from repro.serving.service import GraphService

__all__ = [
    "GraphService",
    "CachedResult",
    "ResultCache",
    "MicroBatcher",
    "ChangeLog",
    "SnapshotStore",
]
