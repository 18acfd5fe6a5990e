"""Pluggable arena storage for :class:`~repro.graphblas.dynamic.DynamicMatrix`.

The dynamic format keeps every relation in a handful of flat arrays (the
``cols``/``vals`` arena plus the ``start``/``len``/``cap`` row tables).
This package is the seam that decides *where those arrays live*:

``heap`` (:class:`~repro.storage.heap.HeapArena`, default)
    Plain in-process ndarrays -- exactly the storage the dynamic format
    shipped with, bit-identical allocation sizes and all.  Not durable:
    snapshots serialize through the CSV graph dialect as before.

``mmap`` (:class:`~repro.storage.mmapfile.MmapArena`)
    Each array is a ``numpy.memmap`` over a file in the store's
    directory, so arenas page in and out under OS control -- graphs
    larger than RAM work, and a snapshot is *flush + copy the files*
    instead of re-serializing the graph (see
    :meth:`~repro.serving.persistence.SnapshotStore.save`).

``sqlite`` (:class:`~repro.storage.sqlite.SqliteArena`)
    A slow-but-safe durable oracle: arrays live on the heap, but
    ``flush()`` commits them bit-exactly into an SQLite database as
    blobs *plus* a relational ``entries(row, col, val)`` mirror that
    external SQL can query.  Property tests cross-check the fast
    backends against it.

All three present the same :class:`ArenaStorage` surface; the
conformance suite (``tests/storage/``) drives identical mutation streams
-- removals included -- through each and asserts bit-identical
``to_coo`` output.  Backend selection threads through
``SocialGraph(storage=...)`` and ``GraphService(storage=...)``, with the
``REPRO_STORAGE`` environment variable steering every
default-constructed graph (how the ``tier1-mmap`` CI job runs whole
suites out-of-core); an unknown name, passed or from the environment,
raises :class:`~repro.util.validation.ReproError`.

>>> from repro.storage import make_store, resolve_storage
>>> resolve_storage("mmap")
'mmap'
>>> store = make_store("heap")
>>> arr = store.new("cols", 4, "int64")
>>> arr[0] = 7
>>> int(store.resize("cols", arr, 8, keep=4)[0])
7
>>> store.persistent
False
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

import numpy as np

from repro.faults import register_crash_point
from repro.util.validation import ReproError

__all__ = [
    "ArenaStorage",
    "BACKENDS",
    "CRASH_ARENA_FLUSH",
    "make_store",
    "resolve_storage",
]

#: fired by the file-backed backends inside ``flush()``, after the store
#: decided to persist but before any bytes are durable -- the
#: crash-during-flush moment the storage recovery suite kills at
CRASH_ARENA_FLUSH = register_crash_point(
    "arena-flush",
    "ArenaStorage.flush (mmap/sqlite), before arena bytes reach durable "
    "storage",
)


class ArenaStorage:
    """The protocol a DynamicMatrix array home implements.

    A store owns a *named set of 1-D arrays* (one namespace per
    DynamicMatrix) plus a JSON-able metadata blob.  The matrix keeps the
    returned ndarrays as plain attributes -- the hot mutation path never
    calls through the store -- and comes back only to grow/shrink
    (:meth:`resize`), persist (:meth:`flush`), or account
    (:meth:`nbytes`).

    Durability contract: after ``put_meta`` + ``flush``, a store with
    :attr:`persistent` true can be reopened (or :meth:`snapshot_to`-ed
    and later :meth:`adopt_from`-ed) and every array restored bit-exactly
    to its flushed prefix via :meth:`open_array` and :meth:`get_meta`.
    The heap backend is the degenerate case: ``persistent`` is false and
    flush is a no-op.
    """

    #: short name ("heap"/"mmap"/"sqlite"), used in metrics labels
    backend: str = "?"
    #: whether flush()ed state survives this process
    persistent: bool = False

    def new(self, name: str, size: int, dtype, fill=0) -> np.ndarray:
        """Allocate the array ``name`` with ``size`` elements of ``fill``."""
        raise NotImplementedError

    def resize(self, name: str, arr: np.ndarray, size: int, keep: int,
               fill=0) -> np.ndarray:
        """Return ``name`` re-sized to ``size`` elements.

        The first ``keep`` elements of ``arr`` are preserved; everything
        past them reads as ``fill``.  ``size < arr.size`` shrinks (the
        compaction path).  The returned array replaces ``arr`` -- the old
        reference must not be written through afterwards.
        """
        raise NotImplementedError

    def put_meta(self, meta: dict) -> None:
        """Stage the JSON-able metadata blob persisted by the next flush."""
        raise NotImplementedError

    def get_meta(self) -> Optional[dict]:
        """The last *flushed* metadata blob, or None if never flushed."""
        raise NotImplementedError

    def open_array(self, name: str, dtype) -> np.ndarray:
        """Re-open a flushed array (persistent backends only)."""
        raise NotImplementedError

    def flush(self) -> None:
        """Make every array + staged meta durable (no-op on heap)."""
        raise NotImplementedError

    def nbytes(self) -> int:
        """Resident/allocated bytes this store accounts for."""
        raise NotImplementedError

    def snapshot_to(self, dest) -> None:
        """Copy the flushed durable form into directory ``dest``.

        Call :meth:`flush` first; the copy is of durable bytes, never of
        live maps (hardlinking a live arena file would alias the pages --
        a later in-place write would corrupt the published snapshot).
        """
        raise NotImplementedError

    def adopt_from(self, src) -> None:
        """Replace this store's durable state with a snapshot directory.

        After adoption, :meth:`get_meta`/:meth:`open_array` read the
        adopted state.  Any previously returned array is invalidated.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release file handles / connections (idempotent)."""


#: backend name -> needs a directory?
BACKENDS = {"heap": False, "mmap": True, "sqlite": True}


def resolve_storage(storage: Optional[str] = None) -> str:
    """Resolve a user-facing ``storage=`` spec to an arena backend name.

    ``"heap"``/``"mmap"``/``"sqlite"`` pin the backend explicitly;
    ``None`` defers to the ``REPRO_STORAGE`` environment variable
    (default ``heap``), so one env knob flips every default-constructed
    graph in the process.  Any other value -- passed or from the
    environment -- raises instead of silently falling back.
    """
    source = "storage"
    if storage is None:
        source = "REPRO_STORAGE"
        storage = os.environ.get(source, "").strip().lower() or "heap"
    if storage not in BACKENDS:
        raise ReproError(
            f"unknown {source} {storage!r}; expected one of {sorted(BACKENDS)}"
        )
    return storage


def make_store(backend: str, *, directory=None, name: str = "arena") -> ArenaStorage:
    """Construct an :class:`ArenaStorage` for ``backend``.

    File-backed backends place their arrays under
    ``directory / name`` (``name`` namespaces the relations of one
    graph); the heap backend ignores both.
    """
    if backend == "heap":
        from repro.storage.heap import HeapArena

        return HeapArena()
    if backend not in BACKENDS:
        raise ReproError(
            f"unknown storage backend {backend!r}; expected one of "
            f"{sorted(BACKENDS)}"
        )
    if directory is None:
        raise ReproError(f"storage backend {backend!r} needs a directory")
    home = Path(directory) / name
    if backend == "mmap":
        from repro.storage.mmapfile import MmapArena

        return MmapArena(home)
    from repro.storage.sqlite import SqliteArena

    return SqliteArena(home.with_suffix(".db"))
