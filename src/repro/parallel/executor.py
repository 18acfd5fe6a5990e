"""Serial / thread / process executors with even chunking.

The API is deliberately tiny: an executor maps a picklable function over a
list of *chunks* (not items), because per-item dispatch would drown the
typical sub-millisecond comment workload in IPC overhead.  Worker processes
can be primed with a one-time ``initializer`` so large read-only state (the
Friends matrix) crosses the process boundary once instead of per task --
the standard fork-and-initialize idiom from the mpi4py/multiprocessing
guidance: ship big arrays once, then send only small task descriptors.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.util.validation import ReproError

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "ForkJoinExecutor",
    "chunk_evenly",
    "even_bounds",
    "make_executor",
]


def even_bounds(total: int, n_chunks: int) -> np.ndarray:
    """The split bounds :func:`chunk_evenly` uses: ``n_chunks + 1`` even
    int64 cut points over ``[0, total]``."""
    return np.linspace(0, total, n_chunks + 1).astype(np.int64)


def chunk_evenly(items: Sequence, n_chunks: int) -> list:
    """Split ``items`` into at most ``n_chunks`` contiguous, even chunks.

    ``np.ndarray`` and ``range`` inputs are sliced, not copied: each chunk is
    a view (or sub-range), so chunking a million-row workload costs O(chunks)
    rather than materialising every element into per-chunk Python lists.
    Other sequences keep the historical list-of-lists contract.
    """
    n = len(items)
    if n == 0:
        return []
    n_chunks = max(1, min(n_chunks, n))
    bounds = even_bounds(n, n_chunks)
    if isinstance(items, (np.ndarray, range)):
        return [items[int(bounds[i]) : int(bounds[i + 1])] for i in range(n_chunks)]
    return [list(items[bounds[i] : bounds[i + 1]]) for i in range(n_chunks)]


class Executor:
    """Maps a function over chunks; subclasses choose the execution vehicle."""

    #: logical worker count (1 for serial)
    workers: int = 1

    def map_chunks(
        self,
        fn: Callable,
        chunks: Iterable,
        *,
        initializer: Optional[Callable] = None,
        initargs: tuple = (),
    ) -> list:
        raise NotImplementedError

    def close(self) -> None:
        """Release pool resources (no-op for serial/thread)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run everything inline (the single-threaded Fig. 5 configurations)."""

    workers = 1

    def map_chunks(self, fn, chunks, *, initializer=None, initargs=()):
        if initializer is not None:
            initializer(*initargs)
        return [fn(chunk) for chunk in chunks]


class ThreadExecutor(Executor):
    """Thread pool.  Provided for the ablation study; the GIL bounds gains."""

    def __init__(self, workers: int = 8):
        if workers < 1:
            raise ReproError("workers must be >= 1")
        self.workers = workers

    def map_chunks(self, fn, chunks, *, initializer=None, initargs=()):
        if initializer is not None:
            initializer(*initargs)
        chunks = list(chunks)
        if not chunks:
            return []
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            return list(pool.map(fn, chunks))


class ProcessExecutor(Executor):
    """Process pool: real parallelism for the "8 threads" configurations.

    A fresh fork-context pool is spawned *per call*: on Linux ``fork``
    inherits the initializer arguments copy-on-write, so arbitrarily large
    read-only state (the Friends/Likes matrices) ships to all workers for
    free, while the pipes only carry small chunk descriptors and results.

    The price is a fixed spawn/teardown cost (~25 ms per worker on this
    class of machine).  That cost is intrinsic to per-evaluation parallel
    regions and is exactly the "parallelization overhead" the paper reports:
    it only amortises for the costly batch recomputations on large graphs,
    not for small incremental updates (callers fall back to
    :class:`SerialExecutor` below :data:`MIN_PARALLEL_ITEMS` work items).
    """

    #: below this many work items a parallel region cannot amortise the
    #: pool spawn cost; callers should run serially.
    MIN_PARALLEL_ITEMS = 1024

    def __init__(self, workers: int = 8):
        if workers < 1:
            raise ReproError("workers must be >= 1")
        self.workers = workers
        self._ctx = None

    def _context(self):
        if self._ctx is None:
            import multiprocessing as mp

            try:
                self._ctx = mp.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                self._ctx = mp.get_context()
        return self._ctx

    def map_chunks(self, fn, chunks, *, initializer=None, initargs=()):
        chunks = list(chunks)
        if not chunks:
            return []
        ctx = self._context()
        n = min(self.workers, os.cpu_count() or 1, len(chunks))
        with ctx.Pool(n, initializer=initializer, initargs=initargs) as pool:
            return pool.map(fn, chunks)

    def close(self) -> None:
        self._ctx = None


class ForkJoinExecutor(Executor):
    """Direct ``os.fork`` fan-out: the closest POSIX analogue of OpenMP.

    OpenMP parallel regions reuse long-lived threads that *share* the
    parent's memory, so entering a region costs microseconds.  Python's
    GIL rules threads out, and :class:`ProcessExecutor`'s pool pays
    ~250 ms of ``multiprocessing`` machinery per region -- enough to erase
    the paper's parallel-batch win at benchmark scale.  This executor forks
    the workers directly: each child inherits all parent state (the primed
    Friends/Likes CSR arrays) copy-on-write for free, computes its share of
    chunks, streams one pickle back over a pipe, and exits.  Entering a
    region costs one fork per worker (~5-10 ms total), restoring the
    OpenMP-like cost model the paper's "8 threads" configuration assumes.

    Children are joined by draining each pipe to EOF *before* ``waitpid``
    (draining last could deadlock on the 64 KiB pipe buffer).  A non-zero
    child exit or an unpicklable result raises in the parent.

    POSIX-only by construction; :func:`make_executor` falls back to
    :class:`ProcessExecutor` where ``os.fork`` is unavailable.
    """

    MIN_PARALLEL_ITEMS = 256

    def __init__(self, workers: int = 8):
        if workers < 1:
            raise ReproError("workers must be >= 1")
        self.workers = workers

    def map_chunks(self, fn, chunks, *, initializer=None, initargs=()):
        import pickle

        chunks = list(chunks)
        if not chunks:
            return []
        # prime in the parent: children inherit the state via fork COW
        if initializer is not None:
            initializer(*initargs)
        n = min(self.workers, os.cpu_count() or 1, len(chunks))
        if n == 1:
            # serial fallback: fail exactly like a forked worker would, so
            # callers see one exception type regardless of the path taken
            try:
                return [fn(chunk) for chunk in chunks]
            except Exception:
                import traceback

                raise ReproError(
                    "fork-join worker died (serial fallback):\n"
                    + traceback.format_exc()
                ) from None
        # round-robin assignment mirrors the strided chunking upstream
        assignments = [list(range(w, len(chunks), n)) for w in range(n)]

        children: list[tuple[int, int, list[int]]] = []  # (pid, read_fd, idxs)
        for idxs in assignments:
            r_fd, w_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # child
                os.close(r_fd)
                status = 1
                try:
                    payload = pickle.dumps([fn(chunks[i]) for i in idxs], protocol=5)
                    with os.fdopen(w_fd, "wb") as w:
                        w.write(payload)
                    status = 0
                except BaseException:  # pragma: no cover - child-side
                    try:
                        os.close(w_fd)
                    except OSError:
                        pass
                finally:
                    os._exit(status)
            os.close(w_fd)
            children.append((pid, r_fd, idxs))

        results: list = [None] * len(chunks)
        failed: list[int] = []
        for pid, r_fd, idxs in children:
            with os.fdopen(r_fd, "rb") as r:
                payload = r.read()  # drain to EOF before waitpid
            _, status = os.waitpid(pid, 0)
            if status != 0 or not payload:
                failed.append(pid)
                continue
            for i, value in zip(idxs, pickle.loads(payload)):
                results[i] = value
        if failed:
            raise ReproError(f"fork-join worker(s) {failed} died; see stderr")
        return results


def make_executor(kind: str, workers: int = 8) -> Executor:
    """Factory: ``serial`` | ``thread`` | ``process`` | ``forkjoin`` |
    ``persistent`` (fork-once pool with shared-memory priming -- the
    closest OpenMP analogue, used by the Fig. 5 "8 threads" variants)."""
    if kind == "serial":
        return SerialExecutor()
    if kind == "thread":
        return ThreadExecutor(workers)
    if kind == "process":
        return ProcessExecutor(workers)
    if kind == "forkjoin":
        if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
            return ProcessExecutor(workers)
        return ForkJoinExecutor(workers)
    if kind == "persistent":
        if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
            return ProcessExecutor(workers)
        from repro.parallel.pool import PersistentWorkerPool

        return PersistentWorkerPool(workers)
    raise ReproError(f"unknown executor kind {kind!r}")
