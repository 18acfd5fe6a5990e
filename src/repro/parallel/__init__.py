"""Comment-granularity parallel execution (the paper's OpenMP substitute).

The paper parallelises Q2 "using OpenMP constructs at the granularity of
comments".  CPython threads cannot speed up CPU-bound per-comment work
(GIL), so the "8 threads" configurations of Fig. 5 map to
:class:`~repro.parallel.pool.PersistentWorkerPool`: workers forked once
(where OpenMP spawns its threads) and re-primed through shared memory per
evaluation, reproducing OpenMP's cheap-region cost model.  The serial,
thread, per-region process-pool and per-region fork-join executors exist
for the ablation benchmark that documents this substitution chain
(``benchmarks/bench_ablation_parallel.py``).

The pool's length-prefixed pickle frames (:func:`~repro.parallel.pool.
send_frame` / :func:`~repro.parallel.pool.recv_frame`) are also the wire
format of the process-per-shard RPC in :mod:`repro.sharding`.
"""

from repro.parallel.executor import (
    Executor,
    ForkJoinExecutor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    chunk_evenly,
    even_bounds,
    make_executor,
)
from repro.parallel.pool import PersistentWorkerPool

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "ForkJoinExecutor",
    "PersistentWorkerPool",
    "chunk_evenly",
    "even_bounds",
    "make_executor",
]
