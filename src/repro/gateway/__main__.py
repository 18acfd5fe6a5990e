"""``python -m repro.gateway``: boot a gateway from environment knobs.

Composes the serving stack bottom-up from the same env vars the rest of
the repo uses (``REPRO_SHARDS``, ``REPRO_REPLICAS``) plus the gateway's
own ``REPRO_GATEWAY_*`` family, then serves until SIGINT/SIGTERM and
drains gracefully.  Every service serves its default engine,
``graphblas-incremental``.  This is what the CI ``tier1-gateway`` job boots.

Knobs (all optional):

========================================  =======================================
``REPRO_GATEWAY_HOST`` / ``_PORT``        bind address (default 127.0.0.1:8080)
``REPRO_GATEWAY_QUEUE_LIMIT``             ingest queue bound (default 1024)
``REPRO_GATEWAY_RATE`` / ``_BURST``       default-class token bucket
                                          (unset rate = unlimited)
``REPRO_GATEWAY_DEADLINE_MS``             default per-read deadline
``REPRO_GATEWAY_BREAKER_WINDOW``          breaker sliding window (default 16)
``REPRO_GATEWAY_BREAKER_COOLDOWN_S``      open->half-open cooldown (default 1.0)
``REPRO_SHARDS``                          >1 -> ShardedGraphService
``REPRO_SHARD_PROCS``                     1 -> one worker process per shard
                                          (sharded only; default: threads)
``REPRO_REPLICAS``                        >0 -> replicated (sharded: per shard)
``REPRO_GATEWAY_DATA_DIR``                persistence root (required for
                                          replicas; temp dir otherwise)
``REPRO_GATEWAY_MAX_BATCH``               micro-batch size (default 64)
========================================  =======================================
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import sys
import tempfile

from repro.gateway.core import Gateway
from repro.gateway.server import GatewayServer


def _env_int(name: str, default):
    raw = os.environ.get(name)
    return default if raw in (None, "") else int(raw)


def _env_float(name: str, default):
    raw = os.environ.get(name)
    return default if raw in (None, "") else float(raw)


def build_service(data_dir=None):
    """Compose the engine-owning service the env vars describe."""
    shards = _env_int("REPRO_SHARDS", 1)
    replicas = _env_int("REPRO_REPLICAS", 0)
    max_batch = _env_int("REPRO_GATEWAY_MAX_BATCH", 64)
    if shards > 1:
        from repro.sharding import ShardedGraphService

        return ShardedGraphService(
            shards=shards, replicas=replicas, max_batch=max_batch,
            data_dir=data_dir,
        )
    if replicas > 0:
        from repro.replication import ReplicatedGraphService

        if data_dir is None:
            raise SystemExit("REPRO_REPLICAS needs REPRO_GATEWAY_DATA_DIR")
        return ReplicatedGraphService(
            replicas=replicas, data_dir=data_dir, max_batch=max_batch,
        )
    from repro.serving import GraphService

    return GraphService(max_batch=max_batch, data_dir=data_dir)


def build_gateway(service) -> Gateway:
    rate = _env_float("REPRO_GATEWAY_RATE", None)
    burst = _env_float("REPRO_GATEWAY_BURST", max(rate or 1.0, 1.0))
    deadline_ms = _env_float("REPRO_GATEWAY_DEADLINE_MS", None)
    return Gateway(
        service,
        queue_limit=_env_int("REPRO_GATEWAY_QUEUE_LIMIT", 1024),
        classes={"default": (rate, burst)},
        default_deadline_s=None if deadline_ms is None else deadline_ms / 1e3,
        breaker_window=_env_int("REPRO_GATEWAY_BREAKER_WINDOW", 16),
        breaker_cooldown_s=_env_float("REPRO_GATEWAY_BREAKER_COOLDOWN_S", 1.0),
    )


async def _serve() -> int:
    data_dir = os.environ.get("REPRO_GATEWAY_DATA_DIR")
    ctx = contextlib.nullcontext(data_dir)
    if data_dir is None and _env_int("REPRO_REPLICAS", 0) > 0:
        ctx = tempfile.TemporaryDirectory(prefix="repro-gateway-")
    with ctx as resolved_dir:
        service = build_service(resolved_dir)
        gateway = build_gateway(service)
        server = GatewayServer(
            gateway,
            host=os.environ.get("REPRO_GATEWAY_HOST", "127.0.0.1"),
            port=_env_int("REPRO_GATEWAY_PORT", 8080),
        )
        await server.start()
        print(f"repro-gateway listening on {server.url}", flush=True)

        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        print("repro-gateway draining...", flush=True)
        await server.stop(drain=True)
        service.close()
    return 0


def main() -> int:
    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - second ^C mid-drain
        return 130


if __name__ == "__main__":
    sys.exit(main())
