"""Functional check of the perf harness: every workload at SF1 for a
fraction of a second, plus one traced pass.  No timing assertions -- the
numbers of a smoke run mean nothing; what is checked is that the harness
and ``BENCHMARK.json`` name the same things, that the correctness gate
passes, and that nothing is left running."""

from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, ROOT, SPEC, child_pids


def _run(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "5", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_every_workload_reports_the_declared_end_to_end_metrics():
    before = child_pids()
    results = _run()
    assert list(results) == [w["name"] for w in SPEC["workloads"]]
    for result in results.values():
        _check_result(result, SPEC["end_to_end"])
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert child_pids() == before
    assert not any((HERE / ".work").glob("*")), "a run left its work directory"


def test_traced_pass_reports_the_declared_per_layer_metrics():
    before = child_pids()
    # the sharded topology has the most processes and threads to reconcile
    result = _run("--workload", "shards_proc", "--trace", "1")
    _check_result(result, SPEC["per_layer"])
    metrics = result["metrics"]
    for name, got in metrics.items():
        if name.endswith(".self_ms"):
            assert got["value"] >= -1e-6, f"{name} is negative: {got['value']}"
    for stage in ("sharding.rpc_apply", "sharding.worker_apply", "sharding.merge",
                  "serving.wal_append", "queries.q2_refresh", "model.apply"):
        assert metrics[f"{stage}.calls"]["value"] > 0, stage
    assert metrics["unattributed_ms"]["value"] <= metrics["blocking_path_ms"]["value"]
    assert child_pids() == before
