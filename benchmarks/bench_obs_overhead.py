"""Observability overhead benchmark: telemetry must be free when off.

The obs layer's contract is *disabled-by-default cheap*: with no tracer
installed every ``span_if`` resolves to a shared null span after one slot
read.  This bench prices that contract on the steady-state serving
workload from ``bench_serving`` (single-change micro-batches, interleaved
reads, ``graphblas-incremental`` engines) in two configurations:

* ``off``   -- no tracer: the default production path.  Its
  updates/sec (best of three rounds) is compared against a *pre-obs
  baseline*: the same workload run by the code as it was before the
  instrumentation existed.  Pass ``--pre-src PATH`` (a pristine checkout,
  e.g. ``git worktree add /tmp/pre <pre-obs-ref>``) to measure that
  baseline on the same machine in a subprocess -- the only comparison
  that isolates instrumentation cost from machine drift.  Without it the
  committed ``benchmarks/BENCH_serving.json`` ``post.updates_per_s`` is
  used, and the delta then folds in whatever the machine has drifted
  since that record was committed.
* ``trace`` -- a live :class:`repro.obs.Tracer` collecting every span.

Script mode (CI)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke \
        [--trace-out trace.json] [--prom-out metrics.prom]

writes ``BENCH_obs.json`` (or ``BENCH_obs.current.json`` when run from
inside ``benchmarks/``), optionally dumping the ``trace`` round's Chrome
trace and the Prometheus exposition as CI artifacts.  Exit status
reflects correctness only -- overhead numbers are recorded, not gated,
so CI cannot flake on machine speed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_serving import (  # noqa: E402
    STEADY_MAX_BATCH,
    STEADY_READ_EVERY,
    STEADY_SCALE,
    _drive,
)

from repro.datagen import generate_benchmark_input  # noqa: E402
from repro.obs import Tracer, set_tracer  # noqa: E402
from repro.queries import Q1Batch, Q2Batch  # noqa: E402
from repro.serving import GraphService  # noqa: E402

_BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_serving.json"
_RECORD_PATH = Path(__file__).resolve().parent / "BENCH_obs.json"


def run_round(scale: int, *, tracer=None) -> dict:
    """One steady-state stream under the given telemetry configuration."""
    set_tracer(tracer)
    try:
        graph, change_sets = generate_benchmark_input(scale, seed=42)
        changes = [ch for cs in change_sets for ch in cs]
        service = GraphService(
            graph,
            tools=("graphblas-incremental",),
            max_batch=STEADY_MAX_BATCH,
            max_delay_ms=1e9,
            q2_algorithm="unionfind",
        )
        _drive(service, changes, read_every=STEADY_READ_EVERY)
        stats = service.stats()
        ops = stats["ops"]
        q1, q2 = service.query("Q1"), service.query("Q2")
        ok = (
            q1.result_string == Q1Batch(service.graph).result_string()
            and q2.result_string
            == Q2Batch(service.graph, algorithm="unionfind").result_string()
        )
        out = {
            "changes": len(changes),
            "updates_per_s": round(len(changes) / ops["apply"]["total_s"], 1),
            "apply_p50_ms": ops["apply"]["p50_ms"],
            "apply_p99_ms": ops["apply"]["p99_ms"],
            "read_p99_ms": ops["query"]["p99_ms"],
            "ok": ok,
        }
        if tracer is not None:
            out["spans"] = len(tracer.finished())
        out["_service"] = service
        return out
    finally:
        set_tracer(None)


def _subprocess_steady(root: Path, scale: int) -> dict:
    """One warmed steady-state round against `root`'s checkout in a fresh
    interpreter (two module trees cannot share one process, and a fresh
    process per round gives both sides of the A/B identical conditions)."""
    snippet = (
        "import sys, json\n"
        f"sys.path.insert(0, {str(root / 'benchmarks')!r})\n"
        "from bench_serving import run_steady_state\n"
        f"run_steady_state(max(2, {scale} // 8))  # warm the process\n"
        f"r = run_steady_state({scale})\n"
        "print(json.dumps({k: r[k] for k in"
        " ('updates_per_s', 'apply_p50_ms', 'ok')}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, "-c", snippet],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def same_machine_ab(pre_root: Path, scale: int, rounds: int) -> dict:
    """Interleaved A/B: pre-obs checkout vs this checkout (telemetry off),
    one fresh subprocess per round, best-of-``rounds`` per side.
    Interleaving means adjacent rounds see the same machine load, so the
    delta prices the instrumentation rather than scheduler weather."""
    here = Path(__file__).resolve().parents[1]
    pre_runs, off_runs = [], []
    for i in range(rounds):
        pre_runs.append(_subprocess_steady(pre_root, scale))
        off_runs.append(_subprocess_steady(here, scale))
        print(f"  A/B round {i + 1}/{rounds}: "
              f"pre {pre_runs[-1]['updates_per_s']:.0f} upd/s, "
              f"off {off_runs[-1]['updates_per_s']:.0f} upd/s")
    best_pre = max(r["updates_per_s"] for r in pre_runs)
    best_off = max(r["updates_per_s"] for r in off_runs)
    return {
        "pre_obs_updates_per_s": best_pre,
        "obs_off_updates_per_s": best_off,
        "off_vs_pre_pct": _pct(best_off, best_pre),
        "ok": all(r["ok"] for r in pre_runs + off_runs),
        "pre_runs": [r["updates_per_s"] for r in pre_runs],
        "off_runs": [r["updates_per_s"] for r in off_runs],
    }


def _pct(new: float, ref: float) -> float:
    """Overhead of `new` relative to `ref` throughput, in percent.

    Positive = `new` is slower (lower updates/sec) than `ref`.
    """
    return round((ref / new - 1.0) * 100.0, 2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--smoke", action="store_true", help="fixed CI workload")
    ap.add_argument("--scale", type=int, default=STEADY_SCALE)
    ap.add_argument("--trace-out", type=Path, default=None,
                    help="dump the trace round's Chrome trace JSON here")
    ap.add_argument("--prom-out", type=Path, default=None,
                    help="dump the trace round's Prometheus exposition here")
    ap.add_argument("--pre-src", type=Path, default=None,
                    help="pristine pre-obs checkout root; enables the "
                         "same-machine baseline subprocess")
    ap.add_argument("--rounds", type=int, default=3,
                    help="best-of-N rounds for the off/baseline configs")
    args = ap.parse_args(argv)
    scale = STEADY_SCALE if args.smoke else args.scale

    # warm the process (imports, numpy, datagen caches) so the measured
    # rounds run under the same conditions as the committed baseline,
    # which was recorded after bench_serving's smoke phase
    warm = run_round(max(2, scale // 8))
    warm["_service"].close()

    failures = 0
    rounds = {}
    print(f"obs overhead bench: steady-state sf{scale}, "
          f"micro-batch={STEADY_MAX_BATCH}")
    print(f"{'config':<8} {'upd/s':>8} {'apply p50':>10} {'read p99':>9}"
          f"  result")
    for name, kwargs in (
        ("off", {}),
        ("trace", {"tracer": Tracer()}),
    ):
        # the off config is the <2% claim: take the best of N rounds so a
        # scheduler hiccup can't masquerade as instrumentation cost
        n = args.rounds if name == "off" else 1
        best = None
        for _ in range(n):
            if kwargs.get("tracer") is not None:
                kwargs["tracer"].clear()
            r = run_round(scale, **kwargs)
            if best is None or r["updates_per_s"] > best["updates_per_s"]:
                if best is not None:
                    best.pop("_service").close()
                best = r
            else:
                r.pop("_service").close()
        r = best
        service = r.pop("_service")
        if name == "trace":
            if args.trace_out:
                kwargs["tracer"].dump(args.trace_out)
                print(f"  trace -> {args.trace_out}")
            if args.prom_out:
                args.prom_out.write_text(service.metrics_text())
                print(f"  prometheus -> {args.prom_out}")
        service.close()
        rounds[name] = r
        print(f"{name:<8} {r['updates_per_s']:>8.0f} "
              f"{r['apply_p50_ms']:>9.3f}m {r['read_p99_ms']:>8.4f}m  "
              f"{'OK' if r['ok'] else 'MISMATCH'}")
        if not r["ok"]:
            failures += 1

    committed = (
        json.loads(_BASELINE_PATH.read_text()) if _BASELINE_PATH.exists() else {}
    )
    committed_upds = (committed.get("post") or {}).get("updates_per_s")
    same_machine = None
    if args.pre_src:
        print(f"\ninterleaved A/B vs pre-obs checkout {args.pre_src} "
              f"(best of {args.rounds} fresh subprocesses per side) ...")
        same_machine = same_machine_ab(args.pre_src, scale, args.rounds)
        if not same_machine["ok"]:
            failures += 1
    baseline = (same_machine or {}).get("pre_obs_updates_per_s") or committed_upds
    baseline_src = "same-machine pre-obs run" if same_machine else (
        "committed BENCH_serving.json post"
    )
    record = {
        "workload": {
            "description": (
                "bench_serving steady-state stream under two telemetry "
                "configurations, compared against the pre-obs code running "
                "the same workload"
            ),
            "scale": scale,
            "max_batch": STEADY_MAX_BATCH,
            "read_every": STEADY_READ_EVERY,
            "seed": 42,
            "best_of_rounds": args.rounds,
        },
        "baseline_updates_per_s": baseline,
        "baseline_source": baseline_src,
        "baseline_same_machine": same_machine,
        "committed_serving_post_updates_per_s": committed_upds,
        "rounds": rounds,
        "overhead_pct": {
            "off_vs_baseline": (
                same_machine["off_vs_pre_pct"] if same_machine
                else _pct(rounds["off"]["updates_per_s"], baseline)
                if baseline else None
            ),
            "trace_vs_off": _pct(
                rounds["trace"]["updates_per_s"], rounds["off"]["updates_per_s"]
            ),
        },
        "note": (
            "positive pct = slower than reference; off_vs_baseline is the "
            "cost of the dormant instrumentation (target <2%; negative = "
            "measured faster than the baseline, i.e. within machine "
            "noise); trace_vs_off prices a live tracer keeping every span; "
            "without --pre-src the baseline is the committed record and "
            "the delta folds in machine drift since it was committed"
        ),
    }
    off_pct = record["overhead_pct"]["off_vs_baseline"]
    if off_pct is not None:
        print(f"\ntelemetry-off vs {baseline_src} "
              f"({baseline:.0f} upd/s): {off_pct:+.2f}%")
    print(f"tracing-on vs off: "
          f"{record['overhead_pct']['trace_vs_off']:+.2f}% "
          f"({rounds['trace']['spans']} spans)")

    out_path = Path("BENCH_obs.json")
    if out_path.resolve() == _RECORD_PATH:
        out_path = Path("BENCH_obs.current.json")
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out_path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
