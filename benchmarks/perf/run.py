#!/usr/bin/env python3
"""One benchmark for the whole stack (see README.md beside this file).

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/perf/run.py [--seed N] [--seconds S] [--trace] [--smoke]
    python3 benchmarks/perf/run.py --aa SETS [--workload W] [--seconds S]

The first form is the one ``BENCHMARK.json`` names: one workload, one run,
the result object as the last line of standard output.  Without
``--workload`` every workload runs in turn.  ``--aa`` runs the same code
SETS times on SETS seeds and reports how well the runs agree.

Each workload runs in a fresh child interpreter in its own session, so a
run that goes wrong can be killed whole and ``ru_maxrss`` is that
workload's alone.  ``--trace 1`` runs two children -- the stream untraced,
then traced, each for half the seconds -- and reports the per-layer
metrics of the second and the overhead against the first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
CHILD_TIMEOUT_S = 170  # the contract allows a run 180 s

# BENCHMARK.json is the one place that names the workloads and the
# end-to-end metrics, their units and bounds
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


# ---------------------------------------------------------------------------
# the child: one workload, once
# ---------------------------------------------------------------------------


def child_main(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import pb_trace

    workdir = Path(args.workdir)
    if args.traced:
        pb_trace.install()
        pb_trace.dump_on_signal(workdir)
    import pb_workloads

    result = pb_workloads.run_workload(
        args.workload, args.seed, args.seconds, workdir,
        traced=args.traced, smoke=args.smoke,
    )
    ops = result.pop("ops")
    result.update(attempted=ops.attempted, failed=ops.failed, errors=ops.errors)
    if args.traced:
        pb_trace.dump(workdir)
        result["stages"] = pb_trace.stage_table(workdir, os.getpid())
    leaked = child_pids()
    if leaked:
        result["failed"] += 1
        result["errors"].append(f"processes outlived the workload: {leaked}")
    print(json.dumps(result))
    return 0


def child_pids() -> list[int]:
    """Live or zombie children of this process, from /proc."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                fields = Path(f"/proc/{entry}/stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == me:
                out.append(int(entry))
    return out


def run_child(workload: str, seed: int, seconds: float, *, traced: bool,
              smoke: bool) -> dict:
    """Run one workload in a fresh interpreter; returns its result dict."""
    workdir = WORK / f"{os.getpid()}-{workload}-{int(traced)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "run.py"), "--child", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--traced", str(int(traced)), "--workdir", str(workdir)]
    if smoke:
        cmd.append("--smoke")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        # whatever the child left running goes with its session
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        os.sync()  # the deletions reach the disk now, not during the next run
    if out is None:
        raise RuntimeError(f"{workload}: no result within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"{workload}: child exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# machine canary
# ---------------------------------------------------------------------------


def canary_ms() -> float:
    """A fixed numpy + pure-Python loop.  Its time moves only when the
    machine does, so a run between two differing readings is suspect."""
    import numpy as np

    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        a = np.arange(200_000, dtype=np.float64)
        for _ in range(20):
            a = np.sqrt(a * 1.0001 + 1.0)
        total = 0
        for i in range(150_000):
            total += i & 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def machine_line() -> str:
    import numpy as np

    stat = os.statvfs(HERE)
    mount, fs = "", "?"  # the longest mount point above the work directory
    for line in Path("/proc/mounts").read_text().splitlines():
        _, point, fstype = line.split()[:3]
        if HERE.is_relative_to(point) and len(point) > len(mount):
            mount, fs = point, fstype
    return (f"machine: nproc={os.cpu_count()} loadavg={os.getloadavg()[0]:.2f} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"fs={fs} free_gb={stat.f_bavail * stat.f_frsize / 1e9:.1f}")


def is_noisy(before_ms: float, after_ms: float) -> bool:
    drift = abs(after_ms - before_ms) / min(before_ms, after_ms)
    return drift > 0.10 or os.getloadavg()[0] > (os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# one measurement = one (or, traced, two) children
# ---------------------------------------------------------------------------


def per_layer_metrics(traced: dict, untraced: dict) -> dict:
    """The ``--trace 1`` metric set from a traced child's stage table."""
    stages = traced["stages"]
    calls, self_ms, aux = stages["calls"], stages["self_ms"], stages["aux"]
    out = {}
    for stage in calls:
        if stage != "harness.op":
            out[f"{stage}.calls"] = (calls[stage], "count")
            out[f"{stage}.self_ms"] = (self_ms[stage], "ms")
    rpcs = aux.get("sharding.rpcs", 0)
    per_shard = [v for k, v in aux.items() if k.startswith("sharding.changes.")]
    out["sharding.empty_scatter_share"] = (
        aux.get("sharding.rpcs_empty", 0) / rpcs if rpcs else 0.0, "ratio")
    out["sharding.skew"] = (
        max(per_shard) * len(per_shard) / sum(per_shard) if sum(per_shard) else 0.0,
        "ratio")
    out["storage.bytes"] = (traced["counts"]["storage.bytes"], "B")
    out["gateway.shed"] = (traced["counts"]["gateway.shed"], "count")
    out["gateway.queue_depth_max"] = (aux.get("gateway.queue_depth_max", 0), "count")
    out["obs.spans_drained"] = (aux.get("obs.spans_drained", 0), "count")
    out["unattributed_ms"] = (self_ms["harness.op"], "ms")
    out["blocking_path_ms"] = (stages["op_wall_ms"], "ms")
    # traced / untraced wall for the same work, from the whole measured
    # phase of each pass
    rate = lambda child: child["counts"]["measured_changes"] / child["counts"]["measured_s"]
    out["trace_overhead"] = (rate(untraced) / rate(traced) - 1.0, "ratio")
    return out


def measure(workload: str, seed: int, seconds: float, *, trace: bool,
            smoke: bool) -> dict:
    """Returns ``{"result": <the contract's result object>, "lines": [...],
    "noisy": bool}``."""
    before = canary_ms()
    if trace:
        half = seconds / 2
        untraced = run_child(workload, seed, half, traced=False, smoke=smoke)
        child = run_child(workload, seed, half, traced=True, smoke=smoke)
        metrics = per_layer_metrics(child, untraced)
        attempted = child["attempted"] + untraced["attempted"]
        failed = child["failed"] + untraced["failed"]
        errors = child["errors"] + untraced["errors"]
    else:
        child = run_child(workload, seed, seconds, traced=False, smoke=smoke)
        metrics = {k: (child["metrics"][k], unit) for k, unit in END_TO_END.items()}
        attempted, failed, errors = child["attempted"], child["failed"], child["errors"]
    after = canary_ms()
    noisy = is_noisy(before, after)

    counts = child["counts"]
    lines = [f"== {workload} seed={seed} seconds={seconds:g}"
             f"{' traced' if trace else ''}{' smoke' if smoke else ''}"]
    n_for = {"setup_s": counts["repeats"], "recover_s": counts["repeats"],
             "write_p50_ms": counts["write_samples"], "write_p95_ms": counts["write_samples"],
             "read_p50_us": counts["read_samples"], "read_p95_us": counts["read_samples"]}
    for name, (value, unit) in metrics.items():
        if trace and value == 0:
            continue  # a stage this topology does not have
        n = f"  (n={n_for[name]})" if name in n_for else ""
        lines.append(f"{name:36s} {value:14.4f} {unit}{n}")
    lines.append(f"measured {counts['measured_changes']} changes in "
                 f"{counts['measured_s']:.2f} s; attempted={attempted} failed={failed}")
    lines.extend(f"FAILED: {e}" for e in errors)
    lines.append(f"canary: before={before:.2f} ms after={after:.2f} ms"
                 f"{'  NOISY' if noisy else ''}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"result": result, "lines": lines, "noisy": noisy}


# ---------------------------------------------------------------------------
# same-code agreement
# ---------------------------------------------------------------------------


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    delta = (second - first) / first
    return delta if better == "lower" else -delta


def agreement(workloads, sets: int, seed: int, seconds: float) -> int:
    """SETS runs per workload on SETS seeds, interleaved; per workload x
    metric the median, quartiles, IQR/median and (max-min)/median against
    the bound, and the medians of the odd and even sets against each other,
    the way the driver compares two sets of runs."""
    spec = {m["name"]: m for m in SPEC["end_to_end"]}
    values: dict = {w: {m: [] for m in END_TO_END} for w in workloads}
    noisy: dict = {w: 0 for w in workloads}
    for i in range(sets):
        for w in workloads:
            m = measure(w, seed + i, seconds, trace=False, smoke=False)
            print("\n".join(m["lines"]), flush=True)
            if not m["result"]["correct"]:
                return 1
            noisy[w] += m["noisy"]
            for name in END_TO_END:
                values[w][name].append(m["result"]["metrics"][name]["value"])
    print(machine_line())
    print(f"| workload | metric | median | q1 | q3 | IQR/median | (max-min)/median "
          f"| halves | bound | |\n|---|---|---|---|---|---|---|---|---|---|")
    bad = 0
    for w in workloads:
        for name, xs in values[w].items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            halves = worse_by(statistics.median(xs[0::2]), statistics.median(xs[1::2]),
                              spec[name]["better"])
            bound = spec[name]["bound"]
            over = (name != "setup_s" and spread > bound) or abs(halves) > bound
            bad += over
            print(f"| {w} | {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.1%} "
                  f"| {(max(xs) - min(xs)) / med:.1%} | {halves:+.1%} | {bound:.0%} "
                  f"| {'OVER' if over else ''} |")
        if noisy[w]:
            print(f"{w}: {noisy[w]} of {sets} runs had a drifting canary (noisy)")
    return 1 if bad else 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="SF1 and a fraction of a second: a functional check")
    ap.add_argument("--aa", type=int, metavar="SETS",
                    help="same-code agreement over SETS seeds")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--traced", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'} is missing: nothing to measure", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if args.seconds is None:
        args.seconds = 0.3 if args.smoke else SPEC["run_seconds"]
    workloads = (args.workload,) if args.workload else WORKLOADS
    if args.aa:
        return agreement(workloads, args.aa, args.seed, args.seconds)

    results = {}
    for w in workloads:
        m = measure(w, args.seed, args.seconds, trace=bool(args.trace), smoke=args.smoke)
        print("\n".join(m["lines"]))
        results[w] = m["result"]
    print(machine_line())
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
