"""polyterm benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload check --seed 1 --seconds 20 --trace 0

Workloads (why each exists is in BENCHMARK.json and bench/METRICS.md):

* ``check``       -- every shipped certificate through ``polyterm check``;
* ``incremental`` -- the criterion-5 R1/Q rule-removal search;
* ``exhaust``     -- criterion-6 exhaustion runs plus a budget probe;
* ``direct-r``    -- first-found search and exhaustion over Q(sqrt 2).

Each workload runs in fresh Python processes (``bench/worker.py``) that
import polyterm from this checkout's ``src/``.  The seed fixes the inputs:
the order of the jobs in every pass.  The processes run under
``PYTHONHASHSEED=0``, because the search plan depends on the hash seed (a
known defect, see bench/METRICS.md); ``--trace 1`` measures that dependence
as ``prover.nodes.hashseed_spread`` instead of letting it move the timings.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced pass (spans go to ``.bench_out/``).  Every outcome is
checked against ``bench/expected.json``.  The last stdout line is the JSON
result; any failure to run exits non-zero without printing one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("check", "incremental", "exhaust", "direct-r")
SETUP_LAUNCHES = 10  # set-up-only processes, besides the measuring one
TIME_LIMIT_S = 170  # the whole run, all processes included
TIMED_HASH_SEED = 0
OTHER_HASH_SEEDS = (1, 2)  # traced runs also count nodes under these


class BenchError(Exception):
    pass


def launch(workload, seed, mode, seconds=0.0, hash_seed=TIMED_HASH_SEED, trace_out=None):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    cmd = [sys.executable, "-S", "-s", str(WORKER), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    return subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def collect(proc, deadline):
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload process ran past the time limit") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process failed (exit {proc.returncode}):\n{err[-2000:]}")
    return json.loads(lines[-1])


def run_all(procs, deadline):
    """Collect every process; on failure kill and reap the rest first."""
    try:
        return [collect(p, deadline) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()


def metric(value, unit):
    return {"value": value, "unit": unit}


def tail_percentile(samples):
    """Highest of p99/p95/p90 with at least ten samples beyond it, or None."""
    n = len(samples)
    for p in (99, 95, 90):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def end_to_end(workload, seed, seconds, deadline):
    setups = []
    for _ in range(SETUP_LAUNCHES):
        setups.append(run_all([launch(workload, seed, "setup")], deadline)[0]["setup_s"])
    res = run_all([launch(workload, seed, "measure", seconds)], deadline)[0]
    setups.append(res["setup_s"])
    walls = [p["wall_s"] for p in res["passes"]]
    lat = res["latencies_s"]
    notes = [f"passes {len(walls)}, operations {res['attempted']}, "
             f"fail_ratio {res['failed']}/{res['attempted']}"]
    tail = tail_percentile(lat)
    if tail:
        notes.append(f"latency p{tail[0]} {tail[1] * 1000:.3f} ms over {len(lat)} samples")
    if res["overshoot_s"]:
        notes.append(f"budget_overshoot_s {statistics.median(res['overshoot_s']):.3f}")
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "cpu_s": metric(statistics.median(p["cpu_s"] for p in res["passes"]), "s"),
        "ops_per_s": metric(res["attempted"] / len(walls) / statistics.median(walls), "1/s"),
        "latency_p50_ms": metric(statistics.median(lat) * 1000, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    return res["attempted"], res["failed"], res["failed_labels"], metrics, notes


def per_layer(workload, seed, deadline):
    out_file = ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.json"
    traced = run_all([launch(workload, seed, "trace", trace_out=out_file)], deadline)[0]
    plain = run_all([launch(workload, seed, "measure")], deadline)[0]
    others = run_all([launch(workload, seed, "measure", hash_seed=h)
                      for h in OTHER_HASH_SEEDS], deadline)
    runs = [traced, plain] + others
    nodes = {h: r["passes"][0]["nodes"]
             for h, r in zip((TIMED_HASH_SEED,) + OTHER_HASH_SEEDS, [plain] + others)}
    traced_nodes = traced["passes"][0]["nodes"]
    metrics = dict(traced["layers"])
    metrics["prover.nodes"] = metric(traced_nodes, "count")
    metrics["prover.nodes.hashseed_spread"] = metric(
        max(nodes.values()) - min(nodes.values()), "count")
    metrics["prover.budget_overshoot_s"] = metric(
        statistics.median(plain["overshoot_s"]) if plain["overshoot_s"] else 0.0, "s")
    metrics["trace.overhead_ratio"] = metric(
        traced["passes"][0]["wall_s"] / plain["passes"][0]["wall_s"], "ratio")
    failed = sum(r["failed"] for r in runs)
    labels = sorted({label for r in runs for label in r["failed_labels"]})
    notes = [f"prover.nodes by PYTHONHASHSEED: "
             + ", ".join(f"{h}: {n}" for h, n in sorted(nodes.items())),
             f"spans written to {out_file.relative_to(ROOT)}"]
    notes += [f"trace.missing {m}: {why}" for m, why in traced["missing"]]
    if traced_nodes != nodes[TIMED_HASH_SEED]:
        # tracing must not change what the program does
        notes.append(f"traced nodes {traced_nodes} != untraced {nodes[TIMED_HASH_SEED]}")
        failed += 1
    return sum(r["attempted"] for r in runs), failed, labels, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "polyterm" / "__init__.py").is_file():
        print(f"error: no polyterm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            attempted, failed, labels, metrics, notes = per_layer(
                args.workload, args.seed, deadline)
        else:
            attempted, failed, labels, metrics, notes = end_to_end(
                args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed} "
          f"PYTHONHASHSEED {TIMED_HASH_SEED} trace {args.trace}")
    for line in notes:
        print(line)
    if labels:
        print("outcome mismatches: " + ", ".join(labels))
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
