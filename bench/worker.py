"""One workload process: set up, run passes, check outcomes, report JSON.

Started by ``run.py`` as a fresh interpreter per run.  It imports polyterm
from the checkout's ``src/``, builds the workload's jobs from the seed and
runs them as one closed loop (one client, no threads): each operation starts
after the previous one returned.  A pass runs every job once, in an order
shuffled by the seed.

Modes:

* ``setup``   -- stop once ``import polyterm`` and the inputs are loaded, and
  report the CPU time spent so far;
* ``measure`` -- untraced passes while another pass still fits in
  ``--seconds`` (at least one), then the correctness checks, which are
  outside the timed region;
* ``trace``   -- one pass with the tracer installed before the inputs load.

The last stdout line is a JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected.json"


class Job:
    """One operation.

    ``run`` returns (outcome text, prover nodes, kernel re-check or None);
    the re-check is a callable that must return True.  ``budget`` is set on
    budget probes, whose overshoot is reported.
    """

    def __init__(self, label, run, budget=None):
        self.label = label
        self.run = run
        self.budget = budget


def check_jobs():
    """Every shipped certificate through ``polyterm check``, in process."""
    from polyterm.cli import run_cli
    from polyterm.corpus import load_corpus

    data = ROOT / "src" / "polyterm" / "data"
    jobs = []
    for entry in load_corpus():
        for cc in entry.certificates:
            argv = ["check", "--trs", str(data / entry.trs_file),
                    "--cert", str(data / (cc.name + ".cert"))]

            def run(argv=argv):
                report = run_cli(argv)
                failing = [line.strip() for line in report.text.splitlines()
                           if line.split()[-1] in ("disproved", "unknown")]
                return "\n".join([f"exit {report.exit_code}"] + failing), 0, None

            jobs.append(Job(cc.name, run))
    return jobs


def incremental_jobs():
    """The criterion-5 R1/Q rule-removal search."""
    from polyterm import SearchConfig, check_incremental, load_trs, search_incremental
    from polyterm.interp import Certificate, format_certificate

    r1 = load_trs("r1.trs")
    cfg = SearchConfig(max_degree=2, max_coeff=5, denominators=(1, 2),
                       deltas=(Fraction(1),))

    def run():
        res = search_incremental(r1, "Q", cfg)
        if not res.found:
            return f"{res.status}", res.nodes, None
        text = format_certificate(Certificate(steps=res.proof.steps))
        steps = len(res.proof.steps)
        return (f"found {steps} steps\n{text}", res.nodes,
                lambda: check_incremental(res.proof, r1).accepted)

    return [Job("r1/Q", run)]


def _exhaust(label, trs, domain, cfg, probe=False):
    from polyterm import exhaustion_report

    def run():
        rep = exhaustion_report(trs, domain, cfg)
        return rep.line(), rep.nodes, None

    return Job(label, run, budget=cfg.budget_seconds if probe else None)


def exhaust_jobs():
    """Three criterion-6 exhaustion runs plus the r1/Q budget probe."""
    from polyterm import SearchConfig, load_trs

    def q(max_coeff, denominators, budget):
        return SearchConfig(max_degree=2, max_coeff=max_coeff, denominators=denominators,
                            deltas=(Fraction(1, 2), Fraction(1)), budget_seconds=budget)

    return [
        _exhaust("r2/Q", load_trs("r2.trs"), "Q", q(4, (1, 2, 4), 600)),
        _exhaust("r3/N", load_trs("r3.trs"), "N",
                 SearchConfig(max_degree=2, max_coeff=2, budget_seconds=600)),
        _exhaust("r6/Q", load_trs("r6.trs"), "Q", q(3, (1, 2), 600)),
        # the deadline is only checked every 512 DFS nodes, after set-up
        _exhaust("r1/Q budget 0.05", load_trs("r1.trs"), "Q", q(4, (1, 2, 4), 0.05),
                 probe=True),
    ]


def direct_r_jobs():
    """First-found search and exhaustion on r4 over Q(sqrt 2)."""
    from polyterm import SearchConfig, check_certificate, load_trs, search_direct
    from polyterm.interp import Certificate, format_certificate

    r4 = load_trs("r4.trs")
    cfg = SearchConfig(max_degree=2, max_coeff=1, denominators=(1,),
                       deltas=(Fraction(1),), sqrt_d=2)

    def direct():
        res = search_direct(r4, "R", cfg)
        if not res.found:
            return f"{res.status}", res.nodes, None
        text = format_certificate(Certificate(direct=res.interp))
        return (f"found\n{text}", res.nodes,
                lambda: check_certificate(res.interp, r4).accepted)

    return [Job("r4/R direct", direct), _exhaust("r4/R exhaust", r4, "R", cfg)]


WORKLOADS = {
    "check": check_jobs,
    "incremental": incremental_jobs,
    "exhaust": exhaust_jobs,
    "direct-r": direct_r_jobs,
}


def run_passes(jobs, rng, seconds, single):
    """Closed-loop passes; returns per-pass records and every operation.

    Each operation starts on a collected heap, so the peak memory of a pass
    does not depend on which job's garbage is still around (the job order
    varies with the seed); the collection itself is not timed.
    """
    passes, ops = [], []
    started = time.perf_counter()
    while True:
        wall = cpu = 0.0
        nodes = 0
        for job in rng.sample(jobs, len(jobs)):
            gc.collect()
            t0, c0 = time.perf_counter(), time.process_time()
            outcome, job_nodes, recheck = job.run()
            latency = time.perf_counter() - t0
            cpu += time.process_time() - c0
            wall += latency
            nodes += job_nodes
            ops.append((job, latency, outcome, recheck))
        passes.append({"wall_s": wall, "cpu_s": cpu, "nodes": nodes})
        if single or time.perf_counter() - started + wall > seconds:
            return passes, ops


def judge(workload, ops):
    """Failed operations: outcome differs from expected, or re-check fails."""
    expected = json.loads(EXPECTED.read_text())[workload]
    failed = []
    for job, _, outcome, recheck in ops:
        if outcome != expected.get(job.label) or (recheck is not None and not recheck()):
            failed.append(job.label)
    return failed


def digest(ops) -> str:
    seen = sorted({(job.label, outcome) for job, _, outcome, _ in ops})
    return hashlib.sha256(json.dumps(seen).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), default="measure")
    ap.add_argument("--trace-out", default=None, help="file for the spans (trace mode)")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import polyterm

    if not Path(polyterm.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"polyterm imported from {polyterm.__file__}, not this checkout")
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    jobs = WORKLOADS[args.workload]()
    # CPU time of this process so far: interpreter start, import, inputs.
    # Unlike the wall time since launch it leaves out waiting for a CPU.
    result = {"setup_s": time.process_time()}
    if args.mode != "setup":
        rng = random.Random(args.seed)
        passes, ops = run_passes(jobs, rng, args.seconds, single=tracer is not None)
        if tracer is not None:
            from tracer import layer_metrics, write_spans

            result["layers"] = layer_metrics(tracer)
            result["missing"] = tracer.missing
            result["calls"] = dict(sorted(tracer.calls.items()))
            if args.trace_out:
                write_spans(tracer, Path(args.trace_out))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed = judge(args.workload, ops)
        overshoots = [lat - job.budget for job, lat, _, _ in ops if job.budget is not None]
        result.update(
            passes=passes,
            latencies_s=[lat for _, lat, _, _ in ops],
            attempted=len(ops),
            failed=len(failed),
            failed_labels=sorted(set(failed)),
            digest=digest(ops),
            overshoot_s=overshoots,
            peak_rss_mb=peak_rss_mb,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
