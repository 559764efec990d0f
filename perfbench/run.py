"""Benchmark entry point.

    python3 perfbench/run.py --workload {evolve,evolve-latency,infer} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` the run makes one untraced and one
traced pass of the same work, writes the spans under ``.perfbench-work/spans``
and reports the per-layer metrics and the tracing overhead.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "nicheflow"
WORK = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("evolve", "evolve-latency", "infer")
# Evolution seeds per pass of a traced run (``infer`` traces one round).
TRACE_SEEDS = {"evolve": 1, "evolve-latency": 3, "infer": None}


def measure(workload, seconds):
    """Whole rounds for ``seconds``: another round starts only when the last
    one's duration still fits, and the first always runs."""
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        workload.round()
        now = time.perf_counter()
        if now - start + (now - t) > seconds:
            return


def trace(workload, name, seed, tracing):
    """One untraced pass, then the same work traced; per-layer metrics."""
    seeds = workload.seeds[: TRACE_SEEDS[name]] if TRACE_SEEDS[name] else None
    workload.round(seeds=seeds)
    untraced = len(workload.op_s) / workload.busy_s
    ops, busy, wait = len(workload.op_s), workload.busy_s, workload.wait_s
    tracer = tracing.Tracer(workload.provider_cls)
    workload.round(tracer=tracer, seeds=seeds)
    traced = (len(workload.op_s) - ops) / (workload.busy_s - busy)
    tracer.write(WORK / "spans" / f"{name}-seed{seed}.tsv")
    metrics = tracing.layer_metrics(tracer, workload.wait_s - wait, workload.populations)
    metrics["trace.ops_per_s_ratio"] = (traced / untraced, "1")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="nicheflow benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SOURCE / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE.parent))
    import nicheflow

    if Path(nicheflow.__file__).resolve().parent != SOURCE.resolve():
        print(f"perfbench: nicheflow came from {nicheflow.__file__}, not {SOURCE}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "infer" and args.trace:
            workload = workloads.Infer(args.seed, work, setups=1)
        else:
            workload = workloads.WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            metrics = trace(workload, args.workload, args.seed, tracing)
        else:
            measure(workload, args.seconds)
            metrics = workload.metrics()
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (rss_kib / 1024, "MB")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in workload.errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not workload.errors,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
