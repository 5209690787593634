"""Run one benchmark workload and print its metrics as the last output line.

    python3 perfbench/run.py --workload restart_scan --seed 1 --seconds 45 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``.
``--trace 1`` runs the workload with spans around the calls into every
layer and prints the per-layer metrics, the spans' coverage of the traced
wall time and the tracing overhead (the wrappers' measured cost per call
times the number of spans); the spans are written to ``.perfbench/``.
``--workload all`` runs each workload in a fresh process of its own, one
after another, and ``--record FILE`` writes their results together with the
host shape.

The last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Nothing else in the repository is needed but
``src/``; without it the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> None:
    """Cap native thread pools at the CPUs this process may run on."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= NPROC):
            os.environ[var] = str(NPROC)


def host_shape(args) -> dict:
    import platform

    import numpy

    from perfbench.workloads import LOG2_KEYS

    return {
        "cpus": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "log2_keys": LOG2_KEYS,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def result_line(outcomes, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": all(o.correct for o in outcomes),
            "attempted": sum(o.attempted for o in outcomes),
            "failed": sum(o.failed for o in outcomes),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def run_one(args) -> str:
    from perfbench import layers
    from perfbench.tracer import Tracer
    from perfbench.workloads import run_workload

    if not args.trace:
        untraced = run_workload(args.workload, args.seed, args.seconds)
        return result_line([untraced], untraced.metrics)
    span_cost_s = layers.wrapper_cost_s()
    tracer = Tracer()
    patches = layers.install(tracer)
    try:
        traced = run_workload(args.workload, args.seed, args.seconds, tracer=tracer)
    finally:
        patches.restore()
    metrics = layers.layer_metrics(tracer.spans, traced, span_cost_s)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(
        out_dir / f"trace-{args.workload}-seed{args.seed}.json",
        {
            "workload": args.workload,
            "host": host_shape(args),
            "busy_s": traced.busy_s,
            "span_cost_s": span_cost_s,
        },
    )
    return result_line([traced], metrics)


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS and state are its own."""
    from perfbench.workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(name, json.dumps(results[name]))
    if args.record:
        record = {"host": host_shape(args), "trace": args.trace, "results": results}
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="with --workload all: write the results here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cap_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    print("host", json.dumps(host_shape(args)), flush=True)
    print(run_one(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
