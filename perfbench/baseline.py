"""Measure every workload over several seeds and write the figures as JSON.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Runs `run.py` once per workload and seed 1 to 10 with tracing off, one
after the other, then one traced run.  For each workload it records the median and
quartiles of every end-to-end metric, and their spread: the distance
between the quartiles as a share of the median.  It also records the
operations attempted and failed.  The traced run's per-layer metrics are
recorded as they come.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = list(SEEDS)
    seconds = spec["run_seconds"]
    result = {
        "host": {"platform": platform.platform(), "machine": platform.machine(),
                 "cpus": os.cpu_count(), "python": platform.python_version()},
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(bench(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {runs[-1]['metrics']}", file=sys.stderr)
        result["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                m["name"]: dict(summary([r["metrics"][m["name"]]["value"] for r in runs]),
                                unit=m["unit"])
                for m in spec["end_to_end"]
            },
        }
    traced = bench(spec["workloads"][0]["name"], seeds[0], seconds, 1)
    result["per_layer"] = {"seed": seeds[0], "metrics": {
        name: m["value"] for name, m in traced["metrics"].items()}}
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
