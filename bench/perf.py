"""Record a perfbench comparison of two trees: one workload, rounds of paired runs.

Each round runs, for each tree, that tree's own `perfbench/run.py
--workload W --seed S --seconds SECONDS --trace 0` as a process from the
tree's root, the two trees with the same seed S, the first tree swapped
from one round to the next (`harness.rounds`).  Round r uses seed
--seed + r.  The last line of each run's stdout is its result.

The record holds, per tree, each end-to-end metric's median and quartiles
over the rounds (`harness.spread`), and per metric a paired block
(`harness.paired`): per round, head's value less baseline's, its median
and quartiles, and the rounds head won, by the direction `BENCHMARK.json`
gives the metric.  Every round's values are kept too, under `values`.
The script exits 1, after writing the record, if the two trees'
`out_bytes` differ in any round or any run reports a failed operation.

    python3 bench/perf.py --workload family_certify --baseline-src OTHER/src \\
        --output bench/BENCH_33.json

The first tree is this one (column "head"); the second is the tree whose
source directory is OTHER/src (column "baseline").  Each run lasts
--seconds, by default the benchmark's `run_seconds`.  `--smoke` runs one
round of perfbench's shrunken workloads, for a check of this script.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import harness

BENCHMARK = json.loads((harness.SRC.parent / "BENCHMARK.json").read_text())
BETTER = {metric["name"]: metric["better"] for metric in BENCHMARK["end_to_end"]}
RUNS = 10
STATISTIC = ("per tree, median and inclusive quartiles over the rounds of each metric as "
             "perfbench reports it; 'paired': per round, head's value less baseline's, with "
             "the rounds head won ('head_faster_rounds') by the metric's direction in "
             "BENCHMARK.json")


def perfbench(src, workload, seed, seconds, smoke):
    """The result of one `perfbench/run.py` run of the tree whose source directory is src."""
    root = Path(src).parent
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0", *(["--smoke"] if smoke else [])]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv[1:])} in {root} failed with exit {done.returncode}: "
                 f"{done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None):
    parser = harness.parser(__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=RUNS, help="rounds (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"],
                        help="seconds per run (default %(default)s)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first round")
    parser.add_argument("--smoke", action="store_true",
                        help="one round of perfbench's shrunken workloads, no minimum time")
    args = parser.parse_args(argv)
    if args.baseline_src is None:
        parser.error("--baseline-src is required: a record compares two trees")
    if args.smoke:
        args.runs, args.seconds = 1, 0
    trees = harness.trees(args)
    cached = {name: (src / "paravol" / "__pycache__").is_dir() for name, src in trees.items()}
    seeds = [args.seed + r for r in range(args.runs)]
    results = {name: [] for name in trees}  # per tree, its result of each round
    for k, (name, src) in enumerate(harness.rounds(trees, args.runs)):
        found = perfbench(src, args.workload, seeds[k // 2], args.seconds, args.smoke)
        print(json.dumps({"seed": seeds[k // 2], "tree": name, **found}), file=sys.stderr)
        results[name].append(found)
    # per tree, per metric, its value of each round
    values = {name: {metric: [r["metrics"][metric]["value"] for r in found]
                     for metric in found[0]["metrics"]}
              for name, found in results.items()}
    refused = [f"round {r}: out_bytes {h} (head), {b} (baseline)"
               for r, (h, b) in enumerate(zip(values["head"]["out_bytes"],
                                              values["baseline"]["out_bytes"])) if h != b]
    refused += [f"round {r}, {name}: {result['failed']} failed operations"
                for name, found in results.items() for r, result in enumerate(found)
                if result["failed"] or not result["correct"]]
    columns = {}
    for name, found in results.items():
        column = columns[name] = {}
        for metric, series in values[name].items():
            column |= harness.spread(metric, series, 6)
        column["attempted"] = sum(result["attempted"] for result in found)
        column["failed"] = sum(result["failed"] for result in found)
    harness.write(
        args.output,
        {"workload": args.workload,
         "command": f"python3 perfbench/run.py --workload {args.workload} --seed <seed> "
                    f"--seconds {args.seconds:g} --trace 0" + " --smoke" * args.smoke,
         "runs": args.runs, "seeds": seeds, "refused": refused},
        {"columns": columns,
         "paired": {metric: harness.paired(series, values["baseline"][metric], "diff", 6,
                                           BETTER.get(metric, "lower"))
                    for metric, series in values["head"].items()},
         "values": values},
        statistic=STATISTIC,
        host_fields={"bytecode_cached": cached},
    )
    for reason in refused:
        print(f"perf: {reason}", file=sys.stderr)
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
