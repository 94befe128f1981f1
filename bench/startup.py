"""Record what start-up costs each paravol command before any mathematics.

Two commands are timed, each as a fresh process:
  setup    `python -c "import paravol.cli as c; c.build_parser()"`, the
           set-up command perfbench times as `setup_s`;
  diagram  `python -m paravol diagram split:B3`, a command whose own work
           is a few milliseconds.
Each is run 21 times and reported as the median and quartiles of the wall
seconds.  The record also lists the modules outside `paravol` that
importing `paravol.cli` and building its parser adds to a fresh
interpreter.

    python3 bench/startup.py --output bench/BENCH_15.json
    python3 bench/startup.py --output bench/BENCH_15.json --baseline-src OTHER/src

The first times this tree (column "head").  The second also times the tree
whose source directory is OTHER/src (column "baseline").  The two trees are
run alternately, run by run, so a drift in host speed hits both columns
alike.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COMMANDS = {
    "setup": ["-c", "import paravol.cli as c; c.build_parser()"],
    "diagram": ["-m", "paravol", "diagram", "split:B3"],
}
RUNS = 21
# Prints, one a line, the modules outside paravol that the import and the
# parser add to those the interpreter had loaded before it.
IMPORTED = """\
import sys
before = set(sys.modules)
import paravol.cli as c
c.build_parser()
added = set(sys.modules) - before
print("\\n".join(sorted(m for m in added if m.split(".")[0] != "paravol")))
"""


def run(src, argv):
    """Wall seconds and stdout of one Python process; exits on failure."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        sys.exit(f"python {' '.join(argv)} with {src} exited {done.returncode}: "
                 f"{done.stderr.decode(errors='replace').strip()}")
    return elapsed, done.stdout.decode()


def summary(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median_s": round(median, 4), "q1_s": round(q1, 4), "q3_s": round(q3, 4)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline-src", type=Path,
                        help="source directory of another tree, timed as column 'baseline'")
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args(argv)

    trees = {"head": SRC}
    if args.baseline_src is not None:
        trees["baseline"] = args.baseline_src.resolve()
    for src in trees.values():  # leaves bytecode caches, as an installed CLI has
        for command in COMMANDS.values():
            run(src, command)
    samples = {name: {command: [] for command in COMMANDS} for name in trees}
    for _ in range(RUNS):
        for name, src in trees.items():
            for command, command_argv in COMMANDS.items():
                samples[name][command].append(run(src, command_argv)[0])
    columns = {}
    for name, src in trees.items():
        columns[name] = {command: summary(samples[name][command]) for command in COMMANDS}
        columns[name]["imported"] = run(src, ["-c", IMPORTED])[1].split()
        print(name, json.dumps({c: columns[name][c] for c in COMMANDS}), file=sys.stderr)
    record = {
        "commands": {command: " ".join(["python", *argv]) for command, argv in COMMANDS.items()},
        "runs": RUNS,
        "statistic": "median and quartiles of wall seconds per process",
        "imported": "modules outside paravol that `import paravol.cli` and "
                    "`build_parser()` add to a fresh interpreter",
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "columns": columns,
    }
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
