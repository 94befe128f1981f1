"""Record how long `paravol ratio` takes at each A-D rank cap.

For split:A150, B100, C100 and D100 the request compares the hyperspecial
type {1..n} with {0} at one place with q = 1009, the ratio with the largest
orders the engine produces (the golden corpus's `ratio ... cap` entries).
Each ratio runs as a separate `python -m paravol` process, so each time
includes interpreter start-up and import, as a user of the command pays it.
Each time is the median of 3 runs.  The SHA-256 of stdout is recorded too.

    python3 bench/caps.py --output bench/BENCH_14.json
    python3 bench/caps.py --output bench/BENCH_14.json --baseline-src OTHER/src

The first times this tree (column "head").  The second also times the tree
whose source directory is OTHER/src (column "baseline").  The two trees are
run alternately, run by run, so a drift in host speed hits both columns
alike.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CAPS = (("split:A150", 150), ("split:B100", 100), ("split:C100", 100), ("split:D100", 100))
Q = 1009
RUNS = 3


def ratio_request(label, rank):
    return {
        "group": label,
        "places": [{"id": "v", "q": Q, "p": Q}],
        "collections": [{"assignment": {"v": list(range(1, rank + 1))}},
                        {"assignment": {"v": [0]}}],
    }


def timed(src, argv):
    """Wall seconds and stdout SHA-256 of one `python -m paravol` process; exits on failure."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "paravol", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        sys.exit(f"paravol {' '.join(argv)} with {src} exited {done.returncode}: "
                 f"{done.stderr.decode(errors='replace').strip()}")
    return elapsed, hashlib.sha256(done.stdout).hexdigest()


def measure(label, rank, trees, workdir):
    request = workdir / f"ratio-{label.replace(':', '-')}.json"
    request.write_text(json.dumps(ratio_request(label, rank)))
    samples = {name: [] for name in trees}
    digests = {}
    for _ in range(RUNS):
        for name, src in trees.items():
            elapsed, digests[name] = timed(src, ["ratio", "--input", str(request)])
            samples[name].append(elapsed)
    return {
        "label": label,
        "columns": {
            name: {
                "ratio_s": round(statistics.median(samples[name]), 3),
                "stdout_sha256": digests[name],
            }
            for name in trees
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline-src", type=Path,
                        help="source directory of another tree, timed as column 'baseline'")
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args(argv)

    trees = {"head": SRC}
    if args.baseline_src is not None:
        trees["baseline"] = args.baseline_src.resolve()
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, rank in CAPS:
            row = measure(label, rank, trees, Path(tmp))
            print(json.dumps(row), file=sys.stderr)
            rows.append(row)
    record = {
        "request": "ratio of the hyperspecial type {1..n} against {0}, one place",
        "q": Q,
        "runs": RUNS,
        "statistic": "median wall seconds per process, start-up included",
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "rows": rows,
    }
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
