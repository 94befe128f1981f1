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


def timed(src, argv, timeout=None):
    """(wall seconds, stdout SHA-256) of one `python -m paravol` process, or (None, None)
    if it ran past `timeout` seconds; exits if the process fails."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "paravol", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, None
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        sys.exit(f"paravol {' '.join(argv)} with {src} exited {done.returncode}: "
                 f"{done.stderr.decode(errors='replace').strip()}")
    return elapsed, hashlib.sha256(done.stdout).hexdigest()


def median_s(runs):
    """The median run, a timed-out run (None) counting as slower than any; None if that is one."""
    middle = statistics.median(float("inf") if s is None else s for s in runs)
    return None if middle == float("inf") else round(middle, 3)


def measure(row, request, trees, workdir, timeout=None):
    """`row` with the columns of one `paravol ratio` request: per tree the median of RUNS
    runs, how many of them timed out, and the SHA-256 of stdout."""
    path = workdir / "request.json"
    path.write_text(json.dumps(request))
    samples = {name: [] for name in trees}
    digests = dict.fromkeys(trees)
    for _ in range(RUNS):
        for name, src in trees.items():
            elapsed, digest = timed(src, ["ratio", "--input", str(path)], timeout)
            samples[name].append(elapsed)
            digests[name] = digest or digests[name]
    return {
        **row,
        "columns": {
            name: {
                "ratio_s": median_s(samples[name]),
                "timed_out": samples[name].count(None),
                "stdout_sha256": digests[name],
            }
            for name in trees
        },
    }


def record(argv, doc, requests, fields, timeout=None):
    """Time each (row, request) of `requests` on this tree and, with `--baseline-src`,
    another, and write `fields`, the host and the rows to `--output`."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--baseline-src", type=Path,
                        help="source directory of another tree, timed as column 'baseline'")
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args(argv)

    trees = {"head": SRC}
    if args.baseline_src is not None:
        trees["baseline"] = args.baseline_src.resolve()
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for row, request in requests:
            row = measure(row, request, trees, Path(tmp), timeout)
            print(json.dumps(row), file=sys.stderr)
            rows.append(row)
    out = {
        **fields,
        "runs": RUNS,
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "rows": rows,
    }
    args.output.write_text(json.dumps(out, indent=2) + "\n")
    return 0


def main(argv=None):
    return record(argv, __doc__,
                  [({"label": label}, ratio_request(label, rank)) for label, rank in CAPS],
                  {"request": "ratio of the hyperspecial type {1..n} against {0}, one place",
                   "q": Q,
                   "statistic": "median wall seconds per process, start-up included"})


if __name__ == "__main__":
    sys.exit(main())
