"""Record how `paravol family` and `paravol certify` scale with the family size.

For split:B3 with m family places (2^m members), refined at two further
places, the script times `family` and then `certify` on its certificate as
separate `python -m paravol` processes, so each time includes interpreter
start-up and import, as a user of the command pays it.  Each time is the
median of 3 runs.  The certificate size is recorded too.

    python3 bench/scale.py --output bench/BENCH_3.json
    python3 bench/scale.py --output bench/BENCH_3.json --baseline-src OTHER/src

The first times this tree (column "head") at m = 4..8; --max-m lowers
the top.  The second also times the tree whose source directory is
OTHER/src (column "baseline").  The two trees are run alternately, run by
run, so a drift in host speed hits both columns alike.
"""

from __future__ import annotations

import argparse
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
GROUP = "split:B3"
FAMILY_Q = (2, 3, 5, 7, 11, 13, 17, 19)
REFINE_PLACES = ({"id": "w4", "q": 4, "p": 2}, {"id": "w9", "q": 9, "p": 3})
MIN_M = 4
RUNS = 3


def family_request(m):
    family = [{"id": f"v{q}", "q": q, "p": q} for q in FAMILY_Q[:m]]
    return {
        "group": GROUP,
        "places": family + list(REFINE_PLACES),
        "family_places": [pl["id"] for pl in family],
        "refine": [pl["id"] for pl in REFINE_PLACES],
    }


def timed(src, argv):
    """Wall seconds of one `python -m paravol` process; exits on failure."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "paravol", *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        sys.exit(f"paravol {' '.join(argv)} with {src} exited {done.returncode}: "
                 f"{done.stderr.strip()}")
    return elapsed


def measure(m, trees, workdir):
    request = workdir / f"request-{m}.json"
    request.write_text(json.dumps(family_request(m)))
    samples = {name: {"family_s": [], "certify_s": []} for name in trees}
    sizes = {}
    for _ in range(RUNS):
        for name, src in trees.items():
            certificate = workdir / f"certificate-{m}-{name}.json"
            samples[name]["family_s"].append(timed(src, [
                "family", "--input", str(request), "--output", str(certificate)]))
            samples[name]["certify_s"].append(timed(src, [
                "certify", "--input", str(certificate)]))
            sizes[name] = certificate.stat().st_size
    return {
        "m": m,
        "members": 2 ** m,
        "columns": {
            name: {
                "family_s": round(statistics.median(samples[name]["family_s"]), 3),
                "certify_s": round(statistics.median(samples[name]["certify_s"]), 3),
                "certificate_bytes": sizes[name],
            }
            for name in trees
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-m", type=int, default=8)
    parser.add_argument("--baseline-src", type=Path,
                        help="source directory of another tree, timed as column 'baseline'")
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args(argv)
    if not MIN_M <= args.max_m <= len(FAMILY_Q):
        parser.error(f"--max-m must be between {MIN_M} and {len(FAMILY_Q)}")

    trees = {"head": SRC}
    if args.baseline_src is not None:
        trees["baseline"] = args.baseline_src.resolve()
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for m in range(MIN_M, args.max_m + 1):
            row = measure(m, trees, Path(tmp))
            print(json.dumps(row), file=sys.stderr)
            rows.append(row)
    record = {
        "group": GROUP,
        "refine": [pl["id"] for pl in REFINE_PLACES],
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
