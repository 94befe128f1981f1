"""Record how `paravol family` and `paravol certify` scale with the family size.

For split:B3 with m family places (2^m members), refined at two further
places, the script times `family` and then `certify` on its certificate as
separate `python -m paravol` processes, so each time includes interpreter
start-up and import, as a user of the command pays it.  Each process's
peak resident set size comes from the rusage that `os.wait4` returns for
it.  Linux counts in that peak the pages of the process that started it,
up to its exec, so a small launcher (`LAUNCHER`), not this script, starts
and times each process.  Each time and peak is the median of 10 runs,
recorded with its first and third quartiles, so a difference between two
columns can be read against each column's spread.  The certificate's size
and SHA-256 are recorded too, so a record with two columns shows whether
both trees wrote the same bytes.

    python3 bench/scale.py --output bench/BENCH_3.json
    python3 bench/scale.py --output bench/BENCH_3.json --baseline-src OTHER/src

The first times this tree (column "head") at m = 4..8; --max-m lowers
the top.  The second also times the tree whose source directory is
OTHER/src (column "baseline").  The two trees are run alternately, run by
run, so a drift in host speed hits both columns alike.
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
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
GROUP = "split:B3"
FAMILY_Q = (2, 3, 5, 7, 11, 13, 17, 19)
REFINE_PLACES = ({"id": "w4", "q": 4, "p": 2}, {"id": "w9", "q": 9, "p": 3})
MIN_M = 4
# Runs per tree and command.  On a shared 2-core host, the medians of 3
# runs of one tree differed by 40% from record to record.
RUNS = 10


def spread(values, digits):
    """The median of the values and their first and third quartiles, rounded."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return round(statistics.median(values), digits), [round(q1, digits), round(q3, digits)]


def family_request(m):
    family = [{"id": f"v{q}", "q": q, "p": q} for q in FAMILY_Q[:m]]
    return {
        "group": GROUP,
        "places": family + list(REFINE_PLACES),
        "family_places": [pl["id"] for pl in family],
        "refine": [pl["id"] for pl in REFINE_PLACES],
    }


# Forks and execs `python <args>` with stdout to /dev/null, then prints its
# exit code, wall seconds and peak RSS in kilobytes (the unit of Linux).
LAUNCHER = """
import os, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.execv(sys.executable, [sys.executable, *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss)
"""


def timed_peak(src, argv):
    """Wall seconds and peak RSS in MB of one `python -m paravol` process; exits on failure."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-S", "-c", LAUNCHER, "-m", "paravol", *argv],
                          env=env, capture_output=True, text=True)
    fields = done.stdout.split()
    if done.returncode != 0 or len(fields) != 3 or fields[0] != "0":
        sys.exit(f"paravol {' '.join(argv)} with {src} failed: {done.stdout.strip()} "
                 f"{done.stderr.strip()}")
    return float(fields[1]), int(fields[2]) / 1024


def measure(m, trees, workdir):
    request = workdir / f"request-{m}.json"
    request.write_text(json.dumps(family_request(m)))
    samples = {name: {"family": [], "certify": []} for name in trees}
    certificates = {}
    for _ in range(RUNS):
        for name, src in trees.items():
            certificate = workdir / f"certificate-{m}-{name}.json"
            samples[name]["family"].append(timed_peak(src, [
                "family", "--input", str(request), "--output", str(certificate)]))
            samples[name]["certify"].append(timed_peak(src, [
                "certify", "--input", str(certificate)]))
            certificates[name] = certificate.read_bytes()
    columns = {}
    for name in trees:
        column = {}
        for command, runs in samples[name].items():
            for key, values, digits in ((f"{command}_s", [s for s, _ in runs], 3),
                                        (f"{command}_peak_rss_mb", [mb for _, mb in runs], 1)):
                column[key], column[f"{key}_quartiles"] = spread(values, digits)
        column["certificate_bytes"] = len(certificates[name])
        column["certificate_sha256"] = hashlib.sha256(certificates[name]).hexdigest()
        columns[name] = column
    return {"m": m, "members": 2 ** m, "columns": columns}


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
        "statistic": "median wall seconds and peak RSS MB per process, start-up included, "
                     "each with its first and third quartiles (inclusive method)",
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
