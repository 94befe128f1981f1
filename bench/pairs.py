"""Record the wall time, peak memory and output size of `paravol pairs` per group label.

For each label the script times `python -m paravol pairs <label> --q 1009`
as a separate process, so each time includes interpreter start-up and
import, as a user of the command pays it.  The process's peak resident
set size comes from the rusage that `os.wait4` returns for it.  Linux
counts in that peak the pages of the process that started it, up to its
exec, so a small launcher (`scale.LAUNCHER`), not this script, starts and
times each process.  Each time and peak is the median of 10 runs, recorded
with its first and third quartiles, so a difference between two columns
can be read against each column's spread; the size and SHA-256 of the
JSON output are recorded too, so a record with two columns shows whether
both trees wrote the same bytes.  The default labels are
those of perfbench's pairs_sweep workload.

Start-up, about 0.1 s, hides a gain of a few ms per label, so each row
also has an in-process column: the median and quartiles, in ms, of
`cli.run(["pairs", <label>, "--q", "1009", "--output", FILE])` in this
script's process, IN_PROCESS_RUNS calls after each timed process, each
call after a fresh import of `paravol` from the tree's source directory,
as perfbench's `fresh_cli` imports it; the import is not timed.  A call
takes 2-30 ms, and on a shared host its spread over 10 calls can hide a
1 ms change, so it is sampled more often than the process.  Its output
must be the process's byte for byte.

The same is recorded for `paravol family` on one place (q = 2) of each
group in FAMILY_LABELS.  Such a family takes the first pair of the pair
search, so its cost shows whether the search builds more than it hands
out.

    python3 bench/pairs.py --output bench/BENCH_27.json
    python3 bench/pairs.py --output bench/BENCH_27.json --baseline-src OTHER/src
    python3 bench/pairs.py --labels split:G2,twisted:C-B2 --output pairs.json

The first times this tree (column "head").  The second also times the tree
whose source directory is OTHER/src (column "baseline").  The two trees are
run alternately in rounds, one process and its in-process calls per tree in
each round, the first tree of a round swapped from one round to the next,
so a drift in host speed hits both columns alike.  On a shared host the
medians of one tree can move by a third between two records, so a record
with two columns also holds a paired statistic per row: for each round, the
median of head's in-process calls less the median of baseline's, with the
median and quartiles of those differences and the number of rounds in
which head was faster.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

from scale import RUNS, SRC, spread, timed_peak

LABELS = ("split:E8", "split:E7", "split:E6", "split:F4", "split:G2",
          "split:A11", "split:B8", "split:C10", "split:D10",
          "twisted:C-BC1", "twisted:C-B2")
Q = 1009
IN_PROCESS_RUNS = 3
# split:A14 has 15 rotations, the largest realized group under the search's cap.
FAMILY_LABELS = ("split:C12", "split:C14", "split:A14")


def in_process_ms(src, argv):
    """Milliseconds of one `cli.run(argv)` after a fresh import of `paravol` from src."""
    for name in [n for n in sys.modules if n == "paravol" or n.startswith("paravol.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("paravol.cli")
    finally:
        sys.path.remove(str(src))
    start = time.perf_counter()
    code = cli.run(argv)
    ms = (time.perf_counter() - start) * 1e3
    if code != 0:
        sys.exit(f"paravol {' '.join(argv)} in process with {src} exited {code}")
    return ms


def measure(label, argv, time_key, trees, workdir):
    """The row of `paravol <argv> --output FILE`: medians per tree, output size and digest.

    With two trees the row also has "paired", the per-round differences
    of the in-process medians, head less baseline.
    """
    samples = {name: [] for name in trees}
    in_process_samples = {name: [] for name in trees}
    round_medians = {name: [] for name in trees}  # per round, the median of its in-process calls
    outputs = {}
    for r in range(RUNS):
        for name, src in list(trees.items())[::-1 if r % 2 else 1]:
            output = workdir / f"out-{name}.json"
            command = [*argv, "--output", str(output)]
            samples[name].append(timed_peak(src, command))
            outputs[name] = output.read_bytes()
            calls = []
            for _ in range(IN_PROCESS_RUNS):
                calls.append(in_process_ms(src, command))
                if output.read_bytes() != outputs[name]:
                    sys.exit(f"paravol {' '.join(argv)} with {src}: "
                             f"the in-process output differs from the process's")
            in_process_samples[name] += calls
            round_medians[name].append(statistics.median(calls))
    columns = {}
    for name in trees:
        column = columns[name] = {}
        for key, values, digits in ((time_key, [s for s, _ in samples[name]], 3),
                                    ("peak_rss_mb", [mb for _, mb in samples[name]], 1),
                                    ("in_process_ms", in_process_samples[name], 2)):
            column[key], column[f"{key}_quartiles"] = spread(values, digits)
        column["output_bytes"] = len(outputs[name])
        column["output_sha256"] = hashlib.sha256(outputs[name]).hexdigest()
    row = {"label": label, "columns": columns}
    if "baseline" in trees:
        diffs = [h - b for h, b in zip(round_medians["head"], round_medians["baseline"])]
        median, quartiles = spread(diffs, 2)
        row["paired"] = {"in_process_diff_ms": median, "in_process_diff_ms_quartiles": quartiles,
                         "head_faster_rounds": sum(diff < 0 for diff in diffs), "rounds": RUNS}
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--labels", default=",".join(LABELS),
                        help="comma-separated group labels (default: the pairs_sweep labels)")
    parser.add_argument("--baseline-src", type=Path,
                        help="source directory of another tree, timed as column 'baseline'")
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args(argv)

    trees = {"head": SRC}
    if args.baseline_src is not None:
        trees["baseline"] = args.baseline_src.resolve()
    rows, family_rows = [], []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for label in args.labels.split(","):
            rows.append(measure(label, ["pairs", label, "--q", str(Q)], "pairs_s",
                                trees, workdir))
            print(json.dumps(rows[-1]), file=sys.stderr)
        request = workdir / "family-request.json"
        for label in FAMILY_LABELS:
            request.write_text(json.dumps({
                "group": label, "places": [{"id": "v2", "q": 2, "p": 2}],
                "family_places": ["v2"]}))
            family_rows.append(measure(label, ["family", "--input", str(request)], "family_s",
                                       trees, workdir))
            print(json.dumps(family_rows[-1]), file=sys.stderr)
    record = {
        "command": f"paravol pairs <label> --q {Q}",
        "family_command": "paravol family --input <label, one place v2 with q = p = 2, "
                          "family place v2>",
        "runs": RUNS,
        "in_process_runs": RUNS * IN_PROCESS_RUNS,
        "statistic": "median wall seconds and peak RSS MB per process, start-up included, "
                     "and median in-process ms of cli.run after a fresh import, "
                     "each with its first and third quartiles (inclusive method); "
                     "with a baseline, 'paired' per row: per round, head's median "
                     "in-process ms less baseline's, the median and quartiles of "
                     "those differences and the rounds head won",
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "rows": rows,
        "family_rows": family_rows,
    }
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
