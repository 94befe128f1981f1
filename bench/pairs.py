"""Record the wall time, peak memory and output size of `paravol pairs` per group label.

For each label the script times `python -m paravol pairs <label> --q 1009`
as a separate process over 10 rounds, measured as `harness` describes; the
size and SHA-256 of the JSON output are recorded too, so a record with two
columns shows whether both trees wrote the same bytes.  The default labels
are those of perfbench's pairs_sweep workload.

Start-up, about 0.1 s, hides a gain of a few ms per label, so each row
also has an in-process column: the median and quartiles, in ms, of
`cli.run(["pairs", <label>, "--q", "1009", "--output", FILE])` in this
script's process, IN_PROCESS_RUNS calls after each timed process, each
call after a fresh import of `paravol` from the tree's source directory,
as perfbench's `fresh_cli` imports it; the import is not timed.  A call
takes 2-30 ms, and on a shared host its spread over 10 calls can hide a
1 ms change, so it is sampled more often than the process.  Its output
must be the process's byte for byte.  A row's paired statistic compares
the rounds' in-process medians.

The same is recorded for `paravol family` on one place (q = 2) of each
group in FAMILY_LABELS.  Such a family takes the first pair of the pair
search, so its cost shows whether the search builds more than it hands
out.

    python3 bench/pairs.py --output bench/BENCH_27.json
    python3 bench/pairs.py --output bench/BENCH_27.json --baseline-src OTHER/src
    python3 bench/pairs.py --labels split:G2,twisted:C-B2 --output pairs.json

The first times this tree (column "head").  The second also times the tree
whose source directory is OTHER/src (column "baseline").
"""

from __future__ import annotations

import sys

import harness
from harness import INPUT, OUTPUT, PARAVOL

LABELS = ("split:E8", "split:E7", "split:E6", "split:F4", "split:G2",
          "split:A11", "split:B8", "split:C10", "split:D10",
          "twisted:C-BC1", "twisted:C-B2")
Q = 1009
RUNS = 10
IN_PROCESS_RUNS = 3
# split:A14 has 15 rotations, the largest realized group under the search's cap.
FAMILY_LABELS = ("split:C12", "split:C14", "split:A14")
FAMILY_STEPS = {"family": [*PARAVOL, "family", "--input", INPUT, "--output", OUTPUT]}


def main(argv=None):
    parser = harness.parser(__doc__)
    parser.add_argument("--labels", default=",".join(LABELS),
                        help="comma-separated group labels (default: the pairs_sweep labels)")
    args = parser.parse_args(argv)
    trees = harness.trees(args)
    rows = [harness.measure({"label": label}, trees, RUNS,
                            {"pairs": [*PARAVOL, "pairs", label, "--q", str(Q), "--output", OUTPUT]},
                            in_process_runs=IN_PROCESS_RUNS)
            for label in args.labels.split(",")]
    family_rows = [harness.measure({"label": label}, trees, RUNS, FAMILY_STEPS,
                                   {"group": label, "places": [{"id": "v2", "q": 2, "p": 2}],
                                    "family_places": ["v2"]},
                                   in_process_runs=IN_PROCESS_RUNS)
                   for label in FAMILY_LABELS]
    return harness.write(args.output,
                         {"command": f"paravol pairs <label> --q {Q}",
                          "family_command": "paravol family --input <label, one place v2 "
                                            "with q = p = 2, family place v2>",
                          "runs": RUNS, "in_process_runs": RUNS * IN_PROCESS_RUNS},
                         {"rows": rows, "family_rows": family_rows})


if __name__ == "__main__":
    sys.exit(main())
