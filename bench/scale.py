"""Record how `paravol family` and `paravol certify` scale with the family size.

For split:B3 with m family places (2^m members), refined at two further
places, the script times `family` and then `certify` on its certificate,
each as a separate `python -m paravol` process, over 10 rounds, measured
as `harness` describes.  The certificate's size and SHA-256 are recorded
too, so a record with two columns shows whether both trees wrote the same
bytes.

Start-up, about 0.1 s a process, is most of a row's time, and on a shared
2-core host the paired difference of two such processes moved by tens of
ms between records of one change, so each row also has an in-process
column: the median and quartiles, in ms, of `family` then `certify`, each
called through `cli.run` in this script's process after a fresh import
of `paravol` from the tree's source directory (not timed), IN_PROCESS_RUNS
times after each round of processes.  The certificate each call writes
must be the processes' byte for byte.  A row's paired statistic compares
the rounds' in-process medians.

    python3 bench/scale.py --output bench/BENCH_3.json
    python3 bench/scale.py --output bench/BENCH_3.json --baseline-src OTHER/src

The first times this tree (column "head") at m = 4..8; --max-m lowers
the top.  The second also times the tree whose source directory is
OTHER/src (column "baseline").
"""

from __future__ import annotations

import sys

import harness
from harness import INPUT, OUTPUT, PARAVOL

GROUP = "split:B3"
FAMILY_Q = (2, 3, 5, 7, 11, 13, 17, 19)
REFINE_PLACES = ({"id": "w4", "q": 4, "p": 2}, {"id": "w9", "q": 9, "p": 3})
MIN_M = 4
# Rounds per row.  On a shared 2-core host, the medians of 3 runs of one
# tree differed by 40% from record to record.
RUNS = 10
IN_PROCESS_RUNS = 3
STEPS = {"family": [*PARAVOL, "family", "--input", INPUT, "--output", OUTPUT],
         "certify": [*PARAVOL, "certify", "--input", OUTPUT]}


def family_request(m):
    family = [{"id": f"v{q}", "q": q, "p": q} for q in FAMILY_Q[:m]]
    return {
        "group": GROUP,
        "places": family + list(REFINE_PLACES),
        "family_places": [pl["id"] for pl in family],
        "refine": [pl["id"] for pl in REFINE_PLACES],
    }


def main(argv=None):
    parser = harness.parser(__doc__)
    parser.add_argument("--max-m", type=int, default=8)
    args = parser.parse_args(argv)
    if not MIN_M <= args.max_m <= len(FAMILY_Q):
        parser.error(f"--max-m must be between {MIN_M} and {len(FAMILY_Q)}")
    trees = harness.trees(args)
    rows = [harness.measure({"m": m, "members": 2 ** m}, trees, RUNS, STEPS, family_request(m),
                            in_process_runs=IN_PROCESS_RUNS)
            for m in range(MIN_M, args.max_m + 1)]
    return harness.write(args.output,
                         {"group": GROUP, "refine": [pl["id"] for pl in REFINE_PLACES],
                          "runs": RUNS, "in_process_runs": RUNS * IN_PROCESS_RUNS},
                         {"rows": rows})


if __name__ == "__main__":
    sys.exit(main())
