"""Record how long `paravol ratio` takes as the residue size q grows.

Each request is a one-place split:B3 ratio, the hyperspecial type {1, 2, 3}
against {0}, at a prime q = p from 10^9 to past 10^24.  Building the place
checks that q is a prime power, and that check is what grows with q; the
orders of split:B3 are small at any q.  Each ratio runs as a separate
`python -m paravol` process, over 3 rounds, measured as `harness`
describes; the size and SHA-256 of its output are recorded too.

    python3 bench/residue.py --output bench/BENCH_18.json
    python3 bench/residue.py --output bench/BENCH_18.json --baseline-src OTHER/src

The first times this tree (column "head").  The second also times the tree
whose source directory is OTHER/src (column "baseline").  A run still
going after TIMEOUT_S seconds is killed and kept as timed out: it counts
as slower than every finished run, and `ratio_s` is null when most runs
of a cell timed out.
"""

from __future__ import annotations

import sys

import harness
from harness import INPUT, OUTPUT, PARAVOL

QS = (999999937, 10 ** 12 + 39, 10 ** 14 + 31, 10 ** 18 + 3, 10 ** 24 + 7)
RUNS = 3
TIMEOUT_S = 20
STEPS = {"ratio": [*PARAVOL, "ratio", "--input", INPUT, "--output", OUTPUT]}


def ratio_request(q):
    return {
        "group": "split:B3",
        "places": [{"id": "v", "q": q, "p": q}],
        "collections": [{"assignment": {"v": [1, 2, 3]}}, {"assignment": {"v": [0]}}],
    }


def main(argv=None):
    args = harness.parser(__doc__).parse_args(argv)
    trees = harness.trees(args)
    rows = [harness.measure({"q": q}, trees, RUNS, STEPS, ratio_request(q), TIMEOUT_S)
            for q in QS]
    return harness.write(args.output,
                         {"request": "ratio of the hyperspecial type {1, 2, 3} against {0} "
                                     "on split:B3, one place with q = p prime",
                          "timeout_s": TIMEOUT_S, "runs": RUNS},
                         {"rows": rows})


if __name__ == "__main__":
    sys.exit(main())
