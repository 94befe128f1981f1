"""Record how long `paravol ratio` takes at each A-D rank cap.

For split:A150, B100, C100 and D100 the request compares the hyperspecial
type {1..n} with {0} at one place with q = 1009, the ratio with the largest
orders the engine produces (the golden corpus's `ratio ... cap` entries).
Each ratio runs as a separate `python -m paravol` process, over 3 rounds,
measured as `harness` describes; the size and SHA-256 of its output are
recorded too.

    python3 bench/caps.py --output bench/BENCH_14.json
    python3 bench/caps.py --output bench/BENCH_14.json --baseline-src OTHER/src

The first times this tree (column "head").  The second also times the tree
whose source directory is OTHER/src (column "baseline").
"""

from __future__ import annotations

import sys

import harness
from harness import INPUT, OUTPUT, PARAVOL

CAPS = (("split:A150", 150), ("split:B100", 100), ("split:C100", 100), ("split:D100", 100))
Q = 1009
RUNS = 3
STEPS = {"ratio": [*PARAVOL, "ratio", "--input", INPUT, "--output", OUTPUT]}


def ratio_request(label, rank):
    return {
        "group": label,
        "places": [{"id": "v", "q": Q, "p": Q}],
        "collections": [{"assignment": {"v": list(range(1, rank + 1))}},
                        {"assignment": {"v": [0]}}],
    }


def main(argv=None):
    args = harness.parser(__doc__).parse_args(argv)
    trees = harness.trees(args)
    rows = [harness.measure({"label": label}, trees, RUNS, STEPS, ratio_request(label, rank))
            for label, rank in CAPS]
    return harness.write(args.output,
                         {"request": "ratio of the hyperspecial type {1..n} against {0}, one place",
                          "q": Q, "runs": RUNS},
                         {"rows": rows})


if __name__ == "__main__":
    sys.exit(main())
