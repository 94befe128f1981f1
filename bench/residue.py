"""Record how long `paravol ratio` takes as the residue size q grows.

Each request is a one-place split:B3 ratio, the hyperspecial type {1, 2, 3}
against {0}, at a prime q = p from 10^9 to past 10^24.  Building the place
checks that q is a prime power, and that check is what grows with q; the
orders of split:B3 are small at any q.  Each ratio runs as a separate
`python -m paravol` process, so each time includes interpreter start-up and
import, as a user of the command pays it.  Each time is the median of 3
runs.  The SHA-256 of stdout is recorded too.

    python3 bench/residue.py --output bench/BENCH_18.json
    python3 bench/residue.py --output bench/BENCH_18.json --baseline-src OTHER/src

The first times this tree (column "head").  The second also times the tree
whose source directory is OTHER/src (column "baseline").  The two trees are
run alternately, run by run, so a drift in host speed hits both columns
alike.  A run still going after TIMEOUT_S seconds is stopped and kept as
timed out: it counts as slower than every finished run, and `ratio_s` is
null when most runs of a cell timed out.
"""

from __future__ import annotations

import sys

from caps import record

QS = (999999937, 10 ** 12 + 39, 10 ** 14 + 31, 10 ** 18 + 3, 10 ** 24 + 7)
TIMEOUT_S = 20


def ratio_request(q):
    return {
        "group": "split:B3",
        "places": [{"id": "v", "q": q, "p": q}],
        "collections": [{"assignment": {"v": [1, 2, 3]}}, {"assignment": {"v": [0]}}],
    }


def main(argv=None):
    return record(argv, __doc__, [({"q": q}, ratio_request(q)) for q in QS],
                  {"request": "ratio of the hyperspecial type {1, 2, 3} against {0} "
                              "on split:B3, one place with q = p prime",
                   "timeout_s": TIMEOUT_S,
                   "statistic": "median wall seconds per process, start-up included; "
                                "a timed-out run counts as slower than any other"},
                  TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
