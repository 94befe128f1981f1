"""Record what start-up costs each paravol command before any mathematics.

Two commands are timed, each as a fresh process:
  setup    `python -c "import paravol.cli as c; c.build_parser()"`, the
           set-up command perfbench times as `setup_s`;
  diagram  `python -m paravol diagram split:B3`, a command whose own work
           is a few milliseconds.
Each is run in 21 rounds, measured as `harness` describes.  The record
also lists, per column, the modules outside `paravol` that importing
`paravol.cli` and building its parser adds to a fresh interpreter.

    python3 bench/startup.py --output bench/BENCH_15.json
    python3 bench/startup.py --output bench/BENCH_15.json --baseline-src OTHER/src

The first times this tree (column "head").  The second also times the tree
whose source directory is OTHER/src (column "baseline").
"""

from __future__ import annotations

import os
import subprocess
import sys

import harness
from harness import PARAVOL

COMMANDS = {
    "setup": ["-c", "import paravol.cli as c; c.build_parser()"],
    "diagram": [*PARAVOL, "diagram", "split:B3"],
}
RUNS = 21
# Prints, one a line, the modules outside paravol that the import and the
# parser add to those the interpreter had loaded before it.
IMPORTED = """\
import sys
before = set(sys.modules)
import paravol.cli as c
c.build_parser()
added = set(sys.modules) - before
print("\\n".join(sorted(m for m in added if m.split(".")[0] != "paravol")))
"""


def main(argv=None):
    args = harness.parser(__doc__).parse_args(argv)
    trees = harness.trees(args)
    # One untimed run of each command per tree reads the sources into the
    # file cache.  It leaves bytecode caches only when PYTHONDONTWRITEBYTECODE
    # is unset, as the host block records; with it set, every timed process
    # compiles paravol from source.
    for src in trees.values():
        for command in COMMANDS.values():
            harness.timed_peak(src, command)
    row = harness.measure({}, trees, RUNS, COMMANDS)
    for name, src in trees.items():
        row["columns"][name]["imported"] = subprocess.run(
            [sys.executable, "-c", IMPORTED], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True).stdout.split()
    return harness.write(args.output,
                         {"commands": {c: " ".join(["python", *a]) for c, a in COMMANDS.items()},
                          "runs": RUNS,
                          "imported": "modules outside paravol that `import paravol.cli` and "
                                      "`build_parser()` add to a fresh interpreter"},
                         row)


if __name__ == "__main__":
    sys.exit(main())
