"""How every `bench/` record is measured: trees, rounds, launcher, statistic and writer.

A recorder takes its options from `parser` (`--baseline-src` and
`--output`, plus its own), gets the trees to time from `trees`, measures
each row of its record with `measure` and writes the record with `write`.
Column "head" times this tree; with `--baseline-src OTHER/src` column
"baseline" times the tree whose source directory is OTHER/src.

`measure` runs a row's steps, each a `python` command, as separate
processes, so each time includes interpreter start-up and import, as a
user of the command pays it.  The trees take turns in rounds, one round
of steps per tree, the first tree of a round swapped from one round to
the next, so a drift in host speed hits both columns alike.  Linux
counts in a process's peak resident set size, which `os.wait4` returns,
the pages of the process that started it up to its exec, so a small
launcher (`LAUNCHER`), not this process, starts and times each one.

Every time and peak is reported as its median with its first and third
quartiles (`spread`), so a difference between two columns can be read
against each column's spread.  On a shared host the medians of one tree
can move by a third between two records, so a row with two columns also
holds a paired statistic (`paired`): per round, head's time less
baseline's.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PARAVOL = ["-m", "paravol"]
# In a step's arguments, the file holding the row's request and the tree's output file.
INPUT, OUTPUT = "<input>", "<output>"
STATISTIC = ("median and inclusive quartiles of each step's wall seconds and peak RSS MB per "
             "process, a timed-out run the slowest, and of in-process ms, a call's steps "
             "summed, GC off in each step; "
             "'paired': per round, head's in-process median, else its steps' seconds summed, "
             "less baseline's, with the rounds head won and the rounds both finished")

# Forks and execs `python <args>` with stdout to /dev/null, then prints its
# exit code, wall seconds and peak RSS in kilobytes (the unit of Linux).
# The child arms a timer of argv[1] seconds (0: none) before its exec; the
# timer outlives the exec, and its SIGALRM ends the timed process, which
# this launcher then reaps.
LAUNCHER = """
import os, signal, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    signal.setitimer(signal.ITIMER_REAL, float(sys.argv[1]))
    os.execv(sys.executable, [sys.executable, *sys.argv[2:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss)
"""


def parser(doc):
    """An argument parser, described by the first paragraph of `doc`, with the tree options."""
    found = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    found.add_argument("--baseline-src", type=Path,
                       help="source directory of another tree, timed as column 'baseline'")
    found.add_argument("--output", type=Path, required=True)
    return found


def trees(args):
    """The source directory of each column: "head", and "baseline" with --baseline-src."""
    found = {"head": SRC}
    if args.baseline_src is not None:
        found["baseline"] = args.baseline_src.resolve()
    return found


def rounds(trees, runs):
    """(name, source directory) of each tree in each of `runs` rounds, the first swapped each round."""
    order = list(trees.items())
    for r in range(runs):
        yield from order[::-1] if r % 2 else order


def timed_peak(src, argv, timeout=None):
    """Wall seconds and peak RSS in MB of one `python <argv>` process with `src` on its path.

    None if it ran past `timeout` seconds, when it is killed; exits if it fails.
    """
    done = subprocess.run([sys.executable, "-S", "-c", LAUNCHER, str(timeout or 0), *argv],
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
    fields = done.stdout.split()
    if timeout and done.returncode == 0 and fields[:1] == [str(-signal.SIGALRM)]:
        return None
    if done.returncode != 0 or len(fields) != 3 or fields[0] != "0":
        sys.exit(f"python {' '.join(argv)} with {src} failed: {done.stdout.strip()} "
                 f"{done.stderr.strip()}")
    return float(fields[1]), int(fields[2]) / 1024


def in_process_ms(src, argv):
    """Milliseconds of one `cli.run(argv)` after a fresh import of `paravol` from src.

    The import is not timed.  The cyclic GC collects the garbage of earlier
    calls and imports before the call and is off during it, so where a
    collection lands does not move the time.  What the command writes to
    stdout goes to a buffer, not to this script's stdout.
    """
    for name in [n for n in sys.modules if n == "paravol" or n.startswith("paravol.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("paravol.cli")
    finally:
        sys.path.remove(str(src))
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.run(argv)
            ms = (time.perf_counter() - start) * 1e3
    finally:
        gc.enable()
    if code != 0:
        sys.exit(f"paravol {' '.join(argv)} in process with {src} exited {code}")
    return ms


def spread(key, values, digits):
    """{key: the median of the values, key_quartiles: their first and third quartiles}.

    The quartiles are the inclusive method's, and all three are rounded.  A
    None, a timed-out run, counts as slower than any other value, and a
    statistic that falls on or next to one is None.
    """
    data = sorted(float("inf") if v is None else v for v in values)
    found = [None] * 3
    for i in range(3 if data else 0):  # statistics.quantiles' arithmetic, exact at a point
        j, delta = divmod((i + 1) * (len(data) - 1), 4)
        x = (data[j] * (4 - delta) + data[j + 1] * delta) / 4 if delta else data[j]
        found[i] = None if x == float("inf") else round(x, digits)
    return {key: found[1], f"{key}_quartiles": [found[0], found[2]]}


def paired(head, baseline, key, digits):
    """Per round, head's time less baseline's, over the rounds both trees finished.

    The block holds the median and quartiles of those differences under
    `key`, the rounds head won and the rounds compared.
    """
    diffs = [h - b for h, b in zip(head, baseline) if h is not None and b is not None]
    return {**spread(key, diffs, digits),
            "head_faster_rounds": sum(d < 0 for d in diffs), "rounds": len(diffs)}


def measure(row, trees, runs, steps, request=None, timeout=None, in_process_runs=0):
    """`row` with a column per tree and, with two trees, the paired block.

    `steps` maps each step's name to its `python` arguments, in which
    INPUT stands for a file holding the JSON `request` and OUTPUT for the
    tree's output file.  A column holds, per step, `<step>_s` and
    `<step>_peak_rss_mb` with their quartiles over `runs` rounds, the
    number of processes that ran past `timeout` seconds and, when the
    steps write OUTPUT, its size and SHA-256.  With `in_process_runs`,
    each step is a `paravol` command, its arguments PARAVOL and the CLI's,
    and after each round of processes the row's steps are called in turn
    that many times in this process, a call's time the sum of its steps';
    the output file each call leaves must be the processes' byte for byte.
    """
    samples = {name: {step: [] for step in steps} for name in trees}
    calls = {name: [] for name in trees}
    main = {name: [] for name in trees}  # per round, the time `paired` compares
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {INPUT: str(Path(tmp) / "request.json")}
        if request is not None:
            Path(paths[INPUT]).write_text(json.dumps(request))
        for name, src in rounds(trees, runs):
            output = Path(tmp) / f"output-{name}"
            output.unlink(missing_ok=True)
            paths[OUTPUT] = str(output)
            argvs = [[paths.get(a, a) for a in argv] for argv in steps.values()]
            done = {}
            for step, argv in zip(steps, argvs):
                done[step] = timed_peak(src, argv, timeout)
                samples[name][step].append(done[step])
            finished = None not in done.values()
            if finished and output.exists():
                outputs[name] = output.read_bytes()
            if not in_process_runs:
                main[name].append(sum(s for s, _ in done.values()) if finished else None)
                continue
            ms = []
            for _ in range(in_process_runs):
                ms.append(sum(in_process_ms(src, argv[len(PARAVOL):]) for argv in argvs))
                if output.read_bytes() != outputs[name]:
                    sys.exit(f"{' then '.join(steps)} with {src}: "
                             f"the in-process output differs from the processes'")
            calls[name] += ms
            main[name].append(statistics.median(ms))
    columns = {}
    for name in trees:
        column = columns[name] = {}
        for step, done in samples[name].items():
            column |= spread(f"{step}_s", [r and r[0] for r in done], 4)
            column |= spread(f"{step}_peak_rss_mb", [r and r[1] for r in done], 1)
        if in_process_runs:
            column |= spread("in_process_ms", calls[name], 2)
        column["timed_out"] = sum(r is None for done in samples[name].values() for r in done)
        if name in outputs:
            column["output_bytes"] = len(outputs[name])
            column["output_sha256"] = hashlib.sha256(outputs[name]).hexdigest()
    row = {**row, "columns": columns}
    if len(trees) == 2:
        row["paired"] = paired(main["head"], main["baseline"],
                               *(("in_process_diff_ms", 2) if in_process_runs
                                 else ("process_diff_s", 4)))
    print(json.dumps(row), file=sys.stderr)
    return row


def host():
    """The machine, CPU count and Python of this host, and whether bytecode writing is off."""
    return {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
    }


def write(output, fields, tables):
    """Write `fields`, the statistic, the host and `tables` to `output` as indented JSON."""
    record = {**fields, "statistic": STATISTIC, "host": host(), **tables}
    output.write_text(json.dumps(record, indent=2) + "\n")
    return 0
