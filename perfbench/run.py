"""paravol benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload family_certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the engine is imported from `src/`.
With `--trace 0` the run repeats the workload's pass for `--seconds`
seconds, and at least the workload's minimum number of passes, times a
fresh interpreter's set-up between passes, and reports the end-to-end
metrics.  Operation times are in reference seconds: wall time scaled by a
kernel timed around each call (`workloads.Clock`), so that the shared
host's changing speed cancels out.  With `--trace 1` it runs one pass of
every workload untraced and once more traced, and reports per-layer
counts and self times under names that start with the workload (so every
traced run reports every layer metric).  `--smoke` shrinks each workload
for the benchmark's own tests.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import MODULES, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FC, PS, RS = "family_certify", "pairs_sweep", "ratio_stream"
ALL = (FC, PS, RS)

# Layer metrics and the workloads that call the layer.  A row's predicted
# end-to-end effect is recorded in perfbench/README.md.
LAYER_ROWS = (
    ("reductive.quotient_descriptor", ("calls", "self_s", "distinct_keys"), ALL),
    ("reductive.prime_power_base", ("calls", "self_s"), ALL),
    ("reductive.is_prime", ("calls", "self_s"), (FC, RS)),
    ("construction.relative_covolume", ("calls", "self_s"), (FC, RS)),
    ("construction.refinement_index", ("calls", "self_s"), (FC, RS)),
    ("construction.certify_family", ("self_s",), (FC,)),
    ("construction.build_family", ("self_s",), (FC,)),
    ("parahoric.factor_ratio", ("calls", "self_s"), (FC, RS)),
    ("parahoric.conjugate_types", ("calls", "self_s"), (FC,)),
    ("parahoric.orbit_representatives", ("self_s",), (FC, PS)),
    ("parahoric.find_equal_volume_pairs", ("self_s",), (FC, PS)),
    ("parahoric.pairs_to_json", ("self_s",), (PS,)),
    ("diagram.build_local_index", ("calls", "self_s"), ALL),
    ("diagram.automorphism_search", ("self_s",), ALL),
    ("diagram.induced_subdiagram", ("calls", "self_s"), ALL),
    ("roots.positive_roots", ("calls", "self_s"), ALL),
    ("cli.json_encode", ("self_s",), ALL),
    ("cli.json_decode", ("self_s",), (FC, RS)),
    ("cli.schema", ("self_s",), (FC, RS)),
)
MODULE_WORKLOADS = {"construction": (FC, RS)}
# The CLI calls of one family_certify operation, timed in the untraced pass.
FC_STEPS = ("family", "certify", "reject")
UNITS = {"calls": "count", "distinct_keys": "count", "self_s": "s"}


def layer_metric_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for wl in ALL:
        for base, stats, workloads in LAYER_ROWS:
            if wl in workloads:
                names += [(f"{wl}.{base}.{s}", UNITS[s]) for s in stats]
        for module in MODULES:
            if wl in MODULE_WORKLOADS.get(module, ALL):
                names.append((f"{wl}.{module}.self_s", "s"))
        if wl == FC:
            names += [(f"{wl}.cli.{step}.wall_s", "s") for step in FC_STEPS]
        names.append((f"{wl}.trace_overhead_s", "s"))
    return names


def setup_time():
    """Wall time of a fresh interpreter importing the CLI and building its parser.

    It is not scaled to the reference host: the kernel, timed in this
    process, tracks a child interpreter's start-up less well than the wall
    time alone does.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import paravol.cli as c; c.build_parser()"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
                   stdout=subprocess.DEVNULL, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def timed_run(workload, seconds):
    """Operations of the passes run for `seconds`, and the set-up times taken.

    The run goes on past `seconds` until it has the workload's minimum
    number of passes.  One set-up is timed after each pass, so that the
    set-up samples spread over the whole run like the operations do.
    """
    setup_time()  # leaves bytecode caches, as an installed CLI has
    setups = [setup_time() for _ in range(3)]
    ops = []
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes < workload.min_passes or time.perf_counter() < deadline:
        gc.collect()
        ops.extend(workload.run_pass())
        passes += 1
        setups.append(setup_time())
    return ops, setups


def tail(samples):
    """The 99th percentile, but never with fewer than ten samples beyond it.

    With under 1,100 samples that is the highest sample with ten beyond it;
    with fewer than eleven, the slowest.  On ratio_stream, with thousands
    of samples, the highest with ten beyond it would be set by the host's
    rare stalls and not by the engine.
    """
    ordered = sorted(samples)
    beyond = max(10, len(ordered) // 100)
    return ordered[-beyond - 1] if len(ordered) > beyond else ordered[-1]


def end_to_end(ops, setups):
    latencies = [op.seconds for op in ops]
    invocations = [call.seconds for op in ops for call in op.calls]
    walls = [sum(call.wall for call in op.calls) for op in ops]
    print(f"{len(ops)} operations; tail over {len(invocations)} invocations; "
          f"{len(setups)} set-ups; median wall time of an operation "
          f"{statistics.median(walls) * 1e3:.6g} ms, scaled to "
          f"{statistics.median(latencies) * 1e3:.6g} reference ms", file=sys.stderr)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms": (statistics.median(latencies) * 1e3, "ms"),
        "tail_ms": (tail(invocations) * 1e3, "ms"),
        "ops_per_s": (len(ops) / sum(latencies), "1/s"),
        "out_bytes": (statistics.median(op.out_bytes for op in ops), "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(workloads):
    """Untraced then traced pass of each workload; per-layer metrics by workload.

    The untraced pass times family_certify's CLI calls and caches the output
    checks' verdicts, so that the traced pass pays only for its wrappers.
    """
    names = layer_metric_names()
    metrics, ops = {}, []
    for wl in workloads:
        gc.collect()
        plain = wl.run_pass()
        tracer = Tracer()
        gc.collect()
        traced = wl.run_pass(tracer)
        ops += plain + traced
        values = {"trace_overhead_s": tracer.overhead_s()}
        for base, st in tracer.stats.items():
            values.update({f"{base}.calls": st.calls, f"{base}.self_s": st.self_s,
                           f"{base}.distinct_keys": len(st.keys)})
        for module in MODULES:
            values[f"{module}.self_s"] = tracer.module_self_s(module)
        if wl.name == FC:
            for step, call in zip(FC_STEPS, plain[0].calls):
                values[f"cli.{step}.wall_s"] = call.wall
        prefix = f"{wl.name}."
        for name, unit in names:
            if name.startswith(prefix):
                metrics[name] = (values[name[len(prefix):]], unit)
    return metrics, ops


def report_failures(ops, seed):
    failed = [op for op in ops if op.failure]
    if failed:
        first = failed[0]
        print(f"{len(failed)} failed operations; first: seed {seed}, request index "
              f"{first.index}, group {first.label}: {first.failure}", file=sys.stderr)
    return len(failed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "paravol" / "cli.py").is_file():
        print(f"perfbench: no paravol sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            workloads = [WORKLOADS[name](args.seed, workdir, args.smoke) for name in ALL]
            metrics, ops = traced_run(workloads)
        else:
            workload = WORKLOADS[args.workload](args.seed, workdir, args.smoke)
            ops, setups = timed_run(workload, args.seconds)
            metrics = end_to_end(ops, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    failed = report_failures(ops, args.seed)
    for name, (value, unit) in metrics.items():
        print(f"{name:60s} {value:>16.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
