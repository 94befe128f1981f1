"""The one harness every `bench/` recorder measures with: rounds, statistic, launcher."""

import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import harness  # noqa: E402
import perf  # noqa: E402
import scale  # noqa: E402


def test_rounds_alternate_the_first_tree():
    trees = {"head": "h", "baseline": "b"}
    assert [name for name, _ in harness.rounds(trees, 4)] == [
        "head", "baseline", "baseline", "head", "head", "baseline", "baseline", "head"]
    assert list(harness.rounds({"head": "h"}, 3)) == [("head", "h")] * 3


@pytest.mark.parametrize("n", range(1, 24))
def test_spread_is_the_inclusive_median_and_quartiles(n):
    values = [((7 * k * k + 3 * k) % 31) / 7 for k in range(n)]
    found = harness.spread("t", values, 9)
    assert found["t"] == round(statistics.median(values), 9)
    if n > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        assert found["t_quartiles"] == [round(q1, 9), round(q3, 9)]


def test_spread_counts_a_timed_out_run_as_the_slowest():
    assert harness.spread("t", [None, 0.5, 0.2], 3) == {"t": 0.5, "t_quartiles": [0.35, None]}
    assert harness.spread("t", [None, None, 0.2], 3) == {"t": None, "t_quartiles": [None, None]}
    assert harness.spread("t", [], 3) == {"t": None, "t_quartiles": [None, None]}


def test_paired_is_head_less_baseline_per_round():
    block = harness.paired([1.0, 2.0, 3.0, 4.0, None], [2.0, 2.0, 1.0, 5.0, 1.0], "diff_s", 3)
    diffs = [-1.0, 0.0, 2.0, -1.0]  # the round baseline alone finished is left out
    q1, _, q3 = statistics.quantiles(diffs, n=4, method="inclusive")
    assert block == {"diff_s": statistics.median(diffs), "diff_s_quartiles": [q1, q3],
                     "head_faster_rounds": 2, "rounds": 4}


def test_a_launch_gives_seconds_and_peak_and_exits_on_failure():
    seconds, mb = harness.timed_peak(harness.SRC, ["-c", "pass"])
    assert 0 < seconds < 10 and 1 < mb < 1000
    with pytest.raises(SystemExit, match="failed"):
        harness.timed_peak(harness.SRC, ["-c", "raise SystemExit(3)"])


def test_a_timed_out_launch_kills_the_timed_process(tmp_path):
    pid_file = tmp_path / "pid"
    code = f"import os, time; open({str(pid_file)!r}, 'w').write(str(os.getpid())); time.sleep(5)"
    start = time.perf_counter()
    assert harness.timed_peak(harness.SRC, ["-c", code], timeout=0.5) is None
    assert time.perf_counter() - start < 4
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def test_measure_writes_columns_outputs_and_the_paired_block():
    trees = {"head": harness.SRC, "baseline": harness.SRC}
    write = ["-c", "import sys; open(sys.argv[1], 'w').write(open(sys.argv[2]).read())",
             harness.OUTPUT, harness.INPUT]
    row = harness.measure({"k": 1}, trees, 2, {"copy": write}, request=[1])
    for column in row["columns"].values():
        assert set(column) == {"copy_s", "copy_s_quartiles", "copy_peak_rss_mb",
                               "copy_peak_rss_mb_quartiles", "timed_out",
                               "output_bytes", "output_sha256"}
        assert column["timed_out"] == 0 and column["output_bytes"] == 3
    assert row["k"] == 1 and row["paired"]["rounds"] == 2
    # a step that writes no output file gets no digest
    row = harness.measure({}, {"head": harness.SRC}, 1, {"noop": ["-c", "pass"]})
    assert "output_sha256" not in row["columns"]["head"] and "paired" not in row


@pytest.fixture
def fake_paravol(tmp_path):
    """A source tree whose `paravol.cli.run` records whether the cyclic GC is on."""
    package = tmp_path / "paravol"
    package.mkdir()
    (package / "__init__.py").write_text("")
    # it prints its arguments, and `write FILE` writes "out" to FILE
    (package / "cli.py").write_text("import gc\nSEEN = []\n\n\ndef run(argv):\n"
                                    "    SEEN.append(gc.isenabled())\n    print(*argv)\n"
                                    "    if argv[0] == 'write':\n"
                                    "        open(argv[1], 'w').write('out')\n    return 0\n")
    (package / "__main__.py").write_text("import sys\nfrom paravol.cli import run\n"
                                         "sys.exit(run(sys.argv[1:]))\n")
    kept = {n: m for n, m in sys.modules.items() if n == "paravol" or n.startswith("paravol.")}
    yield tmp_path
    for name in [n for n in sys.modules if n == "paravol" or n.startswith("paravol.")]:
        del sys.modules[name]
    sys.modules.update(kept)


def test_an_in_process_call_runs_with_the_collector_off(fake_paravol):
    assert harness.in_process_ms(fake_paravol, ["x"]) >= 0
    assert sys.modules["paravol.cli"].SEEN == [False] and gc.isenabled()


def test_an_in_process_row_times_every_step_and_sums_them(fake_paravol, monkeypatch, capsys):
    timed = []
    in_process_ms = harness.in_process_ms

    def recorded(src, argv):
        timed.append((argv[0], in_process_ms(src, argv)))
        return timed[-1][1]

    monkeypatch.setattr(harness, "in_process_ms", recorded)
    steps = {"write": [*harness.PARAVOL, "write", harness.OUTPUT],
             "read": [*harness.PARAVOL, "read", harness.OUTPUT]}
    row = harness.measure({}, {"head": fake_paravol}, 1, steps, in_process_runs=1)
    assert [step for step, _ in timed] == ["write", "read"]
    column = row["columns"]["head"]
    assert column["in_process_ms"] == round(sum(ms for _, ms in timed), 2)
    assert column["output_bytes"] == 3
    assert capsys.readouterr().out == ""


def test_each_in_process_call_writes_a_new_output_file(fake_paravol, monkeypatch):
    # reopening a file written moments before waits for that write to reach the disk
    existed = []
    in_process_ms = harness.in_process_ms

    def recorded(src, argv):
        existed.append(os.path.exists(argv[1]))
        return in_process_ms(src, argv)

    monkeypatch.setattr(harness, "in_process_ms", recorded)
    steps = {"write": [*harness.PARAVOL, "write", harness.OUTPUT]}
    row = harness.measure({}, {"head": fake_paravol}, 2, steps, in_process_runs=2)
    assert existed == [False] * 4
    assert row["columns"]["head"]["output_bytes"] == 3


def test_scale_refuses_a_max_m_past_the_places(tmp_path, capsys):
    with pytest.raises(SystemExit) as done:
        scale.main(["--max-m", "9", "--output", str(tmp_path / "scale.json")])
    assert done.value.code == 2
    assert "--max-m must be between 4 and 8" in capsys.readouterr().err


# A perfbench/run.py that prints a fixed result line after a line of noise.
# Its setup_s is the seed, and it exits 3 unless it runs from its tree's root.
STUB_RUN = """\
import json, sys
from pathlib import Path
if Path.cwd() != Path(__file__).resolve().parent.parent:
    sys.exit(3)
seed = int(sys.argv[sys.argv.index("--seed") + 1])
print("noise")
print(json.dumps({"correct": True, "attempted": 2, "failed": FAILED, "metrics": {
    "setup_s": {"value": seed, "unit": "s"},
    "op_ms": {"value": OP_MS, "unit": "ms"},
    "ops_per_s": {"value": 1000 / OP_MS, "unit": "1/s"},
    "out_bytes": {"value": OUT_BYTES, "unit": "bytes"}}}))
"""


def stub_tree(root, op_ms, out_bytes=100, failed=0):
    """The source directory of a tree whose perfbench reports fixed metrics."""
    (root / "src" / "paravol").mkdir(parents=True)
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(
        STUB_RUN.replace("FAILED", str(failed)).replace("OP_MS", str(op_ms))
        .replace("OUT_BYTES", str(out_bytes)))
    return root / "src"


def test_perf_pairs_each_metric_by_its_direction(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "SRC", stub_tree(tmp_path / "head", op_ms=10))
    baseline = stub_tree(tmp_path / "baseline", op_ms=20)
    output = tmp_path / "perf.json"
    assert perf.main(["--workload", "w", "--runs", "3", "--seed", "7", "--seconds", "0",
                      "--baseline-src", str(baseline), "--output", str(output)]) == 0
    record = json.loads(output.read_text())
    assert record["seeds"] == [7, 8, 9] and record["refused"] == []
    # both trees ran with each round's seed
    values = record["values"]
    assert values["head"]["setup_s"] == values["baseline"]["setup_s"] == [7, 8, 9]
    assert record["columns"]["head"]["op_ms"] == 10 and record["columns"]["baseline"]["op_ms"] == 20
    assert record["columns"]["head"]["attempted"] == 6
    paired = record["paired"]
    assert set(paired) == {"setup_s", "op_ms", "ops_per_s", "out_bytes"}
    # a lower op_ms and a higher ops_per_s each win every round
    assert paired["op_ms"] == {"diff": -10, "diff_quartiles": [-10, -10],
                               "head_faster_rounds": 3, "rounds": 3}
    assert paired["ops_per_s"]["diff"] == 50 and paired["ops_per_s"]["head_faster_rounds"] == 3
    assert paired["out_bytes"]["diff"] == 0 and paired["out_bytes"]["head_faster_rounds"] == 0
    assert set(record["host"]["bytecode_cached"]) == {"head", "baseline"}
    assert "PYTHONDONTWRITEBYTECODE" in record["host"]


@pytest.mark.parametrize("change", [{"out_bytes": 101}, {"failed": 1}],
                         ids=["out-bytes", "failed"])
def test_perf_refuses_unequal_out_bytes_and_failed_operations(tmp_path, monkeypatch, capsys,
                                                              change):
    monkeypatch.setattr(harness, "SRC", stub_tree(tmp_path / "head", op_ms=10))
    baseline = stub_tree(tmp_path / "baseline", op_ms=10, **change)
    output = tmp_path / "perf.json"
    assert perf.main(["--workload", "w", "--runs", "2", "--seconds", "0",
                      "--baseline-src", str(baseline), "--output", str(output)]) == 1
    refused = json.loads(output.read_text())["refused"]
    assert len(refused) == 2
    assert refused[0] == ("round 0: out_bytes 100 (head), 101 (baseline)" if "out_bytes" in change
                          else "round 0, baseline: 1 failed operations")
    assert f"perf: {refused[0]}" in capsys.readouterr().err
