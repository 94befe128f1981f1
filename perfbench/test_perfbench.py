"""Smoke tests of the benchmark itself: tiny workloads, a few seconds in all.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import workloads
from workloads import (Call, Clock, RatioStream, _times, engine_equal_volume,
                       pairs_problem)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seed", "3",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1, proc.stderr
    return out


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    out = result("--workload", workload, "--trace", "0", "--smoke")
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_smoke_runs_report_every_layer_metric_and_repeat_counts():
    first, second = (result("--workload", "ratio_stream", "--trace", "1", "--smoke")
                     for _ in range(2))
    got = {name: m["unit"] for name, m in first["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = {name for name, unit in got.items() if unit == "count"}
    assert counts
    assert ({n: first["metrics"][n]["value"] for n in counts}
            == {n: second["metrics"][n]["value"] for n in counts})


def test_fails_without_the_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "family_certify", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_pairs_check_rejects_a_wrong_order_value():
    good = {"diagram": "split:G2", "q": 3, "pairs": [
        {"t1": [0], "t2": [2], "dim": 4, "order_coeffs": [0, 1, -1, -1, 1], "order_at_q": 48}]}
    assert pairs_problem(json.dumps(good), "split:G2", 3) is None
    bad = json.loads(json.dumps(good))
    bad["pairs"][0]["order_at_q"] = 49
    assert "order_at_q" in pairs_problem(json.dumps(bad), "split:G2", 3)
    bad = json.loads(json.dumps(good))
    bad["pairs"][0]["t2"] = [0, 1, 2]
    assert "proper" in pairs_problem(json.dumps(bad), "split:G2", 3)


def test_pairs_check_asks_the_engine_about_each_t2():
    equal_volume = engine_equal_volume("split:G2", 3)
    pair = {"t1": [0], "t2": [2], "dim": 4, "order_coeffs": [0, 1, -1, -1, 1], "order_at_q": 48}
    out = {"diagram": "split:G2", "q": 3, "pairs": [pair]}
    assert pairs_problem(json.dumps(out), "split:G2", 3, equal_volume) is None
    pair["t2"] = [0, 2]  # two vertices: a larger quotient, so another volume
    assert pairs_problem(json.dumps(out), "split:G2", 3) is None
    assert "engine's ratio" in pairs_problem(json.dumps(out), "split:G2", 3, equal_volume)


def test_clock_scales_each_block_by_the_probes_around_it(monkeypatch):
    kernel_s = iter([1e-3, 2e-3, 4e-3])  # before the first call, after each block
    monkeypatch.setattr(workloads, "probe", lambda: next(kernel_s))
    clock = Clock(every=2)
    calls = [clock.time(Call, 0, "", wall) for wall in (0.1, 0.2, 0.3)]
    clock.finish()
    ref = workloads.REFERENCE_S
    assert [c.seconds for c in calls] == pytest.approx(
        [0.1 * ref / 1.5e-3, 0.2 * ref / 1.5e-3, 0.3 * ref / 3e-3])


def test_cocycle_product_folds_half_powers_into_q():
    half = (Fraction(1, 2), frozenset({"u1"}))
    assert _times(half, half, {"u1": 7}) == (Fraction(7, 4), frozenset())


def test_ratio_stream_inputs_depend_only_on_the_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    ra, rb = RatioStream(5, a, smoke=True), RatioStream(5, b, smoke=True)
    assert [r.path.read_text() for r in ra.requests] == [r.path.read_text() for r in rb.requests]
    roles = {r.role for r in ra.requests}
    assert {"ab", "bc", "ac", "aa"} <= roles and roles - {"ab", "bc", "ac", "aa"}

