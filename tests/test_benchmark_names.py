"""The engine names the benchmark in `perfbench/` calls, checked without running it.

The benchmark's traced run wraps each (module, function) of
`perfbench/tracing.TRACED`, and its pairs check calls
`parahoric.factor_ratio(d, t1, t2, place).is_one` on vertex lists and a
place that carries only `id` and `q`.  Its tracer keys each
`quotient_descriptor` call by the sorted `vertices` of the type it is
given, or of the vertex list.  A rename in the engine, or a type without
`vertices`, would otherwise first show as a failed benchmark run.  The
tracer's file is loaded from its path and only read.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from paravol import cli, reductive
from paravol.diagram import ParahoricTypeSpec, build_local_index
from paravol.parahoric import factor_ratio

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def traced_names():
    return [(module, function) for module, function, _ in tracing_module().TRACED]


def test_every_traced_function_exists_in_paravol():
    names = traced_names()
    assert ("parahoric", "orbit_representatives") in names
    for module, function in names:
        assert callable(getattr(importlib.import_module(f"paravol.{module}"), function, None)), \
            f"paravol.{module}.{function}"


def test_the_benchmarks_volume_check_runs_on_vertex_lists():
    d = build_local_index("split:B3")
    place = SimpleNamespace(id="v", q=7)
    assert factor_ratio(d, [0], [2], place).is_one  # split:B3's first pair
    assert not factor_ratio(d, [0], [1, 2, 3], place).is_one  # dim 5 against 21


def test_the_tracer_keys_every_descriptor_call_of_a_refined_run(tmp_path, monkeypatch, capsys):
    # every copy of `quotient_descriptor` in the package records its (d, t),
    # as the tracer's wrapper would see them, over family, certify and ratio
    key = tracing_module().KEYED["reductive.quotient_descriptor"]
    original, seen = reductive.quotient_descriptor, []

    def recorded(d, t, *args, **kwargs):
        seen.append((d, t))
        return original(d, t, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "paravol" or name.startswith("paravol."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recorded)
    places = [{"id": pid, "q": q, "p": q}
              for pid, q in (("v2", 2), ("v3", 3), ("w5", 5), ("w7", 7))]
    request, cert = tmp_path / "req.json", tmp_path / "cert.json"
    request.write_text(json.dumps({"group": "split:B3", "places": places,
                                   "family_places": ["v2", "v3"], "refine": ["w5", "w7"]}))
    ratio = tmp_path / "ratio.json"
    ratio.write_text(json.dumps({"group": "split:B3", "places": places, "collections": [
        {"assignment": {"v2": [0, 2]}, "refinements": ["v2", "w7"]},
        {"assignment": {"v2": [1], "w5": [1, 3]}, "refinements": ["w5"]}]}))
    assert cli.run(["family", "--input", str(request), "--output", str(cert)]) == 0
    assert cli.run(["certify", "--input", str(cert)]) == 0
    assert cli.run(["ratio", "--input", str(ratio)]) == 0
    assert capsys.readouterr().err == ""
    assert any(isinstance(t, ParahoricTypeSpec) for _, t in seen)
    for d, t in seen:
        assert key((d, t)) == (d.group.label, d.check_proper(t).vertices), t
