"""The engine names the benchmark in `perfbench/` calls, checked without running it.

The benchmark's traced run wraps each (module, function) of
`perfbench/tracing.TRACED`, and its pairs check calls
`parahoric.factor_ratio(d, t1, t2, place).is_one` on vertex lists and a
place that carries only `id` and `q`.  A rename in the engine would
otherwise first show as a failed benchmark run.  The tracer's file is
loaded from its path and only read.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

from paravol.diagram import build_local_index
from paravol.parahoric import factor_ratio

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, function) for module, function, _ in tracing.TRACED]


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
