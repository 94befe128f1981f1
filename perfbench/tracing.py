"""Per-layer counters for the traced run, recorded from outside the engine.

The engine has no spans of its own yet, so the tracer wraps the named
functions of each module after import: every module attribute of the
`paravol` package that is the original function object (the defining
module's global and every `from .x import f` copy in `cli`,
`construction` and `parahoric`) is replaced by one wrapper.  The engine
is single-threaded and has no queues, so a layer reports counts and self
time; self time is wall time inside the call minus the time spent in
wrapped calls beneath it.
"""

from __future__ import annotations

import statistics
import sys
import time
from types import SimpleNamespace

# (module, function, layer metric base).  Two cli helpers share one base:
# schema validation of places and of collections.
TRACED = (
    ("roots", "positive_roots", "roots.positive_roots"),
    ("diagram", "build_local_index", "diagram.build_local_index"),
    ("diagram", "_graph_automorphisms", "diagram.automorphism_search"),
    ("diagram", "induced_subdiagram", "diagram.induced_subdiagram"),
    ("reductive", "quotient_descriptor", "reductive.quotient_descriptor"),
    ("reductive", "prime_power_base", "reductive.prime_power_base"),
    ("reductive", "is_prime", "reductive.is_prime"),
    ("parahoric", "factor_ratio", "parahoric.factor_ratio"),
    ("parahoric", "conjugate_types", "parahoric.conjugate_types"),
    ("parahoric", "orbit_representatives", "parahoric.orbit_representatives"),
    ("parahoric", "find_equal_volume_pairs", "parahoric.find_equal_volume_pairs"),
    ("parahoric", "pairs_to_json", "parahoric.pairs_to_json"),
    ("construction", "relative_covolume", "construction.relative_covolume"),
    ("construction", "refinement_index", "construction.refinement_index"),
    ("construction", "certify_family", "construction.certify_family"),
    ("construction", "build_family", "construction.build_family"),
    ("cli", "_dump", "cli.json_encode"),
    ("cli", "_load_json", "cli.json_decode"),
    ("cli", "_places_from_json", "cli.schema"),
    ("cli", "_collection_from_json", "cli.schema"),
    ("cli", "run", "cli.run"),
)

MODULES = ("roots", "diagram", "reductive", "parahoric", "construction", "cli")


def _descriptor_key(args):
    d, t = args[0], args[1]
    return d.group.label, tuple(sorted(getattr(t, "vertices", t)))


# Layer metric bases whose distinct argument keys are counted.
KEYED = {"reductive.quotient_descriptor": _descriptor_key}


# Arguments shaped like a (diagram, type) pair, for calibrating a keyed wrapper.
_KEY_ARGS = (SimpleNamespace(group=SimpleNamespace(label="split:B3")),
             SimpleNamespace(vertices=(0, 2)))


def _wrapper_cost(key, args, calls=20_000, repeats=7):
    """Median seconds a wrapper adds to one call of an empty function."""
    def empty(*args):
        return None

    wrapped = Tracer()._wrap(Stat(), empty, key)
    costs = []
    for _ in range(repeats):
        timings = []
        for func in (empty, wrapped):
            start = time.perf_counter()
            for _ in range(calls):
                func(*args)
            timings.append(time.perf_counter() - start)
        costs.append((timings[1] - timings[0]) / calls)
    return statistics.median(costs)


class Stat:
    __slots__ = ("calls", "self_s", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.keys = set()


class Tracer:
    """Counts calls and self time per layer metric base across invocations."""

    def __init__(self):
        self.stats = {base: Stat() for _, _, base in TRACED}
        self._children = []  # wall time of wrapped callees, one slot per open call

    def install(self):
        """Wrap the traced functions of the currently imported paravol modules."""
        modules = [m for name, m in sys.modules.items()
                   if name == "paravol" or name.startswith("paravol.")]
        for module_name, func_name, base in TRACED:
            original = getattr(sys.modules[f"paravol.{module_name}"], func_name)
            wrapper = self._wrap(self.stats[base], original, KEYED.get(base))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, stat, func, key):
        children = self._children
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if key is not None:
                stat.keys.add(key(args))
            children.append(0.0)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.self_s += elapsed - children.pop()
                if children:
                    children[-1] += elapsed

        return traced

    def overhead_s(self):
        """Wall time the wrappers added to the traced calls, as calibrated here.

        Each wrapped call costs what a wrapped empty function costs over a
        direct call to it, measured now; a keyed call also pays for its key.
        """
        plain = _wrapper_cost(None, ())
        keyed = {base: _wrapper_cost(key, _KEY_ARGS) for base, key in KEYED.items()}
        return sum(st.calls * keyed.get(base, plain) for base, st in self.stats.items())

    def module_self_s(self, module):
        return sum(s.self_s for base, s in self.stats.items()
                   if base.split(".")[0] == module)
