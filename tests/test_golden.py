"""Golden corpus: exit code and stdout digest of fixed CLI invocations.

The corpus covers `diagram`, `diagram --dot` and `pairs --q 7` for every
split label of rank at most 8 and both twisted indices, `pairs --q 1009`
for three labels above rank 8 (thousands of pairs each), `pairs` without
`--q` for four labels (no `order_at_q` and no `"q"`; split:A4 has no
pair), `family` and `certify` round trips (with a refinement, with the
two-place swap and on a twisted group), fixed `ratio` requests, `family`
and `certify` on the 64-member request shape the benchmark's family
workload sends, a `ratio` at each A-D rank cap, the `diagram` at each
A-D rank cap, the largest JSON documents written in one piece, and, last,
`family` and `certify` on split:D100 with types that hold vertices up to 97.
`tests/golden.json` holds the SHA-256 of each stdout, not the output
itself.

A refactor must leave every digest unchanged.  A change that alters output
on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and names each changed entry.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from paravol.cli import run

GOLDEN = Path(__file__).with_name("golden.json")

LABELS = (
    [f"split:A{r}" for r in range(1, 9)]
    + [f"split:B{r}" for r in range(3, 9)]
    + [f"split:C{r}" for r in range(2, 9)]
    + [f"split:D{r}" for r in range(4, 9)]
    + ["split:E6", "split:E7", "split:E8", "split:F4", "split:G2",
       "twisted:C-BC1", "twisted:C-B2"]
)

LARGE_PAIRS_LABELS = ("split:A11", "split:C10", "split:D10")
PLAIN_PAIRS_LABELS = ("split:A4", "split:B3", "split:E8", "twisted:C-B2")


def _place(pid, q, p):
    return {"id": pid, "q": q, "p": p}


FAMILIES = {
    "split:B3 refined": {
        "group": "split:B3",
        "places": [_place("v2", 2, 2), _place("v3", 3, 3), _place("v5", 5, 5),
                   _place("w4", 4, 2), _place("w9", 9, 3)],
        "family_places": ["v2", "v3", "v5"],
        "refine": ["w4", "w9"],
    },
    "twisted:C-B2": {
        "group": "twisted:C-B2",
        "places": [_place("v2", 2, 2), _place("v3", 3, 3), _place("x5", 5, 5)],
        "family_places": ["v2", "v3"],
    },
}

# Requests recorded after every other entry, so adding them moved none.
# split:B3 with six family places q = 2..13 refined at w4 and w9, its
# places and family places in no sorted order: 64 members, 2,016 witnesses.
LATER_FAMILIES = (
    ("split:B3 six places refined", {
        "group": "split:B3",
        "places": [_place("v7", 7, 7), _place("w9", 9, 3), _place("v2", 2, 2),
                   _place("v13", 13, 13), _place("w4", 4, 2), _place("v5", 5, 5),
                   _place("v11", 11, 11), _place("v3", 3, 3)],
        "family_places": ["v11", "v3", "v13", "v2", "v7", "v5"],
        "refine": ["w4", "w9"],
    }),
)

# Recorded after LATER_FAMILIES: at each A-D rank cap, the hyperspecial type
# {1..n} against {0} at q = 1009, the largest orders the engine produces.
CAP_RATIOS = tuple(
    (label, {"group": label, "places": [_place("v", 1009, 1009)],
             "collections": [{"assignment": {"v": list(range(1, rank + 1))}},
                             {"assignment": {"v": [0]}}]})
    for label, rank in (("split:A150", 150), ("split:B100", 100),
                        ("split:C100", 100), ("split:D100", 100)))

# Recorded after CAP_RATIOS: the diagram at each A-D rank cap.
CAP_DIAGRAMS = ("split:A150", "split:B100", "split:C100", "split:D100")

# Recorded after CAP_DIAGRAMS: a family whose types hold vertices past 15,
# up to 97, so its witnesses carry masks wider than any search mask.  4
# members, 6 witnesses.
WIDE_FAMILIES = (
    ("split:D100 wide masks", {
        "group": "split:D100",
        "places": [_place("v2", 2, 2), _place("v3", 3, 3)],
        "family_places": ["v2", "v3"],
        "pairs": {"v2": [[50], [51]], "v3": [[2, 97], [3, 60]]},
    }),
)

SWAP_FAMILY = {
    "group": "split:A4",
    "places": [_place("u1", 7, 7), _place("u2", 7, 7), _place("u3", 8, 2),
               _place("u4", 8, 2), _place("x3", 3, 3)],
    "family_places": ["u1", "u2", "u3", "u4"],
}


def _ratio(group, places, a, b):
    return {"group": group, "places": places, "collections": [a, b]}


RATIOS = {
    "split:A3": _ratio(
        "split:A3", [_place("v", 2, 2)],
        {"assignment": {"v": [0, 2]}}, {"assignment": {"v": [0, 3]}}),
    "split:B3 refined": _ratio(
        "split:B3", [_place("v2", 2, 2), _place("v3", 3, 3), _place("w4", 4, 2)],
        {"assignment": {"v2": [2, 3], "v3": []}, "refinements": ["v2", "v3"]},
        {"assignment": {"v2": [0, 1, 3], "w4": [1]}, "refinements": ["w4"]}),
    "split:G2": _ratio(
        "split:G2", [_place("v", 5, 5), _place("w", 9, 3)],
        {"assignment": {"v": [0], "w": [1, 2]}},
        {"assignment": {"v": [], "w": [2]}}),
    "split:E8 refined": _ratio(
        "split:E8", [_place("v", 2, 2), _place("w", 3, 3)],
        {"assignment": {"v": [], "w": []}, "refinements": ["v", "w"]},
        {"assignment": {"v": [0, 2, 3, 4, 5, 6, 7, 8]}}),
    "twisted:C-BC1": _ratio(
        "twisted:C-BC1", [_place("v2", 2, 2), _place("v3", 3, 3)],
        {"assignment": {"v2": [0]}}, {"assignment": {"v2": [], "v3": [1]}}),
    "twisted:C-B2 refined": _ratio(
        "twisted:C-B2", [_place("v4", 4, 2), _place("v7", 7, 7)],
        {"assignment": {"v4": [0, 2]}, "refinements": ["v7"]},
        {"assignment": {"v4": [1], "v7": []}, "refinements": ["v4"]}),
    "split:D4 improper": _ratio(
        "split:D4", [_place("v", 3, 3)],
        {"assignment": {"v": [0, 1, 2, 3, 4]}}, {"assignment": {"v": [0]}}),
}


def _invoke(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


def corpus(workdir):
    """Entry name -> {"exit": code, "stdout_sha256": digest}, in a fixed order."""
    entries = {}

    def record(name, argv):
        code, out = _invoke(argv)
        entries[name] = {"exit": code,
                         "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}
        return out

    def write(name, obj):
        path = workdir / name
        path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
        return str(path)

    for label in LABELS:
        record(f"diagram {label}", ["diagram", label])
        record(f"diagram {label} --dot", ["diagram", label, "--dot"])
        record(f"pairs {label} --q 7", ["pairs", label, "--q", "7"])
    families = [(name, write(f"family-{k}.json", req), [])
                for k, (name, req) in enumerate(FAMILIES.items())]
    families.append(("split:A4 --fallback-swap", write("swap.json", SWAP_FAMILY),
                     ["--fallback-swap"]))
    for k, (name, path, flags) in enumerate(families):
        cert = record(f"family {name}", ["family", "--input", path] + flags)
        record(f"certify {name}",
               ["certify", "--input", write(f"certificate-{k}.json", cert)])
    for k, (name, req) in enumerate(RATIOS.items()):
        record(f"ratio {name}", ["ratio", "--input", write(f"ratio-{k}.json", req)])
    for label in LARGE_PAIRS_LABELS:
        record(f"pairs {label} --q 1009", ["pairs", label, "--q", "1009"])
    for label in PLAIN_PAIRS_LABELS:
        record(f"pairs {label}", ["pairs", label])
    for k, (name, req) in enumerate(LATER_FAMILIES):
        cert = record(f"family {name}",
                      ["family", "--input", write(f"later-family-{k}.json", req)])
        record(f"certify {name}",
               ["certify", "--input", write(f"later-certificate-{k}.json", cert)])
    for k, (name, req) in enumerate(CAP_RATIOS):
        record(f"ratio {name} cap", ["ratio", "--input", write(f"cap-ratio-{k}.json", req)])
    for label in CAP_DIAGRAMS:
        record(f"diagram {label}", ["diagram", label])
    for k, (name, req) in enumerate(WIDE_FAMILIES):
        cert = record(f"family {name}",
                      ["family", "--input", write(f"wide-family-{k}.json", req)])
        record(f"certify {name}",
               ["certify", "--input", write(f"wide-certificate-{k}.json", cert)])
    return entries


def test_cli_outputs_match_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    actual = corpus(tmp_path)
    changed = [name for name in expected if actual.get(name) != expected[name]]
    assert not changed, f"outputs differ from {GOLDEN.name}: {changed}"
    assert list(actual) == list(expected)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        entries = corpus(Path(tmp))
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} digests to {GOLDEN}", file=sys.stderr)
