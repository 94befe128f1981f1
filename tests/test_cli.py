"""End-to-end command line behavior: outputs, exit codes, determinism."""

import functools
import gc
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from oracle_helpers import reference_certificate_json, reference_order_coeffs
from test_golden import LABELS

from test_construction import oracle_families
from test_reductive import LEAST_FACTOR_101, MERSENNE_PRODUCT

from paravol import cli, construction, diagram
from paravol.cli import _int_digit_limit, run
from paravol.construction import Place, build_family, certify_family
from paravol.diagram import _bits, build_local_index
from paravol.errors import SchemaError
from paravol.parahoric import find_equal_volume_pairs, pairs_to_json
from paravol.reductive import PRIMALITY_BOUND, quotient_descriptor


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def family_request(**extra):
    req = {
        "group": "split:B3",
        "places": [
            {"id": "v2", "q": 2, "p": 2},
            {"id": "v3", "q": 3, "p": 3},
        ],
        "family_places": ["v2", "v3"],
    }
    req.update(extra)
    return req


def test_a_refinement_place_listed_twice_is_named_once(capsys, tmp_path):
    places = family_request()["places"] + [{"id": "w5", "q": 5, "p": 5}]
    ratio = {"group": "split:B3", "places": places,
             "collections": [{"assignment": {}, "refinements": ["v2", "v2"]},
                             {"assignment": {}}]}
    family = family_request(places=places, refine=["w5", "w5"])
    for command, req, pid in (("ratio", ratio, "v2"), ("family", family, "w5")):
        code, out, err = invoke(capsys, command, "--input", write_json(tmp_path / "r.json", req))
        assert (code, out) == (1, "")
        assert err == f"error: duplicate refinement place id: {pid}\n"


def test_diagram_command(capsys):
    code, out, err = invoke(capsys, "diagram", "split:C2")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert [v["mark"] for v in payload["vertices"]] == [1, 2, 1]
    assert payload["realized_aut_order"] == 2


def test_diagram_dot(capsys):
    code, out, _ = invoke(capsys, "diagram", "twisted:C-BC1", "--dot")
    assert code == 0
    assert out.startswith('graph "twisted:C-BC1"')
    assert "0 -- 1" in out


def test_diagram_bad_group_exits_1(capsys):
    code, out, err = invoke(capsys, "diagram", "split:Q7")
    assert code == 1
    assert "unsupported type" in err and out == ""


@pytest.mark.parametrize("family, cap", [("A", 150), ("B", 100), ("C", 100), ("D", 100)])
def test_diagram_at_the_rank_cap_and_past_it(capsys, family, cap):
    code, out, err = invoke(capsys, "diagram", f"split:{family}{cap}")
    assert code == 0 and err == ""
    assert len(json.loads(out)["vertices"]) == cap + 1
    code, out, err = invoke(capsys, "diagram", f"split:{family}{cap + 1}")
    assert (code, out, err) == (1, "", f"error: unsupported type: {family}{cap + 1}\n")


def test_pairs_command(tmp_path, capsys):
    code, out, err = invoke(capsys, "pairs", "split:B3", "--q", "2")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["diagram"] == "split:B3"
    assert [p["t1"] for p in payload["pairs"]][0] == [0]
    assert all(p["order_at_q"] >= 1 for p in payload["pairs"])
    path = tmp_path / "pairs.json"
    assert invoke(capsys, "pairs", "split:B3", "--q", "2", "--output", str(path)) == (0, "", "")
    assert path.read_text() == out


def pairs_payload(label, q=None):
    """The `pairs` payload with one dict per pair, from the engine's pairs and descriptors.

    The command writes this payload's `json.dumps(indent=2)` text without
    building it: each pair is {"t1", "t2", "dim", "order_coeffs"} with
    "order_at_q" when q is given, and "q" closes the payload.
    """
    d = build_local_index(label)
    entries = []
    for t1, t2 in find_equal_volume_pairs(d):
        desc = quotient_descriptor(d, t1)
        entry = {"t1": list(t1.vertices), "t2": list(t2.vertices),
                 "dim": desc.dim,
                 "order_coeffs": list(reference_order_coeffs(desc.components, desc.torus_rank))}
        if q is not None:
            entry["order_at_q"] = desc.order_at(q)
        entries.append(entry)
    payload = {"diagram": d.group.label, "pairs": entries}
    if q is not None:
        payload["q"] = q
    return payload


# The labels of perfbench's pairs_sweep workload.
PAIRS_SWEEP_LABELS = ("split:E8", "split:E7", "split:E6", "split:F4", "split:G2",
                      "split:A11", "split:B8", "split:C10", "split:D10",
                      "twisted:C-BC1", "twisted:C-B2")


@pytest.mark.parametrize("label, q", (
    [(label, 7) for label in LABELS] + [(label, None) for label in LABELS]
    + [(label, 1009) for label in PAIRS_SWEEP_LABELS]))
def test_pairs_stdout_is_json_dumps_of_one_dict_per_pair(label, q):
    argv = ["pairs", label] + ([] if q is None else ["--q", str(q)])
    code, out, _ = run_quietly(argv)
    expected = json.dumps(pairs_payload(label, q), indent=2) + "\n"
    assert code == 0
    assert out == expected
    # the writer alone, on the rows of the search (none for split:A4)
    d = build_local_index(label)
    assert "".join(cli._pairs_chunks(d, pairs_to_json(d, q), q)) == expected


def test_pairs_hands_the_writer_one_chunk_per_row(monkeypatch):
    flat = pairs_payload("split:C10", 1009)
    # each entry's text at its indent in the output, by t1: the pairs are sorted
    rows = {}
    for entry in flat["pairs"]:
        rows.setdefault(tuple(entry["t1"]), []).append(
            json.dumps(entry, indent=2).replace("\n", "\n    "))
    between = ",\n    "
    expected = [("[\n    " if k == 0 else between) + between.join(texts)
                for k, texts in enumerate(rows.values())]
    chunks = []
    monkeypatch.setattr(cli, "_write", lambda output, parts: chunks.extend(parts))
    assert run_quietly(["pairs", "split:C10", "--q", "1009"])[0] == 0
    assert "".join(chunks) == json.dumps(flat, indent=2) + "\n"
    assert len(flat["pairs"]) > 10_000 and len(rows) == 888
    assert len(chunks) == len(rows) + 2
    assert chunks[1:-1] == expected


def test_pairs_writer_texts_every_mask_of_the_search_as_ints_does():
    # tables sized for n vertices text every mask as _ints does, those
    # up to 2^(n+1) too; the empty mask, and masks whose vertices span
    # both bytes (7 and 8)
    for n in (2, 8, 9, 12, 16):
        texts = cli._MaskTexts(n)
        assert (len(texts.lows), len(texts.highs)) == (1 << min(n, 8), 1 << max(0, n - 8))
        for mask in range(1 << min(n + 1, 16)):
            assert texts[mask] == cli._ints(_bits(mask), cli._KEY)
        assert len(texts) == 1 << min(n + 1, 16)
        assert texts[0] == "[]" and texts[0b110000000] == "[\n        7,\n        8\n      ]"
        # a certificate's masks may be wider than the byte tables: vertices
        # 15 and 16 straddle their top, 100 and 150 lie far past it
        for vertices in ((15, 16), (16,), (0, 16), (100, 150), (3, 15, 100)):
            mask = sum(1 << v for v in vertices)
            assert texts[mask] == cli._ints(vertices, cli._KEY)


def test_pairs_writer_streams_the_rows():
    # the writer reads a row only when its chunk is asked for
    read = []

    def rows():
        for row in pairs_to_json(build_local_index("split:B3"), 2):
            read.append(row)
            yield row

    chunks = cli._pairs_chunks(build_local_index("split:B3"), rows(), 2)
    assert next(chunks) == '{\n  "diagram": "split:B3",\n  "pairs": '
    assert read == []
    for k, entries in enumerate((2, 1, 1), 1):  # t1 [0], [0, 1], [2]
        assert next(chunks).count('"t1"') == entries
        assert len(read) == k
    assert next(chunks).endswith('\n  "q": 2\n}\n')
    assert next(chunks, None) is None and len(read) == 3


def test_pairs_empty_warns_but_succeeds(capsys):
    code, out, err = invoke(capsys, "pairs", "split:A4")
    assert code == 0
    assert json.loads(out)["pairs"] == []
    assert "warning" in err and "fallback" in err


def test_pairs_bad_q_exits_1(capsys):
    code, _, err = invoke(capsys, "pairs", "split:B3", "--q", "6")
    assert code == 1
    assert err == "error: invalid residue size: 6 is not a prime power\n"


def test_ratio_command(tmp_path, capsys):
    spec = {
        "group": "split:A3",
        "places": [{"id": "v", "q": 2, "p": 2}],
        "collections": [
            {"assignment": {"v": [0, 2]}},
            {"assignment": {"v": [0, 3]}},
        ],
    }
    code, out, err = invoke(capsys, "ratio", "--input",
                            write_json(tmp_path / "r.json", spec))
    assert code == 0
    assert json.loads(out) == {"num": 7, "den": 3, "half_exponents": {}}


@pytest.mark.parametrize("ratio", [1, Fraction(7, 3), Fraction(10 ** 4999 + 1, 3)],
                         ids=["one", "7/3", "5000-digit"])
def test_the_ratio_object_is_written_by_one_cli_helper(ratio):
    # `ratio` and the certificate's ratio rows both write the v1 object with
    # it; the engine hands over a plain Fraction (the rows an int 1)
    expected = {"num": ratio.numerator, "den": ratio.denominator, "half_exponents": {}}
    with _int_digit_limit(0):
        assert json.dumps(cli._ratio_json(ratio), indent=2) == json.dumps(expected, indent=2)
    assert not hasattr(cli, "HalfPowerRational")


def test_ratio_requires_two_collections(tmp_path, capsys):
    spec = {
        "group": "split:A3",
        "places": [{"id": "v", "q": 2, "p": 2}],
        "collections": [{"assignment": {"v": [0]}}],
    }
    code, _, err = invoke(capsys, "ratio", "--input",
                          write_json(tmp_path / "r.json", spec))
    assert code == 2 and "exactly two" in err


def test_family_and_certify_round_trip(tmp_path, capsys):
    req = write_json(tmp_path / "req.json", family_request())
    out_path = tmp_path / "cert.json"
    code, _, err = invoke(capsys, "family", "--input", req,
                          "--output", str(out_path))
    assert code == 0 and err == ""
    cert = json.loads(out_path.read_text())
    assert len(cert["members"]) == 4
    assert all(r == {"num": 1, "den": 1, "half_exponents": {}}
               for row in cert["ratios"] for r in row)
    code, out, err = invoke(capsys, "certify", "--input", str(out_path))
    assert code == 0
    assert json.loads(out) == {"valid": True, "members": 4, "witnesses": 6}


def _compact(cert):
    return json.dumps(cert)


def _reorder_member_keys(cert):
    cert["members"] = [dict(reversed(m.items())) for m in cert["members"]]
    return json.dumps(cert, indent=2)


def _extra_top_level_key(cert):
    cert["note"] = "written by hand"
    return json.dumps(cert, indent=2) + "\n"


@pytest.mark.parametrize("rewrite", [_compact, _reorder_member_keys, _extra_top_level_key],
                         ids=["compact", "member-keys-reordered", "extra-key"])
def test_certify_accepts_a_valid_certificate_in_another_layout(tmp_path, capsys, rewrite):
    # not the bytes `family` writes, so the entries are compared one by one
    req = write_json(tmp_path / "req.json", family_request())
    code, canonical, _ = invoke(capsys, "family", "--input", req)
    assert code == 0
    path = tmp_path / "cert.json"
    path.write_text(rewrite(json.loads(canonical)))
    assert path.read_text() != canonical
    assert invoke(capsys, "certify", "--input", str(path)) == (
        0, '{\n  "valid": true,\n  "members": 4,\n  "witnesses": 6\n}\n', "")


def test_certify_passes_the_text_family_writes_without_comparing_entries(tmp_path, capsys,
                                                                         monkeypatch):
    req = write_json(tmp_path / "req.json", family_request())
    path = tmp_path / "cert.json"
    assert invoke(capsys, "family", "--input", req, "--output", str(path))[0] == 0

    def unused(*args):
        raise AssertionError("a canonical certificate is checked by its bytes alone")

    monkeypatch.setattr(cli, "_differs", unused)
    monkeypatch.setattr(cli, "_first_difference", unused)
    assert invoke(capsys, "certify", "--input", str(path)) == (
        0, '{\n  "valid": true,\n  "members": 4,\n  "witnesses": 6\n}\n', "")


def test_certify_refuses_the_expected_text_cut_at_a_chunk_boundary(tmp_path, capsys,
                                                                   monkeypatch):
    req = write_json(tmp_path / "req.json", family_request())
    chunks = []
    monkeypatch.setattr(cli, "_write", lambda output, parts: chunks.extend(parts))
    assert invoke(capsys, "family", "--input", req)[0] == 0
    monkeypatch.undo()
    text = "".join(chunks)
    cuts = [len("".join(chunks[:k])) for k in range(1, len(chunks))]
    path = tmp_path / "cut.json"
    for cut in cuts:
        path.write_text(text[:cut])
        code, out, _ = invoke(capsys, "certify", "--input", str(path))
        assert (code, out) == (2, ""), cut  # not a JSON document
    # a prefix of the expected text is no proof, even beside decoded entries
    # that are wrong: the file is then compared entry by entry
    tampered = json.loads(text)
    tampered["witnesses"][0]["place"] = "v3"
    bad = write_json(tmp_path / "bad.json", tampered)
    read, load = cli._read_text, cli._load_json
    for cut in cuts:
        # the head path is handed the cut text; the whole-file decode, the tampered file
        monkeypatch.setattr(cli, "_read_text", lambda path: text[:cut])
        monkeypatch.setattr(cli, "_load_json", lambda found, path: load(
            read(path) if found == text[:cut] else found, path))
        code, out, err = invoke(capsys, "certify", "--input", bad)
        assert (code, out) == (1, ""), cut
        assert err == ("error: certificate mismatch: witnesses[0].place "
                       "does not match recomputation\n")


def test_certify_reads_a_certificate_once_on_either_path(tmp_path, capsys, monkeypatch):
    text = refined_certificate((2, 3))
    canonical, compact = tmp_path / "canonical.json", tmp_path / "compact.json"
    canonical.write_text(text)
    compact.write_text(json.dumps(json.loads(text)))
    read, reads = cli._read_text, []
    monkeypatch.setattr(cli, "_read_text", lambda path: reads.append(path) or read(path))
    for path in (canonical, compact):
        reads.clear()
        assert invoke(capsys, "certify", "--input", str(path)) == (
            0, '{\n  "valid": true,\n  "members": 4,\n  "witnesses": 6\n}\n', "")
        assert reads == [str(path)]


def test_certify_of_a_missing_file_or_a_directory_exits_2(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert invoke(capsys, "certify", "--input", str(missing)) == (
        2, "", f"input error: no such file: {missing}\n")
    assert invoke(capsys, "certify", "--input", str(tmp_path)) == (
        2, "", f"input error: [Errno 21] Is a directory: '{tmp_path}'\n")


def test_an_output_path_past_its_echo_limit_is_named_by_its_length(capsys):
    # 256 characters are shown, quoted, as input paths are
    for length in (88, 256, 257):
        path = "/nonexistent/" + "/".join(["o" * 99] * 3)
        path = path[:length - 5] + ".json"
        shown = repr(path) if length <= 256 else "a path of 257 characters"
        assert len(path) == length
        assert invoke(capsys, "diagram", "split:A1", "--output", path) == (
            1, "", f"error: cannot write the result to {shown}: No such file or directory\n")


@pytest.mark.parametrize("command", ["ratio", "family", "certify"])
def test_an_input_path_past_its_echo_limit_is_named_by_its_length(tmp_path, capsys, command):
    # 256 characters are shown, so stderr stays under 1 KB
    for path, shown in (("p" * 256, "p" * 256), ("p" * 257, "a path of 257 characters"),
                        ("p" * 10 ** 5, "a path of 100000 characters")):
        assert invoke(capsys, command, "--input", path) == (
            2, "", f"input error: no such file: {shown}\n")
    deep = tmp_path.joinpath(*["d" * 100] * 3)
    deep.mkdir(parents=True)
    shown = f"a path of {len(str(deep))} characters"
    assert invoke(capsys, command, "--input", str(deep)) == (
        2, "", f"input error: [Errno 21] Is a directory: {shown}\n")
    for name, data, why in (("latin.json", b"\xff{}", "not UTF-8 text"),
                            ("garbled.json", b"{not json", "Expecting"),
                            ("deep.json", b"[" * 200_000 + b"]" * 200_000,
                             "JSON nested too deeply")):
        (deep / name).write_bytes(data)
        shown = f"a path of {len(str(deep / name))} characters"
        code, out, err = invoke(capsys, command, "--input", str(deep / name))
        assert (code, out) == (2, "") and err.startswith(f"input error: {shown}: {why}")
        assert len(err.encode()) < 1024


def test_certify_decodes_the_expected_text_one_section_at_a_time(tmp_path, capsys,
                                                                 monkeypatch):
    # a file in another layout is compared with the expected text one
    # top-level key at a time, in the comparison order, never decoded whole
    text = refined_certificate((2, 3, 5))
    path = tmp_path / "compact.json"
    path.write_text(json.dumps(json.loads(text)))
    loads, decoded = json.loads, []
    monkeypatch.setattr(json, "loads", lambda s, **kw: decoded.append(s) or loads(s, **kw))
    assert invoke(capsys, "certify", "--input", str(path))[0] == 0
    monkeypatch.undo()
    assert decoded[0] == path.read_text()  # the file
    order = ("ratios", "witnesses", "members", "places", "group", "citations")
    assert list(map(json.loads, decoded[1:])) == [json.loads(text)[key] for key in order]


def test_a_valid_assignment_entry_echoes_no_place_id(tmp_path, capsys, monkeypatch):
    # the context that names a place id is built for a refused entry only
    path = tmp_path / "compact.json"
    path.write_text(json.dumps(json.loads(refined_certificate((2, 3)))))

    def unused(pid):
        raise AssertionError(f"place id {pid} echoed for a valid entry")

    monkeypatch.setattr(cli, "_id", unused)
    assert invoke(capsys, "certify", "--input", str(path))[0] == 0


def test_a_witness_place_past_index_255_is_written_and_certified(tmp_path, capsys):
    # witness rows hold place indices as ints: here the family places are
    # the 257th and 258th
    places = [{"id": f"u{k}", "q": 2, "p": 2} for k in range(258)]
    req = write_json(tmp_path / "req.json", family_request(
        places=places, family_places=["u256", "u257"]))
    path = tmp_path / "cert.json"
    assert invoke(capsys, "family", "--input", req, "--output", str(path)) == (0, "", "")
    d = build_local_index("split:B3")
    members = build_family(d.group, [Place(pl["id"], 2, 2, d) for pl in places],
                           ["u256", "u257"])
    cert = certify_family(members)
    assert cert.witness_places == ((256, 257, 256), (256, 257), (256,))
    text = path.read_text()
    assert text == "".join(_certificate_text(cert))
    assert [w["place"] for w in json.loads(text)["witnesses"]] == [
        "u256", "u257", "u256", "u256", "u257", "u256"]
    assert invoke(capsys, "certify", "--input", str(path)) == (
        0, '{\n  "valid": true,\n  "members": 4,\n  "witnesses": 6\n}\n', "")
    tampered = json.loads(text)
    tampered["witnesses"][4]["place"] = "u255"
    assert invoke(capsys, "certify", "--input", write_json(tmp_path / "bad.json", tampered)) == (
        1, "", "error: certificate mismatch: witnesses[4].place does not match recomputation\n")


def test_family_output_is_deterministic(tmp_path, capsys):
    req = write_json(tmp_path / "req.json", family_request())
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert invoke(capsys, "family", "--input", req, "--output", str(first))[0] == 0
    assert invoke(capsys, "family", "--input", req, "--output", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_family_with_refine_flag(tmp_path, capsys):
    req = write_json(tmp_path / "req.json", family_request(
        places=[
            {"id": "v2", "q": 2, "p": 2},
            {"id": "v3", "q": 3, "p": 3},
            {"id": "w4", "q": 4, "p": 2},
            {"id": "w9", "q": 9, "p": 3},
        ]))
    code, out, _ = invoke(capsys, "family", "--input", req, "--refine", "w4,w9")
    assert code == 0
    cert = json.loads(out)
    assert all(m["refinements"] == ["w4", "w9"] for m in cert["members"])
    assert all(r == {"num": 1, "den": 1, "half_exponents": {}}
               for row in cert["ratios"] for r in row)


@pytest.mark.parametrize("flag", ["", "w4", "w4,w9,v2"])
def test_a_refine_flag_that_does_not_list_two_places_exits_2(tmp_path, capsys, flag):
    # an empty flag is refused too, not read as absent: the request's own
    # refine would otherwise be used
    req = write_json(tmp_path / "req.json", family_request(
        places=[{"id": "v2", "q": 2, "p": 2}, {"id": "v3", "q": 3, "p": 3},
                {"id": "w4", "q": 4, "p": 2}, {"id": "w9", "q": 9, "p": 3}],
        refine=["w4", "w9"]))
    assert invoke(capsys, "family", "--input", req, "--refine", flag) == (
        2, "", "input error: input: refine must list exactly two place ids\n")


def test_family_fallback_swap_flag(tmp_path, capsys):
    req = write_json(tmp_path / "req.json", {
        "group": "split:A4",
        "places": [
            {"id": "u1", "q": 7, "p": 7},
            {"id": "u2", "q": 7, "p": 7},
        ],
        "family_places": ["u1", "u2"],
    })
    code, out, _ = invoke(capsys, "family", "--input", req, "--fallback-swap")
    assert code == 0
    cert = json.loads(out)
    assert len(cert["members"]) == 2
    assert cert["witnesses"][0]["place"] == "u1"
    # without the fallback there is no pair at an A4 place
    code, _, err = invoke(capsys, "family", "--input", req)
    assert code == 1 and "no equal-volume pair" in err


def test_fallback_swap_must_be_a_json_boolean(tmp_path, capsys):
    assert invoke(capsys, "family", "--input", write_json(
        tmp_path / "false.json", family_request(fallback_swap=False)))[0] == 0
    for k, value in enumerate(("false", "true", 0, 1, None, [])):
        request = write_json(tmp_path / f"bad-{k}.json",
                             family_request(fallback_swap=value))
        code, out, err = invoke(capsys, "family", "--input", request)
        assert code == 2 and out == "" and "fallback_swap" in err


def test_family_bad_residue_names_place(tmp_path, capsys):
    req = write_json(tmp_path / "req.json", family_request(
        places=[{"id": "v6", "q": 6, "p": 2},
                {"id": "v3", "q": 3, "p": 3}],
        family_places=["v3"]))
    code, _, err = invoke(capsys, "family", "--input", req)
    assert code == 1 and "v6" in err


def test_family_pairs_must_name_family_places(tmp_path, capsys):
    places = [{"id": "v2", "q": 2, "p": 2}, {"id": "v3", "q": 3, "p": 3},
              {"id": "x5", "q": 5, "p": 5}]
    ok = write_json(tmp_path / "ok.json", family_request(
        places=places, pairs={"v2": [[0], [2]]}))
    assert invoke(capsys, "family", "--input", ok)[0] == 0
    for pid in ("zz", "x5"):
        req = write_json(tmp_path / f"{pid}.json", family_request(
            places=places, pairs={pid: [[0], [2]]}))
        code, out, err = invoke(capsys, "family", "--input", req)
        assert (code, out) == (1, "") and pid in err
    swap = write_json(tmp_path / "swap.json", family_request(
        places=[{"id": "u1", "q": 7, "p": 7}, {"id": "u2", "q": 7, "p": 7}],
        family_places=["u1", "u2"], pairs={"u1": [[0], [2]]}, fallback_swap=True))
    code, out, err = invoke(capsys, "family", "--input", swap)
    assert (code, out) == (1, "") and "u1" in err and "fallback swap" in err


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def family_of(k, fallback_swap=False):
    """A split:B3 request varying k places, at the first k primes or, swapped, all at q = 7."""
    places = [{"id": f"u{j}", "q": 7, "p": 7} if fallback_swap else {"id": f"v{q}", "q": q, "p": q}
              for j, q in enumerate(PRIMES[:k])]
    return family_request(places=places, family_places=[pl["id"] for pl in places],
                          fallback_swap=fallback_swap)


def test_a_twenty_place_family_exits_1_at_once(tmp_path, capsys):
    req = write_json(tmp_path / "req.json", family_of(20))
    start = time.perf_counter()
    code, out, err = invoke(capsys, "family", "--input", req)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == "error: a family of 2^20 members is past the bound of 512 members\n"


@pytest.mark.parametrize("fallback_swap", [False, True], ids=["pairs", "swapped"])
def test_a_family_at_its_member_bound_builds_and_one_factor_more_exits_1(
        tmp_path, capsys, monkeypatch, fallback_swap):
    assert construction.MAX_FAMILY_MEMBERS == 2 ** 9
    per_factor = 2 if fallback_swap else 1  # places per factor of two members
    at_bound = family_of(9 * per_factor, fallback_swap)
    group = diagram.GroupSpec.parse("split:B3")
    places = [Place(pl["id"], pl["q"], pl["p"], build_local_index(group))
              for pl in at_bound["places"]]
    members = build_family(group, places, at_bound["family_places"], fallback_swap=fallback_swap)
    assert len(members) == 512
    # past the bound, the count is refused before any pair search or member is built
    monkeypatch.setattr(construction, "equal_volume_rows", None)
    monkeypatch.setattr(construction, "make_collection", None)
    req = write_json(tmp_path / "req.json", family_of(10 * per_factor, fallback_swap))
    code, out, err = invoke(capsys, "family", "--input", req)
    assert (code, out) == (1, "")
    assert err == "error: a family of 2^10 members is past the bound of 512 members\n"


def members_past_the_bound():
    """A split:B3 certificate head over ten places, listing 513 distinct members."""
    places = [{"id": f"v{q}", "q": q, "p": q, "index": "split:B3"} for q in PRIMES[:10]]
    members = [{"assignment": {pl["id"]: [2] if b >> k & 1 else [0]
                               for k, pl in enumerate(places)},
                "refinements": []}
               for b in range(513)]
    return {"group": "split:B3", "places": places, "members": members}


def test_certify_refuses_a_canonical_head_past_the_member_bound_from_the_head(tmp_path, capsys,
                                                                              monkeypatch):
    head = json.dumps(members_past_the_bound(), indent=2)
    assert head.endswith("\n  ]\n}")
    path = tmp_path / "cert.json"
    # family's layout up to the members, then a ratios section cut short
    path.write_text(head[:-2] + ',\n  "ratios": [\n    [\n      {\n        "num": 1')
    monkeypatch.setattr(cli, "make_collection", None)  # no member is built
    start = time.perf_counter()
    code, out, err = invoke(capsys, "certify", "--input", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == "error: a family of 513 members is past the bound of 512 members\n"


def test_certify_refuses_a_compact_certificate_past_the_member_bound(tmp_path, capsys):
    path = write_json(tmp_path / "cert.json", members_past_the_bound()
                      | {"ratios": [], "witnesses": [], "citations": []})
    assert invoke(capsys, "certify", "--input", path) == (
        1, "", "error: a family of 513 members is past the bound of 512 members\n")


def test_tampered_certificate_exits_1(tmp_path, capsys):
    req = write_json(tmp_path / "req.json", family_request())
    cert_path = tmp_path / "cert.json"
    invoke(capsys, "family", "--input", req, "--output", str(cert_path))
    cert = json.loads(cert_path.read_text())
    cert["ratios"][0][1]["num"] = 9
    tampered = write_json(tmp_path / "bad.json", cert)
    code, _, err = invoke(capsys, "certify", "--input", tampered)
    assert code == 1 and "mismatch" in err
    cert["ratios"][0][1]["num"] = 1
    cert["members"][1]["assignment"]["v2"] = [1]  # conjugate retype
    code, _, err = invoke(capsys, "certify", "--input",
                          write_json(tmp_path / "bad2.json", cert))
    assert code == 1


def _set_ratio_num(cert):
    cert["ratios"][3][7]["num"] = 2


def _set_witness_place(cert):
    cert["witnesses"][12]["place"] = "v5"  # members 1 and 7 first differ at v3


def _set_citation(cert):
    cert["citations"][2] = "non-conjugacy: trust me"


def _repeat_type_vertex(cert):
    cert["members"][5]["assignment"]["v3"] *= 2  # same type, not canonical


def _drop_witness_type(cert):
    del cert["witnesses"][0]["t2"]


def _ratio_num_true(cert):
    cert["ratios"][0][1]["num"] = True  # == 1 in Python, not in JSON


def _witness_pair_bools(cert):
    cert["witnesses"][0]["pair"] = [False, True]


@pytest.mark.parametrize("tamper, entry", [
    (_set_ratio_num, "ratios[3][7].num"),
    (_set_witness_place, "witnesses[12].place"),
    (_set_citation, "citations[2]"),
    (_repeat_type_vertex, "members[5].assignment.v3[1]"),
    (_drop_witness_type, "witnesses[0].t2"),
    (_ratio_num_true, "ratios[0][1].num"),
    (_witness_pair_bools, "witnesses[0].pair[0]"),
], ids=["ratio", "witness-place", "citation", "member-type", "witness-key",
        "ratio-true", "witness-bools"])
def test_certify_names_the_first_tampered_entry(tmp_path, capsys, tamper, entry):
    places = [{"id": "v2", "q": 2, "p": 2}, {"id": "v3", "q": 3, "p": 3},
              {"id": "v5", "q": 5, "p": 5}]
    req = write_json(tmp_path / "req.json",
                     family_request(places=places, family_places=["v2", "v3", "v5"]))
    code, out, _ = invoke(capsys, "family", "--input", req)
    assert code == 0
    cert = json.loads(out)
    tamper(cert)
    code, out, err = invoke(capsys, "certify", "--input",
                            write_json(tmp_path / "bad.json", cert))
    assert code == 1 and out == ""
    assert f"certificate mismatch: {entry} does not match" in err


@pytest.mark.parametrize("where, key, entry", [
    ("witness", "k" * 10 ** 6, "witnesses[0].a key of 1000000 characters"),
    ("ratio", "h" * 10 ** 6, "ratios[0][0].a key of 1000000 characters"),
    ("witness", "k" * 64, "witnesses[0]." + "k" * 64),
    ("ratio", "h", "ratios[0][0].h"),
], ids=["witness-long", "ratio-long", "witness", "ratio"])
def test_certify_names_an_extra_key_past_the_echo_limit_by_its_length(tmp_path, capsys,
                                                                     where, key, entry):
    req = write_json(tmp_path / "req.json", family_request())
    code, out, _ = invoke(capsys, "family", "--input", req)
    assert code == 0
    cert = json.loads(out)
    (cert["witnesses"][0] if where == "witness" else cert["ratios"][0][0])[key] = 1
    err = f"error: certificate mismatch: {entry} does not match recomputation\n"
    assert invoke(capsys, "certify", "--input", write_json(tmp_path / "bad.json", cert)) == (
        1, "", err)
    assert len(err.encode()) < 1024


# builds the certificate `certify_family` returns, with one more citation
_TrueCitationCertificate = functools.partial(
    construction.FamilyCertificate,
    citations=construction.CITATIONS + ("a true and not false citation",))


@pytest.mark.parametrize("where", ["place-id", "citation"])
def test_certify_accepts_true_and_false_inside_strings(tmp_path, capsys, monkeypatch, where):
    # the words true and false inside strings are no bools: the canonical
    # text passes, and a real bool in place of 1 is still refused
    places = [{"id": "v2", "q": 2, "p": 2}, {"id": "v3", "q": 3, "p": 3}]
    if where == "place-id":
        places = [{"id": "true", "q": 2, "p": 2}, {"id": "falsehood", "q": 3, "p": 3}]
    else:
        monkeypatch.setattr(construction, "FamilyCertificate", _TrueCitationCertificate)
    req = write_json(tmp_path / "req.json", family_request(
        places=places, family_places=[pl["id"] for pl in places]))
    code, out, _ = invoke(capsys, "family", "--input", req)
    assert code == 0 and "true" in out and "false" in out
    path = tmp_path / "cert.json"
    path.write_text(out)
    code, out, err = invoke(capsys, "certify", "--input", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out) == {"valid": True, "members": 4, "witnesses": 6}

    cert = json.loads(path.read_text())
    cert["ratios"][0][1]["num"] = True  # == 1 in Python, not in JSON
    code, out, err = invoke(capsys, "certify", "--input",
                            write_json(tmp_path / "bad.json", cert))
    assert (code, out) == (1, "")
    assert "certificate mismatch: ratios[0][1].num does not match" in err


@pytest.mark.parametrize("ids, walks", [(("v2", "v3"), False), (("v2", "untrue"), True)],
                         ids=["plain", "true-in-a-place-id"])
def test_certify_walks_for_bools_only_when_the_text_holds_true_or_false(tmp_path, capsys,
                                                                        monkeypatch, ids, walks):
    places = [{"id": ids[0], "q": 2, "p": 2}, {"id": ids[1], "q": 3, "p": 3}]
    req = write_json(tmp_path / "req.json", family_request(places=places, family_places=ids))
    code, out, _ = invoke(capsys, "family", "--input", req)
    assert code == 0
    cert = json.loads(out)
    walked, holds = [], cli._holds_bool
    monkeypatch.setattr(cli, "_holds_bool", lambda value: walked.append(value) or holds(value))
    # a compact copy takes the path that compares entries
    compact = write_json(tmp_path / "compact.json", cert)
    assert invoke(capsys, "certify", "--input", compact) == (
        0, '{\n  "valid": true,\n  "members": 4,\n  "witnesses": 6\n}\n', "")
    assert bool(walked) == walks
    # an injected bool is a literal true or false, so the walk runs and names it
    _witness_pair_bools(cert)
    code, out, err = invoke(capsys, "certify", "--input", write_json(tmp_path / "bad.json", cert))
    assert (code, out) == (1, "")
    assert err == ("error: certificate mismatch: witnesses[0].pair[0] "
                   "does not match recomputation\n")


def test_certify_refuses_a_json_float(tmp_path, capsys):
    req = write_json(tmp_path / "req.json", family_request())
    code, out, _ = invoke(capsys, "family", "--input", req)
    assert code == 0
    cert = json.loads(out)
    cert["ratios"][2][3]["den"] = 1.0  # == 1 in Python, but no entry is a float
    code, out, err = invoke(capsys, "certify", "--input",
                            write_json(tmp_path / "bad.json", cert))
    assert (code, out) == (2, "") and "number 1.0 is not an integer" in err


# Truncated JSON, nesting past the recursion limit, a float and a 4,301-digit
# integer, each with the error it maps to.
JSON_ERRORS = (
    ('{"a": [1,', "in.json: Expecting value"),
    ("[" * 200000 + "]" * 200000, "JSON nested too deeply"),
    ("[1.5]", "number 1.5 is not an integer"),
    ("[" + "1" * 4301 + "]", "integer with more than 4300 digits"),
)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_load_json_leaves_the_collector_as_it_found_it(enabled):
    compact = json.dumps(json.loads(refined_certificate((2, 3))))
    refused = json.loads(compact)
    refused["members"][1]["assignment"]["v2"] = []  # the Iwahori: unequal covolume
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli._load_json('{"a": [1, 2]}', "in.json") == {"a": [1, 2]}
        assert gc.isenabled() is enabled
        for text, message in JSON_ERRORS:
            with pytest.raises(SchemaError, match=re.escape(message)):
                cli._load_json(text, "in.json")
            assert gc.isenabled() is enabled
        # and so does a certify of a file decoded whole, on each way out
        assert len(cli._certify_decoded(compact, "in.json").members) == 4
        assert gc.isenabled() is enabled
        for text, error, message in (
            (json.dumps(refused), construction.CertificateError, "not equal covolume"),
            ('{"group": "split:B3"}', SchemaError, "certificate: missing key 'places'"),
            (compact[:-9], SchemaError, "in.json: Unterminated string"),
        ):
            with pytest.raises(error, match=re.escape(message)):
                cli._certify_decoded(text, "in.json")
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_load_json_decodes_a_certificate_without_collecting():
    # decoded JSON holds no cycle, so the decode runs with the collector off;
    # one collection may start when it is turned back on
    text = json.dumps(json.loads(refined_certificate((2, 3, 5, 7, 11, 13))))
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(count)
    try:
        data = cli._load_json(text, "compact.json")
    finally:
        gc.callbacks.remove(count)
    assert len(data["members"]) == 64 and len(starts) <= 1


def refused_compact_certificate():
    """A compact copy of the 64-member certificate in which member 17 has the Iwahori at v5.

    The Iwahori's volume differs from both types of the family pair, so
    the copy is refused: members 0 and 17 have unequal covolume.
    """
    cert = json.loads(refined_certificate((2, 3, 5, 7, 11, 13)))
    cert["members"][17]["assignment"]["v5"] = []
    return json.dumps(cert)


def test_a_refused_compact_certificate_is_still_decoded_whole_first(tmp_path):
    text = refused_compact_certificate()
    path = tmp_path / "refused.json"
    path.write_text(text)
    code, out, err = run_quietly(["certify", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err == ("error: not equal covolume: members 0 and 17 differ at places "
                   "v2 (type), v5 (type), v11 (type) and have ratio 1/6\n")
    # a JSON or schema error anywhere in the file comes first
    for section in ("ratios", "witnesses"):
        cut = text[:text.index(f'"{section}": ') + 2000]
        path = tmp_path / f"{section}-cut.json"
        path.write_text(cut)
        with pytest.raises(json.JSONDecodeError) as decoded:
            json.loads(cut)
        assert run_quietly(["certify", "--input", str(path)]) == (
            2, "", f"input error: {path}: {decoded.value}\n")
    path = tmp_path / "den-float.json"
    path.write_text(text.replace('"den": 1,', '"den": 1.0,', 1))
    assert run_quietly(["certify", "--input", str(path)]) == (
        2, "", "input error: number 1.0 is not an integer\n")


def test_certify_of_a_refused_compact_certificate_never_collects_the_decoded_file(tmp_path):
    # the file decodes to about 16,000 containers; with the collector paused
    # until they are dropped, no collection starts with them in generation 0
    path = tmp_path / "refused.json"
    path.write_text(refused_compact_certificate())
    counts = []

    def record(phase, info):
        if phase == "start":
            counts.append(gc.get_count()[0])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(record)
    try:
        code, _, err = run_quietly(["certify", "--input", str(path)])
    finally:
        gc.callbacks.remove(record)
    assert code == 1 and "not equal covolume" in err
    assert all(count < 2000 for count in counts), counts


def run_quietly(argv):
    """run's (exit code, stdout, stderr); a command line argparse refuses exits with 2."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # raised by argparse, after its usage message
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@functools.lru_cache(maxsize=None)
def refined_certificate(family_qs):
    """The certificate text of a split:B3 family refined at w4 and w9."""
    places = [{"id": f"v{q}", "q": q, "p": q} for q in family_qs]
    places += [{"id": "w4", "q": 4, "p": 2}, {"id": "w9", "q": 9, "p": 3}]
    with tempfile.TemporaryDirectory() as tmp:
        req = write_json(Path(tmp) / "req.json", family_request(
            places=places, family_places=[pl["id"] for pl in places[:-2]],
            refine=["w4", "w9"]))
        code, out, _ = run_quietly(["family", "--input", req])
    assert code == 0
    return out


def leaves(value, path):
    """(path, value) of every scalar, empty list and empty object in value."""
    if isinstance(value, (list, dict)) and value:
        items = enumerate(value) if isinstance(value, list) else value.items()
        for key, item in items:
            yield from leaves(item, path + [key])
    else:
        yield path, value


def path_text(path):
    return path[0] + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path[1:])


@st.composite
def single_field_tampers(draw):
    # Members, places and group are left out: a change there can yield
    # another valid certificate, such as q 5 -> 25 at a family place or a
    # conjugate of the default type at a non-family place.
    cert = json.loads(refined_certificate(draw(st.sampled_from(((2, 3), (2, 3, 5))))))
    section = draw(st.sampled_from(("ratios", "witnesses", "citations")))
    path, old = draw(st.sampled_from(list(leaves(cert[section], [section]))))
    new = draw(st.one_of(st.integers(), st.booleans(), st.floats(), st.text(max_size=4))
               .filter(lambda v: json.dumps(v) != json.dumps(old)))
    parent = cert
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return cert, path, new


@settings(max_examples=40, deadline=None)
@given(single_field_tampers())
def test_certify_rejects_any_single_field_tamper(tampered):
    cert, path, new = tampered
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run_quietly(
            ["certify", "--input", write_json(Path(tmp) / "bad.json", cert)])
    assert out == ""
    if isinstance(new, float):  # no schema has a float
        assert code == 2 and "is not an integer" in err
    else:
        assert code == 1
        assert err == f"error: certificate mismatch: {path_text(path)} does not match recomputation\n"


RATIO_SEED = {
    "group": "split:B3",
    "places": [{"id": "v2", "q": 2, "p": 2}, {"id": "v3", "q": 3, "p": 3}],
    "collections": [
        {"assignment": {"v2": [0, 2]}, "refinements": ["v2", "v3"]},
        {"assignment": {"v2": [1]}},
    ],
}


@functools.lru_cache(maxsize=None)
def fuzz_seed(command):
    """A valid input text for command, which exits 0."""
    if command == "certify":
        return refined_certificate((2, 3))
    places = [{"id": "v2", "q": 2, "p": 2}, {"id": "v3", "q": 3, "p": 3},
              {"id": "w4", "q": 4, "p": 2}, {"id": "w9", "q": 9, "p": 3}]
    # the family seed names v3's pair, split:B3's first, so that mutations
    # reach pairs ids and types
    seed = RATIO_SEED if command == "ratio" else family_request(
        places=places, refine=["w4", "w9"], pairs={"v3": [[0], [2]]})
    text = json.dumps(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(text)
        assert run_quietly([command, "--input", str(path)])[0] == 0
    return text


def json_paths(value, path=()):
    """The path of value and of everything inside it, parents first."""
    yield path
    if isinstance(value, (list, dict)):
        items = enumerate(value) if isinstance(value, list) else value.items()
        for key, item in items:
            yield from json_paths(item, path + (key,))


def at_path(value, path):
    for key in path:
        value = value[key]
    return value


# Huge residue sizes: even, a prime past 10^24, the square of a prime
# past 10^18, the least strong pseudoprime to the first 13 prime bases, an
# odd 4,300-digit number (the input limit), and two of near that length
# with no factor below 100.
HUGE_QS = (10 ** 4299, 10 ** 24 + 7, (10 ** 18 + 3) ** 2, PRIMALITY_BOUND, 10 ** 4299 + 1,
           LEAST_FACTOR_101, MERSENNE_PRODUCT)

other_json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 30), st.floats(), st.text(max_size=6),
    st.lists(st.integers(0, 4), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 4), max_size=2))


def long_text_spots(data):
    """(path, as_key) for each string value (as_key False) and each key (True) of data."""
    paths = list(json_paths(data))
    return ([(p, False) for p in paths if type(at_path(data, p)) is str]
            + [(p, True) for p in paths if p and isinstance(at_path(data, p[:-1]), dict)])


def lengthen_text(data, path, as_key):
    """Put 10^5 characters in place of the string at path, or of the key it ends in."""
    parent = at_path(data, path[:-1])
    if as_key:  # renamed in place, so the keys keep their order
        items = list(parent.items())
        parent.clear()
        parent.update(("s" * 10 ** 5 if k == path[-1] else k, v) for k, v in items)
    else:
        parent[path[-1]] = "s" * 10 ** 5


@st.composite
def mutated_inputs(draw, commands=("ratio", "family", "certify"), dumps=json.dumps):
    """A seed input with one key dropped or added, one value retyped, wrapped or made long,
    or cut short, a family seed with one family place repeated under new ids, or a
    certificate seed with its members repeated; `dumps` encodes the changed input."""
    command = draw(st.sampled_from(commands))
    text = fuzz_seed(command)
    mutation = draw(st.sampled_from(("drop", "swap", "wrap", "truncate", "rank", "long")
                                    + (("repeat",) if command != "ratio" else ())))
    if mutation == "truncate":
        return command, text[:draw(st.integers(0, len(text) - 1))]
    data = json.loads(text)
    if mutation == "repeat" and command == "certify":  # 8 or, past the bound, 800 members
        data["members"] *= draw(st.sampled_from((2, 200)))
        return command, dumps(data)
    if mutation == "repeat":  # a family place again under new ids: 2^3 to 2^22 members
        place = draw(st.sampled_from([pl for pl in data["places"]
                                      if pl["id"] in data["family_places"]]))
        copies = [dict(place, id=f"{place['id']}-{k}")
                  for k in range(draw(st.sampled_from((1, 8, 20))))]
        data["places"] += copies
        data["family_places"] += [pl["id"] for pl in copies]
        return command, dumps(data)
    if mutation == "rank":  # a rank string past every bound, up to a million digits
        digits = draw(st.sampled_from((4, 4301, 10 ** 6)))
        data["group"] = "split:" + draw(st.sampled_from("ABCD")) + "9" * digits
        return command, dumps(data)
    if mutation == "drop":
        path = draw(st.sampled_from([
            p for p in json_paths(data) if p and isinstance(at_path(data, p[:-1]), dict)]))
        del at_path(data, path[:-1])[path[-1]]
        return command, dumps(data)
    long = draw(st.sampled_from(("key", "list", "int", "str"))) if mutation == "long" else None
    if long == "key":  # a key of 10^5 characters in any object
        path = draw(st.sampled_from([
            p for p in json_paths(data) if isinstance(at_path(data, p), dict)]))
        at_path(data, path)["k" * 10 ** 5] = draw(other_json_values)
        return command, dumps(data)
    if long == "str":  # 10^5 characters for one string value, or for one existing key
        lengthen_text(data, *draw(st.sampled_from(long_text_spots(data))))
        return command, dumps(data)
    path = draw(st.sampled_from([p for p in json_paths(data)
                                 if long != "int" or type(at_path(data, p)) is int]))
    old = at_path(data, path)
    if long == "list":
        new = list(range(10 ** 5))
    elif long == "int":
        new = draw(st.sampled_from(HUGE_QS))
    elif mutation == "swap":
        new = draw(other_json_values.filter(lambda v: type(v) is not type(old)))
    else:
        new = draw(st.sampled_from(([old], {draw(st.text(max_size=3)): old})))
    if not path:
        return command, dumps(new)
    at_path(data, path[:-1])[path[-1]] = new
    return command, dumps(data)


def _ratio_seed_with(**changes):
    return "ratio", json.dumps(RATIO_SEED | changes)


def _ratio_seed_at(q, p):
    """The ratio seed with residue size q and characteristic p at its place v2."""
    return _ratio_seed_with(places=[{"id": "v2", "q": q, "p": p}, {"id": "v3", "q": 3, "p": 3}])


@settings(max_examples=150, deadline=None)
@given(mutated_inputs())
@example(_ratio_seed_with(collections=[{"assignment": {"v2": list(range(10 ** 5))}},
                                       {"assignment": {}}]))
@example(_ratio_seed_with(places=[{"id": "v2", "q": 10 ** 4299, "p": 2}]))
@example(_ratio_seed_with(places=[{"id": "v2", "q": 2, "p": 10 ** 4299}]))
@example(_ratio_seed_at(10 ** 24 + 7, 10 ** 24 + 7))
@example(_ratio_seed_at((10 ** 18 + 3) ** 2, 10 ** 18 + 3))
@example(_ratio_seed_at(PRIMALITY_BOUND, PRIMALITY_BOUND))
@example(_ratio_seed_at(10 ** 4299 + 1, 10 ** 4299 + 1))
@example(_ratio_seed_at(LEAST_FACTOR_101, 101))
@example(_ratio_seed_at(MERSENNE_PRODUCT, 2 ** 127 - 1))
def test_mutated_inputs_exit_0_1_or_2_without_a_traceback(mutated):
    command, text = mutated
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(text)
        assert_prompt_exit([command, "--input", str(path)])


@pytest.mark.parametrize("command", ("ratio", "family", "certify"))
def test_every_long_string_or_key_exits_0_1_or_2_without_a_traceback(command):
    # each string value and each key of the seed in turn, 191 inputs over
    # the three seeds: place ids and indices, assignment keys,
    # family_places and refine entries, the pairs key and its place id,
    # citations; about 0.8 s in all on a 2-core x86-64 host
    text = fuzz_seed(command)
    for spot in long_text_spots(json.loads(text)):
        data = json.loads(text)
        lengthen_text(data, *spot)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.json"
            path.write_text(json.dumps(data))
            assert_prompt_exit([command, "--input", str(path)])


class Stalled(BaseException):
    """Raised by the alarm of `assert_prompt_exit`: no handler of the engine catches it."""


def _stalled(signum, frame):
    raise Stalled


def assert_prompt_exit(argv, seconds=5.0):
    """The command exits 0, 1 or 2 within 5 s, with no traceback and under 1 KB of stderr."""
    previous = signal.signal(signal.SIGALRM, _stalled)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        code, _, err = run_quietly(argv)
    except Stalled:
        raise AssertionError(f"paravol {argv[0]} still running after {seconds} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert len(err.encode()) < 1024
    return code


@pytest.mark.parametrize("q", HUGE_QS, ids=["even", "prime", "square", "psi13", "odd",
                                             "least-factor-101", "no-factor-below-1e6"])
def test_pairs_at_a_huge_residue_size_exits_promptly(q):
    code = assert_prompt_exit(["pairs", "split:B3", "--q", str(q)])
    assert code == (0 if q in (10 ** 24 + 7, (10 ** 18 + 3) ** 2) else 1)


# One argument of each kind that argparse refuses: a --q past the digit
# limit, a --q that is no number, a command that does not exist, an
# argument and an option that no command takes.
REFUSED_ARGUMENTS = {
    "q-past-the-digit-limit": ["pairs", "split:B3", "--q", "1" + "0" * 4399 + "1"],
    "q-not-a-number": ["pairs", "split:B3", "--q", "x" * 10 ** 5],
    "command": ["c" * 10 ** 5],
    "extra-argument": ["diagram", "split:B3", "e" * 10 ** 5],
    "unknown-option": ["diagram", "split:B3", "--" + "o" * 10 ** 5],
}


@pytest.mark.parametrize("argv", REFUSED_ARGUMENTS.values(), ids=REFUSED_ARGUMENTS)
def test_a_refused_argument_past_the_echo_limit_is_named_by_its_length(argv):
    code, out, err = run_quietly(argv)
    assert (code, out) == (2, "")
    assert f"a value of {len(argv[-1])} characters" in err
    assert len(err.encode()) < 1024


def test_a_refused_short_argument_is_echoed():
    code, _, err = run_quietly(["pairs", "split:B3", "--q", "12x"])
    assert code == 2 and "invalid int value: '12x'" in err


LONG = 10 ** 5
fuzz_labels = st.sampled_from(LABELS) | st.text(max_size=10) | st.sampled_from((
    "split:B" + "3" * LONG, "split:" + "x" * LONG, "x" * LONG,  # long
    "split:B\u0663", "split:B\u00b3", "split:B\uff13",  # digits that are not ASCII
    "split:B03", "split-B3", "split:b3", "twisted:B3", "twisted:C-BC2", "split:", ":B3", ""))
fuzz_qs = (st.integers(-3, 30) | st.sampled_from(HUGE_QS)).map(str) | st.sampled_from((
    "1" * 4301, "-" + "9" * 4301, "9" * LONG, "x" * LONG,  # past the digit limit, long
    "x", "7.0", "0x7", "\u0667", "", " "))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((["diagram"], ["diagram", "--dot"], ["pairs"])), fuzz_labels,
       st.none() | fuzz_qs)
@example(["pairs"], "split:B3", "x" * LONG)
@example(["pairs"], "split:B3", "1" * 4301)
def test_diagram_and_pairs_exit_0_1_or_2_without_a_traceback(command, label, q):
    with tempfile.TemporaryDirectory() as tmp:
        argv = command + [label, "--output", str(Path(tmp) / "out")]
        if q is not None and command == ["pairs"]:
            argv += ["--q", q]
        assert_prompt_exit(argv)


# -- certify's head path: a canonical file is checked by its bytes ----------

def canonical_dumps(value):
    """value in the layout `family` writes."""
    return json.dumps(value, indent=2) + "\n"


def certify_both_ways(text):
    """certify's (code, stdout, stderr) on text, then with the head path patched out,
    and whether the head path passed the file."""
    canonical = cli._certify_canonical
    passed = []

    def recorded(text, path):
        cert = canonical(text, path)
        passed.append(cert is not None)
        return cert

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        path.write_text(text)
        argv = ["certify", "--input", str(path)]
        with mock.patch.object(cli, "_certify_canonical", recorded):
            head = run_quietly(argv)
        with mock.patch.object(cli, "_certify_canonical", lambda text, path: None):
            whole = run_quietly(argv)
    return head, whole, passed == [True]


@settings(max_examples=60, deadline=None)
@given(mutated_inputs(("certify",), canonical_dumps))
def test_certify_in_the_canonical_layout_answers_as_the_whole_file_decoded(mutated):
    _, text = mutated
    head, whole, _ = certify_both_ways(text)
    assert head == whole


@st.composite
def in_place_edits(draw):
    """The canonical certificate text with a few characters replaced inside one section."""
    text = refined_certificate(draw(st.sampled_from(((2, 3), (2, 3, 5)))))
    section = draw(st.sampled_from(("ratios", "witnesses", "citations")))
    start = text.index(f'\n  "{section}": ')
    end = text.find(",\n  \"", start + 1)
    start = draw(st.integers(start + 1, (len(text) if end < 0 else end) - 1))
    end = start + draw(st.integers(0, 3))
    new = draw(st.text(alphabet=' \n"01279-,:[]{}aefnrstu\\', max_size=3))
    return text[:start] + new + text[end:]


@settings(max_examples=80, deadline=None)
@given(in_place_edits())
def test_certify_answers_an_in_place_edit_as_the_whole_file_decoded(text):
    head, whole, _ = certify_both_ways(text)
    assert head == whole


def _members_text(text):
    start = text.index('\n  "members": ') + 1
    return text[start:text.index(',\n  "ratios": ')]


def _with_members_twice(text, where):
    members = _members_text(text)
    other = '"members": ' + json.dumps(json.loads(text)["members"][::-1], indent=2).replace(
        "\n", "\n  ")
    if where == "first-other":  # a different list first: the later key wins
        return text.replace(members, other + ",\n  " + members, 1)
    if where == "last-other":
        return text.replace(members, members + ",\n  " + other, 1)
    if where == "same":
        return text.replace(members, members + ",\n  " + members, 1)
    return text[:-3] + ",\n  " + members + "\n}\n"  # after the citations


def _with_iwahori_member(text):
    """The text with member 1 of unequal covolume, in the canonical layout."""
    data = json.loads(text)
    data["members"][1]["assignment"]["v2"] = []
    return canonical_dumps(data)


# (the edit of the canonical text, certify's exit code on it)
HEAD_CASES = {
    "canonical": (lambda text: text, 0),
    "trailing-space": (lambda text: text + " \t\n ", 0),
    "trailing-newlines": (lambda text: text + "\n\n", 0),
    "trailing-return": (lambda text: text + "\r", 0),
    "trailing-letter": (lambda text: text + "x", 2),
    "trailing-object": (lambda text: text + "{}", 2),
    "trailing-brace": (lambda text: text + "}", 2),
    "trailing-nul": (lambda text: text + "\x00", 2),
    "no-final-newline": (lambda text: text[:-1], 0),
    "members-twice-first-other": (lambda text: _with_members_twice(text, "first-other"), 0),
    "members-twice-last-other": (lambda text: _with_members_twice(text, "last-other"), 1),
    "members-twice-same": (lambda text: _with_members_twice(text, "same"), 0),
    "members-twice-at-end": (lambda text: _with_members_twice(text, "end"), 0),
    "head-then-nothing": (lambda text: text[:text.index(',\n  "ratios": ')], 2),
    "head-then-separator": (lambda text: text[:text.index(',\n  "ratios": ') + 14], 2),
    "head-then-half": (lambda text: text[:len(text) // 2], 2),
    "all-but-the-brace": (lambda text: text[:-2], 2),
    "ratios-one-short": (
        lambda text: text.replace('"ratios": [\n    [', '"ratios": [\n    ', 1), 2),
    "unequal-members": (lambda text: _with_iwahori_member(text), 1),
    "unequal-members-then-half": (lambda text: _with_iwahori_member(text)[:len(text) // 2], 2),
}


@pytest.mark.parametrize("case", HEAD_CASES)
def test_certify_answers_a_canonical_head_with_any_tail_as_the_whole_file_decoded(case):
    edit, code = HEAD_CASES[case]
    head, whole, passed = certify_both_ways(edit(refined_certificate((2, 3, 5))))
    assert head == whole and head[0] == code
    # only the writer's text, with JSON whitespace after it, passes by its head
    assert passed == (case in ("canonical", "trailing-space", "trailing-newlines",
                               "trailing-return"))


def test_certify_decodes_only_the_head_of_a_canonical_certificate(tmp_path, monkeypatch):
    text = refined_certificate((2, 3, 5, 7, 11, 13))
    path = tmp_path / "cert.json"
    path.write_text(text)
    decoded = []
    loads = json.loads

    def counted(s, *args, **kwargs):
        decoded.append(len(s))
        return loads(s, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    assert run_quietly(["certify", "--input", str(path)]) == (
        0, '{\n  "valid": true,\n  "members": 64,\n  "witnesses": 2016\n}\n', "")
    assert 0 < sum(decoded) < len(text) / 10  # the head is 4% of the file


def test_certify_checks_each_distinct_place_and_type_of_the_members_once(monkeypatch):
    data = json.loads(refined_certificate((2, 3, 5, 7, 11, 13)))
    checked = []
    check = diagram.LocalIndex.check_proper

    def counted(d, t):
        checked.append(t)
        return check(d, t)

    monkeypatch.setattr(diagram.LocalIndex, "check_proper", counted)
    assert len(cli._members_from_json(data)) == 64
    # the check reads only the local index, which every place shares, and the
    # vertices: the family pair's two types, one of which the refinement places carry
    distinct = {tuple(t) for m in data["members"] for t in m["assignment"].values()}
    assert len(checked) == len(distinct) == 2


def test_schema_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    code, _, err = invoke(capsys, "family", "--input", missing)
    assert code == 2 and "no such file" in err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert invoke(capsys, "family", "--input", str(garbled))[0] == 2
    no_places = write_json(tmp_path / "nk.json", {"group": "split:B3"})
    code, _, err = invoke(capsys, "family", "--input", no_places)
    assert code == 2 and "missing key" in err
    wrong_type = write_json(tmp_path / "wt.json", family_request(places="x"))
    assert invoke(capsys, "family", "--input", wrong_type)[0] == 2
    for key in ("q", "p"):  # JSON true is a bool, not a residue size
        places = [{"id": "v2", "q": 2, "p": 2}, {"id": "v3", "q": 3, "p": 3}]
        places[0][key] = True
        request = write_json(tmp_path / f"bool-{key}.json", family_request(places=places))
        code, _, err = invoke(capsys, "family", "--input", request)
        assert code == 2 and "wrong type" in err


def test_ratio_prints_values_past_the_digit_limit(tmp_path, capsys):
    qs = (1000000007, 999999937)
    spec = {
        "group": "split:E8",
        "places": [{"id": "v", "q": qs[0], "p": qs[0]},
                   {"id": "w", "q": qs[1], "p": qs[1]}],
        "collections": [
            {"assignment": {"v": [], "w": []}, "refinements": ["v", "w"]},
            {"assignment": {"v": [], "w": []}},
        ],
    }
    limit = sys.get_int_max_str_digits()
    code, out, err = invoke(capsys, "ratio", "--input",
                            write_json(tmp_path / "r.json", spec))
    assert sys.get_int_max_str_digits() == limit
    assert code == 0 and err == ""
    payload = json.loads(out, parse_int=lambda text: int(Decimal(text)))
    # each refinement index is q^(248 - 8) * (q - 1)^8 for the Iwahori of E8
    index = 1
    for q in qs:
        index *= q ** 240 * (q - 1) ** 8
    assert payload == {"num": index, "den": 1, "half_exponents": {}}


def test_input_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    req = write_json(tmp_path / "req.json", family_request())
    cert_path = tmp_path / "cert.json"
    invoke(capsys, "family", "--input", req, "--output", str(cert_path))
    cert = json.loads(cert_path.read_text())
    cert["ratios"][0][1]["num"] = 123454321
    text = json.dumps(cert).replace("123454321", "9" * 5001)
    tampered = tmp_path / "long.json"
    tampered.write_text(text)
    limit = sys.get_int_max_str_digits()
    code, out, err = invoke(capsys, "certify", "--input", str(tampered))
    assert sys.get_int_max_str_digits() == limit
    assert code == 2 and out == "" and "input error" in err and "digits" in err


@pytest.mark.parametrize("number, code", [("9" * 4300, 1), ("-" + "9" * 4301, 2)],
                         ids=["4300-digits-parse", "negative-4301-digits"])
def test_input_digit_limit_boundary_restores_the_callers_limit(tmp_path, capsys,
                                                               number, code):
    req = write_json(tmp_path / "req.json", family_request())
    code_family, out, _ = invoke(capsys, "family", "--input", req)
    assert code_family == 0
    tampered = tmp_path / "long.json"
    tampered.write_text(out.replace('"num": 1', f'"num": {number}', 1))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        result = invoke(capsys, "certify", "--input", str(tampered))
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)
    assert result[:2] == (code, "")
    if code == 1:  # parsed, then refused as a mismatch
        assert "certificate mismatch: ratios[0][0].num" in result[2]
    else:
        assert result[2] == "input error: integer with more than 4300 digits\n"


@pytest.mark.parametrize("command", ["ratio", "family", "certify"])
@pytest.mark.parametrize("data", [
    b"\xff{}",
    '{"group": "split:B3", "id": "\u00e9"}'.encode("latin-1"),
], ids=["byte-ff", "latin-1"])
def test_input_that_is_not_utf8_exits_2(tmp_path, capsys, command, data):
    path = tmp_path / "in.json"
    path.write_bytes(data)
    code, out, err = invoke(capsys, command, "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {path}: not UTF-8 text")


@pytest.mark.parametrize("command", ["ratio", "family", "certify"])
def test_input_nested_too_deeply_exits_2(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = invoke(capsys, command, "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"input error: {path}: JSON nested too deeply\n"


def test_certify_failure_on_a_ratio_past_the_digit_limit_exits_1(tmp_path, capsys):
    big = [{"id": "v", "q": 1000000007, "p": 1000000007},
           {"id": "w", "q": 999999937, "p": 999999937}]
    req = write_json(tmp_path / "req.json", {
        "group": "split:E8",
        "places": [{"id": "u", "q": 2, "p": 2}] + big,
        "family_places": ["u"],
    })
    code, out, _ = invoke(capsys, "family", "--input", req)
    assert code == 0
    cert = json.loads(out)
    cert["members"][1]["refinements"] = ["v", "w"]  # the error names a huge ratio
    limit = sys.get_int_max_str_digits()
    code, out, err = invoke(capsys, "certify", "--input",
                            write_json(tmp_path / "bad.json", cert))
    assert sys.get_int_max_str_digits() == limit
    assert code == 1 and out == "" and "not equal covolume" in err
    # the message names the pair and where it differs, not the 4,464-digit ratio
    assert len(err) < 500
    assert "members 0 and 1" in err
    assert "v (refinement), w (refinement)" in err
    assert "4464-digit denominator" in err


def test_improper_assignment_exits_1(tmp_path, capsys):
    spec = {
        "group": "split:A2",
        "places": [{"id": "v", "q": 2, "p": 2}],
        "collections": [
            {"assignment": {"v": [0, 1, 2]}},
            {"assignment": {"v": [0]}},
        ],
    }
    code, _, err = invoke(capsys, "ratio", "--input",
                          write_json(tmp_path / "r.json", spec))
    assert code == 1 and "improper type" in err


def _outside_input(kind):
    """(command arguments, request or None) whose error names a type or a number."""
    place = {"id": "v", "q": 2, "p": 2}
    ratio = {"group": "split:B3", "places": [place],
             "collections": [{"assignment": {}}, {"assignment": {}}]}
    if kind.startswith("type"):
        vertices = {"type-long": list(range(400_000)), "type-digits": [10 ** 4000],
                    "type": [9]}[kind]
        ratio["collections"][0]["assignment"] = {"v": vertices}
    elif kind.startswith("pairs-type"):
        vertices = list(range(300_000)) if kind == "pairs-type-long" else [9]
        return ["family"], family_request(pairs={"v2": [vertices, [0]]})
    elif kind == "swap-q":
        places = [{"id": "v", "q": 2 ** 14000, "p": 2}, {"id": "w", "q": 2, "p": 2}]
        return ["family"], family_request(places=places, family_places=["v", "w"],
                                          fallback_swap=True)
    elif kind.startswith("residue"):
        q, p = {"residue-p": (2, 10 ** 4299 + 1), "residue-q": (2 ** 14000, 3), "residue": (4, 3),
                "residue-64": (10 ** 63, 2), "residue-65": (10 ** 64, 2),
                "residue-bound": (PRIMALITY_BOUND, PRIMALITY_BOUND),
                "residue-bound-long": (PRIMALITY_BOUND ** 3, PRIMALITY_BOUND)}[kind]
        ratio["places"] = [{"id": "v", "q": q, "p": p}]
    else:
        q = {"q-long": 3 * 2 ** 14000, "q": 12, "q-bound": PRIMALITY_BOUND,
             "q-bound-long": LEAST_FACTOR_101}[kind]
        return ["pairs", "split:B3", "--q", str(q)], None
    return ["ratio"], ratio


OUTSIDE_ERRORS = {
    "type-long": "improper type: unknown vertices in a type of 3088909 characters",
    "type-digits": "improper type: unknown vertices in a type of 4022 characters",
    "type": "improper type: unknown vertices in ParahoricTypeSpec([9])",
    "pairs-type-long": "improper type: unknown vertices in a type of 2288909 characters",
    "pairs-type": "improper type: unknown vertices in ParahoricTypeSpec([9])",
    "residue-p": "invalid residue size at place v: 2 is not a power of a 4300-digit number",
    "residue-q": "invalid residue size at place v: a 4215-digit number is not a power of 3",
    "residue": "invalid residue size at place v: 4 is not a power of 3",
    "residue-64": f"invalid residue size at place v: {10 ** 63} is not a prime power",
    "residue-65": "invalid residue size at place v: a 65-digit number is not a prime power",
    "q-long": "invalid residue size: a 4215-digit number is not a prime power",
    "q": "invalid residue size: 12 is not a prime power",
    "residue-bound": ("invalid residue size at place v: whether 3317044064679887385961981 "
                      "is a prime power is past the engine's primality bound"),
    "residue-bound-long": ("invalid residue size at place v: whether a 74-digit number "
                           "is a prime power is past the engine's primality bound"),
    "q-bound": ("invalid residue size: whether 3317044064679887385961981 "
                "is a prime power is past the engine's primality bound"),
    "q-bound-long": ("invalid residue size: whether a 4292-digit number "
                     "is a prime power is past the engine's primality bound"),
    "swap-q": "fallback swap needs equal residue sizes, got a 4215-digit number at v and 2 at w",
}


@pytest.mark.parametrize("kind", OUTSIDE_ERRORS)
def test_outside_type_or_number_past_the_echo_limit_is_named_by_its_size(tmp_path, capsys,
                                                                         kind):
    argv, request_ = _outside_input(kind)
    err = OUTSIDE_ERRORS[kind]
    if request_ is not None:
        argv += ["--input", write_json(tmp_path / "in.json", request_)]
    assert invoke(capsys, *argv) == (1, "", f"error: {err}\n")
    assert len(err) < 200


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "diagram.json"
    code, out, _ = invoke(capsys, "diagram", "split:A1", "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["realized_aut_order"] == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "paravol", "diagram", "split:A1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["realized_aut_order"] == 2


# Python buffers stdout, as by default: what is left in the buffer is
# flushed at the interpreter's exit, and a failure there goes to stderr.
BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@pytest.mark.parametrize("argv", [["pairs", "split:E8", "--q", "7"], ["diagram", "split:A1"]],
                         ids=["long", "short"])
def test_a_closed_stdout_ends_the_command_quietly_with_exit_1(argv):
    # as `paravol pairs split:E8 --q 7 | head -1`: 2.7 MB, far past a pipe's
    # buffer; the short output fits in the buffer and fails only when flushed
    proc = subprocess.Popen([sys.executable, "-m", "paravol", *argv], env=BUFFERED,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline() if argv[0] == "pairs" else b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()  # at the interpreter's exit too
    proc.stderr.close()
    assert (proc.wait(timeout=60), first, err) == (1, b"{\n", b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_a_failing_stdout_exits_1_with_one_line_of_stderr():
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "paravol", "diagram", "split:A1"],
                              env=BUFFERED, stdout=full, stderr=subprocess.PIPE, text=True,
                              timeout=60)
    assert (proc.returncode, proc.stderr) == (
        1, "error: cannot write the result to stdout: No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_a_full_output_file_exits_1_when_its_buffer_is_flushed(tmp_path, capsys):
    # the certificate fits in the write buffer, so the write fails at close
    req = write_json(tmp_path / "req.json", family_request())
    assert invoke(capsys, "family", "--input", req, "--output", "/dev/full") == (
        1, "", "error: cannot write the result to '/dev/full': No space left on device\n")


def test_a_write_error_exits_1_and_a_read_error_exits_2(tmp_path, capsys):
    assert invoke(capsys, "diagram", "split:A1", "--output", str(tmp_path)) == (
        1, "", f"error: cannot write the result to {str(tmp_path)!r}: Is a directory\n")
    req = write_json(tmp_path / "req.json", family_request())
    assert invoke(capsys, "family", "--input", req, "--output", str(tmp_path / "no" / "x"))[:2] == (
        1, "")
    code, out, err = invoke(capsys, "certify", "--input", str(tmp_path))
    assert (code, out) == (2, "") and err.startswith("input error: [Errno 21] Is a directory")


@pytest.mark.parametrize("error, err", [
    (BrokenPipeError(32, "Broken pipe"), ""),
    (OSError(28, "No space left on device"),
     "error: cannot write the result to stdout: No space left on device\n"),
], ids=["closed", "full"])
def test_a_write_error_on_stdout_in_process_exits_1(error, err):
    class Failing(io.StringIO):
        def writelines(self, lines):
            raise error

    errors = io.StringIO()
    with redirect_stdout(Failing()), redirect_stderr(errors):
        code = run(["diagram", "split:A1"])
    assert (code, errors.getvalue()) == (1, err)


@pytest.mark.parametrize("label", ["split:B³", "split:B²", "split:B٣"])
def test_rank_with_non_ascii_digits_exits_1(tmp_path, capsys, label):
    ratio = write_json(tmp_path / "r.json", {
        "group": label,
        "places": [{"id": "v", "q": 2, "p": 2}],
        "collections": [{"assignment": {}}, {"assignment": {}}],
    })
    for argv in (["diagram", label], ["pairs", label], ["ratio", "--input", ratio]):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert "Traceback" not in err
        assert err == f"error: unsupported type: {label!r}\n"


def test_rank_of_a_million_digits_exits_1_within_a_second(tmp_path):
    # int() of a digit string is quadratic and `run` lifts the digit limit,
    # so the rank must be refused by its length before it is converted
    rank = "9" * 10 ** 6
    ratio = write_json(tmp_path / "r.json", {
        "group": "split:A" + rank,
        "places": [{"id": "v", "q": 2, "p": 2}],
        "collections": [{"assignment": {}}, {"assignment": {}}],
    })
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "paravol", "ratio", "--input", ratio],
                          capture_output=True, text=True, timeout=30)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (1, "")
    # a label past the echo limit is named by its length, not repeated
    assert proc.stderr == "error: unsupported type: A with a rank of 1000000 digits\n"
    assert len(proc.stderr.encode()) < 200
    assert elapsed < 1.0


@pytest.mark.parametrize("argv, named", [
    (["pairs", "split:A150"], "split:A150 has 151"),
    (["pairs", "split:A20"], "split:A20 has 21"),
    # one place and no explicit pairs: the family searches for its pair
    (["family", "--input"],
     "split:A150 has 151; name the two types at place v2 in the request's pairs"),
], ids=["pairs-A150", "pairs-A20", "family-A150"])
def test_pair_search_past_the_vertex_cap_exits_1_within_5_seconds(tmp_path, argv, named):
    if argv[0] == "family":
        argv = [*argv, write_json(tmp_path / "a150.json", {
            "group": "split:A150", "places": [{"id": "v2", "q": 2, "p": 2}],
            "family_places": ["v2"]})]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "paravol", *argv],
                          capture_output=True, text=True, timeout=30)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        f"error: the pair search is capped at 15 vertices (32,767 proper types); {named}\n")
    assert len(proc.stderr.encode()) < 1024
    assert elapsed < 5.0


@pytest.mark.parametrize("label, named", [
    ("split:A" + "x" * 10 ** 6, "a split label of 1000007 characters"),
    ("twisted:" + "y" * 10 ** 6, "a twisted label of 1000008 characters"),
    ("z" * 10 ** 6, "a label of 1000000 characters"),
])
def test_label_of_a_million_characters_is_named_by_its_length(tmp_path, capsys, label, named):
    ratio = write_json(tmp_path / "r.json", {
        "group": label,
        "places": [{"id": "v", "q": 2, "p": 2}],
        "collections": [{"assignment": {}}, {"assignment": {}}],
    })
    code, out, err = invoke(capsys, "ratio", "--input", ratio)
    assert (code, out) == (1, "")
    assert err == f"error: unsupported type: {named}\n"
    assert len(err.encode()) < 200


def _long_text_request(kind, text):
    """A ratio request on split:B3 that echoes `text` back in its error."""
    place = {"id": "v", "q": 2, "p": 2}
    assignment = {}
    if kind == "index":
        place["index"] = text
    elif kind == "assignment":
        assignment = {text: [0]}
    else:
        place = {"id": text, "q": 6, "p": 2}
    return {"group": "split:B3", "places": [place],
            "collections": [{"assignment": assignment}, {"assignment": {}}]}


@pytest.mark.parametrize("kind, text, code, err", [
    ("index", "split:B3" + "x" * 10 ** 6, 2,
     "input error: places[0]: place index a place index of 1000008 characters "
     "does not match group 'split:B3'\n"),
    ("index", "split:B3x", 2,
     "input error: places[0]: place index 'split:B3x' does not match group 'split:B3'\n"),
    ("assignment", "w" * 10 ** 6, 1,
     "error: unknown place id: a place id of 1000000 characters\n"),
    ("assignment", "w" * 64, 1, "error: unknown place id: " + "w" * 64 + "\n"),
    ("residue", "u" * 10 ** 6, 1,
     "error: invalid residue size at place a place id of 1000000 characters: "
     "6 is not a prime power\n"),
    ("residue", "u", 1, "error: invalid residue size at place u: 6 is not a prime power\n"),
], ids=["index-long", "index", "assignment-long", "assignment", "residue-long", "residue"])
def test_place_text_past_the_echo_limit_is_named_by_its_length(tmp_path, capsys,
                                                               kind, text, code, err):
    ratio = write_json(tmp_path / "r.json", _long_text_request(kind, text))
    assert invoke(capsys, "ratio", "--input", ratio) == (code, "", err)
    assert len(err.encode()) < 200


@pytest.mark.parametrize("command, request_, err", [
    ("ratio", _long_text_request("assignment", "w" * 10 ** 6) | {
        "collections": [{"assignment": {"w" * 10 ** 6: "x"}}, {"assignment": {}}]},
     "input error: collections[0].assignment[a place id of 1000000 characters]: "
     "expected a list of integers\n"),
    ("ratio", _long_text_request("assignment", "w") | {
        "collections": [{"assignment": {"w": "x"}}, {"assignment": {}}]},
     "input error: collections[0].assignment[w]: expected a list of integers\n"),
    ("family", family_request(pairs={"p" * 10 ** 6: "x"}),
     "input error: input: pairs[a place id of 1000000 characters] must list two types\n"),
    ("family", family_request(pairs={"p": "x"}), "input error: input: pairs[p] must list two types\n"),
    ("family", family_request(pairs={"p" * 10 ** 6: [[0], "x"]}),
     "input error: pairs[a place id of 1000000 characters][1]: expected a list of integers\n"),
    ("family", family_request(pairs={"v2": ["x", [0]]}),
     "input error: pairs[v2][0]: expected a list of integers\n"),
], ids=["assignment-long", "assignment", "pairs-long", "pairs", "pairs-type-long", "pairs-type"])
def test_schema_error_names_a_long_place_id_by_its_length(tmp_path, capsys, command, request_,
                                                          err):
    path = write_json(tmp_path / "r.json", request_)
    assert invoke(capsys, command, "--input", path) == (2, "", err)
    assert len(err.encode()) < 200


def _certificate_text(cert):
    chunks = list(cli._certificate_chunks(cert))
    assert "".join(chunks) == json.dumps(reference_certificate_json(cert), indent=2) + "\n"
    return chunks


def test_certificate_chunks_are_json_dumps_of_the_certificate():
    for members in oracle_families():
        _certificate_text(certify_family(members))


def test_certificate_chunks_escape_place_ids_as_json_dumps_does():
    ids = ['quote"d', "back\\slash", "tab\tbell\x07nul\x00", "\u00fcml\u00e4ut", "\u20ac\U0001d11e",
           "</script>"]
    d = build_local_index("split:B3")
    places = [Place(pid, q, q, d) for pid, q in zip(ids, (2, 3, 5, 7, 11, 13))]
    members = build_family(d.group, places, ids[:4], refine=ids[4:])
    chunks = _certificate_text(certify_family(members))
    assert any("\\u00fc" in chunk for chunk in chunks)


def test_family_hands_the_writer_no_chunk_longer_than_one_member_row(tmp_path, monkeypatch):
    qs = (2, 3, 5, 7, 11, 13)
    text = refined_certificate(qs)
    payload = json.loads(text)
    n = len(payload["members"])

    def at_indent(items):
        # items' text at their indent in the output, each after its separator
        return "".join(",\n    " + json.dumps(item, indent=2).replace("\n", "\n    ")
                       for item in items)

    # a member row: one member's assignment, one ratio row or member i's witnesses
    rows = [[item] for key in ("members", "ratios") for item in payload[key]]
    rows += [[w for w in payload["witnesses"] if w["pair"][0] == i] for i in range(n - 1)]
    longest = max(map(len, map(at_indent, rows)))
    places = [{"id": f"v{q}", "q": q, "p": q} for q in qs]
    places += [{"id": "w4", "q": 4, "p": 2}, {"id": "w9", "q": 9, "p": 3}]
    req = write_json(tmp_path / "req.json", family_request(
        places=places, family_places=[f"v{q}" for q in qs], refine=["w4", "w9"]))
    chunks = []
    monkeypatch.setattr(cli, "_write", lambda output, parts: chunks.extend(parts))
    assert run_quietly(["family", "--input", req])[0] == 0
    assert "".join(chunks) == text
    assert n == 64 and len(payload["witnesses"]) == n * (n - 1) // 2
    assert len(chunks) > len(rows) == 3 * n - 1
    assert max(map(len, chunks)) <= longest < len(text) // 50
    # one member, ratio row or witness row per chunk at most: the chunks
    # holding witnesses are member i's, one chunk for each i in turn
    assert all(chunk.count('"assignment"') <= 1 and chunk.count('"num"') <= n
               for chunk in chunks)
    firsts = [set(re.findall(r'"pair": \[\s*(\d+),', chunk)) for chunk in chunks]
    assert [found for found in firsts if found] == [{str(i)} for i in range(n - 1)]


def test_cli_imports_neither_dataclasses_nor_inspect_nor_typing():
    # each is a cost of every command's start-up that no command needs
    probe = ("import sys; import paravol.cli as c; c.build_parser(); "
             "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_rank_with_a_leading_zero_exits_1_where_the_place_index_repeats_it(tmp_path, capsys):
    places = [{"id": "v2", "q": 2, "p": 2, "index": "split:B3"},
              {"id": "v3", "q": 3, "p": 3, "index": "split:B3"}]
    family = write_json(tmp_path / "family.json", family_request(places=places))
    code, certificate, _ = invoke(capsys, "family", "--input", family)
    assert code == 0
    (tmp_path / "certificate.json").write_text(certificate)
    ratio = write_json(tmp_path / "ratio.json", {
        "group": "split:B3", "places": places,
        "collections": [{"assignment": {}}, {"assignment": {"v2": [0]}}],
    })
    for name in ("ratio", "family", "certificate"):
        path = tmp_path / f"{name}.json"
        text = path.read_text()
        assert '"split:B3"' in text
        path.write_text(text.replace('"split:B3"', '"split:B03"'))
    for command, name in (("ratio", "ratio"), ("family", "family"), ("certify", "certificate")):
        code, out, err = invoke(capsys, command, "--input", str(tmp_path / f"{name}.json"))
        assert (code, out) == (1, ""), command
        assert err == "error: unsupported type: 'split:B03'\n"


# -- the pieces of the streaming writers are json.dumps texts ----------------

# Ints up to past 4,300 digits, the interpreter's default limit on their text.
big_ints = st.integers() | st.builds(lambda digits, sign: sign * 10 ** digits,
                                     st.integers(4300, 5000), st.sampled_from((1, -1)))
newlines = st.integers(0, 5).map(lambda depth: "\n" + "  " * depth)


@settings(max_examples=100, deadline=None)
@given(st.lists(big_ints, max_size=6) | st.lists(big_ints, max_size=6).map(tuple), newlines)
@example([], "\n")
@example((), "\n      ")
@example([-1, 0, -(10 ** 4999), 10 ** 4999], "\n        ")  # 5,000 digits
def test_ints_is_json_dumps_of_the_list_at_the_indent(values, newline):
    with _int_digit_limit(0):  # as `run` does
        assert cli._ints(values, newline) == json.dumps(list(values), indent=2).replace(
            "\n", newline)


nested_values = st.recursive(
    st.none() | st.booleans() | big_ints | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20)


@settings(max_examples=100, deadline=None)
@given(nested_values, st.integers(0, 4))
@example(["\n", "a\nb", "\"", "\u2028", "\U0001d11e", "\ud800"], 2)
@example({"\n\"\u2028\U0001d11e": {"\n": ["\r\n"]}}, 3)
def test_nested_is_the_values_text_inside_a_document(value, depth):
    """`_nested(value, newline)` is the text json.dumps writes for value at that depth."""
    document = value
    for _ in range(depth):
        document = [document]
    newline = "\n" + "  " * depth
    head = "".join("[\n" + "  " * (k + 1) for k in range(depth))
    tail = "".join("\n" + "  " * k + "]" for k in reversed(range(depth)))
    with _int_digit_limit(0):
        assert head + cli._nested(value, newline) + tail == json.dumps(document, indent=2)
