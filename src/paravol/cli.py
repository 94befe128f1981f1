"""Command line interface.

Subcommands: diagram, pairs, ratio, family, certify.  Results go to stdout
or --output; diagnostics go to stderr.  Exit 0 on success, 1 on domain
errors (bad group, bad residue size, failed certification) and on a result
that cannot be written, 2 on unreadable or schema-invalid input.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import contextmanager
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from operator import getitem

from .construction import (
    Place,
    _id,
    _residue_base,
    build_family,
    certify_family,
    check_member_count,
    make_collection,
    relative_covolume,
)
from .diagram import LABEL_ECHO_LIMIT, GroupSpec, _bits, build_local_index, echo, subset_table
from .errors import (CertificateError, DomainError, FamilySizeError, OutputError,
                     ParavolError, SchemaError)
from .parahoric import pairs_to_json

# An input path is named in full up to this many characters and by its
# length past them: far more than any temporary path a caller makes, and
# short enough that every message stays under 1 KB.
PATH_ECHO_LIMIT = 256

# Input integers may have at most this many digits: the interpreter's
# default limit on int-string conversion.  Results are exact and may be
# longer, so commands run with that limit lifted (see `run`).
MAX_INPUT_DIGITS = 4300


def _write(output, chunks):
    """Write an iterable of text chunks to the file `output`, or to stdout if it is None.

    The file is written through a 1 MB buffer, so a multi-MB result takes
    a few system calls, not one per 8 KB.  A failed write, the final flush
    at close included, raises OutputError.  When stdout fails, its
    descriptor is pointed at the null device first, so that the
    interpreter's flush of what is left at exit finds nothing to report.
    """
    try:
        if output is not None:  # an empty path is a path, and fails to open
            with open(output, "w", buffering=1 << 20) as fh:
                fh.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
    except OSError as exc:
        if output is not None:
            where = _path(output, repr)
        else:
            where = "stdout"
            _drop_stdout()
        raise OutputError(f"cannot write the result to {where}: {exc.strerror or exc}") from exc


def _drop_stdout():
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # a buffer in the caller's process, not a file
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _ints(values, newline):
    """`json.dumps(list(values), indent=2)` of a sequence of ints, at the indent of `newline`."""
    if not values:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(map(int.__repr__, values)) + newline + "]"


def _nested(value, newline):
    """`json.dumps(value, indent=2)` at the indent of `newline`.

    Exact, since the text's only newlines are the layout's: JSON writes a
    newline inside a string as the escape `\\n`.  With an indent, json's
    pure-Python encoder leaves a reference cycle per call, so this serves
    only values written a bounded number of times, never one per place.
    """
    return json.dumps(value, indent=2).replace("\n", newline)


def _dump(output, obj):
    _write(output, (json.dumps(obj, indent=2), "\n"))


def _ratio_json(ratio):
    """The v1 ratio object of a `Fraction` or int; no ratio has a sqrt(q), so no half exponent."""
    return {"num": ratio.numerator, "den": ratio.denominator, "half_exponents": {}}


# The newlines before a `pairs` entry and before each of its keys.
_ENTRY, _KEY = "\n    ", "\n      "


class _MaskTexts(dict):
    """The text of each vertex mask's vertex list, built on its first lookup.

    The tables are sized for diagrams of at most n vertices: a mask below
    2^min(n, 16), as every mask of the pair search is, is joined from
    `subset_table`s of its low and high byte.  A wider one, which only a
    certificate over a large diagram holds, is written from its vertices.
    """

    __slots__ = ("lows", "highs", "width")

    def __init__(self, n):
        parts = ["," + _KEY + "  " + str(v) for v in range(min(n, 16))]
        self.lows, self.highs = subset_table(parts[:8], ""), subset_table(parts[8:], "")
        self.width = len(parts)
        self[0] = "[]"

    def __missing__(self, mask):
        if mask >> self.width:
            text = _ints(_bits(mask), _KEY)
        else:
            text = "[" + (self.lows[mask & 255] + self.highs[mask >> 8])[1:] + _KEY + "]"
        self[mask] = text
        return text


def _pairs_chunks(d, rows, q):
    """The `pairs` output of the diagram d, one chunk per row of `parahoric.pairs_to_json`.

    The text is `json.dumps(payload, indent=2) + "\\n"` byte for byte, where
    the payload is {"diagram": d's label, "pairs": [entry, ...]} with "q": q
    last when q is given, and each entry holds "t1", "t2", "dim",
    "order_coeffs" and, when q is given, "order_at_q".  A row is a t1
    mask, its volume factor and the masks of its t2.  Its entries differ
    only in "t2", so the text before the t2 (the head) is built once per
    row, the text after it (the tail: "dim", "order_coeffs", "order_at_q"
    and the closing brace) once per volume factor, keyed by the row's
    coefficient tuple, and each mask's vertex list text once.  A row is
    then one chunk: a separator and the entries, each the head, a t2 text
    and the tail, built by one join whose first item carries the separator
    and the head and whose last carries the tail, so the row's text is
    copied once.  The chunks go to the file as they come, so the output,
    up to 1 GB on split:C14, is never held whole.
    """
    texts = _MaskTexts(len(d.vertices))
    tails = {}  # order coefficients -> the text after "t2" of an entry with that factor
    yield '{\n  "diagram": ' + _quote(d.group.label) + ',\n  "pairs": '
    between, sep = "," + _ENTRY, "[" + _ENTRY
    for t1, dim, coeffs, value, t2s in rows:
        tail = tails.get(coeffs)
        if tail is None:
            tail = ("," + _KEY + '"dim": ' + int.__repr__(dim) + "," + _KEY
                    + '"order_coeffs": ' + _ints(coeffs, _KEY))
            if q is not None:
                tail += "," + _KEY + '"order_at_q": ' + int.__repr__(value)
            tail = tails[coeffs] = tail + _ENTRY + "}"
        head = "{" + _KEY + '"t1": ' + texts[t1] + "," + _KEY + '"t2": '
        items = list(map(texts.__getitem__, t2s))
        items[0] = sep + head + items[0]
        items[-1] += tail
        yield (tail + between + head).join(items)
        sep = between
    end = "\n  ]" if sep == between else "[]"
    if q is not None:
        end += ',\n  "q": ' + int.__repr__(q)
    yield end + "\n}\n"


# A certificate list's items and their keys sit where a `pairs` entry and
# its keys do; this newline comes before an entry of a member's assignment
# or of a witness's pair.
_NESTED = "\n        "


def _list_chunks(texts):
    """A list valued certificate key, one chunk per item, from the items' texts."""
    sep = "[" + _ENTRY
    for text in texts:
        yield sep + text
        sep = "," + _ENTRY
    yield "[]" if sep[0] == "[" else "\n  ]"


def _member_texts(members):
    """Each member's text: its assignment, from one line per (place, type), and refinements.

    The members share their places in one order, as `certify_family`
    checks, so each place keeps its own table of lines by type.
    """
    places = members[0].places
    tables = [{} for _ in places]  # per place, type -> its assignment line
    refinement_texts = {}  # refinement tuple -> its text
    for m in members:
        parts = []
        for pl, t, lines in zip(places, m.types, tables):
            line = lines.get(t)
            if line is None:
                line = lines[t] = _quote(pl.id) + ": " + _ints(t.vertices, _NESTED)
            parts.append(line)
        assignment = "{" + _NESTED + ("," + _NESTED).join(parts) + _KEY + "}" if parts else "{}"
        refined = refinement_texts.get(m.refinements)
        if refined is None:
            refined = refinement_texts[m.refinements] = _nested(m.refinements, _KEY)
        yield ("{" + _KEY + '"assignment": ' + assignment + "," + _KEY
               + '"refinements": ' + refined + _ENTRY + "}")


def _ratio_rows(n):
    """The row texts of n members' ratio matrix: n copies of one row of n ratios, each 1."""
    one = _nested(_ratio_json(1), _KEY)
    return ["[" + _KEY + ("," + _KEY).join([one] * n) + _ENTRY + "]"] * n


def _witness_chunks(cert):
    """The "witnesses" list, one chunk per witness row: member i's witnesses, j = i+1, ....

    Member i's witness with j at place k is the text `{"pair": [i, j],
    "place", "t1", "t2"}`.  Everything from j on depends only on (k, i's
    type at k, j), so for each such (k, t1) met, a list over all members
    j of that text (j's digits, the place, the t1 and t2 vertex lists and
    the closing brace) is built once, from a text per distinct t2.  A row
    is then one `str.join` of the entries its place indices pick, with
    the text before j (the separator, the opening brace and i) as the
    joiner: no text, tuple or key is built per pair.
    """
    members = cert.members
    places, n = members[0].places, len(members)
    types = [m.types for m in members]
    digits = list(map(str, range(n)))
    masks = _MaskTexts(max(len(pl.local_index.vertices) for pl in places))
    tails = {}  # (place index, t1) -> per member j, the witness text from j on

    def tail(k, t1):
        found = tails.get((k, t1))
        if found is None:
            head = (_KEY + "]," + _KEY + '"place": ' + _quote(places[k].id) + "," + _KEY
                    + '"t1": ' + masks[t1] + "," + _KEY + '"t2": ')
            column = [ts[k] for ts in types]
            ends = {m: head + masks[m] + _ENTRY + "}" for m in set(column)}
            found = tails[k, t1] = list(map(str.__add__, digits, map(ends.__getitem__, column)))
        return found

    opener = "," + _ENTRY + "{" + _KEY + '"pair": [' + _NESTED
    for i, row in enumerate(cert.witness_places):
        joiner = opener + digits[i] + "," + _NESTED
        lists = {k: tail(k, types[i][k]) for k in set(row)}
        yield ((joiner if i else "[" + joiner[1:])
               + joiner.join(map(getitem, map(lists.__getitem__, row), range(i + 1, n))))
    yield "\n  ]" if cert.witness_places else "[]"


def _certificate_sections(cert):
    """(key, the chunks of its value's text) for each top-level key of the v1 certificate.

    The keys come in the layout's order, and each section's chunks are
    made only as they are taken, so a reader can build or decode one
    section's text at a time.  A place's entry is joined from its quoted
    strings and `int.__repr__` of q and p.
    """
    first = cert.members[0]
    return (
        ("group", (_quote(first.group.label),)),
        ("places", _list_chunks(
            "{" + _KEY + '"id": ' + _quote(pl.id) + "," + _KEY + '"q": ' + int.__repr__(pl.q)
            + "," + _KEY + '"p": ' + int.__repr__(pl.p) + "," + _KEY + '"index": '
            + _quote(pl.local_index.group.label) + _ENTRY + "}"
            for pl in first.places)),
        ("members", _list_chunks(_member_texts(cert.members))),
        ("ratios", _list_chunks(_ratio_rows(len(cert.members)))),
        ("witnesses", _witness_chunks(cert)),
        ("citations", _list_chunks(map(_quote, cert.citations))),
    )


def _certificate_chunks(cert):
    """The v1 certificate text, in chunks of at most one member, ratio row or witness row.

    This is the one definition of the v1 layout: `family` writes it and
    `certify` checks a file against it.  The text is `json.dumps(payload,
    indent=2) + "\\n"` byte for byte, where the payload holds, in order,
    "group"; "places", each {"id", "q", "p", "index"}; "members", each
    {"assignment": {place id: vertex list}, "refinements": [place id,
    ...]}; "ratios", the N×N matrix of ratio objects; "witnesses", each
    {"pair": [i, j], "place", "t1", "t2"} for i < j; and "citations".
    Its N² part is built from pieces made once and reused: an assignment
    line per (place id, type), one ratio row text, as every ratio is 1,
    and per (witness place, t1) the text of every member j as the
    second of a pair (`_witness_chunks`).  The whole text, the witness
    dicts and their "pair" lists never exist at once.
    """
    sep = "{\n  "
    for key, chunks in _certificate_sections(cert):
        yield sep + _quote(key) + ": "
        yield from chunks
        sep = ",\n  "
    yield "\n}\n"


# -- schema helpers ---------------------------------------------------------

def _input_float(text):
    raise SchemaError(f"number {text} is not an integer")  # no schema has a float


@contextmanager
def _int_digit_limit(n):
    """Run with the interpreter's int-string digit limit at n (0: none), then restore it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(n)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _path(path, shown=str):
    """An input path as an error message shows it: in full, or named by its length."""
    return echo(path, "path", shown, PATH_ECHO_LIMIT)


def _read_text(path):
    """The text of the file, with its newlines read as \\n."""
    if not os.path.exists(path):
        raise SchemaError(f"no such file: {_path(path)}")
    try:
        with open(path, encoding="utf-8") as fh:  # JSON text is UTF-8
            return fh.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{_path(path)}: not UTF-8 text: {exc}") from exc


def _load_json(text, path):
    """The JSON decoded from the text of the file `path`, refusing floats and huge integers."""
    try:
        # the C scanner builds each int and refuses one past the limit
        with _int_digit_limit(MAX_INPUT_DIGITS):
            return json.loads(text, parse_float=_input_float, parse_constant=_input_float)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{_path(path)}: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{_path(path)}: JSON nested too deeply") from exc
    except ValueError as exc:
        raise SchemaError(f"integer with more than {MAX_INPUT_DIGITS} digits") from exc


def _get(obj, key, ctx, kind=None):
    if not isinstance(obj, dict):
        raise SchemaError(f"{ctx}: expected an object")
    if key not in obj:
        raise SchemaError(f"{ctx}: missing key {key!r}")
    value = obj[key]
    # bool is a subclass of int, but true is no residue size
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise SchemaError(f"{ctx}: key {key!r} has wrong type")
    return value


_INT_ONLY = frozenset((int,))


def _is_int_list(value):
    # type(x) is int, not isinstance: true is no vertex
    return type(value) is list and _INT_ONLY.issuperset(map(type, value))


def _int_list(value, ctx):
    if not _is_int_list(value):
        raise SchemaError(f"{ctx}: expected a list of integers")
    return value


def _places_from_json(items, group_label):
    if not isinstance(items, list) or not items:
        raise SchemaError("places: expected a non-empty list")
    index = build_local_index(group_label)
    places = []
    for k, entry in enumerate(items):
        pid = _get(entry, "id", f"places[{k}]", str)
        q = _get(entry, "q", f"places[{k}]", int)
        p = _get(entry, "p", f"places[{k}]", int)
        if "index" in entry and entry["index"] != group_label:
            raise SchemaError(f"places[{k}]: place index {echo(entry['index'], 'place index')} "
                              f"does not match group {group_label!r}")
        places.append(Place(pid, q, p, index))
    return tuple(places)


def _assignment_from_json(value, ctx):
    """The decoded assignment itself, once each of its types is a list of integers."""
    if not isinstance(value, dict):
        raise SchemaError(f"{ctx}: expected an object mapping place ids to types")
    for pid, t in value.items():
        if not _is_int_list(t):  # the context, which echoes the id, only for the error
            raise SchemaError(f"{ctx}[{_id(pid)}]: expected a list of integers")
    return value


# -- subcommands ------------------------------------------------------------

def cmd_diagram(args):
    d = build_local_index(GroupSpec.parse(args.group))
    if args.dot:
        _write(args.output, (d.to_dot(), "\n"))
    else:
        _dump(args.output, d.to_json())
    return 0


def cmd_pairs(args):
    d = build_local_index(GroupSpec.parse(args.group))
    if args.q is not None:
        _residue_base(args.q)
    rows = pairs_to_json(d, args.q)
    head = next(rows, None)
    if head is None:
        note = ""
        if d.group.form == "split" and d.group.family == "A":
            note = ("; the cycle rotations identify every candidate, "
                    "use the family command with --fallback-swap")
        print(f"warning: no single-place equal-volume pair of non-conjugate "
              f"types for {d.group.label}{note}", file=sys.stderr)
    else:
        rows = chain((head,), rows)
    _write(args.output, _pairs_chunks(d, rows, args.q))
    return 0


def _collection_from_json(entry, group, places, key, k, checked=None):
    """The collection of entry k of the list `key` of a request or certificate.

    A schema error is raised relative to the entry and named `key[k]` as it
    is raised, so no context text is built for an entry that is valid.
    """
    try:
        overrides = _assignment_from_json(_get(entry, "assignment", ""), ".assignment")
        refinements = entry.get("refinements", [])
        if not isinstance(refinements, list) or not all(isinstance(x, str) for x in refinements):
            raise SchemaError(".refinements: expected a list of place ids")
    except SchemaError as exc:
        raise SchemaError(f"{key}[{k}]{exc}") from None
    return make_collection(group, places, overrides, tuple(refinements), checked)


def cmd_ratio(args):
    data = _load_json(_read_text(args.input), args.input)
    group = GroupSpec.parse(_get(data, "group", "input", str))
    places = _places_from_json(_get(data, "places", "input"), group.label)
    colls = _get(data, "collections", "input", list)
    if len(colls) != 2:
        raise SchemaError("input: collections must list exactly two entries")
    a = _collection_from_json(colls[0], group, places, "collections", 0)
    b = _collection_from_json(colls[1], group, places, "collections", 1)
    _dump(args.output, _ratio_json(relative_covolume(a, b)))
    return 0


def cmd_family(args):
    data = _load_json(_read_text(args.input), args.input)
    group = GroupSpec.parse(_get(data, "group", "input", str))
    places = _places_from_json(_get(data, "places", "input"), group.label)
    family_ids = _get(data, "family_places", "input", list)
    if not all(isinstance(x, str) for x in family_ids):
        raise SchemaError("input: family_places must be a list of place ids")
    pairs = None
    if "pairs" in data:
        raw = _get(data, "pairs", "input", dict)
        pairs = {}
        for pid, duo in raw.items():
            if not isinstance(duo, list) or len(duo) != 2:
                raise SchemaError(f"input: pairs[{_id(pid)}] must list two types")
            pairs[pid] = (tuple(_int_list(duo[0], f"pairs[{_id(pid)}][0]")),
                          tuple(_int_list(duo[1], f"pairs[{_id(pid)}][1]")))
    fallback = data.get("fallback_swap", False)
    if not isinstance(fallback, bool):
        raise SchemaError("input: fallback_swap must be true or false")
    fallback = fallback or args.fallback_swap
    refine = data.get("refine")
    if args.refine is not None:
        refine = args.refine.split(",")
    if refine is not None:
        if type(refine) is not list or len(refine) != 2 or not all(type(x) is str for x in refine):
            raise SchemaError("input: refine must list exactly two place ids")
        refine = tuple(refine)
    members = build_family(group, places, list(family_ids), pairs, fallback, refine)
    _write(args.output, _certificate_chunks(certify_family(members)))
    return 0


def _holds_bool(value):
    """Whether a decoded JSON value is or contains true or false."""
    stack = [value]
    while stack:
        value = stack.pop()
        if type(value) is list:
            stack.extend(value)
        elif type(value) is dict:
            stack.extend(value.values())
        elif type(value) is bool:
            return True
    return False


def _differs(expected, found):
    """Whether decoded JSON found differs from expected, which holds no bools.

    Python's == takes true for 1 and false for 0; floats are refused when
    the input is parsed, so a bool is the only alias it lets through.
    """
    return expected != found or _holds_bool(found)


def _first_difference(expected, found, path):
    """Path of the first entry where found differs from expected; they differ.

    Lists are compared index by index and objects key by key, in the
    expected order; an entry missing on either side is named by its path.
    A key past `LABEL_ECHO_LIMIT` characters is named by its length.
    """
    if isinstance(expected, list) and isinstance(found, list):
        for k, (e, f) in enumerate(zip(expected, found)):
            if _differs(e, f):
                return _first_difference(e, f, f"{path}[{k}]")
        return f"{path}[{min(len(expected), len(found))}]"
    if isinstance(expected, dict) and isinstance(found, dict):
        for key in list(expected) + [k for k in found if k not in expected]:
            entry = f"{path}.{echo(key, 'key', str)}"
            if key not in expected or key not in found:
                return entry
            if _differs(expected[key], found[key]):
                return _first_difference(expected[key], found[key], entry)
    return path


def _members_from_json(data):
    """The members a decoded certificate lists, over one shared tuple of places.

    Each distinct (local index, given vertices) in them is checked once.
    """
    group = GroupSpec.parse(_get(data, "group", "certificate", str))
    places = _places_from_json(_get(data, "places", "certificate"), group.label)
    member_entries = _get(data, "members", "certificate", list)
    if len(member_entries) < 2:
        raise SchemaError("certificate: members must list at least two entries")
    check_member_count(len(member_entries))
    checked = {}
    return [
        _collection_from_json(entry, group, places, "members", k, checked)
        for k, entry in enumerate(member_entries)
    ]


# The text of the v1 layout before its group, and before its ratios, which
# ends the members: the head of a canonical certificate is what lies between.
_HEADER, _RATIOS = '{\n  "group": ', ',\n  "ratios": '


def _certify_canonical(text, path):
    """The certificate of a file whose text is `family`'s byte for byte, or None.

    Only the head, the text before the ratios, is decoded.  The members are
    rebuilt from it and certified; the file must then be the writer's
    text for them, chunk by chunk, followed by nothing but JSON whitespace.
    Such a file is valid JSON that holds no bool, and decoding it whole
    would yield these members again.  A head listing more members than a
    family may have is refused.  Any other outcome, an error that a command
    reports included, is None: the caller then decodes the whole file, and
    every exit code and message is the one that path gives.
    """
    end = text.find(_RATIOS) if text.startswith(_HEADER) else -1
    if end < 0:
        return None
    try:
        cert = certify_family(_members_from_json(_load_json(text[:end] + "\n}", path)))
    except FamilySizeError:
        raise
    except ParavolError:
        return None
    end = _written_end(text, cert)
    return cert if end >= 0 and not text[end:].strip(" \t\n\r") else None


def _written_end(text, cert):
    """Where the writer's text for cert ends when text starts with it, else -1."""
    pos = 0
    for chunk in _certificate_chunks(cert):
        if not text.startswith(chunk, pos):
            return -1
        pos += len(chunk)
    return pos


def _mismatch(expected, found, key, bools):
    """The path of the first entry of section `key` where found differs, or None.

    `bools` says whether the file's text may hold a bool; when it cannot,
    found is not walked for one.  A call of its own, so that the decoded
    section is dropped before the next one is decoded.
    """
    if expected != found or bools and _holds_bool(found):
        return _first_difference(expected, found, key)
    return None


def _certify_decoded(text, path):
    """The certificate that the whole decoded file passes; else the error naming why not.

    `_certify_canonical` has taken every file that is the writer's text
    followed by whitespace, so this file is compared entry by entry, with
    the expected text decoded one top-level section at a time.  A JSON
    bool comes only from a literal true or false, so the text is searched
    for either word only once the members pass, and when it holds neither,
    no section is walked for a bool.
    """
    data = _load_json(text, path)
    members = _members_from_json(data)
    for key in ("ratios", "witnesses", "citations"):
        _get(data, key, "certificate", list)
    cert = certify_family(members)
    bools = "true" in text or "false" in text
    sections = dict(_certificate_sections(cert))
    for key in ("ratios", "witnesses", "members", "places", "group", "citations"):
        entry = _mismatch(json.loads("".join(sections[key])), data[key], key, bools)
        if entry is not None:
            raise CertificateError(f"certificate mismatch: {entry} does not match recomputation")
    return cert


def cmd_certify(args):
    text = _read_text(args.input)
    cert = _certify_canonical(text, args.input) or _certify_decoded(text, args.input)
    witnesses = sum(map(len, cert.witness_places))
    _dump(None, {"valid": True, "members": len(cert.members), "witnesses": witnesses})
    return 0


# -- entry points ------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors name an argument past LABEL_ECHO_LIMIT by its length.

    argparse repeats a refused value (an unknown command, a --q that is no
    integer, an unrecognized argument) in full; `error` gets only the
    message, so each parser, subcommand parsers included, keeps its own
    arguments to find them in it.
    """

    _argv = ()

    def parse_known_args(self, args=None, namespace=None):
        self._argv = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        for arg in sorted(set(self._argv), key=len, reverse=True):
            if len(arg) > LABEL_ECHO_LIMIT:
                message = message.replace(repr(arg), arg).replace(arg, echo(arg, "value"))
        super().error(message)


def build_parser():
    parser = _Parser(
        prog="paravol",
        description="parahoric types, exact volume factor ratios, certified "
                    "equal-covolume families")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagram", help="print a local Dynkin diagram")
    p.add_argument("group", help="group label, e.g. split:B3 or twisted:C-BC1")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.add_argument("--output")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("pairs", help="find symbolic equal-volume non-conjugate type pairs")
    p.add_argument("group")
    p.add_argument("--q", type=int, help="also evaluate orders at this residue size")
    p.add_argument("--output")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("ratio", help="exact covolume ratio of two collections")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("family", help="build and certify an equal-covolume family")
    p.add_argument("--input", required=True)
    p.add_argument("--fallback-swap", action="store_true",
                   help="vary places in equal-q twos by swapping a fixed type pair")
    p.add_argument("--refine", metavar="P1,P2",
                   help="torsion-free refinement at two places of distinct characteristic")
    p.add_argument("--output")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("certify", help="re-validate an existing family certificate")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_certify)
    return parser


@contextmanager
def _collector_paused():
    """Run with the cyclic GC off, and turn it back on after if it was on."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def run(argv):
    """Run one command line; its exit code: 0, 1 or 2 (see the module docstring).

    The command runs with the cyclic GC paused.  No command leaves cyclic
    garbage that grows with its input, and decoded JSON holds no cycle, so
    a collection while a command runs frees nothing and only scans what it
    holds again, a decoded certificate included.  The handlers sit inside
    the pause, so an error's traceback, which may keep a decoded file
    alive, is dropped before the collector resumes.
    """
    args = build_parser().parse_args(argv)
    with _collector_paused():
        try:
            with _int_digit_limit(0):
                return args.func(args)
        except DomainError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except OutputError as exc:
            if not isinstance(exc.__cause__, BrokenPipeError):  # its reader is gone: end quietly
                print(f"error: {exc}", file=sys.stderr)
            return 1
        except SchemaError as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:  # the input file could not be read
            message = str(exc)
            if exc.filename is not None:  # shown as its repr
                message = message.replace(repr(exc.filename), _path(exc.filename, repr))
            print(f"input error: {message}", file=sys.stderr)
            return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
