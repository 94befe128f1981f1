"""The benchmark's three workloads: seeded inputs, timed CLI calls, output checks.

Every workload drives the public entry `paravol.cli.run` in this process,
one call at a time (a closed loop with one client).  Inputs are generated
from the seed before any timing and handed to the program only as files.
The checks below recompute what they can without the engine: a fast wrong
answer counts as a failed operation, never as a fast one.  Timed calls
are reported in reference seconds (see `Clock`).
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import gcd
from types import SimpleNamespace


def fresh_cli(tracer=None):
    """Import `paravol.cli` anew, so no state survives from an earlier invocation."""
    for name in [n for n in sys.modules if n == "paravol" or n.startswith("paravol.")]:
        del sys.modules[name]
    cli = importlib.import_module("paravol.cli")
    if tracer is not None:
        tracer.install()
    return cli


# -- host speed ---------------------------------------------------------------

# About the kernel's time between engine calls on the host the baseline was
# recorded on, a shared 2-core x86-64 VM.  A time in reference seconds is
# the time the call would take on a host where the kernel takes this long.
REFERENCE_S = 1.5e-3
KERNEL_PRIME = 56_000_003


def kernel():
    """About 1 ms of pure-Python work of the engine's two kinds.

    Half is trial division, as in residue validation; half is building,
    sorting and hashing small tuples, as in descriptor and orbit work.
    It calls nothing of the engine, so no change to the engine moves it.
    """
    k = 2
    while k * k <= KERNEL_PRIME and KERNEL_PRIME % k:
        k += 1
    seen = {}
    for i in range(750):
        t = tuple(sorted({i % 7, i % 11, i % 13, i % 17}))
        seen[t] = seen.get(t, 0) + sum(t)
    return k, len(seen)


def probe():
    """The host's current speed: the median wall time of three kernel runs."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Call:
    code: object  # exit code, or the exception that escaped cli.run
    out: str
    wall: float
    seconds: float | None = None  # reference seconds, set by Clock.finish


class Clock:
    """Scales wall times to the reference host by the kernel timed around them.

    Other tenants of the shared host change its speed by tens of percent
    from second to second, and runs minutes apart by as much; the kernel's
    time moves with the engine's.  So the kernel is timed before the first
    call and after every block of `every` calls, and each call's wall time
    is multiplied by REFERENCE_S over the mean of the two kernel times
    around its block.  A change to the engine moves the scaled time as much
    as the wall time.
    """

    def __init__(self, every=1):
        self.every, self.calls, self.kernel_s = every, [], []

    def time(self, fn, *args):
        """The Call that fn(*args) returns, with the host probed around it."""
        if not self.kernel_s:
            self.kernel_s.append(probe())
        call = fn(*args)
        self.calls.append(call)
        if len(self.calls) % self.every == 0:
            self.kernel_s.append(probe())
        return call

    def finish(self):
        """Set every call's reference seconds, probing after a partial last block."""
        if len(self.calls) % self.every:
            self.kernel_s.append(probe())
        for k, call in enumerate(self.calls):
            block = k // self.every
            kernel_s = (self.kernel_s[block] + self.kernel_s[block + 1]) / 2
            call.seconds = call.wall * REFERENCE_S / kernel_s


def invoke(cli, argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.run(argv)
        except Exception as exc:  # a traceback for a user of the real command
            code = exc
        wall = time.perf_counter() - start
    return Call(code, out.getvalue(), wall)


@dataclass
class Op:
    """One operation of a workload and its verdict."""

    calls: list  # the operation's CLI invocations, as Calls
    out_bytes: int
    label: str  # the group the operation ran on
    index: int  # position of the operation in its pass
    failure: str | None = None
    wrong: bool = False  # a wrong exit code or output, not an escaped exception

    @property
    def seconds(self):
        """Reference seconds of the whole operation."""
        return sum(call.seconds for call in self.calls)


def judge(call, expected_code, check=None):
    """(failure, wrong) for one invocation; `check` returns a problem or None."""
    if isinstance(call.code, Exception):
        return f"{type(call.code).__name__} escaped cli.run: {str(call.code)[:200]}", False
    if call.code != expected_code:
        return f"exit code {call.code}, expected {expected_code}", True
    problem = check() if check is not None else None
    return (problem, True) if problem else (None, False)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _big_int(text):
    # Exact ratios can exceed the interpreter's default limit on decimal
    # digits; parse them without changing that limit for the engine.
    return int(Decimal(text))


def vertex_count(label):
    form, _, name = label.partition(":")
    if form == "twisted":
        return {"C-BC1": 2, "C-B2": 3}[name]  # relative rank + 1
    return int(name[1:]) + 1  # affine vertex plus the simple roots


def _proper(t, nv):
    return (isinstance(t, list) and all(type(v) is int for v in t)
            and t == sorted(set(t)) and all(0 <= v < nv for v in t) and len(t) < nv)


def horner(coeffs, q):
    value = 0
    for c in reversed(coeffs):
        value = value * q + c
    return value


# -- family_certify -----------------------------------------------------------

FAMILY_Q = (2, 3, 5, 7, 11, 13)
REFINE_PLACES = ({"id": "w4", "q": 4, "p": 2}, {"id": "w9", "q": 9, "p": 3})
FAMILY_GROUP = "split:B3"


class FamilyCertify:
    """`paravol family`, `certify` on its output, `certify` on a tampered copy."""

    name = "family_certify"
    # The tail is the highest invocation sample with ten beyond it.  Its
    # three invocations take about the same time, so which one the tail
    # falls on barely moves it as the pass count changes.
    min_passes = 1

    def __init__(self, seed, workdir, smoke=False):
        rng = random.Random(seed)
        qs = FAMILY_Q[:2] if smoke else FAMILY_Q
        family_places = [{"id": f"v{q}", "q": q, "p": q} for q in qs]
        places = family_places + [dict(pl) for pl in REFINE_PLACES]
        rng.shuffle(places)
        self.family_ids = [pl["id"] for pl in family_places]
        rng.shuffle(self.family_ids)
        self.members = 2 ** len(qs)
        self.place_ids = {pl["id"] for pl in places}
        self.request = workdir / "family.json"
        self.request.write_text(json.dumps({
            "group": FAMILY_GROUP,
            "places": places,
            "family_places": self.family_ids,
            "refine": [pl["id"] for pl in REFINE_PLACES],
        }))
        self.certificate = workdir / "certificate.json"
        self.tampered = workdir / "tampered.json"
        # One member gets the Iwahori type at one family place.  The Iwahori
        # is the only type whose quotient is a bare torus, so its volume
        # differs from both types of any equal-volume pair.
        self.tamper = (rng.randrange(1, self.members), rng.choice(self.family_ids))
        self._verdicts = {}

    def run_pass(self, tracer=None):
        clock = Clock()
        family = clock.time(invoke, fresh_cli(tracer), ["family", "--input", str(self.request),
                                                        "--output", str(self.certificate)])
        text = self.certificate.read_text() if family.code == 0 else ""
        failure, wrong = judge(family, 0, lambda: self._check_certificate(text))
        op = Op([family], len(text.encode()), FAMILY_GROUP, 0,
                failure and f"family: {failure}", wrong)
        if failure:
            clock.finish()
            return [op]
        data = json.loads(text)
        k, pid = self.tamper
        data["members"][k]["assignment"][pid] = []
        self.tampered.write_text(json.dumps(data))

        certify = clock.time(invoke, fresh_cli(tracer),
                             ["certify", "--input", str(self.certificate)])
        reject = clock.time(invoke, fresh_cli(tracer),
                            ["certify", "--input", str(self.tampered)])
        clock.finish()
        n = self.members
        expected = {"valid": True, "members": n, "witnesses": n * (n - 1) // 2}
        for step, call, code, check in (
            ("certify", certify, 0,
             lambda: None if _loads(certify.out) == expected
             else f"reported {certify.out.strip()[:200]}, expected {expected}"),
            ("tampered certify", reject, 1, None),
        ):
            op.calls.append(call)
            op.out_bytes += len(call.out.encode())
            failure, wrong = judge(call, code, check)
            if failure and not op.failure:
                op.failure, op.wrong = f"{step}: {failure}", wrong
        return [op]

    def _check_certificate(self, text):
        key = _digest(text)
        if key not in self._verdicts:
            self._verdicts[key] = self._certificate_problem(text)
        return self._verdicts[key]

    def _certificate_problem(self, text):
        try:
            cert = json.loads(text)
        except ValueError:
            return "certificate is not JSON"
        n, nv = self.members, vertex_count(FAMILY_GROUP)
        if cert.get("group") != FAMILY_GROUP:
            return f"certificate group {cert.get('group')!r}"
        if {pl.get("id") for pl in cert.get("places", [])} != self.place_ids:
            return "certificate places differ from the request"
        members = cert.get("members", [])
        if len(members) != n:
            return f"{len(members)} members, expected {n}"
        refined = sorted(pl["id"] for pl in REFINE_PLACES)
        for k, m in enumerate(members):
            a = m.get("assignment", {})
            if set(a) != self.place_ids or not all(_proper(t, nv) for t in a.values()):
                return f"member {k} does not assign a proper type at every place"
            if m.get("refinements") != refined:
                return f"member {k} refinements {m.get('refinements')!r}"
        rows = [tuple(tuple(m["assignment"][pid]) for pid in sorted(self.place_ids))
                for m in members]
        if len(set(rows)) != n:
            return "members are not distinct"
        for pid in self.place_ids - set(self.family_ids):
            if len({tuple(m["assignment"][pid]) for m in members}) != 1:
                return f"members differ at non-family place {pid}"
        for pid in self.family_ids:
            if len({tuple(m["assignment"][pid]) for m in members}) != 2:
                return f"family place {pid} does not carry exactly two types"
        one = {"num": 1, "den": 1, "half_exponents": {}}
        ratios = cert.get("ratios", [])
        if len(ratios) != n or any(len(row) != n or any(r != one for r in row)
                                   for row in ratios):
            return "ratio matrix is not all exact ones"
        witnesses = cert.get("witnesses", [])
        pairs = [[i, j] for i in range(n) for j in range(i + 1, n)]
        if [w.get("pair") for w in witnesses] != pairs:
            return "witnesses do not cover every member pair once, in order"
        for w in witnesses:
            i, j = w["pair"]
            pid = w.get("place")
            if pid not in self.family_ids:
                return f"witness {w['pair']} at non-family place {pid!r}"
            if (w.get("t1") != members[i]["assignment"][pid]
                    or w.get("t2") != members[j]["assignment"][pid] or w["t1"] == w["t2"]):
                return f"witness {w['pair']} does not show the members' differing types"
        citations = cert.get("citations")
        if not citations or not all(isinstance(c, str) and c for c in citations):
            return "certificate cites nothing"
        return None


def _loads(text):
    try:
        return json.loads(text, parse_int=_big_int)
    except ValueError:
        return None


# -- pairs_sweep --------------------------------------------------------------

# The largest labels that keep one pass at a few seconds on a 2-core host.
PAIRS_LABELS = ("split:E8", "split:E7", "split:E6", "split:F4", "split:G2",
                "split:A11", "split:B8", "split:C10", "split:D10",
                "twisted:C-BC1", "twisted:C-B2")
SMOKE_PAIRS_LABELS = ("split:G2", "twisted:C-B2")
# Residue sizes of one magnitude, so output bytes barely depend on the seed.
PAIRS_Q = (1009, 1013, 1019, 1021, 1024, 1031, 1033, 1039, 1049, 1051, 1061,
           1063, 1069, 1087, 1091, 1093, 1097)


class PairsSweep:
    """One pass runs `paravol pairs <label> --q <q>` over a fixed list of labels."""

    name = "pairs_sweep"
    # C10 takes about twice as long as any other label.  With ten passes the
    # tail, the highest sample with ten beyond it, would be E8's, and with
    # eleven C10's; at least eleven passes keep it on C10 whatever the speed.
    min_passes = 11

    def __init__(self, seed, workdir, smoke=False):
        rng = random.Random(seed)
        labels = SMOKE_PAIRS_LABELS if smoke else PAIRS_LABELS
        self.jobs = [(label, rng.choice(PAIRS_Q), workdir / f"pairs-{k}.json")
                     for k, label in enumerate(labels)]
        self._verdicts = {}

    def run_pass(self, tracer=None):
        op, clock = Op([], 0, "", 0), Clock()
        for label, q, path in self.jobs:
            call = clock.time(invoke, fresh_cli(tracer), ["pairs", label, "--q", str(q),
                                                          "--output", str(path)])
            text = path.read_text() if call.code == 0 else ""
            op.calls.append(call)
            op.out_bytes += len(text.encode())
            failure, wrong = judge(call, 0, lambda: self._check(text, label, q))
            if failure and not op.failure:
                op.failure, op.wrong, op.label = failure, wrong, label
        clock.finish()
        return [op]

    def _check(self, text, label, q):
        key = (label, q, _digest(text))
        if key not in self._verdicts:
            self._verdicts[key] = pairs_problem(text, label, q, engine_equal_volume(label, q))
        return self._verdicts[key]


def engine_equal_volume(label, q):
    """Whether the engine's ratio of two types' local volume factors at q is 1.

    The ratio comes from `parahoric.factor_ratio`, which computes each
    type's descriptor itself; the `pairs` command does not use it, and its
    output carries only t1's volume factor.  The engine is imported anew, so
    the wrappers of a traced run do not count these calls.
    """
    fresh_cli()
    factor_ratio = sys.modules["paravol.parahoric"].factor_ratio
    d = sys.modules["paravol.diagram"].build_local_index(label)
    place = SimpleNamespace(id="v", q=q)
    return lambda t1, t2: factor_ratio(d, t1, t2, place).is_one


def pairs_problem(text, label, q, equal_volume=None):
    """Why a `pairs` output is wrong, or None.

    `equal_volume(t1, t2)`, when given, checks every distinct t2 against
    the t1 of its first pair.
    """
    try:
        data = json.loads(text)
    except ValueError:
        return "output is not JSON"
    if data.get("diagram") != label or data.get("q") != q:
        return f"output names {data.get('diagram')!r} at q={data.get('q')!r}"
    pairs = data.get("pairs")
    if not pairs:
        return "no pairs"
    nv = vertex_count(label)
    factors = {}  # type -> (dim, order coefficients), from entries naming it t1
    values = {}
    seen = set()
    for k, p in enumerate(pairs):
        t1, t2 = p.get("t1"), p.get("t2")
        if not (_proper(t1, nv) and _proper(t2, nv)) or t1 == t2:
            return f"pair {k}: types {t1!r}, {t2!r} are not two distinct proper types"
        if (tuple(t1), tuple(t2)) in seen:
            return f"pair {k} repeats"
        seen.add((tuple(t1), tuple(t2)))
        dim, coeffs = p.get("dim"), p.get("order_coeffs")
        if (type(dim) is not int or not isinstance(coeffs, list) or not coeffs
                or not all(type(c) is int for c in coeffs)):
            return f"pair {k}: malformed dim or order_coeffs"
        if len(coeffs) - 1 != dim or coeffs[-1] != 1:
            return f"pair {k}: order polynomial is not monic of degree dim"
        factor = (dim, tuple(coeffs))
        if factors.setdefault(tuple(t1), factor) != factor:
            return f"pair {k}: type {t1} has two different volume factors"
        if tuple(coeffs) not in values:
            values[tuple(coeffs)] = horner(coeffs, q)
        if p.get("order_at_q") != values[tuple(coeffs)]:
            return f"pair {k}: order_at_q is not the order polynomial at q={q}"
    for k, p in enumerate(pairs):
        other = factors.get(tuple(p["t2"]))
        if other is not None and other != (p["dim"], tuple(p["order_coeffs"])):
            return f"pair {k}: types {p['t1']} and {p['t2']} have unequal volume factors"
    if equal_volume is not None:
        checked = set()
        for k, p in enumerate(pairs):
            if tuple(p["t2"]) not in checked:
                checked.add(tuple(p["t2"]))
                if not equal_volume(p["t1"], p["t2"]):
                    return f"pair {k}: the engine's ratio of {p['t1']} to {p['t2']} is not 1"
    return None


# -- ratio_stream -------------------------------------------------------------

SPLIT_LABELS = tuple(
    f"split:{fam}{r}"
    for fam, lo, hi in (("A", 1, 8), ("B", 3, 8), ("C", 2, 8), ("D", 4, 8),
                        ("E", 6, 8), ("F", 4, 4), ("G", 2, 2))
    for r in range(lo, hi + 1)
)
RATIO_LABELS = SPLIT_LABELS + ("twisted:C-BC1", "twisted:C-B2")

SMALL_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37,
           41, 43, 47, 49, 53, 59, 61, 64)
# Prime powers p^k (k > 1) near 10^9, as (q, p).
LARGE_POWERS = ((2 ** 29, 2), (2 ** 30, 2), (3 ** 19, 3), (5 ** 13, 5), (7 ** 11, 7),
                (13 ** 8, 13), (19 ** 7, 19), (29 ** 6, 29), (31 ** 6, 31))
# Places near 10^9 per triple, dealt from this deck so that every seed has
# the same number of the slowest requests; other places are small or medium.
LARGE_PER_GROUP = (0,) * 7 + (1,) * 2 + (2,)
MEDIUM_SHARE = 0.25
INVALID_KINDS = ("composite_q", "improper_type", "malformed_json", "missing_key")
EXPECTED_CODE = {"composite_q": 1, "improper_type": 1, "malformed_json": 2, "missing_key": 2}


def is_prime(n):
    """Deterministic Miller-Rabin, exact for n below 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def residue(rng, size):
    """A residue size q = p^k of the class and its characteristic p."""
    if size == "small":
        q = rng.choice(SMALL_Q)
        return q, next(p for p in range(2, q + 1) if q % p == 0)
    if size == "medium":
        if rng.random() < 0.25:
            p = rng.choice((2, 3, 5, 7))
            return rng.choice([p ** k for k in range(2, 17) if 100 <= p ** k <= 10 ** 5]), p
        p = next_prime(rng.randrange(100, 10 ** 5))
        return p, p
    roll = rng.random()
    if roll < 0.5:
        p = next_prime(rng.randrange(10 ** 9 - 10 ** 7, 10 ** 9 + 10 ** 7))
        return p, p
    if roll < 0.75:
        p = next_prime(rng.randrange(31000, 32500))
        return p * p, p
    return rng.choice(LARGE_POWERS)


def deck(rng, items, n):
    """n draws that use every item equally often, up to rounding, in random order."""
    out = [items[k % len(items)] for k in range(n)]
    rng.shuffle(out)
    return out


def random_type(rng, nv):
    t = [v for v in range(nv) if rng.random() < 0.5]
    if len(t) == nv:
        t.remove(rng.choice(t))
    return t


@dataclass
class Request:
    path: object
    expected: int
    label: str
    group: int  # the triple the request belongs to, -1 for an invalid request
    role: str  # "ab", "bc", "ac", "aa", or the invalid kind
    places: dict  # place id -> q


class RatioStream:
    """A seeded stream of `paravol ratio` requests, sent by one long-lived client."""

    name = "ratio_stream"
    min_passes = 1  # one pass already has about 1,050 invocations

    def __init__(self, seed, workdir, smoke=False):
        rng = random.Random(seed)
        groups = 4 if smoke else 290
        labels = deck(rng, RATIO_LABELS, groups)
        counts = deck(rng, (2, 3, 4), groups)
        large = deck(rng, LARGE_PER_GROUP, groups)
        self.requests = []
        bodies = []
        for g in range(groups):
            label, places, colls = self._group(rng, labels[g], counts[g], large[g])
            roles = [("ab", 0, 1), ("bc", 1, 2), ("ac", 0, 2)]
            if g % 4 == 0:
                roles.append(("aa", 0, 0))
            for role, x, y in roles:
                body = {"group": label, "places": places,
                        "collections": [colls[x], colls[y]]}
                bodies.append((json.dumps(body), 0, label, g, role, places))
        n_invalid = max(1, round(len(bodies) / 9))
        for kind in deck(rng, INVALID_KINDS, n_invalid):
            count = rng.choice((2, 3, 4))
            label, places, colls = self._group(
                rng, rng.choice(RATIO_LABELS), count, rng.choice(LARGE_PER_GROUP))
            text = self._invalid(rng, kind, label, places, colls[:2])
            bodies.insert(rng.randrange(len(bodies) + 1),
                          (text, EXPECTED_CODE[kind], label, -1, kind, places))
        for k, (text, code, label, g, role, places) in enumerate(bodies):
            path = workdir / f"ratio-{k:05d}.json"
            path.write_text(text)
            self.requests.append(Request(path, code, label, g, role,
                                         {pl["id"]: pl["q"] for pl in places}))

    @staticmethod
    def _group(rng, label, count, large):
        nv = vertex_count(label)
        sizes = ["large"] * large + [
            "medium" if rng.random() < MEDIUM_SHARE else "small" for _ in range(count - large)]
        rng.shuffle(sizes)
        places = []
        for k, size in enumerate(sizes):
            q, p = residue(rng, size)
            places.append({"id": f"u{k + 1}", "q": q, "p": p})
        colls = []
        for _ in range(3):
            coll = {"assignment": {pl["id"]: random_type(rng, nv) for pl in places}}
            if rng.random() < 0.25:
                by_char = {}
                for pl in rng.sample(places, rng.randint(1, 2)):
                    by_char.setdefault(pl["p"], pl["id"])
                coll["refinements"] = sorted(by_char.values())
            colls.append(coll)
        return label, places, colls

    @staticmethod
    def _invalid(rng, kind, label, places, colls):
        body = {"group": label, "places": places, "collections": colls}
        if kind == "composite_q":
            place = rng.choice(places)
            if rng.random() < 0.5:
                a, b = 2 * rng.randint(1, 20) + 1, 2  # 2 * odd: never a prime power
                place["q"], place["p"] = a * b, b
            else:
                a = next_prime(rng.randrange(31000, 32000))
                b = next_prime(a + 1)
                place["q"], place["p"] = a * b, a
        elif kind == "improper_type":
            nv = vertex_count(label)
            pid = rng.choice(places)["id"]
            bad = list(range(nv)) if rng.random() < 0.5 else [nv]
            rng.choice(colls)["assignment"][pid] = bad
        elif kind == "missing_key":
            del body[rng.choice(("group", "places", "collections"))]
        text = json.dumps(body)
        if kind == "malformed_json":
            text = text[:rng.randrange(1, len(text))]  # an object never closed
        return text

    def run_pass(self, tracer=None):
        cli = fresh_cli(tracer)
        # One probe per 25 requests, about 50 ms of them, adds about 4% to a pass.
        ops, ratios, clock = [], {}, Clock(every=25)
        for k, req in enumerate(self.requests):
            call = clock.time(invoke, cli, ["ratio", "--input", str(req.path)])
            op = Op([call], len(call.out.encode()), req.label, k)
            if req.group < 0:
                op.failure, op.wrong = judge(call, req.expected)
            else:
                parsed = _ratio(call.out, req.places)
                op.failure, op.wrong = judge(
                    call, 0, lambda: None if parsed else f"malformed ratio {call.out[:200]!r}")
                ratios[req.group, req.role] = parsed
                if op.failure is None:
                    problem = self._law_problem(req, ratios)
                    if problem:
                        op.failure, op.wrong = problem, True
            ops.append(op)
        clock.finish()
        return ops

    @staticmethod
    def _law_problem(req, ratios):
        g = req.group
        if req.role == "aa" and ratios[g, "aa"] != (Fraction(1), frozenset()):
            return "ratio(a, a) is not 1"
        if req.role == "ac" and ratios.get((g, "ab")) and ratios.get((g, "bc")):
            if _times(ratios[g, "ab"], ratios[g, "bc"], req.places) != ratios[g, "ac"]:
                return "ratio(a, b) * ratio(b, c) != ratio(a, c)"
        return None


def _ratio(text, places):
    """(rational, places carrying a half power of q) from a `ratio` output, or None."""
    data = _loads(text)
    if not isinstance(data, dict) or set(data) != {"num", "den", "half_exponents"}:
        return None
    num, den, half = data["num"], data["den"], data["half_exponents"]
    if (type(num) is not int or type(den) is not int or den <= 0 or gcd(num, den) != 1
            or not isinstance(half, dict) or not set(half) <= set(places)
            or any(e != 1 for e in half.values())):
        return None
    return Fraction(num, den), frozenset(half)


def _times(x, y, places):
    rational, half = x[0] * y[0], set(x[1])
    for pid in y[1]:
        if pid in half:
            half.remove(pid)
            rational *= places[pid]  # sqrt(q) * sqrt(q) = q
        else:
            half.add(pid)
    return rational, frozenset(half)


WORKLOADS = {w.name: w for w in (FamilyCertify, PairsSweep, RatioStream)}
