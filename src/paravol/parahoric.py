"""Local volume factors of parahorics and symbolic equal-volume search.

Only ratios of local factors at a shared place are ever formed, so the
residue exponent common to both types and the global normalization cancel;
what remains is q^((dim1-dim2)/2) * order2(q) / order1(q).  The exponent
is a whole number, so every ratio is an exact rational.
"""

from __future__ import annotations

from fractions import Fraction

from .diagram import ParahoricTypeSpec
from .reductive import quotient_descriptor


class HalfPowerRational:
    """An exact rational; no ratio carries a sqrt(q), so the v1 `half_exponents` is {}."""

    __slots__ = ("rational",)

    def __init__(self, rational):
        self.rational = Fraction(rational)

    def __mul__(self, other):
        return HalfPowerRational(self.rational * other.rational)

    def inverse(self):
        return HalfPowerRational(1 / self.rational)

    @property
    def is_one(self):
        return self.rational == 1

    def __eq__(self, other):
        if isinstance(other, HalfPowerRational):
            return self.rational == other.rational
        return NotImplemented

    def __hash__(self):
        return hash(self.rational)

    def __repr__(self):
        return f"HalfPowerRational({self.rational})"

    def to_json(self):
        r = self.rational
        return {"num": r.numerator, "den": r.denominator, "half_exponents": {}}


ONE = HalfPowerRational(1)


def conjugate_types(d, t1, t2):
    """Whether some realized diagram automorphism carries t1 to t2."""
    t1 = d.check_proper(t1)
    t2 = d.check_proper(t2)
    return any(d.apply(g, t1) == t2 for g in d.realized_auts)


def factor_ratio(d, t1, t2, place):
    """Exact ratio of the local volume factors of t1 and t2 at the place.

    Each dim is the relative rank plus twice a root count: the power of q is whole.
    """
    q = place.q
    f1 = quotient_descriptor(d, t1)
    f2 = quotient_descriptor(d, t2)
    assert (f1.dim - f2.dim) % 2 == 0
    return HalfPowerRational(
        Fraction(f2.order(q), f1.order(q)) * Fraction(q) ** ((f1.dim - f2.dim) // 2))


def orbit_representatives(d):
    """Canonical representative per realized-automorphism orbit of proper types.

    Orbits are sets of vertex tuples, met in lexicographic order, so the
    first tuple of each orbit is its smallest; one type is built per orbit.
    """
    seen = set()
    reps = []
    for t in d.proper_vertex_tuples():
        if t in seen:
            continue
        rep = ParahoricTypeSpec(t)
        seen.update(d.orbit(rep))
        reps.append(rep)
    return reps


def find_equal_volume_pairs(d):
    """Pairs of non-conjugate types whose volume factors agree identically in q.

    Returned pairs are orbit representatives bucketed by (dim, order
    polynomial); any two types in distinct buckets differ in volume, any two
    in distinct orbits are non-conjugate.  Sorted for determinism.
    """
    buckets = {}
    for rep in orbit_representatives(d):
        desc = quotient_descriptor(d, rep)
        buckets.setdefault((desc.dim, desc.order.coeffs), []).append(rep)
    pairs = []
    for _, reps in sorted(buckets.items()):
        reps = sorted(reps, key=lambda t: t.vertices)
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                pairs.append((reps[i], reps[j]))
    return sorted(pairs, key=lambda p: (p[0].vertices, p[1].vertices))


def pairs_to_json(d, pairs, q=None):
    """The rows of the `pairs` command's output: one per run of pairs with one t1.

    Each row is (t1's vertex list, dim, order coefficient list, order at q
    or None, the vertex lists of the t2 paired with it, in order).  Pairs
    arrive sorted by (t1, t2), as `find_equal_volume_pairs` returns them, so
    each t1's pairs are consecutive: it gets one row, and its descriptor
    is looked up once.  Thousands of pairs share a few hundred types and
    fewer volume factors (both types of a pair share one).  So each
    distinct t2's vertex list and each distinct order's coefficient list
    and value at q are built once, in dicts that live for this call only.
    Rows share those list objects, so the writer formats each once.
    """
    rows = []
    lists = {}  # t2's vertex tuple -> its list
    orders = {}  # order polynomial -> (order_coeffs, order_at_q)
    last = None
    for t1, t2 in pairs:
        a, b = t1.vertices, t2.vertices
        if a != last:
            desc = quotient_descriptor(d, t1)
            if desc.order not in orders:
                orders[desc.order] = (desc.order.to_json(),
                                      None if q is None else desc.order(q))
            t2s = []
            rows.append((list(a), desc.dim, *orders[desc.order], t2s))
            last = a
        if b not in lists:
            lists[b] = list(b)
        t2s.append(lists[b])
    return rows
