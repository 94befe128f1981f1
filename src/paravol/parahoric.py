"""Local volume factors of parahorics and symbolic equal-volume search.

Only ratios of local factors at a shared place are ever formed, so the
residue exponent common to both types and the global normalization cancel;
what remains is q^((dim1-dim2)/2) * order2(q) / order1(q).  The exponent
is a whole number, so every ratio is an exact rational.
"""

from __future__ import annotations

from fractions import Fraction

from .diagram import ParahoricTypeSpec, classify_mask
from .reductive import components_descriptor, quotient_descriptor


class HalfPowerRational:
    """An exact rational; no ratio carries a sqrt(q), so the v1 `half_exponents` is {}."""

    __slots__ = ("rational",)

    def __init__(self, rational):
        self.rational = Fraction(rational)

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
    t1, t2 = d.check_proper(t1), d.check_proper(t2)
    return t2.mask in d.orbit_masks(t1.mask)


def factor_terms(d, t1, t2, q):
    """Integers (num, den), not reduced, whose quotient is `factor_ratio` at residue size q.

    The ratio is q^((dim1-dim2)/2) * order2(q) / order1(q).  Each dim is
    the relative rank plus twice a root count, so the power of q is whole
    and goes to num or den by its sign.
    """
    f1 = quotient_descriptor(d, t1)
    f2 = quotient_descriptor(d, t2)
    assert (f1.dim - f2.dim) % 2 == 0
    num, den = f2.order_at(q), f1.order_at(q)
    half = (f1.dim - f2.dim) // 2
    if half >= 0:
        return num * q ** half, den
    return num, den * q ** -half


def factor_ratio(d, t1, t2, place):
    """Exact ratio of the local volume factors of t1 and t2 at the place."""
    return HalfPowerRational(Fraction(*factor_terms(d, t1, t2, place.q)))


def orbit_representatives(d):
    """The least type of each realized-automorphism orbit of proper types, in order.

    Types are met as vertex masks in lexicographic order of their vertex
    tuples, so the first type met of an orbit is its least.  Each new
    representative marks its orbit in a bytearray with one byte per mask.
    """
    seen = bytearray(1 << len(d.vertices))
    reps = []
    for mask in d.proper_masks():
        if not seen[mask]:
            for image in d.orbit_masks(mask):
                seen[image] = 1
            reps.append(ParahoricTypeSpec(mask))
    return reps


def equal_volume_rows(d):
    """Pairs of non-conjugate types whose volume factors agree identically in q, by first type.

    Orbit representatives are bucketed by their `volume_key`; any two
    types in distinct buckets differ in volume, any two in distinct orbits
    are non-conjugate.  Each representative is classified once, on the
    mask it came from.  Yields (t1, its descriptor, the t2 paired with it)
    for each representative with a later member in its bucket: the t2 are
    those later members, a slice of the bucket.  Representatives come in
    lexicographic order, so the rows' pairs are sorted by (t1, t2).
    """
    buckets = {}
    placed = []  # (representative, descriptor, its bucket, its place there)
    for t in orbit_representatives(d):
        components = d.component_labels[t.mask] = classify_mask(d, t.mask)
        desc = components_descriptor(d, components)
        bucket = buckets.setdefault(desc.volume_key, [])
        placed.append((t, desc, bucket, len(bucket)))
        bucket.append(t)
    for t, desc, bucket, k in placed:
        if k + 1 < len(bucket):
            yield t, desc, bucket[k + 1:]


def find_equal_volume_pairs(d):
    """The pairs of `equal_volume_rows` as (t1, t2) tuples, sorted by (t1, t2)."""
    return [(t1, t2) for t1, _, t2s in equal_volume_rows(d) for t2 in t2s]


def pairs_to_json(d, q=None):
    """The rows of the `pairs` command's output, one per row of `equal_volume_rows`.

    Each row is (t1's vertex list, dim, order coefficient list, order at q
    or None, the vertex lists of its t2, in order).  Thousands of pairs
    share a few hundred types and fewer volume factors (both types of a
    pair share one).  So each type's vertex list and each distinct volume
    key's coefficient list and order at q are built once, in dicts that
    live as long as this generator.  Rows share those list objects, so the
    writer formats each once; the dicts keep every list alive, so the
    writer may know a list by its id while it runs.
    """
    lists = {}  # vertex mask -> its vertex list
    orders = {}  # volume key -> (order_coeffs, order_at_q)

    def vertex_list(t):
        found = lists.get(t.mask)
        if found is None:
            found = lists[t.mask] = list(t.vertices)
        return found

    for t1, desc, t2s in equal_volume_rows(d):
        key = desc.volume_key
        if key not in orders:
            orders[key] = (desc.order_coeffs(), None if q is None else desc.order_at(q))
        yield (vertex_list(t1), desc.dim, *orders[key], [vertex_list(t2) for t2 in t2s])
