"""Local volume factors of parahorics and symbolic equal-volume search.

Only ratios of local factors at a shared place are ever formed, so the
residue exponent common to both types and the global normalization cancel;
what remains is q^((dim1-dim2)/2) * order2(q) / order1(q).  The exponent
is a whole number, so every ratio is an exact rational.

The equal-volume search works on vertex masks (plain ints) from the orbit
search to the rows it hands out; only `find_equal_volume_pairs` and a
family's chosen pair wrap them in types.  `pairs_to_json` adds each volume
factor's order, computed once per volume key, and leaves all text to the
`pairs` writer, `cli._pairs_chunks`.
"""

from __future__ import annotations

from fractions import Fraction

from .diagram import ParahoricTypeSpec, classify_mask, subset_table
from .errors import SearchCapError
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


# The pair search visits every proper type, 2^n - 1 of them on n vertices.
MAX_SEARCH_VERTICES = 15


def orbit_representatives(d):
    """The least vertex mask of each realized-automorphism orbit of proper types, in order.

    Masks are met in lexicographic order of their vertex tuples, so the
    first mask met of an orbit is its least.  Each new representative
    marks its images in a bytearray, one byte per mask, reading each off
    two `subset_table`s of an automorphism, for the mask's low and high
    byte; a diagram with no non-identity automorphism (E8, F4, G2, C-BC1)
    has every proper type as its own representative.  Past MAX_SEARCH_VERTICES
    vertices it raises SearchCapError before anything is allocated.
    """
    n = len(d.vertices)
    if n > MAX_SEARCH_VERTICES:
        raise SearchCapError(
            f"the pair search is capped at {MAX_SEARCH_VERTICES} vertices "
            f"({(1 << MAX_SEARCH_VERTICES) - 1:,} proper types); {d.group.label} has {n}")
    identity = tuple(1 << v for v in range(n))
    others = [bits for bits in d.aut_images if bits != identity]
    if not others:
        return list(d.proper_masks())
    tables = [(subset_table(bits[:8], 0), subset_table(bits[8:], 0)) for bits in others]
    seen = bytearray(1 << n)
    reps = []
    for mask in d.proper_masks():
        if not seen[mask]:
            low, high = mask & 255, mask >> 8
            for lows, highs in tables:
                seen[lows[low] + highs[high]] = 1
            reps.append(mask)
    return reps


def equal_volume_rows(d):
    """Pairs of non-conjugate types whose volume factors agree identically in q, by first type.

    Orbit representatives are bucketed by their `volume_key`; any two
    types in distinct buckets differ in volume, any two in distinct orbits
    are non-conjugate.  Each representative is classified once, on its
    mask.  Yields (t1's mask, its descriptor, the masks of the t2 paired
    with it) for each representative with a later member in its bucket:
    the t2 are those later members, a slice of the bucket.
    Representatives come in lexicographic order, so the rows' pairs are
    sorted by (t1, t2).
    """
    buckets = {}
    placed = []  # (representative, descriptor, its bucket, its place there)
    for mask in orbit_representatives(d):
        components = d.component_labels[mask] = classify_mask(d, mask)
        desc = components_descriptor(d, components)
        bucket = buckets.setdefault(desc.volume_key, [])
        placed.append((mask, desc, bucket, len(bucket)))
        bucket.append(mask)
    for mask, desc, bucket, k in placed:
        if k + 1 < len(bucket):
            yield mask, desc, bucket[k + 1:]


def find_equal_volume_pairs(d):
    """The pairs of `equal_volume_rows` as (t1, t2) types, sorted by (t1, t2)."""
    return [(ParahoricTypeSpec(t1), ParahoricTypeSpec(t2))
            for t1, _, t2s in equal_volume_rows(d) for t2 in t2s]


def pairs_to_json(d, q=None):
    """The rows of the `pairs` command's output, one per row of `equal_volume_rows`.

    Each row is (t1's mask, dim, order coefficients, order at q or None,
    the masks of its t2, in order).  Thousands of pairs share fewer volume
    factors (both types of a pair share one), so each distinct volume
    key's coefficient tuple and order at q are computed once, and every
    row of that key carries the same tuple.  The text of the masks is the
    writer's work (`cli._pairs_chunks`).
    """
    orders = {}  # volume key -> (order_coeffs, order_at_q)
    for t1, desc, t2s in equal_volume_rows(d):
        key = desc.volume_key
        found = orders.get(key)
        if found is None:
            found = orders[key] = (tuple(desc.order_coeffs()),
                                   None if q is None else desc.order_at(q))
        yield (t1, desc.dim, *found, t2s)
