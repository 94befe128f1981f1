"""Local volume factors of parahorics and symbolic equal-volume search.

Only ratios of local factors at a shared place are ever formed, so the
residue exponent common to both types and the global normalization cancel;
what remains is q^((dim1-dim2)/2) * order2(q) / order1(q).  The exponent
is a whole number, so every ratio is an exact rational.

The equal-volume search works on vertex masks (plain ints) from the orbit
search to the rows it hands out; only `find_equal_volume_pairs` and a
family's chosen pair wrap them in types.  It buckets the orbit
representatives on a packed int per volume key, read off a table that
holds every proper type's and is filled from the diagram's connected
vertex sets, so no representative is classified and no descriptor is
built.  `pairs_to_json` reads each volume factor's dimension and degrees
off its packed key and computes its order once per key, and leaves all
text to the `pairs` writer, `cli._pairs_chunks`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .diagram import ParahoricTypeSpec, _bits, classify_component, subset_table
from .errors import SearchCapError
from .reductive import order_polynomial, order_value, quotient_descriptor
from .roots import fundamental_degrees, group_dimension


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


def _check_searchable(d):
    n = len(d.vertices)
    if n > MAX_SEARCH_VERTICES:
        raise SearchCapError(
            f"the pair search is capped at {MAX_SEARCH_VERTICES} vertices "
            f"({(1 << MAX_SEARCH_VERTICES) - 1:,} proper types); {d.group.label} has {n}")


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
    _check_searchable(d)
    n = len(d.vertices)
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


# A packed volume key holds the count of each degree e in the FIELD_BITS
# bits from FIELD_BITS * (e - 1) up, and the dimension above them all.  The
# counts sum to the relative rank, at most MAX_SEARCH_VERTICES - 1 = 14,
# so no field carries into the next.
FIELD_BITS = 4
FIELD = (1 << FIELD_BITS) - 1
# The largest degree of a simple component on at most 14 vertices, E8's
# (B14's and C14's is 28).
LARGEST_DEGREE = 30
DIM_SHIFT = FIELD_BITS * LARGEST_DEGREE
# What one rank of central torus adds to a key: a degree 1 and a dimension.
TORUS_KEY = 1 + (1 << DIM_SHIFT)


@lru_cache(maxsize=None)
def _label_key(label):
    """What a simple component adds to a packed key, less the torus rank it takes up."""
    degrees = fundamental_degrees(label.family, label.rank)
    return (sum(1 << FIELD_BITS * (e - 1) for e in degrees)
            + (group_dimension(label.family, label.rank) << DIM_SHIFT)
            - label.rank * TORUS_KEY)


def _connected_masks(d):
    """(mask, free vertices) for each connected proper vertex set.

    A set's free vertices lie above its lowest vertex, outside it and not
    next to it.  Each set is grown from its lowest vertex through the
    neighbours above that vertex, so it is met once; the sets come in
    decreasing order of their lowest vertex.
    """
    n = len(d.vertices)
    full = (1 << n) - 1
    neighbours = d.neighbours
    found = []
    for v in reversed(range(n)):
        above = full ^ ((2 << v) - 1)
        grown = {1 << v: neighbours[v]}  # connected set -> the union of its vertices' neighbours
        stack = [1 << v]
        while stack:
            comp = stack.pop()
            reach = grown[comp]
            for w in _bits(reach & above & ~comp):
                bigger = comp | 1 << w
                if bigger not in grown:
                    grown[bigger] = reach | neighbours[w]
                    stack.append(bigger)
        found += [(comp, above & ~(comp | reach)) for comp, reach in grown.items()
                  if comp != full]
    return found


def packed_volume_keys(d):
    """The packed volume key of each proper type, in a list indexed by its vertex mask.

    A key packs a type's `volume_key`, (dim, degrees), into fields that
    never overflow, so two types' packed keys are equal exactly when their
    volume keys are.  A key adds up over the components of a type, each
    adding its dimension and degrees and taking away the rank of torus it
    takes up.  So the connected proper vertex sets are classified, once
    per automorphism orbit (`diagram.classify_component`), and the table
    is filled from them:
    key[m] = key[m ^ C] + (key[C] - key[0]) for each mask m whose lowest
    component is C, which is C plus a submask of C's free vertices
    (`_connected_masks`), all above C's lowest.  key[0], the Iwahori's, is
    the relative rank's worth of torus.  Past MAX_SEARCH_VERTICES vertices
    it raises SearchCapError before anything is allocated.
    """
    _check_searchable(d)
    sets = _connected_masks(d)
    keys = [d.relative_rank * TORUS_KEY] * ((1 << len(d.vertices)) - 1)
    for comp, free in sets:  # by decreasing lowest vertex, so key[rest] is filled when read
        add = sum(map(_label_key, classify_component(d, comp))).__add__
        # a submask of free is a submask `rest` of its bits below w plus a
        # multiple of 2^w below 2^top, a submask of its top run of set bits
        # w to top - 1; the multiples are one slice of stride 2^w
        top = free.bit_length()
        w = (~free & ((1 << top) - 1)).bit_length()
        span, stride = 1 << top, 1 << w
        for rest in subset_table([1 << v for v in _bits(free & (stride - 1))], 0):
            keys[comp + rest:comp + rest + span:stride] = map(add, keys[rest:rest + span:stride])
    return keys


def key_order(key, q=None):
    """(dim, order coefficients, order at q or None) of the quotients with this packed key.

    The dim is the key's top field and each degree's count is its field,
    read up to the highest non-zero one; the order is multiplied out and
    evaluated as a descriptor's is (`reductive.order_polynomial`,
    `reductive.order_value`).  The coefficients are a tuple.
    """
    dim, fields = key >> DIM_SHIFT, key & ((1 << DIM_SHIFT) - 1)
    degrees = []
    e = 1
    while fields:
        degrees += [e] * (fields & FIELD)
        fields >>= FIELD_BITS
        e += 1
    return (dim, tuple(order_polynomial(dim, degrees)),
            None if q is None else order_value(dim, degrees, q))


def equal_volume_rows(d):
    """Pairs of non-conjugate types whose volume factors agree identically in q, by first type.

    Orbit representatives are bucketed by their packed volume key
    (`packed_volume_keys`); any two types in distinct buckets differ in
    volume, any two in distinct orbits are non-conjugate.  Yields (t1's
    mask, its packed key, the masks of the t2 paired with it) for each
    representative with a later member in its bucket: the t2 are those
    later members, a slice of the bucket.  No type is classified here and
    no descriptor is built.  Representatives come in lexicographic order,
    so the rows' pairs are sorted by (t1, t2).
    """
    reps = orbit_representatives(d)
    keys = packed_volume_keys(d)
    buckets = {}
    for mask in reps:
        buckets.setdefault(keys[mask], []).append(mask)
    met = {}  # packed key -> how many members of its bucket have been met
    for mask in reps:
        key = keys[mask]
        k = met[key] = met.get(key, 0) + 1
        bucket = buckets[key]
        if k < len(bucket):
            yield mask, key, bucket[k:]


def find_equal_volume_pairs(d):
    """The pairs of `equal_volume_rows` as (t1, t2) types, sorted by (t1, t2)."""
    return [(ParahoricTypeSpec(t1), ParahoricTypeSpec(t2))
            for t1, _, t2s in equal_volume_rows(d) for t2 in t2s]


def pairs_to_json(d, q=None):
    """The rows of the `pairs` command's output, one per row of `equal_volume_rows`.

    Each row is (t1's mask, dim, order coefficients, order at q or None,
    the masks of its t2, in order).  Thousands of pairs share fewer volume
    factors (both types of a pair share one), so each distinct packed
    key's dim, coefficient tuple and order at q are read off it once
    (`key_order`), and every row of that key carries the same tuple.  The
    text of the masks is the writer's work (`cli._pairs_chunks`).
    """
    orders = {}  # packed key -> (dim, order_coeffs, order_at_q)
    for t1, key, t2s in equal_volume_rows(d):
        found = orders.get(key)
        if found is None:
            found = orders[key] = key_order(key, q)
        yield (t1, *found, t2s)
