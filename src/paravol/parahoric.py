"""Local volume factors of parahorics and symbolic equal-volume search.

Only ratios of local factors at a shared place are ever formed, so the
residue exponent common to both types and the global normalization cancel;
what remains is q^((dim1-dim2)/2) * order2(q) / order1(q).  Half powers of
q are tracked formally per place and fold into the rational part in pairs.
"""

from __future__ import annotations

from fractions import Fraction

from .diagram import ParahoricTypeSpec
from .errors import InvalidResidueError
from .reductive import prime_power_base, quotient_descriptor


class HalfPowerRational:
    """Exact rational times a formal sqrt(q) for finitely many places."""

    __slots__ = ("rational", "half")

    def __init__(self, rational, half=()):
        self.rational = Fraction(rational)
        self.half = tuple(sorted(half))  # entries (place_id, q), one sqrt(q) each
        assert len({p for p, _ in self.half}) == len(self.half)

    @classmethod
    def from_parts(cls, rational, exponents):
        """Build from a rational and per-place exponents {place: (q, e)} of sqrt(q)^e."""
        r = Fraction(rational)
        half = []
        for pid, (q, e) in exponents.items():
            whole, rem = divmod(e, 2)
            r *= Fraction(q) ** whole
            if rem:
                half.append((pid, q))
        return cls(r, half)

    def __mul__(self, other):
        if not isinstance(other, HalfPowerRational):
            other = HalfPowerRational(other)
        r = self.rational * other.rational
        acc = dict(self.half)
        for pid, q in other.half:
            if pid in acc:
                assert acc[pid] == q, "inconsistent residue size at a place"
                del acc[pid]
                r *= q  # sqrt(q) * sqrt(q)
            else:
                acc[pid] = q
        return HalfPowerRational(r, acc.items())

    def inverse(self):
        r = 1 / self.rational
        for _, q in self.half:
            r /= q  # 1/sqrt(q) = sqrt(q)/q
        return HalfPowerRational(r, self.half)

    @property
    def is_one(self):
        return self.rational == 1 and not self.half

    def __eq__(self, other):
        if isinstance(other, HalfPowerRational):
            return self.rational == other.rational and self.half == other.half
        return NotImplemented

    def __hash__(self):
        return hash((self.rational, self.half))

    def __repr__(self):
        if not self.half:
            return f"HalfPowerRational({self.rational})"
        tail = " * ".join(f"sqrt({q})@{pid}" for pid, q in self.half)
        return f"HalfPowerRational({self.rational} * {tail})"

    def to_json(self):
        return {
            "num": self.rational.numerator,
            "den": self.rational.denominator,
            "half_exponents": {str(pid): 1 for pid, _ in self.half},
        }


ONE = HalfPowerRational(1)


def conjugate_types(d, t1, t2):
    """Whether some realized diagram automorphism carries t1 to t2."""
    t1 = d.check_proper(t1)
    t2 = d.check_proper(t2)
    return any(d.apply(g, t1) == t2 for g in d.realized_auts)


def factor_ratio(d, t1, t2, place):
    """Exact ratio of the local volume factors of t1 and t2 at the place."""
    q = place.q
    if prime_power_base(q) is None:
        raise InvalidResidueError(f"invalid residue size at place {place.id}: {q}")
    f1 = quotient_descriptor(d, t1)
    f2 = quotient_descriptor(d, t2)
    return HalfPowerRational.from_parts(
        Fraction(f2.order(q), f1.order(q)),
        {place.id: (q, f1.dim - f2.dim)},
    )


def orbit_representatives(d):
    """Canonical representative per realized-automorphism orbit of proper types."""
    seen = set()
    reps = []
    for t in d.proper_types():
        if t.vertices in seen:
            continue
        orbit = d.orbit(t)
        seen.update(orbit)
        reps.append(ParahoricTypeSpec(orbit[0]))
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
    out = {"diagram": d.group.label, "pairs": []}
    for t1, t2 in pairs:
        desc = quotient_descriptor(d, t1)
        entry = {
            "t1": list(t1.vertices),
            "t2": list(t2.vertices),
            "dim": desc.dim,
            "order_coeffs": desc.order.to_json(),
        }
        if q is not None:
            entry["order_at_q"] = desc.order(q)
        out["pairs"].append(entry)
    if q is not None:
        out["q"] = q
    return out
