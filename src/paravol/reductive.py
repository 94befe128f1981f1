"""Orders of finite reductive groups and reductive quotients of parahorics.

Over F_q a reductive quotient has order q^N * prod(q^d - 1), one factor per
fundamental degree d of each component and a d = 1 for each rank of its
central torus, where N = dim - sum(d) (Steinberg; Carter, Finite Groups of
Lie Type, 2.9).  A descriptor keeps the sorted degrees and evaluates that
product at q.  Two (dim, degrees) agree exactly when the order polynomials
do: Phi_e(0) is not 0, so the product fixes N, and the cyclotomic Phi_e
divides it once per degree that e divides, so Moebius inversion recovers
each degree's count.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import diagram as dg
from . import roots


class ReductiveQuotientDescriptor(
        namedtuple("ReductiveQuotientDescriptor", "components torus_rank dim degrees")):
    """Reductive quotient of a parahoric over the residue field; components and degrees sorted."""

    __slots__ = ()

    @property
    def volume_key(self):
        """(dim, degrees): equal exactly when two volume factors agree identically in q."""
        return self.dim, self.degrees

    def order_at(self, q):
        """The order q^N * prod(q^d - 1) at residue size q."""
        value = q ** (self.dim - sum(self.degrees))
        for d in self.degrees:
            value *= q ** d - 1
        return value

    def order_coeffs(self):
        """The order as a polynomial in q, coefficients lowest first."""
        coeffs = [1]
        for d in self.degrees:
            # times q^d - 1: shift up by d, then subtract the unshifted terms
            coeffs = [0] * d + coeffs
            for i in range(len(coeffs) - d):
                coeffs[i] -= coeffs[i + d]
        return [0] * (self.dim - sum(self.degrees)) + coeffs


def quotient_descriptor(d, t):
    """Components, central torus rank, dimension and degrees for a type.

    Two memos, each with the lifetime of what it is keyed by.  The index
    `d` owns `component_labels`, from the type's sorted vertex tuple to its
    induced component labels, so each (index, type) is classified once and
    the dict dies with the index; an entry is stored only after
    `induced_subdiagram` has checked the type proper, so an improper type
    still raises on every call.  The pair search stores the labels of the
    types it classifies there too.  The descriptor itself is memoized by
    its value, (components, torus_rank), so each quotient's degrees are
    gathered once per process; that memo holds at most the finitely many
    quotient types of the ranks in use.
    """
    t = dg.ParahoricTypeSpec.coerce(t)
    components = d.component_labels.get(t.vertices)
    if components is None:
        components = d.component_labels[t.vertices] = dg.induced_subdiagram(d, t)
    return components_descriptor(d, components)


def components_descriptor(d, components):
    """The descriptor of a type of `d` whose induced subdiagram has these component labels."""
    return _descriptor(components, d.relative_rank - sum(c.rank for c in components))


@lru_cache(maxsize=None)
def _descriptor(components, torus_rank):
    degrees = [1] * torus_rank
    dim = torus_rank
    for c in components:
        degrees += roots.fundamental_degrees(c.family, c.rank)
        dim += roots.group_dimension(c.family, c.rank)
    return ReductiveQuotientDescriptor(components, torus_rank, dim, tuple(sorted(degrees)))


def prime_power_base(q):
    """The prime p with q = p^k, or None if q is not a prime power."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            m = q
            while m % p == 0:
                m //= p
            return p if m == 1 else None
        p += 1
    return q  # q itself prime


def is_prime(n):
    return n >= 2 and prime_power_base(n) == n
