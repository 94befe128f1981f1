"""Orders of finite reductive groups and reductive quotients of parahorics.

Orders are kept as exact integer polynomials in the residue size q, stored
lowest coefficient first, so equal covolume can be certified symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import diagram as dg
from . import roots


class OrderPolynomial:
    """Integer polynomial in q, coefficients lowest first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def monomial(cls, degree, coeff=1):
        return cls((0,) * degree + (coeff,))

    @classmethod
    def q_power_minus_one(cls, d):
        return cls((-1,) + (0,) * (d - 1) + (1,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __mul__(self, other):
        # a group order q^N * prod(q^d - 1) has N leading zeros and more
        # inside, so only the nonzero terms of either factor are visited
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    out[i + j] += a * b
        return OrderPolynomial(out)

    def __pow__(self, n):
        result = OrderPolynomial.one()
        for _ in range(n):
            result = result * self
        return result

    def __call__(self, q):
        value = 0
        for c in reversed(self.coeffs):
            value = value * q + c
        return value

    def __eq__(self, other):
        return isinstance(other, OrderPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"OrderPolynomial({list(self.coeffs)})"

    def to_json(self):
        return list(self.coeffs)


def label_dimension(label):
    return roots.group_dimension(label.family, label.rank)


@lru_cache(maxsize=None)
def order_polynomial(label):
    """Order of the finite group of Lie type with this label, as a polynomial."""
    n_pos = roots.num_positive_roots(label.family, label.rank)
    poly = OrderPolynomial.monomial(n_pos)
    degrees = roots.fundamental_degrees(label.family, label.rank)
    assert sum(d - 1 for d in degrees) == n_pos
    for d in degrees:
        poly = poly * OrderPolynomial.q_power_minus_one(d)
    assert poly.degree == label_dimension(label)
    return poly


@dataclass(frozen=True)
class ReductiveQuotientDescriptor:
    """Reductive quotient of a parahoric over the residue field."""

    components: tuple  # FiniteTypeLabel, sorted
    torus_rank: int
    dim: int
    order: OrderPolynomial


Q_MINUS_ONE = OrderPolynomial.q_power_minus_one(1)


def quotient_descriptor(d, t):
    """Components, central torus rank, dimension and order for a type.

    Two memos, each with the lifetime of what it is keyed by.  The index
    `d` owns `component_labels`, from the type's sorted vertex tuple to its
    induced component labels, so each (index, type) is classified once and
    the dict dies with the index; an entry is stored only after
    `induced_subdiagram` has checked the type proper, so an improper type
    still raises on every call.  The pair search stores the labels of the
    types it classifies there too.  The descriptor itself is memoized by
    its value, (components, torus_rank), so each quotient's order is
    multiplied out once per process; that memo holds at most the finitely
    many quotient types of the ranks in use.
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
    order = Q_MINUS_ONE ** torus_rank
    dim = torus_rank
    for c in components:
        order = order * order_polynomial(c)
        dim += label_dimension(c)
    assert order.degree == dim
    return ReductiveQuotientDescriptor(components, torus_rank, dim, order)


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
