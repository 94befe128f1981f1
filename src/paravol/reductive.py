"""Orders of finite reductive groups and reductive quotients of parahorics.

Over F_q a reductive quotient has order q^N * prod(q^d - 1), one factor
per fundamental degree d of each component and a d = 1 for each rank of
its central torus, where N = dim - sum(d) (Steinberg; Carter, Finite
Groups of Lie Type, 2.9).  `quotient_descriptor` reads a type's
components off `diagram.induced_subdiagram` and builds the descriptor,
which keeps the sorted degrees, once per distinct (components, relative
rank).  `order_polynomial` multiplies that product out as one big int,
the product at q = 2^B whose B-bit digits are the coefficients (Kronecker
substitution), and `order_value` evaluates it at q, for a descriptor and
for the pair search's packed volume keys alike.  Two (dim, degrees) agree
exactly when the order polynomials do: Phi_e(0) is not 0, so the product
fixes N, and the cyclotomic Phi_e divides it once per degree that e
divides, so Moebius inversion recovers each degree's count.
"""

from __future__ import annotations

import sys
from array import array
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
        return order_value(self.dim, self.degrees, q)


# The signed digits `order_polynomial` reads coefficients from, narrowest
# first: (bits, array typecode).
DIGITS = tuple((array(code).itemsize * 8, code) for code in "hiq")


def order_polynomial(dim, degrees):
    """The order q^N * prod(q^d - 1), N = dim - sum(degrees), as coefficients lowest first.

    The degrees may come in any order, each as often as it counts.  The
    product is taken at q = 2^B, one shift and subtraction per degree
    (Kronecker substitution), and its B-bit digits are read back as the
    coefficients.  The coefficients of k factors q^d - 1 have absolute
    values summing to at most 2^k, and the top one is 1, so for k >= 1
    each is below 2^k in size and fits a signed B-bit digit when k < B:
    16-bit digits for up to 15 degrees, 64-bit ones for up to 63.  More
    degrees raise ValueError.
    """
    for bits, code in DIGITS:
        if len(degrees) < bits:
            break
    else:
        raise ValueError(f"an order polynomial of at most {bits - 1} degrees, "
                         f"got {len(degrees)}")
    value = 1 << bits * (dim - sum(degrees))
    for e in degrees:
        value = (value << bits * e) - value
    # 2^(B-1) added to each digit keeps it in [0, 2^B), so no digit borrows
    # from the next; XOR with the same offset leaves each in two's complement
    size = bits // 8
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * (dim + 1), "little")
    coeffs = array(code, ((value + offset) ^ offset).to_bytes(size * (dim + 1), sys.byteorder)
                   ).tolist()
    if sys.byteorder == "big":  # the digits came highest first
        coeffs.reverse()
    return coeffs


def order_value(dim, degrees, q):
    """The order q^N * prod(q^d - 1), N = dim - sum(degrees), at residue size q."""
    value = q ** (dim - sum(degrees))
    for e in degrees:
        value *= q ** e - 1
    return value


def quotient_descriptor(d, t):
    """Components, central torus rank, dimension and degrees for a type.

    `induced_subdiagram` checks the type, or list of vertex ids, so an
    improper one raises on every call, and gives its component labels,
    each connected vertex set classified once per index.  The descriptor
    is memoized by its value, (components, relative rank), so each
    quotient's degrees are gathered once per process; that memo holds at
    most the finitely many quotient types of the ranks in use.
    """
    return _descriptor(dg.induced_subdiagram(d, t), d.relative_rank)


@lru_cache(maxsize=None)
def _descriptor(components, relative_rank):
    torus_rank = relative_rank - sum(c.rank for c in components)
    degrees = [1] * torus_rank
    dim = torus_rank
    for c in components:
        degrees += roots.fundamental_degrees(c.family, c.rank)
        dim += roots.group_dimension(c.family, c.rank)
    return ReductiveQuotientDescriptor(components, torus_rank, dim, tuple(sorted(degrees)))


# The primes below 100.  `prime_power_base` strips them by trial division;
# the first 13 are the Miller-Rabin bases of `is_prime`.
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
                73, 79, 83, 89, 97)
# psi_13: every composite below it fails Miller-Rabin to one of the first 13
# prime bases, and it passes all 13 (Sorenson and Webster, Math. Comp. 86,
# 2017), so `is_prime` is a proof below it and no further.
PRIMALITY_BOUND = 3317044064679887385961981
# Past PRIMALITY_BOUND the bases can only show n composite, and all 13 cost
# about 0.07 s at 1,024 bits but 110 s at 4,300 digits (CPython 3.11, x86-64),
# so `is_prime` tries them only on an n of at most this many bits.
WITNESS_BITS = 1024


class PrimalityBoundError(ArithmeticError):
    """Raised by `is_prime` for an n whose primality is past what it decides."""


def prime_power_base(q):
    """The prime p with q = p^k, or None if q is not a prime power.

    A q with a prime factor below 100 is divided by it until it is 1 or not.
    Any other q is r^k for the largest k that has an exact root, and q is a
    prime power exactly when r is prime.  Raises PrimalityBoundError, from
    `is_prime`, when that is past what it decides.
    """
    if q < 2:
        return None
    for p in SMALL_PRIMES:
        if q % p == 0:
            while q % p == 0:
                q //= p
            return p if q == 1 else None
    # every root of q is now at least 101 > 2^6, so its exponent k is at
    # most bit_length / 6.  Each k is tried in increasing order, as often
    # as it divides the exponent; a composite k fails, its primes taken out,
    # and an even k past 2 is not tried.
    k = 2
    while 6 * k <= q.bit_length():
        root = _exact_root(q, k)
        if root is None:
            k += 1 if k == 2 else 2
        else:
            q = root
    return q if is_prime(q) else None


def _exact_root(n, k):
    """The integer r with r^k == n, or None; for n >= 2 and k >= 2."""
    # a float estimate of n^(1/k), good to 2^-47, from the leading 53 bits
    # of n: with n ~ top * 2^(k*e + f), the root is ~ top^(1/k) * 2^(f/k) * 2^e
    e, f = divmod(max(n.bit_length() - 53, 0), k)
    top = int((n >> (k * e + f)) ** (1 / k) * 2 ** (f / k) * 2 ** 52)
    # Newton's method from above the root ends at its floor, and each step
    # at least doubles the estimate's good bits
    r = ((top + (top >> 40)) << e >> 52) + 1
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    # the low 64 bits first: r^k mod 2^64 costs far less than r^k
    return r if pow(r, k, 2 ** 64) == n % 2 ** 64 and r ** k == n else None


def is_prime(n):
    """Whether n is prime: Miller-Rabin to the first 13 prime bases.

    "Composite" is exact at any size and "prime" is proven below
    PRIMALITY_BOUND.  An n with no factor among the bases raises
    PrimalityBoundError if it passes every base from PRIMALITY_BOUND on, or
    untested if it is longer than WITNESS_BITS.
    """
    if n < 2:
        return False
    for b in SMALL_PRIMES[:13]:
        if n % b == 0:
            return n == b
    if n.bit_length() > WITNESS_BITS:
        raise PrimalityBoundError(f"no primality test of a {n.bit_length()}-bit number")
    d = n - 1
    s = (d & -d).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d >>= s
    for b in SMALL_PRIMES[:13]:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PRIMALITY_BOUND:
        raise PrimalityBoundError("primality past the proven bound of the Miller-Rabin bases")
    return True
