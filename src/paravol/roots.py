"""Finite root systems from Cartan matrices: roots, highest root, degrees.

Simple roots follow the Bourbaki numbering, shifted to 0-based indices.
A Cartan matrix entry A[i][j] is the pairing of root i against coroot j.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

RANK_BOUNDS = {
    "A": (1, None),
    "B": (3, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

# Degrees of the fundamental invariants, used for order polynomials.
# The cross-check sum(d_i - 1) == number of positive roots is asserted below.
def fundamental_degrees(family, rank):
    if family == "A":
        return tuple(range(2, rank + 2))
    if family in ("B", "C"):
        return tuple(range(2, 2 * rank + 1, 2))
    if family == "D":
        return tuple(range(2, 2 * rank - 1, 2)) + (rank,)
    if family == "E":
        return {6: (2, 5, 6, 8, 9, 12),
                7: (2, 6, 8, 10, 12, 14, 18),
                8: (2, 8, 12, 14, 18, 20, 24, 30)}[rank]
    if family == "F":
        return (2, 6, 8, 12)
    if family == "G":
        return (2, 6)
    raise ValueError(f"unknown family {family!r}")


def check_rank(family, rank):
    if family not in RANK_BOUNDS:
        return False
    lo, hi = RANK_BOUNDS[family]
    return rank >= lo and (hi is None or rank <= hi)


@lru_cache(maxsize=None)
def cartan_matrix(family, rank):
    n = rank
    if not check_rank(family, rank):
        raise ValueError(f"unsupported type {family}{rank}")
    M = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i, j, aij=-1, aji=-1):
        M[i][j] = aij
        M[j][i] = aji

    if family in ("A", "B", "C", "F"):
        for i in range(n - 1):
            link(i, i + 1)
        if family == "B":
            link(n - 2, n - 1, -2, -1)  # last root short
        elif family == "C":
            link(n - 2, n - 1, -1, -2)  # last root long
        elif family == "F":
            link(1, 2, -2, -1)
    elif family == "D":
        for i in range(n - 3):
            link(i, i + 1)
        link(n - 3, n - 2)
        link(n - 3, n - 1)
    elif family == "E":
        for i, j in ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7))[: n - 2]:
            link(i, j)
        link(1, 3)
    elif family == "G":
        link(0, 1, -1, -3)  # first root short
    return tuple(tuple(row) for row in M)


@lru_cache(maxsize=None)
def positive_roots(family, rank):
    """All positive roots as coefficient tuples over the simple roots."""
    A = cartan_matrix(family, rank)
    n = rank
    simples = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        grown = []
        for beta in frontier:
            for j in range(n):
                pairing = sum(beta[i] * A[i][j] for i in range(n))
                down = 0
                gamma = list(beta)
                while True:
                    gamma[j] -= 1
                    if tuple(gamma) in roots:
                        down += 1
                    else:
                        break
                if down - pairing > 0:
                    up = list(beta)
                    up[j] += 1
                    up = tuple(up)
                    if up not in roots:
                        roots.add(up)
                        grown.append(up)
        frontier = grown
    return tuple(sorted(roots))


def highest_root(family, rank):
    roots = positive_roots(family, rank)
    top = max(roots, key=sum)
    ties = [r for r in roots if sum(r) == sum(top)]
    assert len(ties) == 1, "highest root must be unique"
    return top


@lru_cache(maxsize=None)
def length_factors(family, rank):
    """Half squared lengths c_j (smallest integers) with A[i][j]*c[j] symmetric."""
    A = cartan_matrix(family, rank)
    n = rank
    c = [None] * n
    c[0] = Fraction(1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if i != j and A[i][j] != 0 and c[j] is None:
                c[j] = c[i] * A[j][i] / A[i][j]
                queue.append(j)
    assert all(x is not None for x in c), "diagram must be connected"
    scale = lcm(*(x.denominator for x in c))
    ints = [int(x * scale) for x in c]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def bilinear(x, y, family, rank):
    """Invariant pairing (x, y) with short roots of squared length 2*min(c)."""
    A = cartan_matrix(family, rank)
    c = length_factors(family, rank)
    n = rank
    return sum(x[i] * y[j] * A[i][j] * c[j] for i in range(n) for j in range(n))


def num_positive_roots(family, rank):
    return sum(d - 1 for d in fundamental_degrees(family, rank))


@lru_cache(maxsize=None)
def group_dimension(family, rank):
    """dim of the (absolute almost simple) group: rank + number of roots."""
    return rank + 2 * num_positive_roots(family, rank)
