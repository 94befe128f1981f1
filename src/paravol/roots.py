"""Finite root data: Cartan matrices, closed-form highest roots, degrees, dims.

Simple roots follow the Bourbaki numbering, shifted to 0-based indices.
A Cartan matrix entry A[i][j] is the pairing of root i against coroot j.
The highest root is a closed form; `positive_roots`, the closure of the
root system, is the reference the tests check it against.
"""

from __future__ import annotations

from functools import lru_cache

# Least and greatest supported rank per family.  The A-D caps hold about
# 10,000 positive roots each; a ratio against the hyperspecial type, the
# largest order of the diagram, takes about 0.3 s (bench/BENCH_14.json).
RANK_BOUNDS = {
    "A": (1, 150),
    "B": (3, 100),
    "C": (2, 100),
    "D": (4, 100),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

# Degrees of the fundamental invariants: the group's order over F_q is
# q^N * prod(q^d - 1), with N = sum(d - 1) positive roots.  tests/test_roots.py
# checks that count against the closure `positive_roots`.
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
    return lo <= rank <= hi


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
    """All positive roots as coefficient tuples over the simple roots.

    About O(n^4) steps: a reference for the tests, not called by the engine.
    """
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
    """Coefficients of the highest root theta over the simple roots, in closed form.

    Bourbaki, Lie groups, ch. VI, Planches I-IX.
    """
    if not check_rank(family, rank):
        raise ValueError(f"unsupported type {family}{rank}")
    if family == "A":
        return (1,) * rank
    if family == "B":
        return (1,) + (2,) * (rank - 1)
    if family == "C":
        return (2,) * (rank - 1) + (1,)
    if family == "D":
        return (1,) + (2,) * (rank - 3) + (1, 1)
    return {("E", 6): (1, 2, 2, 3, 2, 1),
            ("E", 7): (2, 2, 3, 4, 3, 2, 1),
            ("E", 8): (2, 3, 4, 6, 5, 4, 3, 2),
            ("F", 4): (2, 3, 4, 2),
            ("G", 2): (3, 2)}[family, rank]


def num_positive_roots(family, rank):
    return sum(d - 1 for d in fundamental_degrees(family, rank))


@lru_cache(maxsize=None)
def group_dimension(family, rank):
    """dim of the (absolute almost simple) group: rank + number of roots."""
    return rank + 2 * num_positive_roots(family, rank)
