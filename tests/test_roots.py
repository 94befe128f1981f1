"""Root generation from Cartan matrices, cross-checked two independent ways."""

import pytest

from paravol.roots import (
    cartan_matrix,
    check_rank,
    fundamental_degrees,
    group_dimension,
    highest_root,
    num_positive_roots,
    positive_roots,
)

ALL_RANKS = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(3, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def test_root_closure_count_matches_degree_formula():
    # root-string closure and fundamental degrees are independent routes
    for fam, rank in ALL_RANKS:
        assert len(positive_roots(fam, rank)) == num_positive_roots(fam, rank)


def test_highest_root_coefficients():
    known = {
        ("A", 3): (1, 1, 1),
        ("B", 3): (1, 2, 2),
        ("C", 3): (2, 2, 1),
        ("D", 4): (1, 2, 1, 1),
        ("E", 6): (1, 2, 2, 3, 2, 1),
        ("E", 7): (2, 2, 3, 4, 3, 2, 1),
        ("E", 8): (2, 3, 4, 6, 5, 4, 3, 2),
        ("F", 4): (2, 3, 4, 2),
        ("G", 2): (3, 2),
    }
    for (fam, rank), theta in known.items():
        assert highest_root(fam, rank) == theta


def test_cartan_matrix_shapes():
    m = cartan_matrix("G", 2)
    assert m == ((2, -1), (-3, 2))
    m = cartan_matrix("F", 4)
    assert m[1][2] == -2 and m[2][1] == -1
    m = cartan_matrix("B", 3)
    assert m[1][2] == -2 and m[2][1] == -1
    m = cartan_matrix("C", 3)
    assert m[1][2] == -1 and m[2][1] == -2
    with pytest.raises(ValueError):
        cartan_matrix("B", 2)
    with pytest.raises(ValueError):
        cartan_matrix("E", 9)


def test_group_dimension_is_rank_plus_roots():
    for fam, rank in ALL_RANKS:
        assert group_dimension(fam, rank) == rank + 2 * len(positive_roots(fam, rank))
    known = {("A", 1): 3, ("A", 4): 24, ("B", 3): 21, ("C", 2): 10,
             ("D", 4): 28, ("E", 8): 248, ("F", 4): 52, ("G", 2): 14}
    for (fam, rank), dim in known.items():
        assert group_dimension(fam, rank) == dim


def test_rank_bounds():
    assert check_rank("A", 1) and not check_rank("A", 0)
    assert check_rank("B", 3) and not check_rank("B", 2)
    assert check_rank("C", 2) and not check_rank("C", 1)
    assert check_rank("D", 4) and not check_rank("D", 3)
    assert check_rank("E", 6) and not check_rank("E", 5)
    assert not check_rank("F", 5) and not check_rank("G", 3)
    assert not check_rank("H", 3)
    caps = {"A": 150, "B": 100, "C": 100, "D": 100}
    for fam, cap in caps.items():
        assert check_rank(fam, cap) and not check_rank(fam, cap + 1)
