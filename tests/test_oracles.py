"""Brute-force oracle values, frozen, against the factored order formulas.

Also the factored orders against their multiplied-out reference, and the
closed-form highest roots and affine pairings against the closed root
system and the invariant bilinear form.
"""

from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from oracle_helpers import (
    bilinear,
    bourbaki_weyl_degrees,
    brute_sl_count,
    cartan_from_edges,
    horner,
    length_factors,
    parabolic_length_counts,
    poincare_value,
    proper_types,
    reference_highest_root,
    reference_order_coeffs,
    reference_split_affine_edges,
    weyl_length_counts,
)
from test_golden import LABELS, LARGE_PAIRS_LABELS
from test_reductive import finite_group

from paravol.construction import Place
from paravol.diagram import IWAHORI, GroupSpec, ParahoricTypeSpec, build_local_index
from paravol.parahoric import (
    factor_ratio,
    key_order,
    orbit_representatives,
    packed_volume_keys,
)
from paravol.reductive import order_polynomial, quotient_descriptor
from paravol.roots import cartan_matrix, check_rank, highest_root, positive_roots

# determinant-1 matrix counts over prime fields, computed by brute_sl_count
FROZEN_SL_COUNTS = {
    (2, 2): 6,
    (2, 3): 24,
    (3, 2): 168,
    (3, 3): 5616,
}


def test_brute_force_sl_counts_are_frozen_values():
    for (n, q), expected in FROZEN_SL_COUNTS.items():
        assert brute_sl_count(n, q) == expected


def test_order_polynomials_match_sl_brute_force():
    a1 = finite_group("split:A1")
    a2 = finite_group("split:A2")
    for q in (2, 3):
        assert a1.order_at(q) == FROZEN_SL_COUNTS[(2, q)]
        assert a2.order_at(q) == FROZEN_SL_COUNTS[(3, q)]


def test_split_orders_match_known_group_orders():
    cases = {
        "split:A1": {4: 60, 5: 120, 7: 336, 8: 504, 9: 720},
        "split:A2": {4: 60480},
        "split:C2": {2: 720, 3: 51840},  # B2 = C2
        "split:G2": {2: 12096},
        "split:D4": {2: 174182400},
    }
    for label, values in cases.items():
        desc = finite_group(label)
        for q, expected in values.items():
            assert desc.order_at(q) == expected


def test_volume_keys_partition_quotients_as_multiplied_out_orders_do():
    # every quotient of an orbit representative of the golden pair searches
    descs = set()
    for label in [*LABELS, *LARGE_PAIRS_LABELS]:
        d = build_local_index(label)
        descs.update(quotient_descriptor(d, ParahoricTypeSpec(mask))
                     for mask in orbit_representatives(d))
    keys = {}  # reference coefficients -> the volume keys with them
    for desc in descs:
        coeffs = reference_order_coeffs(desc.components, desc.torus_rank)
        assert order_polynomial(*desc.volume_key) == list(coeffs), desc
        for q in (2, 3, 7, 1009):
            assert desc.order_at(q) == horner(coeffs, q), (desc, q)
        keys.setdefault(coeffs, set()).add(desc.volume_key)
    # one key per order, and as many keys as orders: the partitions agree
    assert all(len(found) == 1 for found in keys.values())
    assert len({desc.volume_key for desc in descs}) == len(keys)


@pytest.mark.parametrize("label", sorted({*LABELS, *LARGE_PAIRS_LABELS})
                         + ["split:A14", "split:B14", "split:C14", "split:D14"])
def test_packed_key_orders_match_the_reference_and_the_descriptors(label):
    # what the pair search writes for each distinct packed key, read off the
    # key, against the order multiplied out from the components of a type
    # with that key and against that type's descriptor
    d = build_local_index(label)
    first = {}  # packed key -> the least mask with it
    for mask, key in enumerate(packed_volume_keys(d)):
        first.setdefault(key, mask)
    for key, mask in first.items():
        desc = quotient_descriptor(d, ParahoricTypeSpec(mask))
        coeffs = reference_order_coeffs(desc.components, desc.torus_rank)
        assert key_order(key) == (desc.dim, coeffs, None), (label, mask)
        assert len(coeffs) - 1 == desc.dim
        for q in (2, 7, 1009, 10 ** 18 + 3):
            assert key_order(key, q) == (desc.dim, coeffs, horner(coeffs, q)), (label, mask, q)
            assert desc.order_at(q) == horner(coeffs, q), (label, mask, q)


# |W| and the number of reflections (the longest length) of finite Weyl groups
WEYL_ORDERS = {
    "split:A3": (24, 6),
    "split:B3": (48, 9),
    "split:C3": (48, 9),
    "split:D4": (192, 12),
    "split:G2": (12, 6),
    "split:F4": (1152, 24),
    "split:E6": (51840, 36),
}


def test_weyl_enumeration_gives_known_orders():
    for label, (order, reflections) in WEYL_ORDERS.items():
        d = build_local_index(label)
        counts = weyl_length_counts(cartan_from_edges(d, d.vertices[1:]))
        assert (sum(counts), len(counts) - 1) == (order, reflections), label
        assert counts == counts[::-1]  # w -> w0 w reverses length
    e7 = build_local_index("split:E7")
    assert weyl_length_counts(cartan_from_edges(e7, e7.vertices[1:])) is None  # 2,903,040


SPLIT_LABELS = [label for label in LABELS if label.startswith("split:")]
SMALL_SPLIT = [label for label in SPLIT_LABELS
               if build_local_index(label).relative_rank <= 6]
LARGE_SPLIT = [label for label in SPLIT_LABELS if label not in SMALL_SPLIT]
RESIDUES = ((4, 2), (7, 7))


@pytest.mark.parametrize("label", SMALL_SPLIT)
def test_factor_ratio_of_every_type_pair_is_a_ratio_of_weyl_poincare_values(label):
    # Iwahori-Matsumoto: [P_J : I] = W_J(q), so the ratio of the volume
    # factors of J1 and J2 is W_J2(q) / W_J1(q)
    d = build_local_index(label)
    counts = {t: parabolic_length_counts(d, t) for t in proper_types(d)}
    for q, p in RESIDUES:
        v = Place("v", q, p, d)
        index = {t: Fraction(poincare_value(c, q)) for t, c in counts.items()}
        for t1, t2 in combinations(counts, 2):
            assert factor_ratio(d, t1, t2, v) == index[t2] / index[t1], (t1, t2)


@pytest.mark.parametrize("label", LARGE_SPLIT)
def test_factor_ratio_over_the_iwahori_is_the_weyl_poincare_value(label):
    d = build_local_index(label)
    types = proper_types(d)
    counts = {t: parabolic_length_counts(d, t) for t in types}
    counts = {t: c for t, c in counts.items() if c is not None}
    assert len(counts) > len(types) // 2  # the cap leaves most types in
    for q, p in RESIDUES:
        v = Place("v", q, p, d)
        for t, c in counts.items():
            assert factor_ratio(d, IWAHORI, t, v) == poincare_value(c, q), t


# The finite type whose affine Weyl group each twisted index's diagram
# presents: C-BC1's two vertices and quadruple edge give the infinite
# dihedral group, that of affine A1; C-B2's path of two double edges is
# the diagram of affine C2.
TWISTED_FINITE_TYPES = {"twisted:C-BC1": ("A", 1), "twisted:C-B2": ("C", 2)}


def poincare_at(degrees, y):
    """W(y) = prod over the degrees d of 1 + y + ... + y^(d-1), a Weyl group's Poincare series."""
    return prod(sum(y ** k for k in range(e)) for e in degrees)


# every golden label of rank at most 12: the golden corpus's others are the rank caps
@pytest.mark.parametrize("label", [*LABELS, *LARGE_PAIRS_LABELS])
def test_every_types_degrees_satisfy_the_steinberg_bott_identity(label):
    """Steinberg's alternating sum over the proper types equals Bott's formula.

    With S the vertices of the local index, W its affine Weyl group, W_J
    the Weyl group of a proper type J and W_0 the finite one, of degrees
    d_i: the sum over J of (-1)^|J| / W_J(x) is 1 / W(1/x), where
    W(y) = W_0(y) / prod(1 - y^(d_i - 1)) (Steinberg, Endomorphisms of
    linear algebraic groups, Mem. AMS 80, 1968; Bott, Bull. SMF 84,
    1956).  Each W_J(x) comes from the degrees of the type's
    `quotient_descriptor`; W_0's degrees come from Bourbaki's table in
    `oracle_helpers`, not from the engine.  It reads only the degrees
    above 1, so it cannot tell B from C (one Weyl group), and it checks
    neither the torus rank nor the power of q in an order.  All 36
    labels take about 0.25 s on a 2-core x86-64 host, split:A11's 4,095
    types the most.
    """
    d = build_local_index(label)
    signed = {}  # degrees above 1 -> the sum of (-1)^|J| over the types J with them
    for mask in range((1 << len(d.vertices)) - 1):
        degrees = tuple(e for e in quotient_descriptor(d, ParahoricTypeSpec(mask)).degrees
                        if e > 1)
        signed[degrees] = signed.get(degrees, 0) + (-1) ** mask.bit_count()
    x = 7
    alternating = sum(Fraction(c, poincare_at(degrees, x)) for degrees, c in signed.items())
    w0 = bourbaki_weyl_degrees(*TWISTED_FINITE_TYPES.get(label, (d.group.family, d.group.rank)))
    y = Fraction(1, x)
    assert alternating == prod(1 - y ** (e - 1) for e in w0) / poincare_at(w0, y)


# every supported split (family, rank) up to rank 12
ROOT_RANKS = [(fam, rank) for fam in "ABCDEFG" for rank in range(1, 13) if check_rank(fam, rank)]


def test_highest_root_closed_form_is_the_highest_root_of_the_closure():
    for fam, rank in ROOT_RANKS:
        assert highest_root(fam, rank) == reference_highest_root(fam, rank), (fam, rank)


def test_affine_edges_match_the_bilinear_form():
    for fam, rank in ROOT_RANKS:
        d = build_local_index(GroupSpec("split", fam, rank))
        assert d.edges == reference_split_affine_edges(fam, rank), (fam, rank)


def test_highest_root_is_a_long_root():
    for fam, rank in ROOT_RANKS:
        theta = highest_root(fam, rank)
        norms = {bilinear(r, r, fam, rank) for r in positive_roots(fam, rank)}
        assert bilinear(theta, theta, fam, rank) == max(norms)


def test_length_factors_symmetrize():
    for fam, rank in ROOT_RANKS:
        A = cartan_matrix(fam, rank)
        c = length_factors(fam, rank)
        for i in range(rank):
            for j in range(rank):
                assert A[i][j] * c[j] == A[j][i] * c[i]
    assert length_factors("B", 3) == (2, 2, 1)
    assert length_factors("C", 3) == (1, 1, 2)
    assert length_factors("G", 2) == (1, 3)
