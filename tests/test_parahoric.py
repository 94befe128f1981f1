"""Exact ratio arithmetic, conjugacy of types, symbolic equal-volume search."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_helpers import (
    proper_types,
    reference_component_labels,
    reference_orbit,
    reference_orbit_representatives,
    reference_order_coeffs,
    reference_pairs,
)
from test_golden import LABELS, LARGE_PAIRS_LABELS

from paravol.diagram import GroupSpec, ParahoricTypeSpec, build_local_index, induced_subdiagram
from paravol.errors import ImproperTypeError, SearchCapError
from paravol.parahoric import (
    DIM_SHIFT,
    FIELD_BITS,
    LARGEST_DEGREE,
    ONE,
    HalfPowerRational,
    conjugate_types,
    factor_ratio,
    find_equal_volume_pairs,
    orbit_representatives,
    packed_volume_keys,
    pairs_to_json,
)
from paravol.reductive import quotient_descriptor
from paravol.construction import Place


def place(pid, q, p, d):
    return Place(pid, q, p, d)


def test_half_power_folding():
    # the whole power q^((dim1-dim2)/2) folds into the rational
    a1 = build_local_index("split:A1")
    for q, p in ((2, 2), (4, 2), (7, 7)):
        v = place("v", q, p, a1)
        # q^((1-3)/2) (q^3-q)/(q-1) = q+1
        assert factor_ratio(a1, (), (0,), v) == HalfPowerRational(q + 1)
        assert factor_ratio(a1, (0,), (), v) == HalfPowerRational(Fraction(1, q + 1))
    b3 = build_local_index("split:B3")
    # q^((5-11)/2) * 720 / 6 at q=2
    assert factor_ratio(b3, (0,), (2, 3), place("v", 2, 2, b3)) == HalfPowerRational(15)


def test_half_power_multiplication_cancels_in_pairs():
    a = HalfPowerRational(Fraction(3, 2))
    assert HalfPowerRational(a.rational * a.rational) == HalfPowerRational(Fraction(9, 4))
    assert HalfPowerRational(a.rational / a.rational) == ONE
    b = HalfPowerRational(Fraction(1, 2))
    ab = HalfPowerRational(a.rational * b.rational)
    assert ab.rational == Fraction(3, 4)
    assert not ab.is_one
    assert ONE.is_one
    assert HalfPowerRational(Fraction(2, 4)) == b
    assert hash(HalfPowerRational(Fraction(2, 4))) == hash(b)


def test_half_power_json():
    x = HalfPowerRational(Fraction(7, 3))
    assert x.to_json() == {"num": 7, "den": 3, "half_exponents": {}}
    assert repr(x) == "HalfPowerRational(7/3)"
    assert ONE.to_json() == {"num": 1, "den": 1, "half_exponents": {}}


def test_conjugate_types_examples():
    a4 = build_local_index("split:A4")
    assert conjugate_types(a4, (0, 2), (0, 3))
    assert conjugate_types(a4, (0,), (3,))
    b3 = build_local_index("split:B3")
    assert conjugate_types(b3, (0,), (1,))
    assert not conjugate_types(b3, (0,), (2,))
    assert not conjugate_types(b3, (0,), (3,))
    cb2 = build_local_index("twisted:C-B2")
    assert conjugate_types(cb2, (0,), (2,))
    assert not conjugate_types(cb2, (0,), (1,))


def test_conjugate_types_is_an_equivalence():
    rng = random.Random(83211)
    for label in ("split:A4", "split:B3", "split:D4", "twisted:C-B2"):
        d = build_local_index(label)
        types = proper_types(d)
        for _ in range(50):
            a, b, c = (rng.choice(types) for _ in range(3))
            assert conjugate_types(d, a, a)
            assert conjugate_types(d, a, b) == conjugate_types(d, b, a)
            if conjugate_types(d, a, b) and conjugate_types(d, b, c):
                assert conjugate_types(d, a, c)


CONJUGACY_LABELS = [label for label in LABELS
                    if label.startswith("twisted:") or GroupSpec.parse(label).rank <= 6]


@pytest.mark.parametrize("label", CONJUGACY_LABELS)
def test_every_conjugacy_user_agrees_with_the_reference_orbit(label):
    d = build_local_index(label)
    types = proper_types(d)
    orbit = {t: reference_orbit(d, t) for t in types}
    for t in types:
        # the orbit that `certify_family` keys each member's type by
        assert set(d.orbit_masks(t.mask)) == {sum(1 << v for v in image) for image in orbit[t]}
    for t1 in types:
        for t2 in types:
            assert conjugate_types(d, t1, t2) == (orbit[t1] == orbit[t2]), (t1, t2)
    # the representatives are the masks of the first type met of each reference orbit
    first = {}
    for t in types:
        first.setdefault(tuple(orbit[t]), t)
    assert orbit_representatives(build_local_index(label)) == [t.mask for t in first.values()]


def test_conjugate_types_rejects_improper():
    d = build_local_index("split:A2")
    with pytest.raises(ImproperTypeError):
        conjugate_types(d, (0, 1, 2), (0,))


def test_factor_ratio_spec_example():
    a3 = build_local_index("split:A3")
    v = place("v", 2, 2, a3)
    r = factor_ratio(a3, (0, 2), (0, 3), v)
    assert r == HalfPowerRational(Fraction(7, 3))


def test_factor_ratio_cocycle_at_one_place():
    b3 = build_local_index("split:B3")
    v = place("v", 3, 3, b3)
    types = [(), (0,), (2,), (0, 1), (0, 3), (1, 2, 3)]
    for t1 in types:
        assert factor_ratio(b3, t1, t1, v).is_one
        for t2 in types:
            forward = factor_ratio(b3, t1, t2, v).rational
            assert forward * factor_ratio(b3, t2, t1, v).rational == 1
            for t3 in types:
                chained = forward * factor_ratio(b3, t2, t3, v).rational
                assert chained == factor_ratio(b3, t1, t3, v).rational


SMALL_LABELS = [label for label in LABELS if build_local_index(label).relative_rank <= 6]


@st.composite
def place_and_types(draw, count):
    """A place of a random label of rank at most 6, and `count` proper types there."""
    label = draw(st.sampled_from(SMALL_LABELS))
    d = build_local_index(label)
    p = draw(st.sampled_from((2, 3, 5, 7, 101)))
    q = p ** draw(st.integers(1, 4))
    types = proper_types(d)
    return place("v", q, p, d), [draw(st.sampled_from(types)) for _ in range(count)]


@settings(max_examples=40, deadline=None)
@given(place_and_types(3))
def test_factor_ratio_cocycle_law(drawn):
    v, (a, b, c) = drawn
    d = v.local_index
    assert (factor_ratio(d, a, b, v).rational * factor_ratio(d, b, c, v).rational
            == factor_ratio(d, a, c, v).rational)


@settings(max_examples=40, deadline=None)
@given(place_and_types(2))
def test_factor_ratio_inverse_law(drawn):
    v, (a, b) = drawn
    x = factor_ratio(v.local_index, a, b, v).rational
    assert x * factor_ratio(v.local_index, b, a, v).rational == 1
    assert 1 / x == factor_ratio(v.local_index, b, a, v).rational


def test_find_pairs_a4_empty_a5_contains_spec_pair():
    assert find_equal_volume_pairs(build_local_index("split:A4")) == []
    a5 = [(p[0].vertices, p[1].vertices)
          for p in find_equal_volume_pairs(build_local_index("split:A5"))]
    assert ((0, 2), (0, 3)) in a5


def test_find_pairs_b3_frozen():
    found = [(p[0].vertices, p[1].vertices)
             for p in find_equal_volume_pairs(build_local_index("split:B3"))]
    assert found == [((0,), (2,)), ((0,), (3,)), ((0, 1), (0, 3)), ((2,), (3,))]


def test_find_pairs_twisted():
    for label in ("twisted:C-BC1", "twisted:C-B2"):
        found = [(p[0].vertices, p[1].vertices)
                 for p in find_equal_volume_pairs(build_local_index(label))]
        assert found == [((0,), (1,))]


def test_found_pairs_are_sound():
    for label in ("split:A5", "split:B3", "split:C3", "split:D4", "split:G2",
                  "twisted:C-B2"):
        d = build_local_index(label)
        pairs = find_equal_volume_pairs(d)
        for t1, t2 in pairs:
            assert not conjugate_types(d, t1, t2)
            d1 = quotient_descriptor(d, t1)
            d2 = quotient_descriptor(d, t2)
            assert d1.dim == d2.dim and (reference_order_coeffs(d1.components, d1.torus_rank)
                                         == reference_order_coeffs(d2.components, d2.torus_rank))


def pair_tuples(pairs):
    return [(t1.vertices, t2.vertices) for t1, t2 in pairs]


def masks(vertex_tuples):
    return [sum(1 << v for v in t) for t in vertex_tuples]


@pytest.mark.parametrize("label", LABELS)
def test_search_matches_the_tuple_references(label):
    d = build_local_index(label)
    pairs = find_equal_volume_pairs(d)
    reps = reference_orbit_representatives(d)
    assert orbit_representatives(d) == masks(reps)
    for t in proper_types(build_local_index(label)):
        assert induced_subdiagram(d, t) == reference_component_labels(d, t.vertices)
    assert pair_tuples(pairs) == reference_pairs(d)


@pytest.mark.parametrize("label", LARGE_PAIRS_LABELS)
def test_large_search_matches_the_tuple_references(label):
    d = build_local_index(label)
    assert orbit_representatives(d) == masks(reference_orbit_representatives(d))
    assert pair_tuples(find_equal_volume_pairs(d)) == reference_pairs(d)


def test_pairs_json_shape():
    d = build_local_index("split:B3")
    pairs = find_equal_volume_pairs(d)
    rows = list(pairs_to_json(d, q=2))
    t1, dim, coeffs, value, t2s = rows[0]
    assert t1 == 0b1 and t2s[0] == 0b100  # types [0] and [2]
    assert dim == 5
    assert value == 6 * 1  # q(q^2-1)(q-1)^2 at q=2
    assert coeffs[dim] == 1
    # one row per run of pairs with one t1, the t2 masks in pair order
    assert [(row[0], t2) for row in rows for t2 in row[4]] == [
        (a.mask, b.mask) for a, b in pairs]
    assert len({row[0] for row in rows}) == len(rows)
    assert next(pairs_to_json(d))[3] is None


@pytest.mark.parametrize("label", ["split:A14", "split:D13"])
def test_search_at_the_cap_matches_the_tuple_reference(label):
    # split:A14 has 15 vertices and 15 rotations, the largest realized group
    # the search can meet, and its masks fill both bytes; each label takes
    # about 0.2 s, the reference's share included, on a 2-core x86-64 host
    d = build_local_index(label)
    assert orbit_representatives(d) == masks(reference_orbit_representatives(d))


@pytest.mark.parametrize("label", sorted({*LABELS, *LARGE_PAIRS_LABELS})
                         + ["split:A14", "split:B14", "split:C14", "split:D14"])
def test_packed_keys_split_the_masks_as_the_volume_keys_do(label):
    # equal packed keys exactly when equal (dim, degrees), and each key's
    # fields read back its type's dim and degree counts, so a field that
    # overflowed into the next fails at the cap.  The four 15-vertex labels
    # take about 0.6 s each on a 2-core x86-64 host
    d = build_local_index(label)
    keys = packed_volume_keys(d)
    assert len(keys) == (1 << len(d.vertices)) - 1
    field = (1 << FIELD_BITS) - 1
    by_key, by_volume = {}, {}
    for mask, key in enumerate(keys):
        volume = quotient_descriptor(d, ParahoricTypeSpec(mask)).volume_key
        if key not in by_key:
            by_key[key] = volume
            counts = [key >> FIELD_BITS * (e - 1) & field for e in range(1, LARGEST_DEGREE + 1)]
            assert (key >> DIM_SHIFT, Counter(dict(enumerate(counts, 1)))) == (
                volume[0], Counter(volume[1]))
        assert by_key[key] == volume
        assert by_volume.setdefault(volume, key) == key


def test_pair_search_is_capped_at_15_vertices():
    # split:C14 has 15 vertices, and a one-place family there searches it
    assert len(orbit_representatives(build_local_index("split:C14"))) == 16_511
    with pytest.raises(SearchCapError, match=r"capped at 15 vertices .*; split:A15 has 16$"):
        orbit_representatives(build_local_index("split:A15"))
    with pytest.raises(SearchCapError):
        find_equal_volume_pairs(build_local_index("split:D100"))
    with pytest.raises(SearchCapError, match=r"split:A15 has 16$"):
        packed_volume_keys(build_local_index("split:A15"))


def test_pairs_compute_each_quotient_once(monkeypatch):
    import paravol.parahoric as parahoric
    from paravol import diagram, reductive, roots

    d = build_local_index("split:D6")
    pairs = find_equal_volume_pairs(d)
    first_types = {t1 for t1, _ in pairs}
    assert len(first_types) < len(pairs)  # 19 distinct t1 over 32 pairs
    # the rows, from each t1's descriptor and the reference order
    expected = {}
    for t1, t2 in pairs:
        desc = quotient_descriptor(d, t1)
        row = expected.setdefault(t1.mask, [
            t1.mask, desc.dim, reference_order_coeffs(desc.components, desc.torus_rank),
            desc.order_at(7), []])
        row[4].append(t2.mask)

    # the rows are read off the packed keys: nothing classifies a type or
    # builds a descriptor, and each key that yields a row is multiplied
    # out once
    def refuse(*args):
        raise AssertionError("a type was classified or a descriptor built")

    for module in (diagram, reductive, parahoric):  # wherever the search could look them up
        for name in ("classify_mask", "components_descriptor", "quotient_descriptor"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    expanded = []
    polynomial = parahoric.order_polynomial
    monkeypatch.setattr(parahoric, "order_polynomial",
                        lambda dim, degrees: expanded.append(dim) or polynomial(dim, degrees))
    rows = list(pairs_to_json(d, q=7))
    keys = parahoric.packed_volume_keys(d)
    assert [list(row) for row in rows] == list(expected.values())
    assert len(expanded) == len({keys[t.mask] for t in first_types}) == 10
    assert {t.mask for t in first_types} <= set(parahoric.orbit_representatives(d))
    monkeypatch.undo()

    # each component label's share of a packed key is memoized by the
    # label, not by diagram object: no degree table is read again
    read = []
    degrees = roots.fundamental_degrees
    monkeypatch.setattr(roots, "fundamental_degrees",
                        lambda family, rank: read.append(1) or degrees(family, rank))
    again = find_equal_volume_pairs(build_local_index("split:D6"))
    assert again == pairs and read == []
