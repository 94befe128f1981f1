"""Orders in factored form, reductive quotient descriptors and the residue-size check."""

import time

import pytest
from oracle_helpers import proper_types, reference_prime_power_base
from test_golden import LABELS

from paravol import diagram as dg
from paravol.diagram import FiniteTypeLabel, build_local_index
from paravol.errors import ImproperTypeError
from paravol.reductive import (
    PRIMALITY_BOUND,
    WITNESS_BITS,
    PrimalityBoundError,
    is_prime,
    order_polynomial,
    prime_power_base,
    quotient_descriptor,
)
from paravol.roots import group_dimension


def finite_group(label):
    """The descriptor of the split label's hyperspecial type {1..n}: the finite group itself."""
    d = build_local_index(label)
    return quotient_descriptor(d, d.vertices[1:])


def test_polynomial_arithmetic():
    # q^3 (q^2 - 1)(q^3 - 1) = q^8 - q^6 - q^5 + q^3
    a2 = finite_group("split:A2")
    assert a2.degrees == (2, 3)
    assert order_polynomial(*a2.volume_key) == [0, 0, 0, 1, 0, -1, -1, 0, 1]
    assert [a2.order_at(q) for q in (2, 3)] == [168, 5616]
    assert order_polynomial(8, (3, 2)) == order_polynomial(*a2.volume_key)  # any degree order
    iwahori = quotient_descriptor(build_local_index("split:A3"), ())
    assert iwahori.degrees == (1, 1, 1)
    assert order_polynomial(*iwahori.volume_key) == [-1, 3, -3, 1]  # (q-1)^3, no power of q
    assert iwahori.order_at(3) == 8


def test_order_polynomial_known_coefficients():
    a1 = finite_group("split:A1")
    assert order_polynomial(*a1.volume_key) == [0, -1, 0, 1]  # q^3 - q
    c2 = finite_group("split:C2")  # B2 = C2
    assert (c2.dim, c2.degrees) == (10, (2, 4))
    assert len(order_polynomial(*c2.volume_key)) == 11
    assert c2.order_at(2) == 720


def test_b_and_c_orders_coincide():
    for rank in (4, 5):
        b, c = finite_group(f"split:B{rank}"), finite_group(f"split:C{rank}")
        assert b.components != c.components
        assert b.volume_key == c.volume_key
        assert order_polynomial(*b.volume_key) == order_polynomial(*c.volume_key)


def test_order_degree_equals_dimension():
    for label, (fam, rank) in (("split:A5", ("A", 5)), ("split:D6", ("D", 6)),
                               ("split:E7", ("E", 7)), ("split:F4", ("F", 4))):
        desc = finite_group(label)
        coeffs = order_polynomial(*desc.volume_key)
        assert len(coeffs) - 1 == desc.dim == group_dimension(fam, rank)
        assert coeffs[-1] == 1


def test_quotient_descriptor_singletons():
    # one vertex gives an A1 component and a complementary central torus
    for label, torus in (("split:A3", 2), ("split:B3", 2), ("split:E6", 5)):
        d = build_local_index(label)
        desc = quotient_descriptor(d, (0,))
        assert [str(c) for c in desc.components] == ["A1"]
        assert desc.torus_rank == torus
        assert desc.dim == torus + 3
        assert len(order_polynomial(*desc.volume_key)) - 1 == desc.dim


def test_quotient_descriptor_spec_cases():
    a3 = build_local_index("split:A3")
    two = quotient_descriptor(a3, (0, 2))
    assert [str(c) for c in two.components] == ["A1", "A1"]
    assert (two.torus_rank, two.dim) == (1, 7)
    # q^2 (q^2-1)^2 (q-1)
    assert two.degrees == (1, 2, 2)
    assert order_polynomial(*two.volume_key) == [0, 0, -1, 1, 2, -2, -1, 1]
    adj = quotient_descriptor(a3, (0, 3))
    assert [str(c) for c in adj.components] == ["A2"]
    assert (adj.torus_rank, adj.dim) == (1, 9)
    iwahori = quotient_descriptor(a3, ())
    assert iwahori.components == ()
    assert (iwahori.torus_rank, iwahori.dim) == (3, 3)
    assert iwahori.order_at(2) == 1  # (q-1)^3 at q=2
    wall = quotient_descriptor(build_local_index("split:B3"), (2, 3))
    assert wall.dim == 11  # rank-2 component of dimension 10 plus a 1-torus
    assert wall.order_at(2) == 720  # (q-1) * the rank-2 symplectic order, at q=2
    assert wall.order_at(3) == 2 * 51840


def test_quotient_descriptor_b3_singletons_agree():
    b3 = build_local_index("split:B3")
    descs = [quotient_descriptor(b3, (v,)) for v in range(4)]
    assert len({d.volume_key for d in descs}) == 1
    assert len({tuple(order_polynomial(*d.volume_key)) for d in descs}) == 1
    assert descs[0].dim == 5


# Audited residue tables of the twisted forms: for each proper type, the
# component labels of the reductive quotient and its central torus rank.
TWISTED_RESIDUES = {
    "twisted:C-BC1": {
        (): ((), 1),
        (0,): (("A1",), 0),
        (1,): (("A1",), 0),
    },
    "twisted:C-B2": {
        (): ((), 2),
        (0,): (("A1",), 1),
        (1,): (("A1",), 1),
        (2,): (("A1",), 1),
        (0, 1): (("B2",), 0),
        (0, 2): (("A1", "A1"), 0),
        (1, 2): (("B2",), 0),
    },
}


def test_twisted_tables_match_induced_subdiagram_reading():
    for label, table in TWISTED_RESIDUES.items():
        d = build_local_index(label)
        assert sorted(table) == [t.vertices for t in proper_types(d)]
        for t in proper_types(d):
            desc = quotient_descriptor(d, t)
            comps, torus = table[t.vertices]
            assert tuple(str(c) for c in desc.components) == comps
            assert desc.torus_rank == torus


def test_twisted_descriptor_values():
    bc1 = build_local_index("twisted:C-BC1")
    for v in (0, 1):
        desc = quotient_descriptor(bc1, (v,))
        assert desc.dim == 3 and desc.order_at(2) == 6
    b2 = build_local_index("twisted:C-B2")
    middle = quotient_descriptor(b2, (1,))
    end = quotient_descriptor(b2, (0,))
    assert middle.dim == end.dim == 4
    assert middle.volume_key == end.volume_key
    assert order_polynomial(*middle.volume_key) == order_polynomial(*end.volume_key)
    corner = quotient_descriptor(b2, (0, 2))
    assert corner.dim == 6 and [str(c) for c in corner.components] == ["A1", "A1"]
    wall = quotient_descriptor(b2, (0, 1))
    assert wall.dim == 10 and [str(c) for c in wall.components] == ["B2"]


def test_descriptor_invariant_under_realized_automorphisms():
    for label in ("split:B3", "split:D4", "split:A4", "twisted:C-B2"):
        d = build_local_index(label)
        for t in proper_types(d):
            desc = quotient_descriptor(d, t)
            for g in d.realized_auts:
                image = quotient_descriptor(d, [g[v] for v in t])
                assert image.volume_key == desc.volume_key


def test_descriptor_is_an_immutable_value():
    d = build_local_index("split:B3")
    desc = quotient_descriptor(d, (0,))
    assert desc == quotient_descriptor(build_local_index("split:B3"), (0,))
    assert desc == ((FiniteTypeLabel("A", 1),), 2, 5, (1, 1, 2))
    assert hash(desc) == hash(((FiniteTypeLabel("A", 1),), 2, 5, (1, 1, 2)))
    assert desc != quotient_descriptor(d, (1, 2, 3)) and desc.volume_key == (5, (1, 1, 2))
    assert repr(desc) == ("ReductiveQuotientDescriptor(components=(FiniteTypeLabel("
                          "family='A', rank=1),), torus_rank=2, dim=5, degrees=(1, 1, 2))")
    with pytest.raises(AttributeError):
        desc.dim = 6


def test_quotient_descriptor_rejects_improper():
    d = build_local_index("split:A2")
    with pytest.raises(ImproperTypeError):
        quotient_descriptor(d, (0, 1, 2))


def test_quotient_descriptor_memo_keeps_the_proper_check(monkeypatch):
    d = build_local_index("split:A2")
    for t in proper_types(d):
        quotient_descriptor(d, t)
    assert len(d.component_labels) == 7
    classified = []
    induced = dg.induced_subdiagram
    monkeypatch.setattr(dg, "induced_subdiagram",
                        lambda d, t: classified.append(t) or induced(d, t))
    # an unsorted or repeated vertex list is the same type: a memo hit
    assert quotient_descriptor(d, (2, 0, 2)) is quotient_descriptor(d, (0, 2))
    assert classified == []
    for improper in ((0, 1, 2), (2, 1, 0), (0, 1, 2, 2), (3,), (0, 5)):
        with pytest.raises(ImproperTypeError):
            quotient_descriptor(d, improper)
    assert classified == []  # each improper list was refused before the memo
    whole = dg.ParahoricTypeSpec(0b111)
    with pytest.raises(ImproperTypeError):  # a type is checked on its miss
        quotient_descriptor(d, whole)
    assert classified == [whole]
    assert len(d.component_labels) == 7  # none was stored


def test_component_memo_belongs_to_one_index():
    first = build_local_index("split:B3")
    quotient_descriptor(first, (0,))
    assert first.component_labels == {0b1: (FiniteTypeLabel("A", 1),)}  # by vertex mask
    second = build_local_index("split:B3")
    assert second.component_labels == {}
    assert "component_labels" not in repr(second)


def test_prime_power_base():
    assert prime_power_base(2) == 2
    assert prime_power_base(4) == 2
    assert prime_power_base(8) == 2
    assert prime_power_base(9) == 3
    assert prime_power_base(27) == 3
    assert prime_power_base(49) == 7
    assert prime_power_base(1024) == 2
    for bad in (0, 1, 6, 12, 100):
        assert prime_power_base(bad) is None
    sieve = [False, False] + [True] * 1998
    for n in range(2, 2000):
        if sieve[n]:
            for m in range(n * n, 2000, n):
                sieve[m] = False
    assert [n for n in range(2000) if is_prime(n)] == [
        n for n in range(2000) if sieve[n]]


# Two residue sizes near the input limit of 4,300 digits that the small-prime
# strip leaves whole: 101 * 103^2131 (4,292 digits), whose least factor is
# 101, and a product of the Mersenne primes 2^11213 - 1, 2^2281 - 1,
# 2^607 - 1 and 2^127 - 1 (4,284 digits), with no factor below 10^6.
LEAST_FACTOR_101 = 101 * 103 ** 2131
MERSENNE_PRODUCT = (2 ** 11213 - 1) * (2 ** 2281 - 1) * (2 ** 607 - 1) * (2 ** 127 - 1)


def timed_base(q):
    """prime_power_base(q), which must return or raise within a second at any size."""
    start = time.perf_counter()
    try:
        return prime_power_base(q)
    finally:
        assert time.perf_counter() - start < 1.0, f"prime_power_base of a {q.bit_length()}-bit q"


def test_prime_power_base_matches_trial_division_below_2e5():
    wrong = []
    for q in range(200_000):
        base = reference_prime_power_base(q)
        if timed_base(q) != base or is_prime(q) != (base == q):
            wrong.append(q)
    assert wrong == []


@pytest.mark.parametrize("p", [999999937, 10 ** 14 + 31, 10 ** 18 + 3, 10 ** 24 + 7])
def test_prime_power_base_of_large_prime_powers_up_to_4300_digits(p):
    top = 1
    while p ** (top + 1) < 10 ** 4300:
        top += 1
    # the largest prime exponent makes the root search try every exponent below it
    prime_top = max(k for k in range(2, top + 1) if reference_prime_power_base(k) == k)
    for k in sorted({*range(1, 13), *range(13, top, 29), prime_top, top}):
        assert timed_base(p ** k) == p, k
        assert timed_base(p ** k * 3) is None
    assert timed_base(p * (p + 2) ** 2) is None


def _primes_from(n, count):
    found = []
    while len(found) < count:
        if reference_prime_power_base(n) == n:
            found.append(n)
        n += 1
    return found


def test_prime_power_base_of_two_primes_near_31000():
    # the shape of ratio_stream's composite residue sizes; trial division
    # to sqrt(q) took milliseconds for each
    primes = _primes_from(31000, 12)
    for a, b in zip(primes, primes[1:]):
        assert timed_base(a * b) is None
        assert timed_base(a * a * b) is None
        assert timed_base((a * b) ** 3) is None
        assert reference_prime_power_base(a * b) is None


@pytest.mark.parametrize("q", [
    3215031751,  # 151 * 751 * 28351, a strong pseudoprime to bases 2, 3, 5 and 7
    3825123056546413051,  # a strong pseudoprime to the first eleven prime bases
    318665857834031151167461,  # 399165290221 * 798330580441, strong to the first twelve
    318665857834031151167461 ** 2,
])
def test_strong_pseudoprimes_are_not_prime_powers(q):
    assert not is_prime(q)
    assert timed_base(q) is None


def test_a_residue_size_past_the_primality_bound_raises():
    # psi_13 is composite, yet a strong pseudoprime to all 13 bases
    assert PRIMALITY_BOUND == 1287836182261 * 2575672364521
    # as is the prime 2^607 - 1
    for q in (PRIMALITY_BOUND, PRIMALITY_BOUND ** 3, (2 ** 607 - 1) ** 2):
        with pytest.raises(PrimalityBoundError):
            timed_base(q)
    with pytest.raises(PrimalityBoundError):
        is_prime(PRIMALITY_BOUND)
    # below the bound "prime" is proven; a "composite" verdict is exact at any size
    assert is_prime(10 ** 24 + 7)
    assert timed_base(PRIMALITY_BOUND * 3) is None


def test_past_witness_bits_a_residue_size_is_not_tested():
    # the 13 bases on a 14,000-bit number took minutes; trial division to
    # sqrt(q) found the factor 101 of LEAST_FACTOR_101 at once
    m127, m521, m607 = 2 ** 127 - 1, 2 ** 521 - 1, 2 ** 607 - 1
    assert (m521 * m127).bit_length() <= WITNESS_BITS < (m521 * m607).bit_length()
    assert timed_base(m521 * m127) is None  # a base shows it composite
    for q in (m521 * m607, m521 ** 5 * m607 ** 5, LEAST_FACTOR_101, MERSENNE_PRODUCT):
        with pytest.raises(PrimalityBoundError):
            timed_base(q)


@pytest.mark.parametrize("label", LABELS)
def test_quotient_dim_minus_relative_rank_is_even(label):
    # dim = relative rank + 2 * |positive roots|, so no local factor ratio
    # carries an odd power of sqrt(q)
    d = build_local_index(label)
    for t in proper_types(d):
        assert (quotient_descriptor(d, t).dim - d.relative_rank) % 2 == 0
