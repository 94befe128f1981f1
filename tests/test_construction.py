"""Coherent collections, covolume ratios, refinements, certified families."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle_helpers import (
    assignment,
    index_of,
    place,
    proper_types,
    reference_certificate_json,
    reference_orbit,
    type_at,
    witnesses,
)
from test_acceptance import random_collections

from paravol import construction, diagram, parahoric
from paravol.construction import (
    CITATIONS,
    CoherentCollection,
    FamilyCertificate,
    Place,
    build_family,
    certify_family,
    make_collection,
    refinement_index,
    relative_covolume,
    _unequal_covolume,
)
from paravol.diagram import IWAHORI, GroupSpec, ParahoricTypeSpec, build_local_index
from paravol.errors import (
    CertificateError,
    DomainError,
    EqualCharacteristicError,
    IncomparableError,
    InvalidResidueError,
    UnknownPlaceError,
)
from paravol.parahoric import (
    HalfPowerRational,
    conjugate_types,
    equal_volume_rows,
    factor_ratio,
    orbit_representatives,
)


def setup_group(label, *qs):
    g = GroupSpec.parse(label)
    d = build_local_index(g)
    places = []
    for k, q in enumerate(qs):
        p = q
        for cand in (2, 3, 5, 7):
            if q % cand == 0:
                p = cand
                break
        places.append(Place(f"v{k}", q, p, d))
    return g, d, places


def test_place_validation():
    d = build_local_index("split:A1")
    Place("ok", 8, 2, d)
    Place("ok9", 9, 3, d)
    for pid, q, p, message in (
        ("bad6", 6, 2, "6 is not a prime power"),
        ("bad1", 1, 2, "1 is not a prime power"),
        ("wrongp", 8, 3, "8 is not a power of 3"),
        ("notprime", 16, 4, "16 is not a power of 4"),
        ("notprime1", 1, 1, "1 is not a prime power"),
    ):
        with pytest.raises(InvalidResidueError) as info:
            Place(pid, q, p, d)
        assert str(info.value) == f"invalid residue size at place {pid}: {message}"


def test_place_is_an_immutable_validated_value():
    d = build_local_index("split:A1")
    v = Place("v", 9, 3, d)
    assert v == Place("v", 9, 3, d) == ("v", 9, 3, d)
    assert hash(v) == hash(Place("v", 9, 3, d))
    assert v != Place("v", 9, 3, build_local_index("split:A1"))  # another index object
    assert v._replace(id="w") == Place("w", 9, 3, d)
    with pytest.raises(AttributeError):
        v.q = 27
    # every way of building one validates it
    for build in (lambda: v._replace(q=6), lambda: v._replace(p=2),
                  lambda: Place._make(("w", 4, 3, d))):
        with pytest.raises(InvalidResidueError):
            build()


def test_collection_and_certificate_are_immutable_values():
    g, d, places = setup_group("split:B3", 2, 3)
    a = make_collection(g, places, {"v0": (1,)}, refinements=("v1", "v0"))
    assert a == make_collection(g, places, {"v0": (1,)}, refinements=("v0", "v1"))
    assert hash(a) == hash(CoherentCollection(g, tuple(places), a.types, ("v0", "v1")))
    assert a.refinements == ("v0", "v1")
    assert make_collection(g, places).refinements == ()
    assert a != make_collection(g, places, {"v0": (1,)})
    with pytest.raises(AttributeError):
        a.types = ()
    members = build_family(g, places, ["v0", "v1"])
    cert = certify_family(members)
    assert cert.citations == CITATIONS
    assert cert == FamilyCertificate(tuple(members), cert.ratios, cert.witness_places)
    with pytest.raises(AttributeError):
        cert.citations = ()


def test_make_collection_defaults_and_overrides():
    g, d, places = setup_group("split:B3", 2, 3)
    coll = make_collection(g, places, {"v1": (2,)})
    assert type_at(coll, "v0").vertices == (0,)  # the default
    assert type_at(coll, "v1").vertices == (2,)
    assert assignment(coll) == {"v0": [0], "v1": [2]}
    assert coll.refinements == ()


def test_make_collection_errors():
    g, d, places = setup_group("split:B3", 2, 3)
    with pytest.raises(UnknownPlaceError):
        make_collection(g, places, {"nope": (0,)})
    with pytest.raises(DomainError):
        make_collection(g, places + [places[0]])
    from paravol.errors import ImproperTypeError

    with pytest.raises(ImproperTypeError):
        make_collection(g, places, {"v0": (0, 1, 2, 3)})


def test_relative_covolume_requires_comparable():
    g, d, places = setup_group("split:B3", 2, 3)
    a = make_collection(g, places)
    g2, d2, places2 = setup_group("split:C3", 2, 3)
    b = make_collection(g2, places2)
    with pytest.raises(IncomparableError):
        relative_covolume(a, b)
    c = make_collection(g, places[:1])
    with pytest.raises(IncomparableError):
        relative_covolume(a, c)
    other_q = make_collection(g, [Place("v0", 4, 2, d), places[1]])
    with pytest.raises(IncomparableError):
        relative_covolume(a, other_q)
    # equal places over a second index object of the same group compare
    rebuilt = [Place(pl.id, pl.q, pl.p, build_local_index("split:B3")) for pl in places]
    assert relative_covolume(a, make_collection(g, rebuilt)).is_one
    # a collection built by hand may name a refinement at no place
    for side in ((a, a._replace(refinements=("zz",))), (a._replace(refinements=("zz",)), a)):
        with pytest.raises(UnknownPlaceError, match="unknown place id: zz"):
            relative_covolume(*side)


def test_certify_compares_shared_places_by_identity(monkeypatch):
    g, d, places = setup_group("split:B3", 2, 3, 5)
    members = build_family(g, places, ["v0", "v1", "v2"])
    keys = []
    monkeypatch.setattr(Place, "key", lambda pl: keys.append(pl) or ())
    certify_family(members)
    assert keys == []


def test_relative_covolume_matches_single_place_ratio():
    g, d, places = setup_group("split:A3", 2, 5)
    a = make_collection(g, places, {"v0": (0, 2)})
    b = make_collection(g, places, {"v0": (0, 3)})
    assert relative_covolume(a, b) == HalfPowerRational(Fraction(7, 3))
    assert relative_covolume(a, a).is_one
    two = make_collection(g, places, {"v0": (0, 2), "v1": (0, 2)})
    ratio = relative_covolume(two, make_collection(g, places, {"v0": (0, 3), "v1": (0, 3)}))
    assert ratio.rational == factor_ratio(d, (0, 2), (0, 3), places[0]).rational * factor_ratio(
        d, (0, 2), (0, 3), places[1]).rational


def test_refinement_index_values():
    d1 = build_local_index("split:A1")
    assert refinement_index(Place("x", 3, 3, d1), (0,)) == 24
    assert refinement_index(Place("y", 2, 2, d1), ()) == 4
    d2 = build_local_index("split:A2")
    # full-diagram-minus-affine type: the quotient is the whole rank-2 group
    assert refinement_index(Place("z", 2, 2, d2), (1, 2)) == 168
    assert refinement_index(Place("z3", 3, 3, d2), (1, 2)) == 5616


def test_refinement_changes_covolume_by_exact_index():
    g, d, places = setup_group("split:B3", 2, 3)
    plain = make_collection(g, places)
    refined = make_collection(g, places, refinements=("v1", "v0"))
    assert refined.refinements == ("v0", "v1")
    expected = refinement_index(places[0], plain.types[0]) * refinement_index(
        places[1], plain.types[1])
    assert relative_covolume(refined, plain) == HalfPowerRational(expected)
    assert relative_covolume(plain, refined) == HalfPowerRational(
        Fraction(1, expected))


def _covolume_by_factors(a, b):
    """covol(a)/covol(b) as a product of `Fraction` factors, one per term.

    A factor ratio per place where the types differ, the index of every
    refinement of a, and the inverse index of every refinement of b,
    nothing cancelled before it is multiplied in.
    """
    ratio = Fraction(1)
    for pl, ta, tb in zip(a.places, a.types, b.types):
        if ta != tb:
            ratio *= factor_ratio(pl.local_index, ta, tb, pl).rational
    for pid in a.refinements:
        ratio *= refinement_index(place(a, pid), type_at(a, pid))
    for pid in b.refinements:
        ratio /= refinement_index(place(b, pid), type_at(b, pid))
    return ratio


# Where a place is refined: on neither side, on one, or on both with the
# same type (the indices cancel) or with another type.
REFINED_ON = ("neither", "a", "b", "both, same type", "both, other type")


@settings(max_examples=80, deadline=None)
@given(label=st.sampled_from(("split:B3", "split:A4", "split:G2", "split:D4",
                              "twisted:C-BC1", "twisted:C-B2")),
       kinds=st.lists(st.sampled_from(REFINED_ON), min_size=4, max_size=4),
       picks=st.lists(st.tuples(st.integers(0, 999), st.integers(0, 999)),
                      min_size=4, max_size=4))
@example(label="split:B3", kinds=["a", "b", "both, same type", "both, other type"],
         picks=[(0, 1), (2, 3), (4, 5), (6, 7)])
def test_relative_covolume_is_the_product_of_its_factors(label, kinds, picks):
    g, d, places = setup_group(label, 2, 3, 25, 7)  # four characteristics
    types = proper_types(d)
    over_a, over_b, refined_a, refined_b = {}, {}, [], []
    for pl, kind, (i, j) in zip(places, kinds, picks):
        ta = types[i % len(types)]
        tb = ta if kind == "both, same type" else types[j % len(types)]
        if kind == "both, other type" and tb == ta:
            tb = types[(i + 1) % len(types)]
        over_a[pl.id], over_b[pl.id] = ta, tb
        if kind in ("a", "both, same type", "both, other type"):
            refined_a.append(pl.id)
        if kind in ("b", "both, same type", "both, other type"):
            refined_b.append(pl.id)
    a = make_collection(g, places, over_a, tuple(refined_a))
    b = make_collection(g, places, over_b, tuple(refined_b))
    assert relative_covolume(a, b).rational == _covolume_by_factors(a, b)
    assert relative_covolume(b, a).rational == _covolume_by_factors(b, a)


def test_refinement_requires_distinct_characteristics():
    g, d, places = setup_group("split:B3", 2, 4, 3)  # p = 2, 2, 3
    with pytest.raises(EqualCharacteristicError) as info:
        make_collection(g, places, refinements=("v0", "v1"))
    assert str(info.value) == "equal residue characteristic: places v0 and v1 share p=2"
    with pytest.raises(EqualCharacteristicError) as info:
        make_collection(g, places, refinements=("v0", "v0"))
    assert str(info.value) == "equal residue characteristic: places v0 and v0 share p=2"
    assert make_collection(g, places, refinements=("v2", "v0")).refinements == ("v0", "v2")
    with pytest.raises(UnknownPlaceError):
        make_collection(g, places, refinements=("v0", "nope"))


def test_build_family_counts_and_determinism():
    g, d, places = setup_group("split:B3", 2, 3, 5)
    members = build_family(g, places, ["v0", "v1", "v2"])
    assert len(members) == 8
    assert len({tuple(tuple(t.vertices) for t in m.types) for m in members}) == 8
    again = build_family(g, places, ["v0", "v1", "v2"])
    assert members == again
    # member 0 takes the first type of the first equal-volume pair everywhere
    assert assignment(members[0]) == {"v0": [0], "v1": [0], "v2": [0]}
    assert assignment(members[7]) == {"v0": [2], "v1": [2], "v2": [2]}


def test_build_family_validates_user_pairs():
    g, d, places = setup_group("split:B3", 2)
    members = build_family(g, places, ["v0"], pairs={"v0": ((2,), (3,))})
    assert [type_at(m, "v0").vertices for m in members] == [(2,), (3,)]
    with pytest.raises(DomainError):  # conjugate pair
        build_family(g, places, ["v0"], pairs={"v0": ((0,), (1,))})
    with pytest.raises(DomainError):  # unequal volume factors
        build_family(g, places, ["v0"], pairs={"v0": ((0,), (0, 1))})


def test_build_family_errors():
    g, d, places = setup_group("split:A4", 2, 2)
    with pytest.raises(DomainError):
        build_family(g, places, ["v0"])  # no pair and no fallback
    with pytest.raises(UnknownPlaceError):
        build_family(g, places, ["nope"])
    with pytest.raises(DomainError):
        build_family(g, places, ["v0", "v0"])
    g3, d3, places3 = setup_group("split:B3", 2, 3)
    with pytest.raises(DomainError):
        build_family(g3, places3, ["v0"], refine=("v0", "v1"))


def test_build_family_refine_names_exactly_two_places():
    g, d, places = setup_group("split:B3", 2, 3, 5, 7)
    for refine in (("v1",), ("v1", "v2", "v3")):
        with pytest.raises(DomainError, match="exactly two places"):
            build_family(g, places, ["v0"], refine=refine)


def test_build_family_swap_fallback():
    g, d, places = setup_group("split:A4", 7, 7, 11, 11)
    members = build_family(g, places, ["v0", "v1", "v2", "v3"], fallback_swap=True)
    assert len(members) == 4
    cert = certify_family(members)
    assert all(r.is_one for row in cert.ratios for r in row)
    assert len(witnesses(cert)) == 6
    types0 = [t.vertices for t in members[0].types]
    types1 = [t.vertices for t in members[1].types]
    assert types0[0] == () and types0[1] == (0,)
    assert types1[0] == (0,) and types1[1] == ()
    with pytest.raises(DomainError):  # unequal q inside a swap two
        build_family(g, [places[0], Place("w", 11, 11, d)], ["v0", "w"],
                     fallback_swap=True)
    with pytest.raises(DomainError):
        build_family(g, places[:1], ["v0"], fallback_swap=True)


def test_swap_fallback_odd_place_keeps_default():
    g, d, places = setup_group("split:A4", 7, 7, 13)
    members = build_family(g, places, ["v0", "v1", "v2"], fallback_swap=True)
    assert len(members) == 2
    assert all(type_at(m, "v2").vertices == (0,) for m in members)
    certify_family(members)


def test_certify_family_failures():
    g, d, places = setup_group("split:B3", 2, 3)
    a = make_collection(g, places, {"v0": (0,)})
    b = make_collection(g, places, {"v0": (0, 1)})
    with pytest.raises(CertificateError, match="not equal covolume"):
        certify_family([a, b])
    conj = make_collection(g, places, {"v0": (1,)})
    with pytest.raises(CertificateError, match="no witness"):
        certify_family([a, conj])  # equal volume but conjugate types
    with pytest.raises(CertificateError, match="no witness"):
        certify_family([a, a])
    with pytest.raises(CertificateError):
        certify_family([a])
    g2, _, places2 = setup_group("split:C3", 2, 3)
    with pytest.raises(IncomparableError):
        certify_family([a, make_collection(g2, places2)])


def test_certificate_shape_and_citations():
    g, d, places = setup_group("split:B3", 2, 3)
    members = build_family(g, places, ["v0", "v1"])
    cert = certify_family(members)
    payload = reference_certificate_json(cert)
    assert list(payload) == ["group", "places", "members", "ratios", "witnesses",
                             "citations"]
    assert payload["group"] == "split:B3"
    assert payload["places"][0] == {"id": "v0", "q": 2, "p": 2, "index": "split:B3"}
    assert len(payload["members"]) == 4
    assert len(payload["ratios"]) == 4 and len(payload["ratios"][0]) == 4
    assert payload["ratios"][0][0] == {"num": 1, "den": 1, "half_exponents": {}}
    assert len(payload["witnesses"]) == 6
    first = payload["witnesses"][0]
    assert first["pair"] == [0, 1] and first["place"] == "v0"
    joined = " ".join(payload["citations"])
    assert "Prasad" in joined
    assert "strong approximation" in joined
    assert "rigidity" in joined
    assert payload["citations"] == list(CITATIONS)


def test_witnesses_are_first_nonconjugate_place():
    g, d, places = setup_group("split:B3", 2, 3)
    members = build_family(g, places, ["v0", "v1"])
    cert = certify_family(members)
    by_pair = {(i, j): pid for (i, j, pid, _, _) in witnesses(cert)}
    assert by_pair[(0, 1)] == "v0"
    assert by_pair[(0, 2)] == "v1"
    assert by_pair[(1, 2)] == "v0"


def test_relative_covolume_cocycle_random():
    rng = random.Random(424242)
    for label in ("split:B3", "split:A4", "twisted:C-B2"):
        g, d, places = setup_group(label, 2, 3, 5)
        types = proper_types(d)

        def random_collection():
            overrides = {pl.id: rng.choice(types) for pl in places}
            refinements = ()
            if rng.random() < 0.5:
                refinements = tuple(
                    rng.sample(["v0", "v1", "v2"], rng.randint(1, 3)))
            return make_collection(g, places, overrides, refinements)

        for _ in range(15):
            a, b, c = random_collection(), random_collection(), random_collection()
            assert relative_covolume(a, b).rational * relative_covolume(b, c).rational == \
                relative_covolume(a, c).rational


def pairwise_certify(members):
    """The quadratic reference: every ratio and witness computed directly.

    Returns (ratios, witnesses) or raises the CertificateError of the first
    failure in row-major order.
    """
    ratios = tuple(tuple(relative_covolume(a, b) for b in members) for a in members)
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if not ratios[i][j].is_one:
                raise _unequal_covolume(i, j, members[i], members[j], ratios[i][j])
    found_witnesses = []
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            found = [
                (i, j, pl.id, ti, tj)
                for pl, ti, tj in zip(members[i].places, members[i].types, members[j].types)
                if ti != tj and not conjugate_types(pl.local_index, ti, tj)
            ]
            if not found:
                raise CertificateError(f"no witness separating members {i} and {j}")
            found_witnesses.append(found[0])
    return ratios, tuple(found_witnesses)


def oracle_families():
    g, _, places = setup_group("split:B3", 2, 3, 5, 4, 9)
    yield build_family(g, places, ["v0", "v1", "v2"], refine=("v3", "v4"))
    g, _, places = setup_group("twisted:C-B2", 2, 3, 5)
    yield build_family(g, places, ["v0", "v1", "v2"])
    g, _, places = setup_group("split:A4", 7, 7, 11, 11)
    yield build_family(g, places, ["v0", "v1", "v2", "v3"], fallback_swap=True)


def test_cocycle_matrix_equals_pairwise_matrix():
    for members in oracle_families():
        cert = certify_family(members)
        assert (cert.ratios, witnesses(cert)) == pairwise_certify(members)


def test_certify_matches_pairwise_scan_on_random_collections():
    rng = random.Random(31337)
    outcomes = Counter()
    for trial in range(60):
        pick = random_collections(rng, trial)
        members = [pick() for _ in range(rng.randint(2, 6))]
        try:
            expected = pairwise_certify(members)
        except CertificateError as exc:
            with pytest.raises(CertificateError) as got:
                certify_family(members)
            assert str(got.value) == str(exc)
            outcomes[str(exc).split(":")[0]] += 1  # the kind of failure
        else:
            cert = certify_family(members)
            assert (cert.ratios, witnesses(cert)) == expected
            outcomes["valid"] += 1
    assert outcomes["not equal covolume"] >= 40  # random members rarely agree

    # members of equal covolume, so the witness scan runs; a repeated
    # member is the "no witness" failure
    seen = Counter()
    for trial in range(120):
        members = equal_volume_members(rng, trial)
        try:
            expected = pairwise_certify(members)
        except CertificateError as exc:
            with pytest.raises(CertificateError) as got:
                certify_family(members)
            assert str(got.value) == str(exc)
            assert str(exc).startswith("no witness separating members")
            seen["no witness"] += 1
            continue
        cert = certify_family(members)
        assert (cert.ratios, witnesses(cert)) == expected
        seen["valid"] += 1
        d = members[0].places[0].local_index
        seen[d.group.form] += 1
        for i, j, pid, _, _ in witnesses(cert):
            k = index_of(members[0], pid)
            if members[i].types[:k] != members[j].types[:k]:
                seen["conjugate unequal types before the witness"] += 1
                if d.group.form == "split" and d.group.family == "A":
                    seen["rotations before the witness"] += 1
        if any(len(set(types)) >= 3 for types in zip(*(m.types for m in members))):
            seen["three types at one place"] += 1
    assert min(seen[key] for key in (
        "valid", "no witness", "split", "twisted", "conjugate unequal types before the witness",
        "rotations before the witness", "three types at one place")) >= 3, seen


def equal_volume_members(rng, trial):
    """2 to 9 members of one group with equal covolume, a member maybe repeated.

    Place v0 comes first: there each member takes a random type of one
    orbit, so members differ there only by conjugate types (rotations, for
    split type A).  Each later factor holds one place with an equal-volume
    pair of non-conjugate orbits or, for a group without one, two places
    of equal q that swap the Iwahori and default types.  Members take
    distinct choices of orbit per factor, and at each place a random type
    in the chosen orbit.  A repeated member takes its own random types.
    """
    pool = ["split:A3", "split:A4", "split:B3", "split:C3", "split:D4",
            "twisted:C-BC1", "twisted:C-B2"]
    g = GroupSpec.parse(pool[trial % len(pool)])
    d = build_local_index(g)

    def orbit(t):
        return [d.check_proper(vs) for vs in reference_orbit(d, t)]

    row = next(equal_volume_rows(d), None)
    bucket = None if row is None else [ParahoricTypeSpec(m) for m in (row[0], *row[2])]
    places = [Place("v0", 2, 2, d)]
    factors = []  # per factor, its places and per choice the orbit at each
    qs = iter((3, 5, 7, 11, 13))
    for _ in range(rng.randint(1, 3)):
        q = next(qs)
        if bucket is not None:
            places.append(Place(f"v{len(places)}", q, q, d))
            t1 = rng.choice(bucket)
            t2 = rng.choice([t for t in bucket if not conjugate_types(d, t1, t)])
            factors.append(([places[-1]], [[orbit(t1)], [orbit(t2)]]))
        else:
            pair = [Place(f"v{len(places) + k}", q, q, d) for k in range(2)]
            places.extend(pair)
            a, b = orbit(IWAHORI), orbit(d.default_type())
            factors.append((pair, [[a, b], [b, a]]))
    free = orbit(rng.choice(proper_types(d)))
    patterns = rng.sample(range(2 ** len(factors)), min(2 ** len(factors), rng.randint(2, 8)))
    if rng.random() < 0.3:
        patterns.append(rng.choice(patterns))
    members = []
    for bits in patterns:
        overrides = {"v0": rng.choice(free)}
        for k, (where, choices) in enumerate(factors):
            for pl, types in zip(where, choices[bits >> k & 1]):
                overrides[pl.id] = rng.choice(types)
        members.append(make_collection(g, places, overrides))
    return members


def test_unequal_covolume_message_names_pair_places_and_short_ratio():
    g, d, places = setup_group("split:B3", 2, 3, 4, 9)
    a = make_collection(g, places, {"v0": (0,)})
    b = make_collection(g, places, {"v0": (0, 1)}, ("v2", "v3"))
    with pytest.raises(CertificateError) as got:
        certify_family([a, a, b])
    ratio = relative_covolume(a, b)
    assert str(got.value) == (
        "not equal covolume: members 0 and 2 differ at places v0 (type), "
        f"v2 (refinement), v3 (refinement) and have ratio {ratio!r}")


def test_digit_count_without_string_conversion():
    for n, digits in ((0, 1), (1, 1), (9, 1), (10, 2), (99, 2), (100, 3), (-12345, 5),
                      (10 ** 4999, 5000), (10 ** 5000 - 1, 5000), (3 ** 20000, 9543)):
        assert construction._digits(n) == digits


def test_certify_family_local_work_is_linear(monkeypatch):
    g, _, places = setup_group("split:B3", 2, 3, 5, 7, 11, 13, 4, 9)
    family = [f"v{k}" for k in range(6)]
    made = []

    def counted_make(*args, **kwargs):
        made.append(args)
        return make_collection(*args, **kwargs)

    monkeypatch.setattr(construction, "make_collection", counted_make)
    members = build_family(g, places, family, refine=("v6", "v7"))
    assert len(members) == 64
    # one validated base collection; members differ from it only in type
    assert len(made) == 1
    terms_calls = []
    orbit_calls = []
    terms = construction.factor_terms
    orbit_masks = diagram.LocalIndex.orbit_masks

    def counted_terms(d, t1, t2, q):
        terms_calls.append((q, t1, t2))
        return terms(d, t1, t2, q)

    def counted_orbit_masks(d, mask):
        orbit_calls.append(mask)
        return orbit_masks(d, mask)

    monkeypatch.setattr(construction, "factor_terms", counted_terms)
    monkeypatch.setattr(diagram.LocalIndex, "orbit_masks", counted_orbit_masks)
    cert = certify_family(members)
    assert len(witnesses(cert)) == 64 * 63 // 2
    # member 0 against each other member, from one factor_terms call per
    # distinct (place, member 0's type, other type): one at each family place
    assert len(terms_calls) == len(set(terms_calls)) == len(family)
    # one orbit per distinct (place, type): two types at each family place,
    # one at each refinement place
    assert len(orbit_calls) == 2 * len(family) + 2


def test_family_and_certify_classify_each_type_once(monkeypatch):
    g, d, places = setup_group("split:B3", 2, 3, 5, 7, 4, 9)
    classified = []
    classify = diagram.classify_mask

    def counted_classify(d, mask):
        classified.append(mask)
        return classify(d, mask)

    # the search calls it directly, `quotient_descriptor` through
    # `induced_subdiagram`
    monkeypatch.setattr(diagram, "classify_mask", counted_classify)
    monkeypatch.setattr(parahoric, "classify_mask", counted_classify)
    members = build_family(g, places, ["v0", "v1", "v2", "v3"], refine=("v4", "v5"))
    certify_family(members)
    # the pair search reads every orbit representative, the certificate
    # every member type; the index classifies each of them once
    reps = set(orbit_representatives(d))
    assert {t.mask for m in members for t in m.types} <= reps
    assert sorted(classified) == sorted(reps)
    assert d.component_labels.keys() == reps
