"""Acceptance gate: one test per criterion, each printing a pass line.

Every criterion re-derives its expectations from oracles or closed-form
tables and runs inside a wall-clock budget.
"""

import random
import time
from contextlib import contextmanager

from oracle_helpers import (
    brute_force_decorated_autos,
    brute_sl_count,
    proper_types,
    reference_order_coeffs,
    witnesses,
)
from test_reductive import finite_group

from paravol.cli import _ratio_json
from paravol.construction import (
    Place,
    build_family,
    certify_family,
    make_collection,
    refinement_index,
    relative_covolume,
)
from paravol.diagram import GroupSpec, build_local_index
from paravol.parahoric import conjugate_types, find_equal_volume_pairs
from paravol.reductive import quotient_descriptor
from paravol.roots import RANK_BOUNDS, check_rank, fundamental_degrees, num_positive_roots

SPLIT_RANK_LE_8 = [
    (fam, r)
    for fam in ("A", "B", "C", "D", "E", "F", "G")
    for r in range(1, 9)
    if check_rank(fam, r)
]

COXETER_NUMBER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n,
    "C": lambda n: 2 * n,
    "D": lambda n: 2 * n - 2,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
    "F": lambda n: 12,
    "G": lambda n: 6,
}


@contextmanager
def criterion(number, name, limit):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s, budget {limit}s"
    print(f"ACCEPTANCE {number} ({name}): PASS ({elapsed:.2f}s < {limit}s)", flush=True)


def test_acceptance_1_order_polynomial_oracle():
    with criterion(1, "order polynomials vs brute-force matrix counts", 1.0):
        a1 = finite_group("split:A1").order_at
        a2 = finite_group("split:A2").order_at
        counts = {(n, q): brute_sl_count(n, q) for n in (2, 3) for q in (2, 3)}
        assert counts[(2, 2)] == 6
        assert counts[(2, 3)] == 24
        assert counts[(3, 2)] == 168
        # the remaining count is taken from the oracle, not assumed
        assert a1(2) == counts[(2, 2)]
        assert a1(3) == counts[(2, 3)]
        assert a2(2) == counts[(3, 2)]
        assert a2(3) == counts[(3, 3)]


def test_acceptance_2_structural_invariants():
    with criterion(2, "diagram and descriptor invariants, all split ranks <= 8", 10.0):
        for fam, rank in SPLIT_RANK_LE_8:
            d = build_local_index(GroupSpec("split", fam, rank))
            assert sum(d.marks) == COXETER_NUMBER[fam](rank)
            assert all(d.hyperspecial[v] == (d.marks[v] == 1) for v in d.vertices)
            degrees = fundamental_degrees(fam, rank)
            assert sum(x - 1 for x in degrees) == num_positive_roots(fam, rank)
            for t in proper_types(d):
                desc = quotient_descriptor(d, t)
                coeffs = reference_order_coeffs(desc.components, desc.torus_rank)
                assert len(coeffs) - 1 == desc.dim
                assert desc.torus_rank >= 0
        e8 = build_local_index("split:E8")
        assert brute_force_decorated_autos(e8) == [tuple(range(9))]
        assert len(e8.realized_auts) == 1


def test_acceptance_3_split_equal_volume_pairs():
    with criterion(3, "equal-volume non-conjugate pairs for split families", 10.0):
        for fam, rank in SPLIT_RANK_LE_8:
            d = build_local_index(GroupSpec("split", fam, rank))
            pairs = find_equal_volume_pairs(d)
            for t1, t2 in pairs:
                assert not conjugate_types(d, t1, t2)
                d1 = quotient_descriptor(d, t1)
                d2 = quotient_descriptor(d, t2)
                assert (d1.dim, reference_order_coeffs(d1.components, d1.torus_rank)) == (
                    d2.dim, reference_order_coeffs(d2.components, d2.torus_rank))
            if fam == "A":
                as_tuples = [(t1.vertices, t2.vertices) for t1, t2 in pairs]
                if rank >= 5:
                    assert ((0, 2), (0, 3)) in as_tuples
                else:
                    assert pairs == []
            else:
                singleton = [
                    (t1, t2) for t1, t2 in pairs
                    if len(t1.vertices) == len(t2.vertices) == 1
                    and d.hyperspecial[t1.vertices[0]] != d.hyperspecial[t2.vertices[0]]
                ]
                assert singleton, f"no hyperspecial/non-hyperspecial pair for {fam}{rank}"
                t1, t2 = singleton[0]
                d1, d2 = quotient_descriptor(d, t1), quotient_descriptor(d, t2)
                assert (reference_order_coeffs(d1.components, d1.torus_rank)
                        == reference_order_coeffs(d2.components, d2.torus_rank))


def test_acceptance_4_a4_obstruction_and_swap_fallback():
    with criterion(4, "A4 single-place obstruction and two-place swap", 1.0):
        g = GroupSpec.parse("split:A4")
        d = build_local_index(g)
        assert conjugate_types(d, (0, 2), (0, 3))
        assert find_equal_volume_pairs(d) == []
        places = [Place("u1", 7, 7, d), Place("u2", 7, 7, d)]
        members = build_family(g, places, ["u1", "u2"], fallback_swap=True)
        assert len(members) == 2
        cert = certify_family(members)
        assert all(relative_covolume(a, b) == 1 for a in members for b in members)
        assert len(witnesses(cert)) == 1
        i, j, pid, t1, t2 = witnesses(cert)[0]
        assert (i, j, pid) == (0, 1, "u1")
        assert not conjugate_types(d, t1, t2)


def test_acceptance_5_b3_family_of_eight_with_refinement():
    with criterion(5, "B3 three-place family of 8 plus torsion-free refinement", 5.0):
        g = GroupSpec.parse("split:B3")
        d = build_local_index(g)
        places = [
            Place("v2", 2, 2, d), Place("v3", 3, 3, d), Place("v5", 5, 5, d),
            Place("w4", 4, 2, d), Place("w9", 9, 3, d),
        ]
        family_ids = ["v2", "v3", "v5"]
        members = build_family(g, places, family_ids)
        assert len(members) == 8
        cert = certify_family(members)
        assert len(witnesses(cert)) == 28
        assert all(relative_covolume(a, b) == 1 for a in members for b in members)

        refined = build_family(g, places, family_ids, refine=("w4", "w9"))
        certify_family(refined)
        assert all(relative_covolume(a, b) == 1 for a in refined for b in refined)
        expected = refinement_index(places[3], d.default_type()) * refinement_index(
            places[4], d.default_type())
        for plain, tight in zip(members, refined):
            ratio = relative_covolume(tight, plain)
            assert _ratio_json(ratio) == {"num": expected, "den": 1, "half_exponents": {}}


def test_acceptance_6_twisted_pairs_and_families():
    with criterion(6, "twisted indices: pairs exist and families certify", 1.0):
        for label, q in (("twisted:C-BC1", 2), ("twisted:C-B2", 3)):
            g = GroupSpec.parse(label)
            d = build_local_index(g)
            pairs = find_equal_volume_pairs(d)
            assert pairs, f"no equal-volume pair for {label}"
            t1, t2 = pairs[0]
            assert not conjugate_types(d, t1, t2)
            pl = Place("r", q, q, d)
            members = build_family(g, [pl], ["r"])
            assert len(members) == 2
            cert = certify_family(members)
            assert relative_covolume(members[0], members[1]) == 1
            assert witnesses(cert)[0][2] == "r"


def random_collections(rng, trial):
    """A function drawing random collections of one group over three places.

    The group cycles through a fixed pool by trial; residues, types and
    refinements (at places of distinct characteristic) come from rng.
    """
    pool = ["split:B3", "split:A4", "split:C2", "split:D4",
            "twisted:C-BC1", "twisted:C-B2"]
    residues = [(2, 2), (3, 3), (4, 2), (5, 5), (7, 7), (9, 3)]
    g = GroupSpec.parse(pool[trial % len(pool)])
    d = build_local_index(g)
    qs = rng.sample(residues, 3)
    places = [Place(f"v{k}", q, p, d) for k, (q, p) in enumerate(qs)]
    types = proper_types(d)

    def pick():
        overrides = {pl.id: rng.choice(types) for pl in places}
        refinements = ()
        if rng.random() < 0.4:
            chars = {}
            for pl in places:
                chars.setdefault(pl.p, pl.id)
            chosen = rng.sample(sorted(chars.values()),
                                rng.randint(1, len(chars)))
            refinements = tuple(chosen)
        return make_collection(g, places, overrides, refinements)

    return pick


def test_acceptance_7_cocycle_identity_random_triples():
    with criterion(7, "covolume ratio cocycle identity on 100 random triples", 5.0):
        rng = random.Random(20260814)
        for trial in range(100):
            pick = random_collections(rng, trial)
            a, b, c = pick(), pick(), pick()
            left = relative_covolume(a, b) * relative_covolume(b, c)
            assert left == relative_covolume(a, c)
            assert relative_covolume(a, a) == 1
