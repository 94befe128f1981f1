"""Affine diagram construction, automorphisms, induced subdiagram labels."""

import copy
import functools
import operator
import pickle
import random

import pytest

from oracle_helpers import (
    brute_force_decorated_autos,
    canonical_labels,
    proper_types,
    reference_component_labels,
    reference_orbit,
)
from test_golden import LABELS

from paravol import roots
from paravol.diagram import (
    LABEL_ECHO_LIMIT,
    Edge,
    FiniteTypeLabel,
    GroupSpec,
    LocalIndex,
    ParahoricTypeSpec,
    _bits,
    _component_label,
    _graph_automorphisms,
    build_local_index,
    induced_subdiagram,
    subset_table,
)
from paravol.errors import ImproperTypeError, UnsupportedTypeError
from paravol.parahoric import _connected_masks


def labels(d, t):
    return tuple(str(c) for c in induced_subdiagram(d, t))


def test_group_spec_parse_and_label():
    g = GroupSpec.parse("split:B3")
    assert (g.form, g.family, g.rank) == ("split", "B", 3)
    assert g.label == "split:B3"
    t = GroupSpec.parse("twisted:C-BC1")
    assert (t.family, t.rank, t.twisted_index) == ("A", 2, "C-BC1")
    assert t.label == "twisted:C-BC1"
    assert t.dimension() == 8
    assert GroupSpec.parse("twisted:C-B2").dimension() == 15


def test_group_spec_label_is_the_spelling_it_accepts():
    ranks = [str(r) for r in range(21)] + ["00", "01", "03", "003", "010", "+3", " 3", "3 "]
    names = [f + r for f in "ABCDEFGHX" for r in ranks] + ["C-BC1", "C-B2", "C-BC01", "c-b2"]
    accepted = []
    for text in (f"{form}:{name}" for form in ("split", "twisted") for name in names):
        try:
            g = GroupSpec.parse(text)
        except UnsupportedTypeError:
            continue
        assert g.label == text
        accepted.append(text)
    assert "split:B3" in accepted and "twisted:C-BC1" in accepted
    for bad in ("split:B03", "split:A01", "split:E008", "split:C010"):
        with pytest.raises(UnsupportedTypeError):
            GroupSpec.parse(bad)


def test_group_spec_rejects_bad_labels():
    for bad in ("split:B2", "split:D3", "split:E9", "split:X4", "split:A0",
                "split:A151", "split:B101", "split:C101", "split:D101", "split:A1000",
                "twisted:C-BC2", "twisted:B3", "ramified:C-BC1", "A3"):
        with pytest.raises(UnsupportedTypeError):
            GroupSpec.parse(bad)
    with pytest.raises(UnsupportedTypeError):
        GroupSpec("twisted", "A", 3, "C-BC1")  # wrong absolute type
    with pytest.raises(UnsupportedTypeError):
        GroupSpec("split", "A", 3, "C-BC1")


@pytest.mark.parametrize("prefix, fill, named", [
    ("split:A", "9", "A with a rank of 58 digits"),
    ("split:A", "x", "a split label of 65 characters"),
    ("twisted:", "y", "a twisted label of 65 characters"),
])
def test_group_spec_names_a_label_past_the_echo_limit_by_its_length(prefix, fill, named):
    at_limit = prefix + fill * (LABEL_ECHO_LIMIT - len(prefix))
    with pytest.raises(UnsupportedTypeError) as raised:
        GroupSpec.parse(at_limit)
    assert at_limit[len(prefix):] in str(raised.value)
    with pytest.raises(UnsupportedTypeError) as raised:
        GroupSpec.parse(at_limit + fill)
    assert str(raised.value) == f"unsupported type: {named}"


def test_group_spec_is_an_immutable_validated_value():
    g = GroupSpec.parse("twisted:C-B2")
    assert g == GroupSpec("twisted", "A", 3, "C-B2") == ("twisted", "A", 3, "C-B2")
    assert hash(g) == hash(GroupSpec("twisted", "A", 3, "C-B2"))
    assert GroupSpec("split", "B", 3) == GroupSpec.parse("split:B3")
    assert GroupSpec("split", "B", 3) != GroupSpec("split", "C", 3)
    assert repr(GroupSpec("split", "B", 3)) == (
        "GroupSpec(form='split', family='B', rank=3, twisted_index=None)")
    with pytest.raises(AttributeError):
        g.rank = 4
    # every way of building one validates it
    with pytest.raises(UnsupportedTypeError):
        GroupSpec("split", "B", 2)
    with pytest.raises(UnsupportedTypeError):
        GroupSpec.parse("split:B3")._replace(rank=2)
    with pytest.raises(UnsupportedTypeError):
        GroupSpec._make(("twisted", "A", 2, "C-B2"))
    # a rank is an int: True == 1 and 3.0 == 3 would print as split:ATrue and split:B3.0
    for fields in (("split", "A", True), ("split", "B", 3.0), ("twisted", "A", 3.0, "C-B2")):
        with pytest.raises(UnsupportedTypeError):
            GroupSpec(*fields)


def test_finite_type_label_is_an_immutable_validated_value():
    a1 = FiniteTypeLabel("A", 1)
    assert a1 == FiniteTypeLabel("A", 1) == ("A", 1)
    assert hash(a1) == hash(FiniteTypeLabel("A", 1))
    assert sorted([FiniteTypeLabel("B", 3), FiniteTypeLabel("A", 2), a1]) == [
        a1, FiniteTypeLabel("A", 2), FiniteTypeLabel("B", 3)]
    assert (str(a1), repr(a1)) == ("A1", "FiniteTypeLabel(family='A', rank=1)")
    with pytest.raises(AttributeError):
        a1.rank = 2
    for build in (lambda: FiniteTypeLabel("X", 1), lambda: FiniteTypeLabel("A", 0),
                  lambda: a1._replace(rank=0), lambda: FiniteTypeLabel._make(("H", 3)),
                  # one family letter and an int rank
                  lambda: FiniteTypeLabel("", 3), lambda: FiniteTypeLabel("AB", 3),
                  lambda: FiniteTypeLabel("A", True), lambda: FiniteTypeLabel("B", 3.0)):
        with pytest.raises(UnsupportedTypeError):
            build()


def test_edge_is_a_named_tuple():
    e = Edge(0, 1, 4, 1)
    assert e == Edge(u=0, v=1, mult=4, arrow=1) == (0, 1, 4, 1)
    assert hash(e) == hash((0, 1, 4, 1))
    assert (e.u, e.v, e.mult, e.arrow) == (0, 1, 4, 1)
    with pytest.raises(AttributeError):
        e.mult = 2


def test_vertices_of_a_mask_are_its_set_bits_lowest_first():
    for mask in range(1 << 12):
        assert ParahoricTypeSpec(mask).vertices == tuple(v for v in range(12) if mask >> v & 1)
    assert ParahoricTypeSpec(1 << 150 | 1).vertices == (0, 150)
    # a negative mask has no set bits, and its orbit ends rather than looping
    assert build_local_index("split:B3").orbit_masks(-1) == [0, 0]


@pytest.mark.parametrize("n", range(10))
def test_subset_table_sums_the_items_at_the_set_bits_lowest_first(n):
    rng = random.Random(n)
    ints = [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(n)]
    disjoint = [1 << v for v in rng.sample(range(20), n)]
    tuples = [tuple(rng.randrange(100) for _ in range(rng.randrange(3))) for _ in range(n)]
    for items, empty in ((ints, 7), (disjoint, 0), (tuples, ()), (tuples, ("e",))):
        table = subset_table(items, empty)
        assert len(table) == 1 << n
        for x, entry in enumerate(table):
            total = empty
            for k in range(n):
                if x >> k & 1:
                    total = total + items[k]
            assert entry == total
    # on ints of disjoint bits a sum is their union
    assert subset_table(disjoint, 0) == [
        functools.reduce(operator.or_, (b for k, b in enumerate(disjoint) if x >> k & 1), 0)
        for x in range(1 << n)]


def test_parahoric_type_spec_is_an_immutable_set_of_vertices():
    # a type is its vertex mask: it equals and hashes as the int, as the
    # package's named tuples equal their plain tuples
    t = ParahoricTypeSpec(0b101)
    assert isinstance(t, int) and t.__slots__ == () and not hasattr(t, "__dict__")
    assert t == 5 and hash(t) == hash(5) and {t: 1}[5] == 1
    assert t.vertices == (0, 2)
    assert t == ParahoricTypeSpec(5) and hash(t) == hash(ParahoricTypeSpec(5))
    assert t != ParahoricTypeSpec(0b1) and t != (0, 2) and t != [0, 2]
    assert repr(t) == "ParahoricTypeSpec([0, 2])"
    with pytest.raises(TypeError):  # the vertices are read through `vertices`
        len(t)
    with pytest.raises(TypeError):
        iter(t)
    for change in (lambda: setattr(t, "vertices", (1,)), lambda: delattr(t, "vertices"),
                   lambda: setattr(t, "mask", 1), lambda: setattr(t, "other", 1)):
        with pytest.raises(AttributeError):
            change()
    assert t.vertices == (0, 2)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(t, protocol))
        assert type(again) is ParahoricTypeSpec and again == t and again.vertices == (0, 2)
    assert type(copy.deepcopy(t)) is type(copy.copy(t)) is ParahoricTypeSpec
    assert copy.deepcopy(t) == copy.copy(t) == t
    with pytest.raises(TypeError):  # a vertex list becomes a type through check_proper
        ParahoricTypeSpec([0, 2])
    with pytest.raises(ValueError, match="a vertex mask is not negative, got -1"):
        ParahoricTypeSpec(-1)


def test_local_index_is_equal_and_hashed_by_identity():
    d, e = build_local_index("split:B3"), build_local_index("split:B3")
    assert d == d and d != e and len({d, e, d}) == 2
    rebuilt = LocalIndex(d.group, d.vertices, d.edges, d.marks, d.hyperspecial, d.realized_auts)
    assert rebuilt != d and rebuilt.neighbours == d.neighbours
    induced_subdiagram(d, (0,))
    assert d.component_classes
    # the memos stay out of the repr
    assert repr(d) == repr(e) == (
        f"LocalIndex(group={d.group!r}, vertices={d.vertices!r}, edges={d.edges!r}, "
        f"marks={d.marks!r}, hyperspecial={d.hyperspecial!r}, "
        f"realized_auts={d.realized_auts!r})")
    assert d.aut_images == tuple(tuple(1 << w for w in g) for g in d.realized_auts)
    for name in ("group", "neighbours", "aut_images", "component_classes", "other"):
        with pytest.raises(AttributeError):
            setattr(d, name, None)
    # a copy is a new index with the same fields and fresh memos
    for twin in (copy.copy(d), pickle.loads(pickle.dumps(d))):
        assert twin != d and repr(twin) == repr(d) and twin.neighbours == d.neighbours
        assert twin.component_classes == {}


def test_diagrams_build_without_the_root_closure(monkeypatch):
    def closure(family, rank):
        raise AssertionError(f"root closure of {family}{rank}")

    monkeypatch.setattr(roots, "positive_roots", closure)
    for label in [*LABELS, "split:A150", "split:B100", "split:C100", "split:D100"]:
        build_local_index(label)


def test_marks_and_hyperspecial():
    cases = {
        "split:A4": ((1, 1, 1, 1, 1), {0, 1, 2, 3, 4}),
        "split:B3": ((1, 1, 2, 2), {0, 1}),
        "split:C2": ((1, 2, 1), {0, 2}),
        "split:D4": ((1, 1, 2, 1, 1), {0, 1, 3, 4}),
        "split:F4": ((1, 2, 3, 4, 2), {0}),
        "split:G2": ((1, 3, 2), {0}),
        "split:E8": ((1, 2, 3, 4, 6, 5, 4, 3, 2), {0}),
        "twisted:C-BC1": ((1, 2), set()),
        "twisted:C-B2": ((1, 1, 1), set()),
    }
    for label, (marks, hyper) in cases.items():
        d = build_local_index(label)
        assert d.marks == marks
        assert {v for v in d.vertices if d.hyperspecial[v]} == hyper


def test_mark_sum_is_coxeter_number():
    coxeter = {("A", 4): 5, ("B", 3): 6, ("C", 2): 4, ("D", 5): 8,
               ("E", 6): 12, ("E", 7): 18, ("E", 8): 30, ("F", 4): 12, ("G", 2): 6}
    for (fam, rank), h in coxeter.items():
        d = build_local_index(GroupSpec("split", fam, rank))
        assert sum(d.marks) == h


def test_edge_decorations():
    b3 = build_local_index("split:B3")
    assert [tuple(e) for e in b3.edges] == [
        (0, 2, 1, None), (1, 2, 1, None), (2, 3, 2, 3)]
    a1 = build_local_index("split:A1")
    assert [tuple(e) for e in a1.edges] == [(0, 1, 4, None)]
    g2 = build_local_index("split:G2")
    assert [tuple(e) for e in g2.edges] == [(0, 2, 1, None), (1, 2, 3, 1)]
    cb2 = build_local_index("twisted:C-B2")
    assert [tuple(e) for e in cb2.edges] == [(0, 1, 2, 0), (1, 2, 2, 2)]


def test_realized_automorphisms_of_split_a_are_the_rotations():
    for n in (1, 2, 4, 5):
        d = build_local_index(GroupSpec("split", "A", n))
        auts = d.realized_auts
        assert len(auts) == n + 1
        expected = {tuple((i + k) % (n + 1) for i in range(n + 1)) for k in range(n + 1)}
        assert set(auts) == expected


def test_realized_automorphisms_match_brute_force():
    # for non-A diagrams the realized group is the full decorated group
    expected_order = {
        "split:B3": 2, "split:B4": 2, "split:C2": 2, "split:C3": 2,
        "split:D4": 24, "split:D5": 8, "split:E6": 6, "split:E7": 2,
        "split:F4": 1, "split:G2": 1,
        "twisted:C-BC1": 1, "twisted:C-B2": 2,
    }
    for label, order in expected_order.items():
        d = build_local_index(label)
        brute = brute_force_decorated_autos(d)
        assert list(d.realized_auts) == brute
        assert len(brute) == order


def test_split_a_rotations_are_among_decorated_automorphisms():
    for n in (2, 3, 4):
        d = build_local_index(GroupSpec("split", "A", n))
        brute = set(brute_force_decorated_autos(d))
        assert set(d.realized_auts) <= brute
        assert len(brute) == 2 * (n + 1)  # dihedral, rotations realized only


def test_automorphism_group_orders_up_to_the_caps():
    # the decorated diagrams' groups (Bourbaki, Lie groups, ch. VI, plates)
    orders = {f"split:{f}{r}": order for f, order in (("B", 2), ("C", 2), ("D", 8))
              for r in range(roots.RANK_BOUNDS[f][0], roots.RANK_BOUNDS[f][1] + 1)}
    orders |= {"split:D4": 24, "split:E6": 6, "split:E7": 2, "split:E8": 1, "split:F4": 1,
               "split:G2": 1, "twisted:C-BC1": 1, "twisted:C-B2": 2}
    for label, order in orders.items():
        d = build_local_index(label)
        assert len(d.realized_auts) == order, label
        for g in d.realized_auts:  # each keeps marks, flags and decorated edges
            assert [(d.marks[w], d.hyperspecial[w]) for w in g] == list(zip(d.marks,
                                                                           d.hyperspecial))
            images = {Edge(*sorted((g[e.u], g[e.v])), e.mult,
                           None if e.arrow is None else g[e.arrow]) for e in d.edges}
            assert images == set(d.edges), label


def test_automorphism_search_keeps_each_edge_shape():
    # on the built diagrams the marks and the tree already fix each edge's
    # image; these three-vertex paths differ only in their edges' shapes
    for edges in (((0, 1, 2, 0), (1, 2, 2, 1)), ((0, 1, 1, None), (1, 2, 2, 1)),
                  ((0, 1, 2, 0), (1, 2, 2, 2))):
        d = LocalIndex(None, (0, 1, 2), tuple(Edge(*e) for e in edges), (1, 1, 1),
                       (False,) * 3, ())
        found = _graph_automorphisms(d.vertices, d.edges, d.marks, d.hyperspecial)
        assert found == tuple(brute_force_decorated_autos(d))


def test_automorphisms_form_a_group():
    for label in ("split:A4", "split:B3", "split:D4", "split:C2", "twisted:C-B2",
                  "split:B100", "split:C100", "split:D100"):
        d = build_local_index(label)
        auts = set(d.realized_auts)
        identity = tuple(d.vertices)
        assert identity in auts
        for g in auts:
            inverse = tuple(g.index(v) for v in d.vertices)
            assert inverse in auts
            for h in auts:
                assert tuple(g[h[v]] for v in d.vertices) in auts


def test_realized_automorphisms_are_a_group_on_every_golden_label():
    # a family's witness scan takes two types as conjugate exactly when
    # their orbits are equal, which holds because these form a group
    for label in LABELS:
        d = build_local_index(label)
        auts = set(d.realized_auts)
        assert len(auts) == len(d.realized_auts)
        assert tuple(d.vertices) in auts, label
        for g in auts:
            for h in auts:
                assert tuple(g[h[v]] for v in d.vertices) in auts, (label, g, h)


def test_parahoric_type_normalization():
    d = build_local_index("split:A4")
    t = d.check_proper([3, 1, 1, 0])
    assert t.vertices == (0, 1, 3) and t == 0b1011
    assert d.check_proper((0, 1)) == d.check_proper([1, 0]) == ParahoricTypeSpec(0b11)
    assert d.check_proper(t) is t
    assert d.check_proper(()).vertices == () and d.check_proper(()) == 0


def test_check_proper():
    d = build_local_index("split:A3")
    d.check_proper((0, 1, 2))
    with pytest.raises(ImproperTypeError):
        d.check_proper((0, 1, 2, 3))  # the whole vertex set
    with pytest.raises(ImproperTypeError):
        d.check_proper((7,))


def test_check_proper_answers_a_type_as_its_vertex_list():
    # a type below the whole vertex set's mask is returned as is; every
    # other mask gives the error its vertex list gives
    d = build_local_index("split:A14")
    for mask in range((1 << 15) + 2):
        t = ParahoricTypeSpec(mask)
        try:
            expected = d.check_proper(list(t.vertices))
        except ImproperTypeError as error:
            with pytest.raises(ImproperTypeError) as got:
                d.check_proper(t)
            assert str(got.value) == str(error)
        else:
            assert d.check_proper(t) == expected


@pytest.mark.parametrize("vertices, message", [
    ([-1], "improper type: unknown vertices in ParahoricTypeSpec([-1])"),
    ([4], "improper type: unknown vertices in ParahoricTypeSpec([4])"),
    ([3, 2, 2, -5], "improper type: unknown vertices in ParahoricTypeSpec([-5, 2, 3])"),
    ([0, 1, 2, 3], "improper type: must omit at least one vertex"),
    ([10 ** 70], "improper type: unknown vertices in a type of 92 characters"),
    # a type is an int, which pytest would name by its text; keep the id of
    # the other cases' form
    pytest.param(ParahoricTypeSpec(1 << 4),
                 "improper type: unknown vertices in ParahoricTypeSpec([4])",
                 id="vertices5-improper type: unknown vertices in ParahoricTypeSpec([4])"),
    (["a"], "improper type: unknown vertices in ParahoricTypeSpec(['a'])"),
])
def test_check_proper_messages(vertices, message):
    # each id is checked before it becomes a bit: no shift by -1 or by 10**70
    d = build_local_index("split:B3")
    with pytest.raises(ImproperTypeError) as got:
        d.check_proper(vertices)
    assert str(got.value) == message


def test_proper_types_enumeration():
    d = build_local_index("twisted:C-BC1")
    assert [t.vertices for t in proper_types(d)] == [(), (0,), (1,)]
    a2 = build_local_index("split:A2")
    assert len(proper_types(a2)) == 7


def test_default_types():
    assert build_local_index("split:B3").default_type().vertices == (0,)
    assert build_local_index("twisted:C-BC1").default_type().vertices == (0,)
    assert build_local_index("twisted:C-B2").default_type().vertices == (0, 1)


def test_induced_subdiagram_path_and_cycle_pieces():
    a5 = build_local_index("split:A5")
    assert labels(a5, (0, 2)) == ("A1", "A1")
    assert labels(a5, (0, 1, 3)) == ("A1", "A2")
    assert labels(a5, (0, 1, 2, 4)) == ("A1", "A3")
    assert labels(a5, (5, 0, 1)) == ("A3",)  # arc through the affine vertex
    assert labels(a5, ()) == ()


def test_induced_subdiagram_double_edge_pieces():
    b3 = build_local_index("split:B3")
    assert labels(b3, (2, 3)) == ("B2",)
    assert labels(b3, (1, 2, 3)) == ("B3",)
    assert labels(b3, (0, 1, 2)) == ("A3",)
    assert labels(b3, (0, 3)) == ("A1", "A1")
    c3 = build_local_index("split:C3")
    assert labels(c3, (1, 2, 3)) == ("C3",)
    assert labels(c3, (0, 1, 2)) == ("C3",)
    assert labels(c3, (0, 1)) == ("B2",)
    f4 = build_local_index("split:F4")
    assert labels(f4, (1, 2, 3, 4)) == ("F4",)
    assert labels(f4, (0, 1, 2, 3)) == ("B4",)
    assert labels(f4, (2, 3, 4)) == ("C3",)
    assert labels(f4, (0, 2, 3)) == ("A1", "B2")
    g2 = build_local_index("split:G2")
    assert labels(g2, (1, 2)) == ("G2",)
    assert labels(g2, (0, 2)) == ("A2",)


def test_induced_subdiagram_forks():
    d4 = build_local_index("split:D4")
    assert labels(d4, (0, 1, 2, 3)) == ("D4",)
    assert labels(d4, (0, 1, 3, 4)) == ("A1", "A1", "A1", "A1")
    d5 = build_local_index("split:D5")
    assert labels(d5, (0, 1, 2, 3, 4)) == ("D5",)
    e6 = build_local_index("split:E6")
    assert labels(e6, (0, 1, 2, 3, 4, 5)) == ("E6",)
    e7 = build_local_index("split:E7")
    assert labels(e7, (0, 1, 3, 4, 5, 6, 7)) == ("A7",)
    assert labels(e7, (1, 2, 3, 4, 5, 6, 7)) == ("E7",)
    e8 = build_local_index("split:E8")
    assert labels(e8, (1, 2, 3, 4, 5, 6, 7, 8)) == ("E8",)
    assert labels(e8, (0, 2, 3, 4, 5, 6, 7, 8)) == ("D8",)


def test_mask_classifier_matches_the_set_and_edge_reference():
    small = [f"split:{f}{r}" for f, (lo, hi) in roots.RANK_BOUNDS.items()
             for r in range(lo, min(hi, 14) + 1)]
    count = 0
    for label in small + ["twisted:C-BC1", "twisted:C-B2"]:
        d = build_local_index(label)
        for comp, _ in _connected_masks(d):
            assert (_component_label(d, comp),) == reference_component_labels(d, _bits(comp))
            count += 1
    assert count == 3492
    # at each A-D cap, seeded connected sets, each grown a neighbour at a time
    rng = random.Random(30)
    for family in "ABCD":
        d = build_local_index(f"split:{family}{roots.RANK_BOUNDS[family][1]}")
        n = len(d.vertices)
        for _ in range(500):
            v = rng.randrange(n)
            comp, reach = 1 << v, d.neighbours[v]
            for _ in range(rng.randrange(n - 1)):
                w = rng.choice(_bits(reach & ~comp))
                comp |= 1 << w
                reach |= d.neighbours[w]
            assert (_component_label(d, comp),) == reference_component_labels(d, _bits(comp))


def test_canonical_label_coincidences():
    assert canonical_labels("B", 1) == (FiniteTypeLabel("A", 1),)
    assert canonical_labels("C", 1) == (FiniteTypeLabel("A", 1),)
    assert canonical_labels("D", 2) == (FiniteTypeLabel("A", 1), FiniteTypeLabel("A", 1))
    assert canonical_labels("D", 3) == (FiniteTypeLabel("A", 3),)


def test_diagram_json_shape():
    d = build_local_index("split:C2")
    payload = d.to_json()
    assert sorted(payload) == ["edges", "realized_aut_order", "vertices"]
    assert payload["vertices"][1] == {"id": 1, "mark": 2, "hyperspecial": False}
    assert payload["edges"][0] == {"u": 0, "v": 1, "mult": 2, "arrow": 1}
    assert payload["realized_aut_order"] == 2


def test_diagram_dot_output():
    text = build_local_index("split:B3").to_dot()
    assert text.startswith('graph "split:B3"')
    assert "2 -- 3" in text and "label=\"2\"" in text


def test_orbit_is_sorted_and_stable():
    b3 = build_local_index("split:B3")
    assert reference_orbit(b3, (0,)) == [(0,), (1,)]
    assert b3.orbit_masks(0b1) == [0b1, 0b10]  # identity first: the automorphisms are sorted
    assert reference_orbit(b3, (2,)) == [(2,)]
    assert b3.orbit_masks(0b100) == [0b100, 0b100]
    a4 = build_local_index("split:A4")
    assert reference_orbit(a4, (0, 2)) == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
    # the five rotations of the cycle
    assert a4.orbit_masks(0b10100) == [0b10100, 0b1001, 0b10010, 0b101, 0b1010]
