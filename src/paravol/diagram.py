"""Local (affine) Dynkin diagrams, parahoric types, realized automorphisms.

Vertices of a split local index are numbered 0 (the extra affine vertex)
and 1..n (the finite simple roots in Bourbaki order).  A parahoric type is
a proper subset of the vertex set, stored as its vertex mask (bit v for
vertex v); the empty type is the Iwahori.  Two types are conjugate when
they lie in one orbit of the realized diagram automorphisms:
`LocalIndex.orbit_masks` maps a mask through one bit-image table per
automorphism, and the pair search (`parahoric.orbit_representatives`)
reads images off two `subset_table`s of it, one per byte of the mask.
A type's induced subdiagram is split into connected vertex sets
(`induced_subdiagram`), and each set is classified once per orbit and
index, in the one memo `LocalIndex.component_classes`
(`classify_component`).
"""

from __future__ import annotations

from collections import namedtuple
from operator import index

from . import roots, twisted
from .errors import ImproperTypeError, UnsupportedTypeError


# Longest outside text (a group label, a place id, a type) an error message repeats in full.
LABEL_ECHO_LIMIT = 64


def echo(value, noun, shown=repr, limit=LABEL_ECHO_LIMIT):
    """`shown(value)`, or past `limit` characters `a <noun> of <n> characters`."""
    n = len(str(value))
    return shown(value) if n <= limit else f"a {noun} of {n} characters"


def _immutable(self, name, *value):
    raise AttributeError(f"cannot assign to field {name!r}")


class GroupSpec(namedtuple("GroupSpec", "form family rank twisted_index")):
    """Absolute type of the group, plus the local form ("split" or "twisted") at the place."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` validates too

    def __new__(cls, form, family, rank, twisted_index=None):
        if type(rank) is not int:  # 3.0 == 3 and True == 1, but neither is a rank
            raise UnsupportedTypeError(f"unsupported type: rank {echo(rank, 'rank')}")
        if form == "split":
            if twisted_index is not None:
                raise UnsupportedTypeError("unsupported type: split form takes no twisted index")
            if not roots.check_rank(family, rank):
                raise UnsupportedTypeError(f"unsupported type: {family}{rank}")
        elif form == "twisted":
            data = twisted.TWISTED_INDICES.get(twisted_index or "")
            if data is None:
                raise UnsupportedTypeError(f"unsupported type: twisted index {twisted_index!r}")
            if (family, rank) != data["absolute"]:
                raise UnsupportedTypeError(
                    f"unsupported type: {twisted_index} has absolute type "
                    f"{data['absolute'][0]}{data['absolute'][1]}")
        else:
            raise UnsupportedTypeError(f"unsupported type: form {form!r}")
        return tuple.__new__(cls, (form, family, rank, twisted_index))

    @classmethod
    def parse(cls, text):
        """Parse 'split:B3' or 'twisted:C-BC1'.

        An unsupported label of up to LABEL_ECHO_LIMIT characters is echoed
        in the error; a longer one is named by its form and its length.
        """
        form, _, name = text.partition(":")
        if form == "split":
            # str.isdigit also accepts digits int() refuses (superscripts) or
            # reads as ASCII ones (Arabic-Indic), so only ASCII digits pass
            # and a leading zero would make a second spelling of one label
            rank = name[1:]
            if (name[:1] in roots.RANK_BOUNDS and rank.isascii() and rank.isdigit()
                    and rank[0] != "0"):
                # int() is quadratic in the digits, and `cli.run` lifts its
                # digit limit, so a rank longer than every bound stops here
                if len(rank) <= len(str(max(hi for _, hi in roots.RANK_BOUNDS.values()))):
                    return cls("split", name[0], int(rank))
                if len(text) <= LABEL_ECHO_LIMIT:
                    raise UnsupportedTypeError(f"unsupported type: {name}")
                raise UnsupportedTypeError(
                    f"unsupported type: {name[0]} with a rank of {len(rank)} digits")
        elif form == "twisted" and name in twisted.TWISTED_INDICES:
            fam, rank = twisted.TWISTED_INDICES[name]["absolute"]
            return cls("twisted", fam, rank, name)
        kind = f"{form} label" if form in ("split", "twisted") else "label"
        raise UnsupportedTypeError(f"unsupported type: {echo(text, kind)}")

    @property
    def label(self):
        if self.form == "split":
            return f"split:{self.family}{self.rank}"
        return f"twisted:{self.twisted_index}"

    def dimension(self):
        return roots.group_dimension(self.family, self.rank)


_FAMILIES = tuple("ABCDEFG")  # not the string: "" and "AB" are in "ABCDEFG"


class FiniteTypeLabel(namedtuple("FiniteTypeLabel", "family rank")):
    """Isogeny-free label of a split finite reductive group: family, rank."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` validates too

    def __new__(cls, family, rank):
        if family not in _FAMILIES or type(rank) is not int or rank < 1:
            raise UnsupportedTypeError(f"unsupported type: {family}{rank}")
        return tuple.__new__(cls, (family, rank))

    def __str__(self):
        return f"{self.family}{self.rank}"


def canonical_labels(family, rank):
    """Labels for one diagram component, low-rank coincidences folded in."""
    if family in ("B", "C") and rank == 1:
        family = "A"
    if family == "D" and rank == 2:
        return (FiniteTypeLabel("A", 1), FiniteTypeLabel("A", 1))
    if family == "D" and rank == 3:
        family, rank = "A", 3
    return (FiniteTypeLabel(family, rank),)


Edge = namedtuple("Edge", "u v mult arrow")  # arrow: the short vertex, None for equal lengths


def _bits(mask):
    """The set bits of a mask, lowest first; a negative mask has none."""
    bits = []
    while mask > 0:  # a negative mask never runs out of low bits
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return tuple(bits)


def subset_table(items, empty):
    """Entry x < 2^len(items): `empty` plus `items[k]` at each set bit k of x, lowest k first."""
    table = [empty]
    for item in items:
        table += [t + item for t in table]
    return table


class ParahoricTypeSpec:
    """A parahoric type, stored as its vertex mask: bit v is set when vertex v is in the type.

    `vertices`, the sorted vertex tuple, is derived from the mask.  A list
    of vertex ids from outside becomes a type through `LocalIndex.check_proper`.
    """

    __slots__ = ("mask",)
    __setattr__ = __delattr__ = _immutable

    def __init__(self, mask):
        mask = index(mask)
        if mask < 0:
            raise ValueError(f"a vertex mask is not negative, got {mask}")
        object.__setattr__(self, "mask", mask)

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return ParahoricTypeSpec, (self.mask,)

    @property
    def vertices(self):
        return _bits(self.mask)

    def __eq__(self, other):
        if isinstance(other, ParahoricTypeSpec):
            return self.mask == other.mask
        return NotImplemented

    def __hash__(self):
        return hash(self.mask)

    def __len__(self):
        return self.mask.bit_count()

    def __iter__(self):
        return iter(self.vertices)

    def __repr__(self):
        return f"ParahoricTypeSpec({list(self.vertices)})"


IWAHORI = ParahoricTypeSpec(0)


class LocalIndex:
    """Decorated local Dynkin diagram of the group at one place, equal only to itself.

    `neighbours` is each vertex's neighbour bitmask and `aut_images` each
    realized automorphism's bit-image table, the bit of the image of each
    vertex.  `component_classes`, a connected vertex set's labels by its
    mask, is the memo `classify_component` fills; it dies with the index
    and stays out of its repr and copies.
    """

    __slots__ = ("group", "vertices", "edges", "marks", "hyperspecial", "realized_auts",
                 "neighbours", "aut_images", "component_classes")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, group, vertices, edges, marks, hyperspecial, realized_auts):
        neighbours = [0] * len(vertices)
        for e in edges:
            neighbours[e.u] |= 1 << e.v
            neighbours[e.v] |= 1 << e.u
        aut_images = tuple(tuple(1 << w for w in g) for g in realized_auts)
        for name, value in zip(self.__slots__, (group, vertices, edges, marks, hyperspecial,
                                                realized_auts, tuple(neighbours), aut_images,
                                                {})):
            object.__setattr__(self, name, value)

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return LocalIndex, tuple(getattr(self, name) for name in self.__slots__[:6])

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__[:6])
        return f"LocalIndex({fields})"

    @property
    def relative_rank(self):
        return len(self.vertices) - 1

    def check_proper(self, t):
        """The type of t, given as a type or as vertex ids, if proper here; else ImproperTypeError.

        Each vertex id is checked against the diagram before it becomes a
        bit, so no id, however large or negative, reaches a shift.  A type's
        mask is never negative and the vertices are 0..n-1, so a type whose
        mask is below the whole vertex set's is proper and returned as is.
        """
        if isinstance(t, ParahoricTypeSpec) and t.mask < (1 << len(self.vertices)) - 1:
            return t
        ids = set(t.vertices if isinstance(t, ParahoricTypeSpec) else t)
        if not ids <= set(self.vertices):
            shown = echo(f"ParahoricTypeSpec({sorted(ids)})", "type", str)
            raise ImproperTypeError(f"improper type: unknown vertices in {shown}")
        if len(ids) == len(self.vertices):
            raise ImproperTypeError("improper type: must omit at least one vertex")
        return ParahoricTypeSpec(sum(1 << v for v in ids))

    def orbit_masks(self, mask):
        """The masks of a proper type's images, one per realized automorphism.

        The automorphisms form a group, so these are the type's orbit, and
        two types are conjugate exactly when one's mask is among the other's.
        """
        vertices = _bits(mask)
        return [sum(map(bits.__getitem__, vertices)) for bits in self.aut_images]

    def proper_masks(self):
        """Masks of all proper types, in lexicographic order of their vertex tuples.

        The vertices are 0..n-1.  A tuple is followed by itself with the
        next vertex after its last appended or, when its last is n-1, by
        itself without n-1 and with its new last vertex moved up by one.
        """
        n = len(self.vertices)
        full, top = (1 << n) - 1, 1 << (n - 1)
        mask = 0
        while True:
            if mask != full:
                yield mask
            if mask & top:
                mask ^= top
                if not mask:
                    return
                mask += 1 << (mask.bit_length() - 1)
            else:
                mask |= 1 << mask.bit_length()

    def default_type(self):
        """Type {0} if split, else the smallest maximal type.

        The split default holds the affine vertex alone, so its quotient is
        A1 times a torus of rank n - 1 (dim 5 for split:B3).  It is not the
        hyperspecial type, which omits vertex 0: {1, ..., n}, of quotient
        the whole finite group (dim 21 for split:B3).
        """
        if self.group.form == "split":
            return ParahoricTypeSpec(1)
        return ParahoricTypeSpec((1 << self.relative_rank) - 1)

    def to_json(self):
        return {
            "vertices": [
                {"id": v, "mark": self.marks[v], "hyperspecial": self.hyperspecial[v]}
                for v in self.vertices
            ],
            "edges": [
                {"u": e.u, "v": e.v, "mult": e.mult, "arrow": e.arrow}
                for e in self.edges
            ],
            "realized_aut_order": len(self.realized_auts),
        }

    def to_dot(self):
        lines = [f'graph "{self.group.label}" {{']
        for v in self.vertices:
            shape = "doublecircle" if self.hyperspecial[v] else "circle"
            lines.append(f'  {v} [label="{v} ({self.marks[v]})", shape={shape}];')
        for e in self.edges:
            attrs = [f'label="{e.mult}"'] if e.mult > 1 else []
            if e.arrow is not None:
                head = "normal" if e.arrow == e.v else "none"
                tail = "normal" if e.arrow == e.u else "none"
                attrs += [f"arrowhead={head}", f"arrowtail={tail}", "dir=both"]
            lines.append(f"  {e.u} -- {e.v}" + (f" [{', '.join(attrs)}]" if attrs else "") + ";")
        lines.append("}")
        return "\n".join(lines)


def _edge(u, v, auv, avu):
    """Build a decorated edge from the two Cartan pairings (u against v-coroot)."""
    mult = auv * avu
    if abs(auv) > abs(avu):
        arrow = v  # pairing against v's coroot is large, so v is short
    elif abs(avu) > abs(auv):
        arrow = u
    else:
        arrow = None
    if u > v:
        u, v = v, u
    return Edge(u, v, mult, arrow)


def _split_affine_data(family, rank):
    """Vertices, decorated edges and marks of the split affine diagram.

    Vertex 0 is the root -theta, theta the highest root.  Its pairing
    against coroot j is -<theta, alpha_j^vee>, one sum over column j of the
    Cartan matrix.  theta is long and dominant, so where that is nonzero the
    pairing of alpha_j against the coroot of -theta is -1, or -2 in rank 1,
    where alpha_1 is theta.
    """
    A = roots.cartan_matrix(family, rank)
    theta = roots.highest_root(family, rank)
    n = rank
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if A[i][j] != 0:
                edges.append(_edge(i + 1, j + 1, A[i][j], A[j][i]))
    aj0 = -2 if n == 1 else -1
    for j in range(n):
        a0j = -sum(theta[i] * A[i][j] for i in range(n))
        if a0j != 0:
            edges.append(_edge(0, j + 1, a0j, aj0))
    marks = (1,) + theta
    return tuple(range(n + 1)), tuple(sorted(edges)), marks


def _edge_role(x, e):
    return 0 if e.arrow is None else (1 if e.arrow == x else 2)


def _vertex_invariants(vertices, edges, marks, hyperspecial):
    """Per-vertex class key: decorations plus incident edge shapes."""
    incident = {v: [] for v in vertices}
    for e in edges:
        incident[e.u].append((e.mult, _edge_role(e.u, e)))
        incident[e.v].append((e.mult, _edge_role(e.v, e)))
    return {
        v: (marks[v], hyperspecial[v], tuple(sorted(incident[v])))
        for v in vertices
    }


def _graph_automorphisms(vertices, edges, marks, hyperspecial):
    """All permutations preserving edges with decorations, marks and flags."""
    n = len(vertices)
    inv = _vertex_invariants(vertices, edges, marks, hyperspecial)
    candidates = {v: [w for w in vertices if inv[w] == inv[v]] for v in vertices}
    emap = {(e.u, e.v): e for e in edges}
    adj = {v: [] for v in vertices}
    for e in edges:
        adj[e.u].append((e.v, e.mult, _edge_role(e.u, e)))
        adj[e.v].append((e.u, e.mult, _edge_role(e.v, e)))
    order = sorted(vertices, key=lambda v: (len(candidates[v]), v))
    sigma = {}
    used = set()
    found = []

    def extend(k):
        if k == n:
            found.append(tuple(sigma[v] for v in vertices))
            return
        v = order[k]
        for w in candidates[v]:
            if w in used:
                continue
            ok = True
            for u, mult, role in adj[v]:
                if u not in sigma:
                    continue
                a, b = w, sigma[u]
                e = emap.get((a, b) if a < b else (b, a))
                if e is None or e.mult != mult or _edge_role(w, e) != role:
                    ok = False
                    break
            if ok:
                sigma[v] = w
                used.add(w)
                extend(k + 1)
                used.discard(w)
                del sigma[v]

    extend(0)
    return tuple(sorted(found))


def build_local_index(spec):
    """Construct the decorated affine diagram with its realized automorphisms."""
    if isinstance(spec, str):
        spec = GroupSpec.parse(spec)
    if spec.form == "split":
        vertices, edges, marks = _split_affine_data(spec.family, spec.rank)
        hyper = tuple(m == 1 for m in marks)
        if spec.family == "A":
            # adjoint action realizes exactly the rotations of the cycle
            n1 = spec.rank + 1
            auts = tuple(sorted(tuple((i + k) % n1 for i in range(n1)) for k in range(n1)))
        else:
            auts = _graph_automorphisms(vertices, edges, marks, hyper)
        return LocalIndex(spec, vertices, edges, marks, hyper, auts)
    data = twisted.TWISTED_INDICES[spec.twisted_index]
    vertices = tuple(range(data["vertex_count"]))
    edges = tuple(Edge(*e) for e in data["edges"])
    marks = data["marks"]
    hyper = tuple(False for _ in vertices)
    auts = _graph_automorphisms(vertices, edges, marks, hyper)
    return LocalIndex(spec, vertices, edges, marks, hyper, auts)


def _classify_component(comp, edges):
    """Finite type label(s) of one connected decorated component."""
    k = len(comp)
    if k == 1:
        return canonical_labels("A", 1)
    deg = {v: 0 for v in comp}
    for e in edges:
        deg[e.u] += 1
        deg[e.v] += 1
    mults = sorted(e.mult for e in edges)
    if mults[-1] == 1:
        forks = [v for v in comp if deg[v] == 3]
        if not forks and max(deg.values()) <= 2:
            return canonical_labels("A", k)
        if len(forks) == 1 and max(deg.values()) == 3:
            arms = sorted(_arm_lengths(forks[0], comp, edges))
            if arms[0] == arms[1] == 1:
                return canonical_labels("D", k)
            if arms == [1, 2, 2] and k == 6:
                return canonical_labels("E", 6)
            if arms == [1, 2, 3] and k == 7:
                return canonical_labels("E", 7)
            if arms == [1, 2, 4] and k == 8:
                return canonical_labels("E", 8)
    elif mults == [3] and k == 2:
        return canonical_labels("G", 2)
    elif mults.count(2) == 1 and mults[-1] == 2 and max(deg.values()) <= 2:
        if k == 2:
            return canonical_labels("B", 2)
        double = next(e for e in edges if e.mult == 2)
        leaves = [x for x in (double.u, double.v) if deg[x] == 1]
        if leaves:
            return canonical_labels("B" if double.arrow == leaves[0] else "C", k)
        if k == 4:
            return canonical_labels("F", 4)
    raise UnsupportedTypeError(f"unsupported type: unclassifiable component {sorted(comp)}")


def _arm_lengths(center, comp, edges):
    adj = {v: [] for v in comp}
    for e in edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    arms = []
    for start in adj[center]:
        length, prev, cur = 1, center, start
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    return arms


def induced_subdiagram(d, t):
    """Sorted component labels of the decorated subgraph induced on the type.

    The type, or list of vertex ids, is checked proper first.  Its mask is
    then split into connected components along `d.neighbours`, and each is
    classified by `classify_component`.
    """
    mask = d.check_proper(t).mask
    neighbours = d.neighbours
    labels = []
    while mask:
        comp = grown = mask & -mask
        while grown:
            reach = 0
            while grown:
                low = grown & -grown
                reach |= neighbours[low.bit_length() - 1]
                grown ^= low
            grown = reach & mask & ~comp
            comp |= grown
        mask ^= comp
        labels += classify_component(d, comp)
    labels.sort()
    return tuple(labels)


def classify_component(d, comp):
    """The label(s) of a connected proper vertex set's induced subdiagram, by its mask.

    The caller vouches that the set is connected and proper.  Each orbit
    of sets under the realized automorphisms is classified once per index:
    an automorphism keeps the decorated edges, so a set's images share its
    label(s), and `d.component_classes` holds them by each image's mask.
    A few dozen to a few hundred sets make up every type of a diagram.
    """
    classes = d.component_classes
    found = classes.get(comp)
    if found is None:
        edges = [e for e in d.edges if comp >> e.u & 1 and comp >> e.v & 1]
        found = _classify_component(set(_bits(comp)), edges)
        for image in d.orbit_masks(comp):
            classes[image] = found
    return found
