"""Local (affine) Dynkin diagrams, parahoric types, realized automorphisms.

Vertices of a split local index are numbered 0 (the extra affine vertex)
and 1..n (the finite simple roots in Bourbaki order).  A parahoric type is
a proper subset of the vertex set, and `ParahoricTypeSpec` is an int, its
vertex mask (bit v for vertex v); the empty type is the Iwahori.  Two types are conjugate when
they lie in one orbit of the realized diagram automorphisms:
`LocalIndex.orbit_masks` maps a mask through one bit-image table per
automorphism, and the pair search (`parahoric.orbit_representatives`),
which lists the proper types' masks itself behind its vertex cap, reads
images off two `subset_table`s of it, one per byte of the mask.
A type's induced subdiagram is split into connected vertex sets
(`induced_subdiagram`), and each set is classified once per orbit and
index, in the one memo `LocalIndex.component_classes`
(`classify_component`): a proper subdiagram of an affine diagram is of
finite type, so its vertex count, its degrees within the set (read off
`LocalIndex.neighbours`) and its one multiple edge, if any, name it.
The realized automorphisms of split type A are the cycle's rotations.
Every other diagram is a tree, and its full decorated automorphism group
is found by mapping the vertices in a breadth-first order, each to a
neighbour of its parent's image along an edge of the same shape
(`_graph_automorphisms`).
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


class ParahoricTypeSpec(int):
    """A parahoric type: its vertex mask, bit v set when vertex v is in the type.

    It equals and hashes as the mask.  `vertices`, the sorted vertex tuple,
    is derived from the mask.  A list of vertex ids from outside becomes a
    type through `LocalIndex.check_proper`.
    """

    __slots__ = ()

    def __new__(cls, mask):
        mask = index(mask)
        if mask < 0:
            raise ValueError(f"a vertex mask is not negative, got {mask}")
        return int.__new__(cls, mask)

    @property
    def vertices(self):
        return _bits(self)

    def __repr__(self):
        return f"ParahoricTypeSpec({list(self.vertices)})"


IWAHORI = ParahoricTypeSpec(0)


class LocalIndex:
    """Decorated local Dynkin diagram of the group at one place, equal only to itself.

    `neighbours` is each vertex's neighbour bitmask and `aut_images` each
    realized automorphism's bit-image table, the bit of the image of each
    vertex.  `component_classes`, a connected vertex set's label by its
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
        if isinstance(t, ParahoricTypeSpec) and t < (1 << len(self.vertices)) - 1:
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


def _graph_automorphisms(vertices, edges, marks, hyperspecial):
    """All permutations preserving edges with decorations, marks and flags, sorted.

    Every diagram searched is a tree (type A's cycle takes its rotations
    instead), with n - 1 edges on n vertices.  A bijection of the vertices
    that keeps marks and flags and maps the edge from each vertex to its
    parent, in a breadth-first order from vertex 0, to an edge of the same
    shape maps the n - 1 edges to n - 1 distinct edges, so onto all of them:
    it is an automorphism.  The search maps vertex 0 to each vertex in turn
    and then each later vertex to an unused neighbour of its parent's image.
    """
    assert len(edges) == len(vertices) - 1
    shape = {v: {} for v in vertices}  # shape[u][v]: the edge u-v as seen from u
    for e in edges:
        shape[e.u][e.v] = (e.mult, e.arrow == e.u, e.arrow == e.v)
        shape[e.v][e.u] = (e.mult, e.arrow == e.v, e.arrow == e.u)
    order, parent = [vertices[0]], {vertices[0]: None}
    for v in order:
        for u in shape[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    image = {}
    found = []

    def extend(k):
        if k == len(order):
            found.append(tuple(image[v] for v in vertices))
            return
        v = order[k]
        p = parent[v]
        near = vertices if p is None else shape[image[p]]
        for w in near:
            if (w not in image.values() and marks[w] == marks[v]
                    and hyperspecial[w] == hyperspecial[v]
                    and (p is None or near[w] == shape[p][v])):
                image[v] = w
                extend(k + 1)
                del image[v]

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


def _component_label(d, comp):
    """The label of a connected proper vertex set's induced subdiagram, by its mask.

    Every proper subdiagram of an affine diagram is of finite type, so the
    set's degrees and its one multiple edge, if any, name it.  Without a
    multiple edge it is a path (A), or has a branch vertex with two or
    three one-vertex arms (D) or one (E6, E7 or E8).  With one it is G2
    when the edge is triple, B2 on two vertices, B or C when an end of the
    double edge is a leaf, by which end is short, and F4 otherwise.
    """
    k = comp.bit_count()
    degree = {v: (d.neighbours[v] & comp).bit_count() for v in _bits(comp)}
    multiple = [e for e in d.edges if e.mult > 1 and comp >> e.u & 1 and comp >> e.v & 1]
    if multiple:
        (e,) = multiple
        if e.mult == 3:
            family = "G"
        elif k == 2:
            family = "B"
        elif degree[e.u] == 1 or degree[e.v] == 1:
            family = "B" if degree[e.arrow] == 1 else "C"
        else:
            family = "F"
    else:
        branch = [v for v, n in degree.items() if n == 3]
        if not branch:
            family = "A"
        else:
            arms = [u for u in _bits(d.neighbours[branch[0]] & comp) if degree[u] == 1]
            family = "D" if len(arms) > 1 else "E"
    return FiniteTypeLabel(family, k)


def induced_subdiagram(d, t):
    """Sorted component labels of the decorated subgraph induced on the type.

    The type, or list of vertex ids, is checked proper first.  Its mask is
    then split into connected components along `d.neighbours`, and each is
    classified by `classify_component`.
    """
    mask = d.check_proper(t)
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
        labels.append(classify_component(d, comp))
    return tuple(sorted(labels))


def classify_component(d, comp):
    """The label of a connected proper vertex set's induced subdiagram, by its mask.

    The caller vouches that the set is connected and proper.  Each orbit
    of sets under the realized automorphisms is classified once per index:
    an automorphism keeps the decorated edges, so a set's images share its
    label, and `d.component_classes` holds it by each image's mask.
    A few dozen to a few hundred sets make up every type of a diagram.
    """
    classes = d.component_classes
    found = classes.get(comp)
    if found is None:
        found = _component_label(d, comp)
        for image in d.orbit_masks(comp):
            classes[image] = found
    return found
