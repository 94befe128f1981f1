"""Independent brute-force oracles used to freeze expected values.

Nothing in the oracles touches the engine's order formulas, subdiagram
classification or automorphism search; counts come from enumerating
matrices over small fields, permutations over small vertex sets and Weyl
group elements directly.

The root references, `length_factors`, `bilinear` and the two reference_*
functions after them, compute the highest root and the affine pairings the
long way: the highest-height root of the closed root system, and each
pairing with the highest root from the invariant bilinear form.  They
check the engine's closed forms.

`reference_order_coeffs` multiplies an order q^N * prod(q^d - 1) out as
an integer polynomial, N from the root closure: it checks the engine's
factored orders and the key they are compared by.

The references at the end are the pair search as it was written on vertex
tuples: orbits from a set of every type seen, components by breadth-first
search over vertex sets, and the sorted list of every pair, bucketed by
reference orders.  They check the engine's bitmask search.  They reuse the
engine's classifier of one connected component and its degree table,
which the oracles above check.

`witnesses` expands a certificate's witness rows, one place index per
member pair, into a tuple (i, j, place id, t_i, t_j) per pair i < j, in
(i, j) order.  `reference_certificate_json` is the v1 certificate as
plain decoded JSON, every list and dict built afresh from the
certificate's fields and those tuples: the streamed writer
`cli._certificate_chunks` must write its `json.dumps`.

`reference_prime_power_base` is the residue-size check by trial division
up to sqrt(q): exact at any size, and slow past about 10^12.  It checks the
engine's root extraction and Miller-Rabin test.

`reference_orbit` is a type's orbit as sorted vertex tuples, each image
mapped vertex by vertex: it checks the engine's one orbit computation,
`LocalIndex.orbit_masks`, on bit-image tables.  `proper_types` and the
collection lookups after it (`index_of`, `place`, `type_at`,
`assignment`) are conveniences that only tests use.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from paravol.diagram import ParahoricTypeSpec, _classify_component, _edge
from paravol.roots import cartan_matrix, fundamental_degrees, positive_roots


def det2(m, q):
    (a, b), (c, d) = m
    return (a * d - b * c) % q


def det3(m, q):
    (a, b, c), (d, e, f), (g, h, i) = m
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % q


def brute_sl_count(n, q):
    """Number of n x n matrices over the prime field F_q with determinant 1."""
    det = det2 if n == 2 else det3
    count = 0
    for entries in itertools.product(range(q), repeat=n * n):
        m = tuple(entries[i * n:(i + 1) * n] for i in range(n))
        if det(m, q) == 1:
            count += 1
    return count


def poly_mul(a, b):
    """Product of two integer polynomials, coefficients lowest first."""
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return out


def horner(coeffs, q):
    """The polynomial with these coefficients, lowest first, at q."""
    value = 0
    for c in reversed(coeffs):
        value = value * q + c
    return value


@lru_cache(maxsize=None)
def reference_order_coeffs(components, torus_rank):
    """Order of a reductive quotient over F_q multiplied out, lowest coefficient first.

    q^N for the positive roots of the components' closures, times q^d - 1
    for each of their fundamental degrees and q - 1 per torus rank.  B2
    has the roots of C2 with their lengths swapped; the Cartan matrices
    start B at rank 3.
    """
    coeffs = [1]
    degrees = [1] * torus_rank
    for c in components:
        family = "C" if (c.family, c.rank) == ("B", 2) else c.family
        coeffs = poly_mul(coeffs, [0] * len(positive_roots(family, c.rank)) + [1])
        degrees += fundamental_degrees(c.family, c.rank)
    for d in degrees:
        coeffs = poly_mul(coeffs, [-1] + [0] * (d - 1) + [1])
    return tuple(coeffs)


def brute_force_decorated_autos(d):
    """All vertex permutations preserving marks, flags and decorated edges."""
    emap = {(e.u, e.v): e for e in d.edges}
    found = []
    for perm in itertools.permutations(d.vertices):
        if any(
            d.marks[perm[v]] != d.marks[v] or d.hyperspecial[perm[v]] != d.hyperspecial[v]
            for v in d.vertices
        ):
            continue
        ok = True
        for e in d.edges:
            a, b = perm[e.u], perm[e.v]
            img = emap.get((a, b) if a < b else (b, a))
            want = None if e.arrow is None else perm[e.arrow]
            if img is None or img.mult != e.mult or img.arrow != want:
                ok = False
                break
        if ok:
            found.append(perm)
    return sorted(found)


@lru_cache(maxsize=None)
def length_factors(family, rank):
    """Half squared lengths c_j (smallest integers) with A[i][j]*c[j] symmetric."""
    A = cartan_matrix(family, rank)
    n = rank
    c = [None] * n
    c[0] = Fraction(1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if i != j and A[i][j] != 0 and c[j] is None:
                c[j] = c[i] * A[j][i] / A[i][j]
                queue.append(j)
    assert all(x is not None for x in c), "diagram must be connected"
    scale = lcm(*(x.denominator for x in c))
    ints = [int(x * scale) for x in c]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def bilinear(x, y, family, rank):
    """Invariant pairing (x, y) with short roots of squared length 2*min(c)."""
    A = cartan_matrix(family, rank)
    c = length_factors(family, rank)
    n = rank
    return sum(x[i] * y[j] * A[i][j] * c[j] for i in range(n) for j in range(n))


def reference_highest_root(family, rank):
    """The positive root of greatest height, which must be unique."""
    roots = positive_roots(family, rank)
    top = max(roots, key=sum)
    assert [sum(r) for r in roots].count(sum(top)) == 1, "highest root must be unique"
    return top


def reference_split_affine_edges(family, rank):
    """Sorted decorated edges of the split affine diagram, pairings from `bilinear`.

    Vertex 0 is -theta: it pairs against coroot j as -2(theta, alpha_j)/(alpha_j, alpha_j),
    and alpha_j against its coroot as -2(alpha_j, theta)/(theta, theta).
    """
    A = cartan_matrix(family, rank)
    theta = reference_highest_root(family, rank)
    n = rank
    simple = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    edges = [_edge(i + 1, j + 1, A[i][j], A[j][i])
             for i in range(n) for j in range(i + 1, n) if A[i][j] != 0]
    theta_norm = bilinear(theta, theta, family, rank)
    for j, alpha in enumerate(simple):
        form = bilinear(alpha, theta, family, rank)
        a0j = Fraction(-2 * form, bilinear(alpha, alpha, family, rank))
        if a0j == 0:
            continue
        aj0 = Fraction(-2 * form, theta_norm)
        assert a0j.denominator == aj0.denominator == 1
        edges.append(_edge(0, j + 1, int(a0j), int(aj0)))
    return tuple(sorted(edges))


WEYL_CAP = 60_000


def cartan_from_edges(d, vertices):
    """Integer Cartan matrix A[i][j] = <alpha_i, alpha_j coroot> of the vertices.

    Read off the decorated edges alone: an edge of multiplicity m with its
    arrow on the short root s has A[long][s] = -m and A[s][long] = -1; an
    edge without arrow has both entries -sqrt(m).
    """
    pos = {v: k for k, v in enumerate(vertices)}
    A = [[2 if i == j else 0 for j in range(len(vertices))] for i in range(len(vertices))]
    for e in d.edges:
        if e.u not in pos or e.v not in pos:
            continue
        u, v = pos[e.u], pos[e.v]
        if e.arrow is None:
            root = {1: 1, 4: 2}[e.mult]
            A[u][v] = A[v][u] = -root
        else:
            short, long_ = (u, v) if e.arrow == e.u else (v, u)
            A[long_][short] = -e.mult
            A[short][long_] = -1
    return tuple(tuple(row) for row in A)


@lru_cache(maxsize=None)
def weyl_length_counts(cartan):
    """Number of elements of each length in the Weyl group, or None past the cap.

    Breadth first over the orbit of rho = (1, ..., 1) in fundamental weight
    coordinates, which is free, so its points are the group's elements.  The
    simple reflection s_i maps a weight l to l_j - l_i * A[i][j], and it
    lengthens w exactly when l_i > 0 at l = w(rho), so the images with
    l_i > 0 of one level make up the next.
    """
    n = len(cartan)
    links = [[(j, cartan[i][j]) for j in range(n) if cartan[i][j]] for i in range(n)]
    level = {(1,) * n}
    counts = []
    total = 0
    while level:
        counts.append(len(level))
        total += len(level)
        if total > WEYL_CAP:
            return None
        grown = set()
        for lam in level:
            for i in range(n):
                if lam[i] > 0:
                    image = list(lam)
                    for j, a in links[i]:
                        image[j] -= lam[i] * a
                    grown.add(tuple(image))
        level = grown
    return tuple(counts)


def _components(cartan):
    """Vertex index lists of the connected components of a Cartan matrix.

    Each is listed depth first from a vertex of least degree, so that the
    chains of a cycle read the same matrix wherever they sit on it.
    """
    n = len(cartan)
    links = [[j for j in range(n) if j != i and cartan[i][j]] for i in range(n)]
    left = set(range(n))
    comps = []
    while left:
        stack = [min(left, key=lambda i: (len(links[i]), i))]
        comp = []
        while stack:
            i = stack.pop()
            if i in left:
                left.discard(i)
                comp.append(i)
                stack.extend(j for j in links[i] if j in left)
        comps.append(comp)
    return comps


def parabolic_length_counts(d, t):
    """Length counts of W_J for the type's vertex set J, or None past the cap.

    W_J is the product of the Weyl groups of its connected components, and
    length adds over the factors, so the counts are the convolution of the
    factors' counts.  Each factor is enumerated once per process, up to
    WEYL_CAP elements.
    """
    cartan = cartan_from_edges(d, t.vertices)
    counts = [1]
    for comp in _components(cartan):
        block = tuple(tuple(cartan[i][j] for j in comp) for i in comp)
        factor = weyl_length_counts(block)
        if factor is None:
            return None
        product = [0] * (len(counts) + len(factor) - 1)
        for a, x in enumerate(counts):
            for b, y in enumerate(factor):
                product[a + b] += x * y
        counts = product
    return counts


def poincare_value(counts, q):
    """W(q) = sum over w of q^length(w), from the counts per length."""
    return sum(c * q ** k for k, c in enumerate(counts))


def reference_orbit_representatives(d):
    """Least vertex tuple of each realized-automorphism orbit of proper types, in order.

    Every proper type is a sorted tuple, met in lexicographic order; the
    images of each new representative go into a set of the tuples seen.
    """
    n = len(d.vertices)
    types = sorted(tuple(v for v in d.vertices if mask >> v & 1) for mask in range(2 ** n - 1))
    seen = set()
    reps = []
    for t in types:
        if t in seen:
            continue
        seen.update(tuple(sorted(g[v] for v in t)) for g in d.realized_auts)
        reps.append(t)
    return reps


def reference_component_labels(d, t):
    """Sorted component labels of the subdiagram induced on the vertex tuple t, by BFS."""
    adj = {v: [] for v in t}
    edges = [e for e in d.edges if e.u in adj and e.v in adj]
    for e in edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    seen = set()
    labels = []
    for v in t:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            for b in adj[stack.pop()]:
                if b not in comp:
                    comp.add(b)
                    stack.append(b)
        seen |= comp
        labels.extend(_classify_component(comp, [e for e in edges if e.u in comp]))
    return tuple(sorted(labels))


def reference_pairs(d):
    """Every pair of representatives with equal reference orders, sorted, as tuples.

    An order polynomial is monic of the quotient's dimension, so equal
    orders are equal volume factors.
    """
    buckets = {}
    for t in reference_orbit_representatives(d):
        labels = reference_component_labels(d, t)
        torus_rank = d.relative_rank - sum(c.rank for c in labels)
        buckets.setdefault(reference_order_coeffs(labels, torus_rank), []).append(t)
    return sorted(pair for reps in buckets.values()
                  for pair in itertools.combinations(sorted(reps), 2))


def witnesses(cert):
    """(i, j, place id, t_i, t_j) per member pair i < j, read off the certificate's witness rows."""
    members = cert.members
    return tuple((i, j, members[0].places[k].id, members[i].types[k], members[j].types[k])
                 for i, row in enumerate(cert.witness_places) for j, k in enumerate(row, i + 1))


def reference_certificate_json(cert):
    """The v1 certificate of a `FamilyCertificate`, as the JSON value it encodes."""
    first = cert.members[0]
    return {
        "group": first.group.label,
        "places": [{"id": pl.id, "q": pl.q, "p": pl.p, "index": pl.local_index.group.label}
                   for pl in first.places],
        "members": [{"assignment": {pl.id: list(t.vertices) for pl, t in zip(m.places, m.types)},
                     "refinements": list(m.refinements)}
                    for m in cert.members],
        "ratios": [[{"num": r.rational.numerator, "den": r.rational.denominator,
                     "half_exponents": {}} for r in row]
                   for row in cert.ratios],
        "witnesses": [{"pair": [i, j], "place": pid, "t1": list(t1.vertices),
                       "t2": list(t2.vertices)}
                      for i, j, pid, t1, t2 in witnesses(cert)],
        "citations": list(cert.citations),
    }


def reference_prime_power_base(q):
    """The prime p with q = p^k, or None if q is not a prime power, by trial division."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            m = q
            while m % p == 0:
                m //= p
            return p if m == 1 else None
        p += 1
    return q  # q itself prime


def reference_orbit(d, t):
    """Sorted vertex tuples of the images of the type t under the realized automorphisms."""
    t = d.check_proper(t)
    return sorted({tuple(sorted(g[v] for v in t.vertices)) for g in d.realized_auts})


def proper_types(d):
    """All proper types of the index d, in lexicographic vertex-tuple order."""
    return [ParahoricTypeSpec(mask) for mask in d.proper_masks()]


def index_of(coll, pid):
    """Position of the place with id pid in the collection."""
    return [pl.id for pl in coll.places].index(pid)


def place(coll, pid):
    return coll.places[index_of(coll, pid)]


def type_at(coll, pid):
    return coll.types[index_of(coll, pid)]


def assignment(coll):
    """The collection's {place id: vertex list}."""
    return {pl.id: list(t.vertices) for pl, t in zip(coll.places, coll.types)}
