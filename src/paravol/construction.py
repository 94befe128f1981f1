"""Coherent collections of parahorics, covolume ratios, certified families.

A coherent collection fixes one parahoric type per place; its arithmetic
subgroup is the intersection of the chosen parahorics with the rational
points.  Covolumes are only ever compared between collections over the same
places, where the comparison is the exact product of local factor ratios,
optionally times indices of torsion-free congruence refinements.

Certifying N members over m places does O(N*m) local work.  Equal
covolume is transitive, so a family needs only each member's covolume to
equal member 0's: N-1 exact ratios, after which every pairwise ratio is
one.  A ratio walks the places once, taking each place's factor terms and
refinement indices there, and is tested as one integer comparison of its
unreduced numerator and denominator.  Its local factors are computed once
per distinct (place, member 0's type, other type).  A type's
realized-automorphism orbit, from `LocalIndex.orbit_masks`, is found once
per place, and the orbits met at each place are numbered.  Each member's
numbers are packed into one int, place 0 in the highest field, so the
witness place of two members is read off the bit length of their codes'
xor.  A witness is kept as the index of its place in a row per member i
over the later members j, so the N²-sized part is N(N-1)/2 ints and no
per-pair object.  `cli._certificate_chunks` is the one writer of
the v1 certificate text.  `certify` on the command line trusts nothing in a
certificate file: it recomputes the family from the file's members and
checks the file against that writer's text, chunk by chunk.  A file in
that layout has only its head, the members, decoded; any other file is
decoded whole and compared entry by entry with the expected text, decoded
one top-level key at a time.  A certificate keeps no ratio, as each is
one: the writer writes the all-ones matrix from the member count.

Member work is done once per distinct (place, type), not per member.
`build_family` checks one base collection and builds each member from
its types.  The members read from a file share one tuple of places, and
`make_collection` checks each distinct (local index, vertices) once over
all of them.  The writer keeps one assignment line per place and type.
No collection of the cyclic GC walks a decoded certificate:
`cli._certify_decoded` keeps the collector paused until it has dropped
the decoded file.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .diagram import IWAHORI, LABEL_ECHO_LIMIT, ParahoricTypeSpec, echo
from .errors import (
    CertificateError,
    DomainError,
    EqualCharacteristicError,
    FamilySizeError,
    IncomparableError,
    InvalidResidueError,
    SearchCapError,
    UnknownPlaceError,
)
from .parahoric import conjugate_types, equal_volume_rows, factor_terms
from .reductive import PrimalityBoundError, prime_power_base, quotient_descriptor

CITATIONS = (
    "equal covolume: the covolume ratio is the product over shared places of "
    "local volume factor ratios (Prasad's volume formula); the global constant "
    "and the shared residue exponents cancel",
    "index of a refinement: the index of a coherent congruence refinement is "
    "the product of the local indices, by strong approximation for simply "
    "connected groups",
    "non-conjugacy: at the witness place the two parahoric types lie in "
    "different orbits of the realized diagram automorphisms, so no conjugation "
    "can identify the collections",
    "from non-conjugate to non-isomorphic: strong (Mostow) rigidity upgrades "
    "non-conjugacy of the lattices to non-isomorphism of the quotient spaces",
)


def _id(pid):
    """A place id as an error message shows it: unquoted, or named by its length."""
    return echo(pid, "place id", str)


def _number(n):
    """An integer as an error message shows it: in full, or named by its digit count."""
    digits = _digits(n)
    return str(n) if digits <= LABEL_ECHO_LIMIT else f"a {digits}-digit number"


def _residue_base(q, pid=None):
    """The prime p with q = p^k; else InvalidResidueError, at place `pid` if given."""
    try:
        base = prime_power_base(q)
        if base is not None:
            return base
        why = f"{_number(q)} is not a prime power"
    except PrimalityBoundError:
        why = f"whether {_number(q)} is a prime power is past the engine's primality bound"
    at = "" if pid is None else f" at place {_id(pid)}"
    raise InvalidResidueError(f"invalid residue size{at}: {why}")


class Place(namedtuple("Place", "id q p local_index")):
    """A finite place: id, residue size q = p^k, characteristic p, local index."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` validates too

    def __new__(cls, id, q, p, local_index):
        base = _residue_base(q, id)  # a prime, so base == p proves p prime
        if base != p:
            raise InvalidResidueError(
                f"invalid residue size at place {_id(id)}: "
                f"{_number(q)} is not a power of {_number(p)}")
        return tuple.__new__(cls, (id, q, p, local_index))

    def key(self):
        return (self.id, self.q, self.p, self.local_index.group.label)


class CoherentCollection(namedtuple("CoherentCollection", "group places types refinements",
                                    defaults=((),))):
    """One parahoric type per place, plus the sorted ids of places refined to congruence kernels."""

    __slots__ = ()


def make_collection(group, places, overrides=None, refinements=(), checked=None):
    """Assemble a collection; absent places carry the diagram's default type.

    `overrides` maps place ids to types or vertex lists.  `checked` may be
    a dict that calls share.  It is keyed by what `check_proper` reads: a
    place's local index and the vertices given there, or None for the
    default type.  Each such key is then turned into a type and checked
    once over all the calls.  Unknown, repeated and equal-characteristic
    refinement places are reported in sorted-id order, each id's unknown
    check first.
    """
    places = tuple(places)
    by_id = {pl.id: pl for pl in places}
    if len(by_id) != len(places):
        raise DomainError("duplicate place ids in collection")
    overrides = overrides or {}
    for pid in overrides:
        if pid not in by_id:
            raise UnknownPlaceError(f"unknown place id: {_id(pid)}")
    checked = {} if checked is None else checked
    types = []
    for pl in places:
        t = overrides.get(pl.id)
        d = pl.local_index
        key = (d, t if t is None else tuple(t))
        found = checked.get(key)
        if found is None:
            found = checked[key] = d.check_proper(d.default_type() if t is None else t)
        types.append(found)
    refinements = tuple(sorted(refinements or ()))
    chars = {}
    for pid in refinements:
        if pid not in by_id:
            raise UnknownPlaceError(f"unknown place id: {_id(pid)}")
        p = by_id[pid].p
        if p in chars:
            if chars[p] == pid:
                raise DomainError(f"duplicate refinement place id: {_id(pid)}")
            raise EqualCharacteristicError(
                f"equal residue characteristic: places {_id(chars[p])} and {_id(pid)} share p={p}")
        chars[p] = pid
    return CoherentCollection(group, places, tuple(types), refinements)


def refinement_index(place, t):
    """Index of the congruence kernel of the parahoric inside the parahoric."""
    d = place.local_index
    desc = quotient_descriptor(d, t)
    codim = d.group.dimension() - desc.dim
    return place.q ** codim * desc.order_at(place.q)


def _check_comparable(a, b):
    if (a.group is not b.group and a.group.label != b.group.label
            or len(a.places) != len(b.places)):
        raise IncomparableError("incomparable collections")
    for pa, pb in zip(a.places, b.places):
        if pa is not pb and pa.key() != pb.key():
            raise IncomparableError("incomparable collections")
    # the ratio meets refinements only at the places, so one built by hand
    # with an id of no place would otherwise be dropped
    ids = {pl.id for pl in a.places}
    for pid in (*a.refinements, *b.refinements):
        if pid not in ids:
            raise UnknownPlaceError(f"unknown place id: {_id(pid)}")


def relative_covolume(a, b):
    """Exact covolume ratio covol(a)/covol(b) over the shared places.

    The ratio is the product of the local factor ratios at the places
    where the types differ, times the index of each refinement of a,
    over the index of each refinement of b.  A place refined on both
    sides with the same type contributes its index above and below, so it
    is skipped.  The integer numerator and denominator are accumulated
    and reduced once, at the end, into a `Fraction`.
    """
    return Fraction(*_covolume_terms(a, b, _place_terms))


def _place_terms(pl, ta, tb):
    return factor_terms(pl.local_index, ta, tb, pl.q)


def _covolume_terms(a, b, terms):
    """`relative_covolume` as (num, den), not reduced, with factor terms from terms(pl, ta, tb)."""
    _check_comparable(a, b)
    num = den = 1
    for pl, ta, tb in zip(a.places, a.types, b.types):
        same = ta.mask == tb.mask
        if not same:
            n, d = terms(pl, ta, tb)
            num *= n
            den *= d
        in_a, in_b = pl.id in a.refinements, pl.id in b.refinements
        if in_a and not (in_b and same):
            num *= refinement_index(pl, ta)
        if in_b and not (in_a and same):
            den *= refinement_index(pl, tb)
    return num, den


class FamilyCertificate(namedtuple("FamilyCertificate", "members witness_places citations",
                                   defaults=(CITATIONS,))):
    """Members of equal covolume and a non-conjugacy witness per member pair i < j.

    `witness_places` holds one row per member i but the last: the index,
    in the members' place order, of the witness place of each later
    member j, in order of j.  The witness of (i, j) at index k is that
    place and the types members i and j have there.  Indices are ints, as
    a family may have any number of places.  `cli._certificate_chunks`
    writes it as the v1 certificate text.
    """

    __slots__ = ()


def _digits(n):
    """Decimal digits of abs(n), without converting it to a string."""
    n = abs(n)
    if n == 0:
        return 1
    k = int(math.log10(n)) + 1  # a float estimate, off by at most one
    if n < 10 ** (k - 1):
        return k - 1
    return k + 1 if n >= 10 ** k else k


# The most members a family or a certificate may have.  A v1 certificate
# holds N² ratios and witnesses: at N = 512 (m = 9 places on split:B3,
# refined) it is 41 MB, and `certify` of a compact copy, decoded whole, took
# 0.94 s at a 285 MB peak; at N = 1,024 such a copy took 4.2 s and 1.04 GB.
MAX_FAMILY_MEMBERS = 512


def check_member_count(n, shown=None):
    """Refuse a family of n members past MAX_FAMILY_MEMBERS; the message names n as `shown`."""
    if n > MAX_FAMILY_MEMBERS:
        raise FamilySizeError(f"a family of {shown or n} members is past the bound of "
                              f"{MAX_FAMILY_MEMBERS} members")


# A ratio longer than this (numerator plus denominator digits) is described
# by its digit counts, so an error message stays a few lines long.
SHORT_RATIO_DIGITS = 40


def _unequal_covolume(i, j, a, b, ratio):
    """The error naming members i and j, where they differ and their ratio, a `Fraction`."""
    differ = []
    for pl, ta, tb in zip(a.places, a.types, b.types):
        what = []
        if ta != tb:
            what.append("type")
        if (pl.id in a.refinements) != (pl.id in b.refinements):
            what.append("refinement")
        if what:
            differ.append(f"{_id(pl.id)} ({', '.join(what)})")
    num, den = _digits(ratio.numerator), _digits(ratio.denominator)
    shown = (f"ratio {ratio}" if num + den <= SHORT_RATIO_DIGITS
             else f"a ratio with {num}-digit numerator and {den}-digit denominator")
    return CertificateError(
        f"not equal covolume: members {i} and {j} differ at places "
        f"{', '.join(differ)} and have {shown}")


def certify_family(members):
    """Check equal covolume and pairwise non-conjugacy; raise on failure.

    The ratio of member 0 to every other member is computed before any is
    tested, so an incomparable member is reported ahead of an unequal
    covolume.  Members share their types, so the factor terms of each
    distinct (place, member 0's type, other type) are computed once.  A
    ratio is one exactly when its unreduced numerator equals its
    denominator, so a `Fraction` is built only for a failure, which names
    members 0 and j for the first j whose ratio is not one; on success
    every pairwise ratio is one.  The witness for a pair is the first place
    where the two types differ and are not conjugate.

    The realized automorphisms form a group, so two types at a place are
    conjugate exactly when their orbits are equal, and each type is known
    by its orbit's least mask, computed once per place and type.  At each
    place the orbits met are numbered 0, 1, ... in order of appearance,
    and each member's numbers are packed into one int: fields of w bits,
    w the bit length of the largest number, place 0 in the highest.  The
    xor of two members' codes is zero exactly when no place separates
    them, and otherwise its bit length falls in the field of their first
    differing place, which `first` maps back to that place's index.  Row
    i is then one C-level pass over the later members' codes: xor, bit
    length, lookup.  A failure names the first pair, in (i, j) order, that
    no place separates.
    """
    members = tuple(members)
    if len(members) < 2:
        raise CertificateError("a family needs at least two members")
    # (place id, mask of member 0's type, other mask) -> their factor terms;
    # every member is checked comparable with member 0, so an id names one place
    memo = {}

    def terms(pl, ta, tb):
        key = (pl.id, ta.mask, tb.mask)
        found = memo.get(key)
        if found is None:
            found = memo[key] = _place_terms(pl, ta, tb)
        return found

    fractions = [_covolume_terms(members[0], m, terms) for m in members[1:]]
    for j, (num, den) in enumerate(fractions, 1):
        if num != den:
            raise _unequal_covolume(0, j, members[0], members[j], Fraction(num, den))
    types = [m.types for m in members]
    numbers = []  # per place, vertex mask -> the number of its orbit there
    for k, pl in enumerate(members[0].places):
        number = dict.fromkeys(ts[k].mask for ts in types)
        orbits = {}  # least mask of an orbit -> its number
        for mask in number:
            least = min(pl.local_index.orbit_masks(mask))
            number[mask] = orbits.setdefault(least, len(orbits))
        numbers.append(number)
    width = max((max(number.values()) for number in numbers), default=0).bit_length()
    codes = []
    for ts in types:
        code = 0
        for number, t in zip(numbers, ts):
            code = code << width | number[t.mask]
        codes.append(code)
    # bit length of two codes' xor -> index of the place whose field holds
    # its top bit; -1 for two equal codes
    first = [-1]
    for k in reversed(range(len(numbers))):
        first += [k] * width
    rows = []
    for i, code in enumerate(codes[:-1]):
        row = tuple(map(first.__getitem__, map(int.bit_length, map(code.__xor__, codes[i + 1:]))))
        if -1 in row:
            j = i + 1 + row.index(-1)
            raise CertificateError(f"no witness separating members {i} and {j}")
        rows.append(row)
    return FamilyCertificate(members, tuple(rows))


def build_family(group, places, family_ids, pairs=None, fallback_swap=False,
                 refine=None):
    """The 2^m (or fallback 2^(m//2)) coherent collections of equal covolume.

    family_ids names the places where members vary.  pairs optionally gives
    an explicit (t1, t2) per family place, and names no other place;
    otherwise the engine takes the first symbolic equal-volume pair of the
    diagram there.  With fallback_swap the family places are taken in
    consecutive twos with equal residue size and members swap a fixed
    non-conjugate type pair across each two, so pairs may not be given;
    ratios still cancel exactly.  refine names exactly two extra places for
    an identical torsion-free refinement of every member.  One base
    collection is validated; each member is the base with the family
    places retyped.  A family of more than MAX_FAMILY_MEMBERS members is
    refused before any pair search or member is built.
    """
    places = tuple(places)
    by_id = {pl.id: pl for pl in places}
    for pid in family_ids:
        if pid not in by_id:
            raise UnknownPlaceError(f"unknown place id: {_id(pid)}")
    if len(set(family_ids)) != len(family_ids):
        raise DomainError("duplicate family place ids")
    factors = len(family_ids) // 2 if fallback_swap else len(family_ids)
    check_member_count(2 ** factors, f"2^{factors}")
    if refine:
        if len(refine) != 2:
            raise DomainError(f"refine must name exactly two places, got {len(refine)}")
        for pid in refine:
            if pid not in by_id:
                raise UnknownPlaceError(f"unknown place id: {_id(pid)}")
            if pid in family_ids:
                raise DomainError(f"refinement place {_id(pid)} may not be a family place")
    pairs = dict(pairs or {})
    for pid in pairs:
        if pid not in by_id:
            raise UnknownPlaceError(f"unknown place id in pairs: {_id(pid)}")
        if pid not in family_ids:
            raise DomainError(f"pairs names place {_id(pid)}, which is not a family place")
        if fallback_swap:
            raise DomainError(
                f"pairs names place {_id(pid)}, but the fallback swap fixes its types")

    variations = []  # per factor of choices, its two {place id: type} dicts
    if fallback_swap:
        if len(family_ids) < 2:
            raise DomainError("fallback swap needs at least two family places")
        for a, b in zip(family_ids[::2], family_ids[1::2]):
            pa, pb = by_id[a], by_id[b]
            if pa.q != pb.q:
                raise DomainError(
                    f"fallback swap needs equal residue sizes, "
                    f"got {_number(pa.q)} at {_id(a)} and {_number(pb.q)} at {_id(b)}")
            t1, t2 = IWAHORI, pa.local_index.default_type()
            variations.append([{a: t1, b: t2}, {a: t2, b: t1}])
    else:
        first_rows = {}  # local index -> the first row of its pair search, or None
        for pid in family_ids:
            pl = by_id[pid]
            d = pl.local_index
            if pid in pairs:
                t1, t2 = (d.check_proper(t) for t in pairs[pid])
                _check_family_pair(d, t1, t2)
            else:
                if d not in first_rows:
                    try:
                        first_rows[d] = next(equal_volume_rows(d), None)
                    except SearchCapError as exc:
                        raise SearchCapError(
                            f"{exc}; name the two types at place {_id(pid)} in the "
                            f"request's pairs") from None
                if first_rows[d] is None:
                    raise DomainError(
                        f"no equal-volume pair of non-conjugate types at place {_id(pid)} "
                        f"({d.group.label}); try the two-place swap fallback")
                mask, _, t2s = first_rows[d]
                t1, t2 = ParahoricTypeSpec(mask), ParahoricTypeSpec(t2s[0])
            variations.append([{pid: t1}, {pid: t2}])

    base = make_collection(group, places, refinements=refine)
    slot = {pl.id: k for k, pl in enumerate(places)}
    members = []
    for bits in range(2 ** len(variations)):
        types = list(base.types)
        for k, choices in enumerate(variations):
            for pid, t in choices[bits >> k & 1].items():
                types[slot[pid]] = t
        members.append(CoherentCollection(group, base.places, tuple(types), base.refinements))
    return members


def _check_family_pair(d, t1, t2):
    if conjugate_types(d, t1, t2):
        raise DomainError(f"family pair {t1!r}, {t2!r} is conjugate")
    if quotient_descriptor(d, t1).volume_key != quotient_descriptor(d, t2).volume_key:
        raise DomainError(f"family pair {t1!r}, {t2!r} has unequal volume factors")
