"""Deciding which polynomials are realizable as fixed-point data.

A monomial is the sorted tuple of its factors (see repalg).  A degree-n
polynomial of faithful monomials is realizable iff for every
nonzero functional rho, the monomials divisible by rho split into groups
of constant rho-multiplicity and constant restriction class to ker rho,
and in every group of multiplicity c, for every multiset s of fewer than
c functionals, the sum over members m of sub_multiset_multiplicity(m, s)
is even.  The same constraints, linearized over all faithful monomials,
give the realizable space as a GF(2) nullspace.

check_membership and build_constraint_system share one parity kernel,
odd_codes(factor_counts(m), rho, k): the codes of the odd witnesses of
m's group under rho, those that avoid rho and are smaller than m's
rho-multiplicity.  parity_profile lists them for each factor rho of m;
the build reads rho = 1's alone.  It rests on four facts:

- Lucas's theorem: C(c, j) is odd iff j & ~c == 0.  So the s with an
  odd sub_multiset_multiplicity(m, s) are listed directly, by taking a
  submask of m's count of each distinct factor.
- Only witnesses that avoid rho are needed.  The members of a group share
  rho-multiplicity c, so C(m, s + rho^j) = C(c, j) * C(m, s) for every
  rho-free s: the row of s + rho^j is empty or the row of s, and a
  violating s + rho^j comes with the smaller violating s.
- The class is the restriction to ker rho: f -> f restricted to ker rho
  is linear with kernel {0, rho}, so a factor restricts to 0 exactly
  when it is rho, and the class's zeros count the rho-multiplicity.
  Every caller keys it by its closed form over ker rho's canonical
  basis, repalg.kernel_class: with q the lowest set bit of rho, f
  restricts to f + rho when bit q of f is set, else to f, with bit q
  squeezed out (f >> 1 at rho = 1).  It needs no rank, no table and no
  cache; the reference restriction_class restricts over kernel_basis.
- The code of s = (s_1 <= ... <= s_L) over rank k is a leading 1 followed
  by s_1, ..., s_L, k bits each.  Codes of longer s are larger, so
  numeric order on codes is (len(s), s) order.

The build enumerates only the prefix, the faithful monomials holding 1,
and files only rho = 1's rows, the seeds; the other rows are their
Singer translates.  A prefix monomial that holds 1 once is filed under
its class and code 1 alone, without its factor counts, as odd_codes
lists only the empty witness at multiplicity 1.  No translate repeats a
row, so the rows number 2^k - 1 times the seeds (ConstraintSystem, with
the proof).  The dimension reads the prefix and the seeds alone: it
ranks a GF(2) basis of the seeds, found group by group as seeds of
different groups share no index, through the prefix's Singer orbit
coordinates (singer_coordinates, gf2.block_rank).  A dropped seed is a
sum of kept ones, so it lies in their span in every block.  The basis
and in_nullspace read every row, the seeds and their translates over
the full list and its permutation, made when read.

check_membership reads each monomial's (group, odd witness) pairs as
one int with a bit per pair, from the table of its shape (n, k).  The
table numbers that shape's distinct (rho, multiplicity, class, code)
pairs in first-seen order and keeps the bit -> pair list, so a profile
is only as wide as its shape's pair count.  A polynomial is accepted iff
the XOR of its monomials' profiles, folded in one pass, is 0.  Otherwise
the rejected certificate keeps the folded int, the table's pairs list
and the polynomial, and decodes its violation when first read: the set
bits are peeled off from the top and decoded to their pairs, and the
least of these is the violation.  Tuples compare field by field and
every class of a polynomial has its degree as length, so tuple order is
the certificate's (rho, multiplicity, class, (len(s), s)) order, which
bit order is not.  A verdict that starts with _PROFILE_BOUND profile
bits stored drops all tables, then reads only the one it took, so no
verdict mixes numberings; a lock covers only new pairs' numbering.  The
pairs list is append-only and a drop makes new tables with new lists,
so a certificate held across drops keeps its list, not its table, and
still decodes through its own numbering.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from functools import cached_property, lru_cache, reduce
from operator import and_, xor
from typing import NamedTuple

from z2bord import gf2
from z2bord.gf2 import (
    Frozen, InputError, ResourceLimitError, from_bits, nullspace, set_bits, vec_str,
)
from z2bord.repalg import (
    Polynomial, images, is_faithful, kernel_class, render_monomial, restrict,
)


def kernel_basis(rho: int, k: int) -> tuple[int, ...]:
    """Canonical ordered basis of ker rho (the RREF basis rows)."""
    return nullspace([rho], k)


@lru_cache(maxsize=None)
def restriction_class(m: tuple[int, ...], rho: int, k: int) -> tuple[int, ...]:
    """Restriction of the rank-k monomial m to ker rho, over rank k-1."""
    return restrict(m, kernel_basis(rho, k), k)


class Group(NamedTuple):
    """Monomials sharing a rho-multiplicity and a ker-rho restriction class."""

    multiplicity: int
    restriction: tuple[int, ...]  # over rank k-1
    members: frozenset[tuple[int, ...]]


class RhoDecomposition(NamedTuple):
    rho: int
    groups: tuple[Group, ...]


class Violation(NamedTuple):
    rho: int
    multiplicity: int
    restriction: tuple[int, ...]  # over rank k-1
    witness: tuple[int, ...]  # the multiset S with odd parity sum

    def lines(self, k: int) -> list[str]:
        """The rho, multiplicity and witness lines that check prints,
        functionals written as rank-k bit-strings."""
        witness = " / ".join(vec_str(g, k) for g in self.witness) or "(empty)"
        return [f"rho {vec_str(self.rho, k)}", f"multiplicity {self.multiplicity}",
                f"witness {witness}"]


class MembershipCertificate(Frozen):
    """The verdict on polynomial: its violation when rejected, and when
    accepted its decompositions, built from polynomial when first read.
    A rejection from check_membership keeps the folded odd bits, the
    pairs list of the table it read and its polynomial, and decodes its
    violation when first read; it holds that list alive, not the table,
    so a later drop never renumbers it.  Certificates compare, hash and
    print by accepted and violation, without their polynomial."""

    _fields = ("accepted", "violation")

    # Its own constructor, run once per accepted verdict: polynomial is not a field; two default.
    def __init__(self, accepted: bool, violation: Violation | None = None,
                 polynomial: Polynomial | None = None):
        d = self.__dict__
        d["accepted"] = accepted
        d["violation"] = violation
        d["polynomial"] = polynomial

    @classmethod
    def _rejected(cls, odd: int, pairs: list[tuple], polynomial: Polynomial):
        """check_membership's rejection of polynomial, whose monomials'
        profiles XOR to odd, their bits numbering pairs; undecoded."""
        self = cls.__new__(cls)
        d = self.__dict__
        d["accepted"] = False
        d["polynomial"] = polynomial
        d["_odd"] = odd
        d["_pairs"] = pairs
        return self

    def _values(self) -> tuple:  # violation may not be decoded yet
        return self.accepted, self.violation

    @cached_property
    def violation(self) -> Violation:
        """Stored by the constructor, None when accepted; a rejection from
        check_membership decodes it here when first read, as the least
        pair of its odd bits (module docstring)."""
        odd, pairs, found = self._odd, self._pairs, []
        while odd:
            top = odd.bit_length() - 1
            found.append(pairs[top])
            odd ^= 1 << top
        rho, mult, cls, code = min(found)
        return Violation(rho, mult, cls, submultiset(code, self.polynomial.k))

    @cached_property
    def decompositions(self) -> tuple[RhoDecomposition, ...]:
        """One decomposition per rho that divides some monomial, in
        increasing rho order, its groups in (multiplicity, class) order;
        () when rejected."""
        if not self.accepted:
            return ()
        members: defaultdict[tuple, list[tuple[int, ...]]] = defaultdict(list)
        for m in self.polynomial.monomials:
            for rho, c in factor_counts(m).items():
                members[rho, c, kernel_class(m, rho)].append(m)
        by_rho: defaultdict[int, list[Group]] = defaultdict(list)
        for (rho, mult, cls), ms in sorted(members.items()):
            by_rho[rho].append(Group(mult, cls, frozenset(ms)))
        return tuple(RhoDecomposition(rho, tuple(gs)) for rho, gs in by_rho.items())


def decompose_for_rho(p: Polynomial, rho: int) -> RhoDecomposition:
    """Finest grouping of the rho-divisible support by (multiplicity, class)."""
    if rho == 0:
        raise InputError("rho must be nonzero")
    buckets: dict[tuple[int, tuple[int, ...]], set[tuple[int, ...]]] = {}
    for m in p.monomials:
        mult = m.count(rho)
        if mult:
            buckets.setdefault((mult, restriction_class(m, rho, p.k)), set()).add(m)
    groups = (Group(mult, cls, frozenset(members))
              for (mult, cls), members in sorted(buckets.items()))
    return RhoDecomposition(rho, tuple(groups))


def submultiset(code: int, k: int) -> tuple[int, ...]:
    """The sorted sub-multiset with this code (module docstring)."""
    mask = (1 << k) - 1
    s = []
    while code > 1:
        s.append(code & mask)
        code >>= k
    return tuple(reversed(s))


def factor_counts(m: tuple[int, ...]) -> dict[int, int]:
    """Each distinct factor of m with its count, in factor order."""
    counts: dict[int, int] = {}
    for f in m:
        counts[f] = counts.get(f, 0) + 1
    return counts


def parity_profile(m: tuple[int, ...], k: int) -> tuple:
    """(rho, multiplicity, codes) for each distinct factor rho of the
    sorted rank-k monomial m, in factor order: codes are
    odd_codes(factor_counts(m), rho, k).  The caller keys m's class itself
    (module docstring)."""
    counts = factor_counts(m)
    return tuple([(rho, c, odd_codes(counts, rho, k)) for rho, c in counts.items()])


def odd_codes(counts: dict[int, int], rho: int, k: int) -> tuple[int, ...]:
    """The odd sub-multisets of m that avoid rho and have size below
    c = counts[rho], in increasing order, counts being m's factor counts
    in factor order: m adds 1 to the parity sum of exactly these rho-free
    witnesses in its group.  At c = 1 that is the empty multiset alone, at
    c = 2 also each other factor of odd count; otherwise each is a product
    of submasks, one per other factor, and every code is below 1 << k * c."""
    c = counts[rho]
    if c == 1:
        return (1,)
    if c == 2:  # rho's own count is even, so it lists no rho
        return (1, *[1 << k | f for f, cf in counts.items() if cf & 1])
    below = 1 << k * c  # the codes of s smaller than c
    listed = [1]
    for f, cf in counts.items():
        if f == rho:
            continue
        runs = []  # (shift, f repeated j times) for each nonzero submask j of cf
        j = cf
        while j:
            runs.append((j * k, f * ((1 << j * k) - 1) // ((1 << k) - 1)))
            j = (j - 1) & cf
        listed += [new for code in listed for shift, run in runs
                   if (new := code << shift | run) < below]
    return tuple(sorted(listed))


_PROFILE_BOUND = 1 << 29  # bits of the profiles in all tables; (6,4) takes 4.3e8-5.0e8
_profile_bits = 0  # since the last drop; updated unlocked, so a race only shifts a drop
_numbering_lock = threading.Lock()


class _Profiles(dict):
    """The table of one shape (n, k): entry m is the int with a bit set per
    (rho, multiplicity, class, code) pair of parity_profile(m, k), or None
    (not stored) when m is not faithful.  ids numbers the pairs in
    first-seen order and pairs lists them by bit; a new pair is listed
    before its bit is published, so every bit of a profile decodes."""

    def __init__(self, k: int):  # an empty dict, as dict.__new__ made it
        self.k = k
        self.ids: dict[tuple, int] = {}
        self.pairs: list[tuple] = []

    def __missing__(self, m: tuple[int, ...]) -> int | None:
        global _profile_bits
        if not is_faithful(m, self.k):
            return None
        ids, pairs = self.ids, self.pairs
        profile = 0
        for rho, c, codes in parity_profile(m, self.k):
            group = (rho, c, kernel_class(m, rho))
            for code in codes:
                pair = group + (code,)
                bit = ids.get(pair)
                if bit is None:
                    with _numbering_lock:
                        bit = ids.get(pair)
                        if bit is None:  # not numbered meanwhile elsewhere
                            pairs.append(pair)
                            bit = ids[pair] = len(pairs) - 1
                profile |= 1 << bit
        self[m] = profile
        _profile_bits += profile.bit_length()
        return profile


_profiles: dict[tuple[int, int], _Profiles] = {}


def require_faithful(p: Polynomial) -> Polynomial:
    """p, or InputError naming the smallest non-faithful monomial of p."""
    bad = [m for m in p.monomials if not is_faithful(m, p.k)]
    if bad:
        raise InputError(f"monomial {render_monomial(min(bad), p.k)} is not faithful")
    return p


def check_membership(p: Polynomial) -> MembershipCertificate:
    """Certificate-producing test for realizability of p (see the module
    docstring).  A None profile in the fold means a monomial that is not
    faithful, named by require_faithful.  The least decoded pair holds no
    rho in its witness; the lowest bit is only the first pair seen."""
    global _profile_bits
    if _profile_bits >= _PROFILE_BOUND:
        _profiles.clear()
        _profile_bits = 0
    table = _profiles.get((p.n, p.k))
    if table is None:
        table = _profiles.setdefault((p.n, p.k), _Profiles(p.k))
    try:
        odd = reduce(xor, map(table.__getitem__, p.monomials), 0)
    except TypeError:  # a None profile: a monomial that is not faithful
        require_faithful(p)
        raise
    if not odd:
        return MembershipCertificate(True, polynomial=p)
    return MembershipCertificate._rejected(odd, table.pairs, p)


_ENUM_BOUNDS = (8, 4)  # max degree, max rank


def enumerate_faithful_monomials(n: int, k: int,
                                 start: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
    """All degree-n faithful monomials over rank k that begin with the
    sorted factors start, in lexicographic order: a block of the full
    list, its first one for start (1,).  None when 0 < n < k, as n factors
    span rank at most n."""
    if n < 0 or k < 1:
        raise InputError("need n >= 0 and k >= 1")
    if 0 < n < k:
        return []
    if n > _ENUM_BOUNDS[0] or k > _ENUM_BOUNDS[1]:
        raise ResourceLimitError(
            f"faithful-monomial enumeration bounded by degree {_ENUM_BOUNDS[0]}, "
            f"rank {_ENUM_BOUNDS[1]}; got ({n}, {k})")
    # The factors span rank k iff no nonzero rho vanishes on all of them,
    # i.e. iff the AND of their masks is 0; bit rho of mask[f] is set when
    # rho(f) = 0.  Prefixes, each with its least next factor and the AND of
    # its masks, grow a level at a time from start; only the last level is
    # filtered.
    top = 1 << k
    mask = [sum(1 << rho for rho in range(1, top) if not gf2.dot(rho, f)) for f in range(top)]
    acc = reduce(and_, map(mask.__getitem__, start), mask[0])
    if n <= len(start):  # start is the whole monomial, or too long to begin one
        return [start] if n == len(start) and not acc else []
    level = [(start, start[-1] if start else 1, acc)]
    for _ in range(n - len(start) - 1):
        level = [(prefix + (f,), f, acc & mask[f])
                 for prefix, low, acc in level for f in range(low, top)]
    return [prefix + (f,) for prefix, low, acc in level for f in range(low, top)
            if not acc & mask[f]]


# Entry f is f >> 1, so bytes(m).translate(_HALVED) is the class at rho = 1
# of a monomial holding 1, its factors being below 256 at the ranks k <= 8
# with a pinned Singer cycle.
_HALVED = bytes(f >> 1 for f in range(256))


class ConstraintSystem(Frozen):
    """Linearized parity constraints over the faithful-monomial basis.

    A row is the tuple of its monomial indices j, highest first, each the
    j-th faithful monomial with coefficient 1.  The system keeps prefix,
    the faithful monomials that hold factor 1, and the seeds, rho = 1's
    rows, sorted.  prefix is the first block of the full list, so its
    indices are the full list's, and every seed index lies in it.  An
    automorphism of the functionals keeps rho-multiplicities and maps the
    classes to ker rho and the odd rho-free witnesses one-to-one onto those
    of rho's image, so it maps rho's rows onto that image's, and the powers
    of a Singer cycle g take 1 to every nonzero rho.  So the rows are the
    seeds and their translates under g's index permutation, and they span
    the least g-invariant span holding the seeds.

    The dimension reads prefix and the seeds alone: monomial_count and
    nullspace_dimension (gf2.block_rank) take prefix's Singer orbit
    coordinates (singer_coordinates), and nullspace_dimension ranks only
    _seed_basis, a GF(2) basis of the seeds.  Every member of a seed has
    the seed's class, f >> 1 for each factor f, and each prefix monomial
    has one class, so seeds of different groups share no index: the span
    of the seeds is the direct sum of the groups' spans, and each group's
    basis is found alone.  A dropped seed is a sum of kept ones, so the
    span of their translates is the same.  The rest is made only when
    read: _coordinates; _seed_basis; monomials, the full list; _index,
    for indicator; _permutation, g's index permutation of monomials;
    rows, the seeds and their translates, sorted; and _spanning, the
    rows as ints, which nullspace_basis and in_nullspace read.  An
    indicator lies in the nullspace iff its dot product with each row is
    0, iff check_membership accepts its support.  seeds, rows and
    row_count keep every seed.

    The row orbits are free: no set of indices is a row of two different
    rho.  For 0 < i < h = 2^k - 1, g^i takes 1 to some rho != 1 and so
    moves no seed onto a seed.  So the seeds, each with its h - 1
    translates, give h * len(seeds) distinct rows, which row_count returns.

    Proof.  Let R be the (c, cls, s) row of rho, s rho-free with
    len(s) < c.  The group (c, cls) fixes, per coset {f, f + rho} other
    than {0, rho}, the total N of the counts of f and f + rho, and each
    split of each total gives a member: its factors span rho and a lift of
    cls, so it is faithful.  C(m, s) is a product over the factors, so R is
    a product over the cosets of the sets of counts allowed there.  For the
    coset of rho' != rho, with A and B the counts of rho' and rho + rho' in
    s, Lucas's theorem allows the counts x of rho' in
    X(N) = {0 <= x <= N : A & ~x == 0 == B & ~(N - x)}.  Were R also the
    (c', cls', s') row of rho', each member would hold rho' c' times, so
    X(N) = {c'}, and H1 below gives c' <= A + B <= len(s) < c.  With rho
    and rho' swapped, c < c'.

    H1: min X(N) <= A + B when X(N) is not empty.  H2: min X(M) < A + B
    when X(M) is not empty and X(M + 1) is.  Both go by induction on N,
    X(-1) being empty and X(0) = {0} at A = B = 0, else empty.  Write
    N = 2N' + n, A = 2A' + a, B = 2B' + b, x = 2x' + e, and X' for X over
    A', B': x is in X(N) iff a <= e, b <= n ^ e and x' is in X'(N' - 1)
    when e > n, else in X'(N').
    H1, n = 1: e = a is allowed unless a = b = 1, when X(N) is empty, so
    min X(N) <= 2(A' + B') + a.  n = 0, a = b = 0: e = 0 from X'(N'), or if
    that is empty e = 1 from X'(N' - 1), whose least is below A' + B' by
    H2; either way min X(N) <= 2(A' + B').  n = 0, a + b > 0: only e = 1,
    from X'(N' - 1), so min X(N) <= 2(A' + B') + 1.
    H2, M = 2M' + 1: X(M) takes x' from X'(M'), and so does e = 1 in
    X(M + 1), so the premise fails.  M = 2M': X(M + 1) takes x' from
    X'(M'), so it is empty iff a = b = 1 or X'(M') is.  If a = b = 1, X(M)
    takes only e = 1, from X'(M' - 1), and min X(M) <= 2(A' + B') + 1 by
    H1.  Otherwise X(M) takes e = 1 from X'(M' - 1) only, whose least is
    below A' + B' by H2, so min X(M) < 2(A' + B').  Both are below A + B.
    tests/test_membership.py checks H1 and H2 exhaustively for small N.
    """

    _fields = ("n", "k", "prefix", "seeds")

    @cached_property
    def monomials(self) -> tuple[tuple[int, ...], ...]:
        """Every faithful monomial of the shape, prefix first."""
        return tuple(enumerate_faithful_monomials(self.n, self.k))

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {m: j for j, m in enumerate(self.monomials)}

    def indicator(self, p: Polynomial) -> int:
        if (p.n, p.k) != (self.n, self.k):
            raise InputError(f"a polynomial of degree {p.n} rank {p.k} has no indicator "
                             f"over the faithful monomials of degree {self.n} rank {self.k}")
        idx = self._index
        bits = 0
        for m in p.monomials:
            j = idx.get(m)
            if j is None:
                raise InputError(f"monomial {render_monomial(m, p.k)} is not a faithful "
                                 f"monomial of degree {self.n} rank {self.k}")
            bits |= 1 << j
        return bits

    def in_nullspace(self, bits: int) -> bool:
        """Whether the indicator bits meet every row an even number of times."""
        if bits < 0 or bits >> len(self.monomials):
            raise InputError(f"not an indicator over the {len(self.monomials)} faithful "
                             f"monomials of degree {self.n} rank {self.k}")
        return not any((bits & row).bit_count() & 1 for row in self._spanning)

    def accepts(self, p: Polynomial) -> bool:
        return self.in_nullspace(self.indicator(p))

    @cached_property
    def _permutation(self) -> list[int]:  # without monomials, no rows and no Singer cycle
        ms = self.monomials
        return index_permutation(singer_cycle(self.k), ms) if ms else []

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The seeds and their h - 1 translates, h = 2^k - 1, sorted; all
        distinct, as the orbits are free."""
        step = self._permutation.__getitem__
        layer, rows = self.seeds, list(self.seeds)
        for _ in range((1 << self.k) - 2):
            layer = [tuple(sorted(map(step, row), reverse=True)) for row in layer]
            rows += layer
        return tuple(sorted(rows))

    def row_count(self) -> int:
        """len(rows), h * len(seeds) as the orbits are free, without making rows."""
        return ((1 << self.k) - 1) * len(self.seeds)

    @cached_property
    def _seed_basis(self) -> list[tuple[int, ...]]:
        """The seeds that add a pivot when each group's seeds go through
        their own pivot table, shortest first, as ints numbering only that
        group's indices: a GF(2) basis of the seeds, group by group, as
        groups share no index.  A group with one seed keeps it, as no seed
        is empty."""
        prefix, groups = self.prefix, defaultdict(list)
        for row in self.seeds:
            groups[bytes(prefix[row[0]]).translate(_HALVED)].append(row)
        basis = []
        for rows in groups.values():
            if len(rows) > 1:
                bit = {j: 1 << b for b, j in enumerate({j for row in rows for j in row})}
                table: dict[int, int] = {}
                rows = [row for row in sorted(rows, key=len)
                        if gf2.reduce_into(table, sum(map(bit.__getitem__, row)))]
            basis += rows
        return basis

    @cached_property
    def _spanning(self) -> list[int]:
        """The rows, which span the row space, each as its int, shortest
        first: nullspace_basis eliminates them in this order, which keeps
        the reduced rows sparse, and its RREF does not depend on it."""
        return list(map(from_bits, sorted(self.rows, key=len)))

    @cached_property
    def _coordinates(self) -> tuple[list[int], list[int], list[int]]:
        return singer_coordinates(self.prefix, self.k)

    def monomial_count(self) -> int:
        """len(monomials), the total size of the Singer orbits, without
        making monomials."""
        return sum(self._coordinates[2])

    @cached_property
    def _rank(self) -> int:
        return gf2.block_rank(self._seed_basis, *self._coordinates)

    def nullspace_dimension(self) -> int:
        """Dimension of the nullspace, ranked once per system by
        gf2.block_rank over _seed_basis from prefix's Singer coordinates;
        monomials, _permutation, rows and their ints, _spanning, stay
        unmade."""
        return self.monomial_count() - self._rank

    def nullspace_basis(self) -> list[Polynomial]:
        """Polynomials whose indicators form a basis of the nullspace.  The
        faithful monomials are distinct sorted tuples of the system's shape,
        so they build each Polynomial as they are, without make."""
        monomials, n, k = self.monomials, self.n, self.k
        return [Polynomial(frozenset([monomials[j] for j in set_bits(b)]), n, k)
                for b in nullspace(self._spanning, len(monomials))]


# Primitive polynomials over GF(2) by degree k, bit i the coefficient of x^i.
PRIMITIVE_POLYNOMIALS = {1: 0b11, 2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101,
                         6: 0b1000011, 7: 0b10000011, 8: 0b100011101}


def singer_cycle(k: int) -> tuple[int, ...]:
    """Rows of the companion matrix of PRIMITIVE_POLYNOMIALS[k]: an
    automorphism of order 2^k - 1 whose powers take a nonzero functional
    to every other (J. Singer, Trans. AMS 43, 1938)."""
    f = PRIMITIVE_POLYNOMIALS[k]
    return tuple((i and 1 << k - i) | f >> i & 1 for i in range(k))


def index_permutation(a: tuple[int, ...], monomials) -> list[int]:
    """sigma with monomials[sigma[j]] the image of monomials[j] under the
    automorphism with rows a, as repalg.apply_automorphism maps it; the
    monomials are all faithful ones of a shape, so they hold every image."""
    image = images(range(1, 1 << len(a)), a).__getitem__
    index = {m: j for j, m in enumerate(monomials)}
    return [index[tuple(sorted(map(image, m)))] for m in monomials]


def singer_coordinates(prefix, k: int) -> tuple[list[int], list[int], list[int]]:
    """(orbit, position, sizes) of the Singer cycle g on the faithful
    monomials of one shape, read from prefix, those holding 1: each prefix
    index's orbit number and place, and each orbit's size, as
    gf2.block_rank takes them.  They are the first len(prefix) entries of
    the walk of g's index permutation that numbers the orbits by least
    index and steps through each from it.

    Every orbit meets prefix, as some power of g takes a factor to 1, so
    its least member m holds 1.  With e the exponent taking 1 to a factor
    of m, g^-e m is a prefix member at position -e mod s; the least e > 0
    that fixes m is the orbit's size s, or s = h = 2^k - 1 if none does,
    and the e below it give distinct members.  So about one sort per
    prefix index, with one table per e, replaces the sort of every
    monomial's image that index_permutation makes.  An empty prefix reads
    no Singer cycle."""
    orbit, position, sizes = [-1] * len(prefix), [0] * len(prefix), []
    if not prefix:
        return orbit, position, sizes
    h = (1 << k) - 1
    image = images(range(1, 1 << k), singer_cycle(k))
    power = [1]  # power[t] = g^t 1
    for _ in range(h - 1):
        power.append(image[power[-1]])
    log = [0] * (h + 1)
    for t, f in enumerate(power):
        log[f] = t
    # rotate[e][f] = g^-e f; entry 0 is never read, as no factor is 0.
    rotate = [[0] + [power[log[f] - e] for f in range(1, h + 1)] for e in range(h)]
    index = {m: j for j, m in enumerate(prefix)}
    for j, m in enumerate(prefix):
        if orbit[j] >= 0:
            continue
        size, members = h, [(j, 0)]
        for e in sorted({log[f] for f in m})[1:]:  # 0 is the log of m's own 1
            moved = tuple(sorted(map(rotate[e].__getitem__, m)))
            if moved == m:
                size = e
                break
            members.append((index[moved], e))
        for i, e in members:
            orbit[i], position[i] = len(sizes), -e % size
        sizes.append(size)
    return orbit, position, sizes


def build_constraint_system(n: int, k: int) -> ConstraintSystem:
    """The system with rho = 1's rows as its seeds: one row per (group,
    witness code) that some monomial meets, index j in it when monomial j
    is in that group and the witness is one of its odd 1-free sub-multisets.

    A faithful monomial has no factor 0, so those holding 1 are the first
    block of the list, m[0] == 1, and only that block, the system's prefix,
    is enumerated.  They are visited last first, so each row lists its
    indices highest first as they are met.  A row is filed under
    (class, code), the class being m's factors f >> 1 as bytes
    (_HALVED): repalg.kernel_class at rho = 1, already sorted as m is.
    Its zeros count the multiplicity, so the class alone names the group.
    A monomial that holds 1 once goes under code 1 alone, without
    factor_counts or odd_codes, as odd_codes at multiplicity 1 lists only
    the empty witness: about half the prefix at rank 3 and most of it at
    rank 4."""
    prefix = tuple(enumerate_faithful_monomials(n, k, (1,)))
    rows: defaultdict[tuple, list[int]] = defaultdict(list)
    for j in range(len(prefix) - 1, -1, -1):
        m = prefix[j]
        cls = bytes(m).translate(_HALVED)
        if m[1:2] != (1,):  # 1 once: odd_codes would list the empty witness alone
            rows[cls, 1].append(j)
            continue
        for code in odd_codes(factor_counts(m), 1, k):
            rows[cls, code].append(j)
    seeds = set()
    while rows:  # each list is dropped as its tuple is made
        seeds.add(tuple(rows.popitem()[1]))
    return ConstraintSystem(n, k, prefix, tuple(sorted(seeds)))


def image_dimension(n: int, k: int) -> int:
    """Dimension of the realizable degree-n space over rank k."""
    return build_constraint_system(n, k).nullspace_dimension()
