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
parity_profile, which gives each monomial's groups as (rho,
multiplicity, class) tuples and rests on three facts:

- Lucas's theorem: C(c, j) is odd iff j & ~c == 0.  So the s with an
  odd sub_multiset_multiplicity(m, s) are listed directly, by taking a
  submask of m's count of each distinct factor.
- The class is the restriction to ker rho: f -> f restricted to ker rho
  is linear with kernel {0, rho}, so a factor restricts to 0 exactly
  when it is rho, and the class's zeros count the rho-multiplicity.
- The code of s = (s_1 <= ... <= s_L) over rank k is a leading 1 followed
  by s_1, ..., s_L, k bits each.  Codes of longer s are larger, so
  numeric order on codes is (len(s), s) order.

parity_profile counts m's factors once; the count gives every
multiplicity and the odd codes, listed once for m and cut at each
multiplicity.  The classes are read from kernel_tables(k), one lazy map
per rank from rho to the restriction table of ker rho, so no cache is
looked up per rho and no table of 2^k entries is built.

check_membership reads each monomial's (group, odd witness) pairs as
one int with a bit per pair, from the table of its shape (n, k).  The
table numbers that shape's distinct (rho, multiplicity, class, code)
pairs in first-seen order and keeps the bit -> pair list, so a profile
is only as wide as its shape's pair count.  A polynomial is accepted iff
the XOR of its monomials' profiles is 0.  Otherwise the set bits are
decoded to their pairs and the least of these is the reported
violation: tuples compare field by field and every class of a
polynomial has its degree as length, so tuple order is the certificate's
(rho, multiplicity, class, (len(s), s)) order, which bit order is not.
A verdict that starts with the tables full drops them all, then reads
only the table it took, so no verdict mixes two numberings; a lock
covers only the numbering of new pairs.
"""

from __future__ import annotations

import itertools
import threading
from bisect import bisect_left
from collections import defaultdict
from functools import cached_property, lru_cache, reduce
from operator import and_
from typing import NamedTuple

from z2bord import gf2
from z2bord.gf2 import Frozen, InputError, ResourceLimitError, nullspace, rank_of, set_bits
from z2bord.repalg import (
    Polynomial,
    RestrictionTable,
    is_faithful,
    render_monomial,
    restrict,
    restriction_table,
)


@lru_cache(maxsize=None)
def kernel_basis(rho: int, k: int) -> tuple[int, ...]:
    """Canonical ordered basis of ker rho (the RREF basis rows)."""
    return nullspace([rho], k)


@lru_cache(maxsize=None)
def restriction_class(m: tuple[int, ...], rho: int, k: int) -> tuple[int, ...]:
    """Restriction of the rank-k monomial m to ker rho, over rank k-1."""
    return restrict(m, kernel_basis(rho, k))


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


class MembershipCertificate(Frozen):
    """The verdict on polynomial: its violation when rejected, and when
    accepted its decompositions, built from polynomial when first read.
    Certificates compare, hash and print without their polynomial."""

    _fields = ("accepted", "violation")

    def __init__(self, accepted: bool, violation: Violation | None = None,
                 polynomial: Polynomial | None = None):
        d = self.__dict__
        d["accepted"] = accepted
        d["violation"] = violation
        d["polynomial"] = polynomial

    @cached_property
    def decompositions(self) -> tuple[RhoDecomposition, ...]:
        """One decomposition per rho that divides some monomial, in
        increasing rho order, its groups in (multiplicity, class) order;
        () when rejected."""
        p = self.polynomial
        if p is None:  # rejected
            return ()
        members: defaultdict[tuple, list[tuple[int, ...]]] = defaultdict(list)
        for m in p.monomials:
            for group, _ in parity_profile(m, p.k):
                members[group].append(m)
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
    groups = tuple(
        Group(mult, cls, frozenset(members))
        for (mult, cls), members in sorted(buckets.items())
    )
    return RhoDecomposition(rho, groups)


def odd_submultisets(counts: dict[int, int], k: int) -> tuple[int, ...]:
    """Codes over rank k of every sub-multiset s of the monomial whose
    factor counts are counts (factor -> multiplicity, in increasing factor
    order, as a sorted monomial lists them), smaller than its largest
    multiplicity, whose sub_multiset_multiplicity is odd, in increasing
    order.  parity_profile counts the factors once and passes the count
    here; it reads no larger s.

    By Lucas's theorem s qualifies iff its count of each factor is a
    submask of the monomial's count (see the module docstring), so the
    codes are listed directly, one submask per distinct factor.  At top
    multiplicity 2 the odd s are the empty multiset and the single
    factors of count 1, whose codes come in factor order with no sort.
    """
    top = max(counts.values(), default=1)
    if top == 2:
        return (1, *[1 << k | f for f, c in counts.items() if c == 1])
    below = 1 << k * top  # the codes of smaller s
    codes = [1]
    for f, c in counts.items():
        runs = []  # (shift, f repeated j times) for each nonzero submask j of c
        j = c
        while j:
            runs.append((j * k, f * ((1 << j * k) - 1) // ((1 << k) - 1)))
            j = (j - 1) & c
        codes += [new for code in codes for shift, run in runs
                  if (new := code << shift | run) < below]
    return tuple(sorted(codes))


def submultiset(code: int, k: int) -> tuple[int, ...]:
    """The sorted sub-multiset whose code is code (inverse of the coding
    in odd_submultisets)."""
    mask = (1 << k) - 1
    s = []
    while code > 1:
        s.append(code & mask)
        code >>= k
    return tuple(reversed(s))


class _KernelTables(dict):
    """Entry rho is restriction_table(kernel_basis(rho, k)), the table that
    restricts a rank-k factor to ker rho, built on its first read and
    then read with no cache lookup.  It holds only the rhos read, at most
    2^k - 1 tables, each holding only the factors read."""

    def __init__(self, k: int):
        super().__init__()
        self.k = k

    def __missing__(self, rho: int) -> RestrictionTable:
        return self.setdefault(rho, restriction_table(kernel_basis(rho, self.k)))


@lru_cache(maxsize=None)
def kernel_tables(k: int) -> _KernelTables:
    """The one rho -> ker-rho restriction table map of rank k."""
    return _KernelTables(k)


def parity_profile(m: tuple[int, ...], k: int) -> tuple:
    """((rho, multiplicity, class), codes) for each distinct factor rho of
    the sorted rank-k monomial m, in factor order.

    The group is m's for rho: the multiplicity is m.count(rho) and the
    class is m's restriction to ker rho, read from kernel_tables(k).  codes
    are the odd sub-multisets of m of size below the multiplicity: m adds 1
    to the parity sum of exactly these witnesses in its group.  At
    multiplicity 1 that is the empty multiset alone, code 1; at m's top
    multiplicity it is all of odd_submultisets.  The factors are counted
    once, and that count gives every multiplicity and the odd codes.
    """
    tables = kernel_tables(k)
    counts: dict[int, int] = {}
    for f in m:
        counts[f] = counts.get(f, 0) + 1
    if len(counts) == len(m):  # every multiplicity is 1
        return tuple(((rho, 1, tuple(sorted(map(tables[rho].__getitem__, m)))), (1,))
                     for rho in m)
    odd = odd_submultisets(counts, k)
    top = max(counts.values())
    return tuple(
        ((rho, c, tuple(sorted(map(tables[rho].__getitem__, m)))),
         (1,) if c == 1 else odd if c == top else odd[:bisect_left(odd, 1 << k * c)])
        for rho, c in counts.items()
    )


_PROFILE_BOUND = 1 << 16  # profiles in all tables; the 26,740 of (6,4) fit
_numbering_lock = threading.Lock()


class _Profiles(dict):
    """The table of one shape (n, k): entry m is the int with a bit set per
    (rho, multiplicity, class, code) pair of parity_profile(m, k), or None
    (not stored) when m is not faithful.  ids numbers the pairs in
    first-seen order and pairs lists them by bit; a new pair is listed
    before its bit is published, so every bit of a profile decodes."""

    def __init__(self, k: int):
        super().__init__()
        self.k = k
        self.ids: dict[tuple, int] = {}
        self.pairs: list[tuple] = []

    def __missing__(self, m: tuple[int, ...]) -> int | None:
        if not is_faithful(m, self.k):
            return None
        profile = 0
        for group, codes in parity_profile(m, self.k):
            for code in codes:
                pair = group + (code,)
                if pair not in self.ids:
                    with _numbering_lock:
                        if pair not in self.ids:  # not numbered meanwhile elsewhere
                            self.pairs.append(pair)
                            self.ids[pair] = len(self.pairs) - 1
                profile |= 1 << self.ids[pair]
        self[m] = profile
        return profile


_profiles: dict[tuple[int, int], _Profiles] = {}


def require_faithful(p: Polynomial) -> Polynomial:
    """p, or InputError naming the smallest non-faithful monomial of p."""
    bad = [m for m in p.monomials if not is_faithful(m, p.k)]
    if bad:
        raise InputError(f"monomial {render_monomial(min(bad), p.k)} is not faithful")
    return p


def check_membership(p: Polynomial) -> MembershipCertificate:
    """Certificate-producing test for realizability of p.

    p is accepted iff every (group, witness) pair has an even parity sum,
    that is iff the XOR of the monomials' profiles is 0.  Otherwise the
    set bits are decoded to their pairs, and the violation reported is the
    least of these in (rho, multiplicity, class, (len(s), s)) order; the
    lowest bit is only the first pair seen.  The verdict first drops every
    table if together they hold _PROFILE_BOUND profiles, then takes its
    shape's table and reads only that one, whatever other threads drop.
    """
    if sum(map(len, list(_profiles.values()))) >= _PROFILE_BOUND:
        _profiles.clear()
    table = _profiles.get((p.n, p.k))
    if table is None:
        table = _profiles.setdefault((p.n, p.k), _Profiles(p.k))
    odd = 0
    for m in p.monomials:
        profile = table[m]
        if profile is None:
            require_faithful(p)
        odd ^= profile
    if not odd:
        return MembershipCertificate(True, polynomial=p)
    rho, mult, cls, code = min(table.pairs[bit] for bit in set_bits(odd))
    return MembershipCertificate(
        False, violation=Violation(rho, mult, cls, submultiset(code, p.k)))


_ENUM_BOUNDS = (8, 4)  # max degree, max rank


def enumerate_faithful_monomials(n: int, k: int) -> list[tuple[int, ...]]:
    """All degree-n faithful monomials over rank k, lexicographic order;
    none when 0 < n < k, as n factors span rank at most n."""
    if n < 0 or k < 1:
        raise InputError("need n >= 0 and k >= 1")
    if 0 < n < k:
        return []
    if n > _ENUM_BOUNDS[0] or k > _ENUM_BOUNDS[1]:
        raise ResourceLimitError(
            f"faithful-monomial enumeration bounded by degree {_ENUM_BOUNDS[0]}, "
            f"rank {_ENUM_BOUNDS[1]}; got ({n}, {k})"
        )
    # The factors span rank k iff no nonzero rho vanishes on all of them,
    # i.e. iff the AND of their masks is 0; bit rho of mask[f] is set when
    # rho(f) = 0.
    nonzero = range(1, 1 << k)
    mask = [sum(1 << rho for rho in nonzero if not gf2.dot(rho, f)) for f in range(1 << k)]
    every_rho = mask[0]
    return [factors for factors in itertools.combinations_with_replacement(nonzero, n)
            if not reduce(and_, map(mask.__getitem__, factors), every_rho)]


class ConstraintSystem(Frozen):
    """Linearized parity constraints over the faithful-monomial basis.

    Row bit j (counted from bit 0 = monomial 0) is the coefficient of the
    j-th faithful monomial; an indicator vector of a support lies in the
    nullspace iff check_membership accepts the corresponding polynomial.
    """

    _fields = ("n", "k", "monomials", "rows")

    def __init__(self, n: int, k: int, monomials: tuple[tuple[int, ...], ...],
                 rows: tuple[int, ...]):
        d = self.__dict__
        d["n"] = n
        d["k"] = k
        d["monomials"] = monomials
        d["rows"] = rows

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {m: j for j, m in enumerate(self.monomials)}

    def indicator(self, p: Polynomial) -> int:
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
        """Whether the indicator bits (see indicator) meet every row."""
        if bits < 0 or bits >> len(self.monomials):
            raise InputError(f"not an indicator over the {len(self.monomials)} faithful "
                             f"monomials of degree {self.n} rank {self.k}")
        return not any((row & bits).bit_count() & 1 for row in self.rows)

    def accepts(self, p: Polynomial) -> bool:
        return self.in_nullspace(self.indicator(p))

    @cached_property
    def _nullity(self) -> int:
        # Sparse rows first: they fill the pivot table with fewer bits.
        return len(self.monomials) - rank_of(sorted(self.rows, key=int.bit_count))

    def nullspace_dimension(self) -> int:
        """Dimension of the nullspace, ranked once per system."""
        return self._nullity

    def nullspace_basis(self) -> list[Polynomial]:
        """Polynomials whose indicators form a basis of the nullspace.  The
        faithful monomials are distinct sorted tuples of the system's shape,
        so they build each Polynomial as they are, without make."""
        monomials, n, k = self.monomials, self.n, self.k
        return [
            Polynomial(frozenset([monomials[j] for j in set_bits(b)]), n, k)
            for b in nullspace(self.rows, len(monomials))
        ]


def build_constraint_system(n: int, k: int) -> ConstraintSystem:
    """One row per (group, witness code) that some monomial meets: bit j
    is set when monomial j is in that group and the witness is one of its
    odd sub-multisets."""
    monomials = tuple(enumerate_faithful_monomials(n, k))
    groups: dict[tuple, dict[int, int]] = {}
    for j, m in enumerate(monomials):
        bit = 1 << j
        for group, codes in parity_profile(m, k):
            by_code = groups.get(group)
            if by_code is None:
                groups[group] = dict.fromkeys(codes, bit)
            else:
                for code in codes:
                    by_code[code] = by_code.get(code, 0) | bit
    rows = {row for by_code in groups.values() for row in by_code.values()}
    return ConstraintSystem(n, k, monomials, tuple(sorted(rows)))


def image_dimension(n: int, k: int) -> int:
    """Dimension of the realizable degree-n space over rank k."""
    return build_constraint_system(n, k).nullspace_dimension()
