"""Deciding which polynomials are realizable as fixed-point data.

A degree-n polynomial of faithful monomials is realizable iff for every
nonzero functional rho, the monomials divisible by rho split into groups
of constant rho-multiplicity and constant restriction class to ker rho,
and every group satisfies a family of mod-2 parity constraints on
sub-multiset multiplicities.  The same constraints, linearized over all
faithful monomials, give the realizable space as a GF(2) nullspace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from z2bord import gf2
from z2bord.gf2 import ResourceLimitError, nullspace, rank_of, set_bits
from z2bord.repalg import Monomial, Polynomial, sub_multiset_multiplicity


class NonFaithfulError(ValueError):
    """A monomial is not faithful, so the criterion does not apply."""


@lru_cache(maxsize=None)
def kernel_basis(rho: int, k: int) -> tuple[int, ...]:
    """Canonical ordered basis of ker rho (the RREF basis rows)."""
    return nullspace([rho], k).basis


@lru_cache(maxsize=None)
def restriction_class(m: Monomial, rho: int) -> Monomial:
    """Restriction of every factor of m to ker rho, over rank k-1."""
    return m.restrict(kernel_basis(rho, m.k))


@dataclass(frozen=True)
class Group:
    """Monomials sharing a rho-multiplicity and a ker-rho restriction class."""

    multiplicity: int
    restriction: Monomial
    members: frozenset[Monomial]


@dataclass(frozen=True)
class RhoDecomposition:
    rho: int
    groups: tuple[Group, ...]


@dataclass(frozen=True)
class Violation:
    rho: int
    multiplicity: int
    restriction: Monomial
    witness: tuple[int, ...]  # the multiset S with odd parity sum


@dataclass(frozen=True)
class MembershipCertificate:
    accepted: bool
    decompositions: tuple[RhoDecomposition, ...] = ()
    violation: Violation | None = None


def decompose_for_rho(p: Polynomial, rho: int) -> RhoDecomposition:
    """Finest grouping of the rho-divisible support by (multiplicity, class)."""
    if rho == 0:
        raise ValueError("rho must be nonzero")
    buckets: dict[tuple[int, Monomial], set[Monomial]] = {}
    for m in p.monomials:
        mult = m.mult(rho)
        if mult:
            buckets.setdefault((mult, restriction_class(m, rho)), set()).add(m)
    groups = tuple(
        Group(mult, cls, frozenset(members))
        for (mult, cls), members in sorted(buckets.items())
    )
    return RhoDecomposition(rho, groups)


def _witness_candidates(group: Group):
    """Multisets S with |S| <= multiplicity-1 that meet some member.

    Any other S has an identically zero parity sum, so these suffice.
    Returned in deterministic sorted order.
    """
    cands: set[tuple[int, ...]] = set()
    max_size = group.multiplicity - 1
    for m in group.members:
        for size in range(max_size + 1):
            cands.update(itertools.combinations(m.factors, size))
    return sorted(cands, key=lambda s: (len(s), s))


def _group_violation(rho: int, group: Group) -> Violation | None:
    for s in _witness_candidates(group):
        parity = sum(sub_multiset_multiplicity(m, s) for m in group.members) & 1
        if parity:
            return Violation(rho, group.multiplicity, group.restriction, s)
    return None


def check_membership(p: Polynomial) -> MembershipCertificate:
    """Certificate-producing test for realizability of p."""
    for m in sorted(p.monomials):
        if not m.is_faithful():
            raise NonFaithfulError(f"monomial {m} is not faithful")
    decs = []
    for rho in range(1, 1 << p.k):
        dec = decompose_for_rho(p, rho)
        for group in dec.groups:
            v = _group_violation(rho, group)
            if v is not None:
                return MembershipCertificate(False, violation=v)
        decs.append(dec)
    return MembershipCertificate(True, decompositions=tuple(decs))


_ENUM_BOUNDS = (8, 4)  # max degree, max rank


def enumerate_faithful_monomials(n: int, k: int) -> list[Monomial]:
    """All degree-n faithful monomials over rank k, lexicographic order."""
    if n > _ENUM_BOUNDS[0] or k > _ENUM_BOUNDS[1]:
        raise ResourceLimitError(
            f"faithful-monomial enumeration bounded by degree {_ENUM_BOUNDS[0]}, "
            f"rank {_ENUM_BOUNDS[1]}; got ({n}, {k})"
        )
    out = []
    for factors in itertools.combinations_with_replacement(range(1, 1 << k), n):
        if rank_of(factors) == k:
            out.append(Monomial(factors, k))
    return out


@dataclass(frozen=True)
class ConstraintSystem:
    """Linearized parity constraints over the faithful-monomial basis.

    Row bit j (counted from bit 0 = monomial 0) is the coefficient of the
    j-th faithful monomial; an indicator vector of a support lies in the
    nullspace iff check_membership accepts the corresponding polynomial.
    """

    n: int
    k: int
    monomials: tuple[Monomial, ...]
    rows: tuple[int, ...]

    @cached_property
    def _index(self) -> dict[Monomial, int]:
        return {m: j for j, m in enumerate(self.monomials)}

    def indicator(self, p: Polynomial) -> int:
        idx = self._index
        bits = 0
        for m in p.monomials:
            bits |= 1 << idx[m]
        return bits

    def in_nullspace(self, bits: int) -> bool:
        return all(gf2.dot(row, bits) == 0 for row in self.rows)

    def accepts(self, p: Polynomial) -> bool:
        return self.in_nullspace(self.indicator(p))

    def nullspace_dimension(self) -> int:
        return len(self.monomials) - rank_of(self.rows)

    def nullspace_basis(self) -> list[Polynomial]:
        """Polynomials whose indicators form a basis of the nullspace."""
        monomials = self.monomials
        return [
            Polynomial.make([monomials[j] for j in set_bits(b)], self.n, self.k)
            for b in nullspace(self.rows, len(monomials)).basis
        ]


def build_constraint_system(n: int, k: int) -> ConstraintSystem:
    monomials = tuple(enumerate_faithful_monomials(n, k))
    index = {m: j for j, m in enumerate(monomials)}
    rows: set[int] = set()
    everything = Polynomial.make(monomials)
    for rho in range(1, 1 << k):
        dec = decompose_for_rho(everything, rho)
        for group in dec.groups:
            for s in _witness_candidates(group):
                row = 0
                for m in group.members:
                    if sub_multiset_multiplicity(m, s) & 1:
                        row |= 1 << index[m]
                if row:
                    rows.add(row)
    return ConstraintSystem(n, k, monomials, tuple(sorted(rows)))


def image_dimension(n: int, k: int) -> int:
    """Dimension of the realizable degree-n space over rank k."""
    if 0 < n < k:
        return 0
    return build_constraint_system(n, k).nullspace_dimension()
