"""GL(k,2) orbits of polynomials and GF(2) span bookkeeping.

The rank k is read from the polynomial; gf2.enumerate_gl bounds it at 4.
An orbit is expanded by the orbit-stabilizer split: a scan of GL(k,2)
finds the stabilizer S of p, and then one image is computed per coset
S.a, since p.(s.a) = (p.s).a = p.a for s in S (Holt, Eick and O'Brien,
Handbook of Computational Group Theory, 2005, section 4.1).
"""

from __future__ import annotations

from z2bord.gf2 import Frozen, InputError, enumerate_gl, rank_of
from z2bord.membership import ConstraintSystem, check_membership
from z2bord.repalg import Polynomial, apply_automorphism, images


class PolynomialOrbit(Frozen):
    """The orbit of seed, and its stabilizer as row tuples, as from enumerate_gl."""

    _fields = ("seed", "elements", "stabilizer")

    def __contains__(self, p: Polynomial) -> bool:
        return p in self.elements

    def __len__(self) -> int:
        return len(self.elements)


def orbit(p: Polynomial) -> PolynomialOrbit:
    """Expand the orbit of p under all automorphisms of (Z/2)^k, k = p.k.

    The stabilizer scan maps p's distinct factors through each matrix a,
    unchecked, as enumerate_gl's are invertible, and stops at the first
    monomial whose image is not in p.  The walk then applies each matrix a
    of no coset met so far, and covers its coset S.a: the image of a row
    vector f is fA, so mapping the rows of s through a gives the product
    s.a.  With S trivial each coset is one matrix, so none is recorded."""
    k, monomials = p.k, p.monomials
    factors = set().union(*monomials)
    gl = enumerate_gl(k)
    stab = []
    for a in gl:
        image = images(factors, a).__getitem__
        # a permutes the monomials, so mapping p's into p fixes p
        if all(tuple(sorted(map(image, m))) in monomials for m in monomials):
            stab.append(a)
    rows = set().union(*stab)
    elements = set()
    covered = set()
    for a in gl:
        if a not in covered:
            elements.add(apply_automorphism(p, a))
            if len(stab) > 1:
                image = images(rows, a).__getitem__
                covered.update(tuple(map(image, s)) for s in stab)
    return PolynomialOrbit(p, frozenset(elements), tuple(stab))


def stabilizer_matches(o: PolynomialOrbit, predicted) -> bool:
    """True iff o's stabilizer is exactly {a in GL(k,2) : predicted(a)}, k = o.seed.k."""
    return set(o.stabilizer) == {a for a in enumerate_gl(o.seed.k) if predicted(a)}


def require_common_shape(ps) -> None:
    """InputError unless the nonzero polynomials share one degree and rank."""
    if len({(p.n, p.k) for p in ps if not p.is_zero}) > 1:
        raise InputError("polynomials of mixed degree or rank")


def span_dimension(ps) -> int:
    """GF(2) rank of the collection over its supporting monomials."""
    ps = list(ps)
    require_common_shape(ps)
    monomials = {m for p in ps for m in p.monomials}
    index = {m: j for j, m in enumerate(monomials)}
    return rank_of([sum(1 << index[m] for m in p.monomials) for p in ps])


def verify_generating_set(cs: ConstraintSystem, generators) -> bool:
    """True iff the generators span exactly the realizable space of cs.
    check_membership gives each verdict.  An accepted generator's monomials
    are faithful, so it lies in cs's basis iff it has cs's degree and rank."""
    generators = list(generators)
    for p in generators:
        if not check_membership(p).accepted:
            raise InputError(f"generator rejected by the membership criterion:\n{p}")
        if (p.n, p.k) != (cs.n, cs.k):
            raise InputError(f"a polynomial of degree {p.n} rank {p.k} has no indicator "
                             f"over the faithful monomials of degree {cs.n} rank {cs.k}")
    return span_dimension(generators) == cs.nullspace_dimension()
