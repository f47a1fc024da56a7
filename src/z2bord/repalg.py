"""Monomials and GF(2) polynomials of irreducible (Z/2)^k-representations.

An irreducible representation is a functional on (Z/2)^k, stored as a
bit-packed vector (the zero vector is the trivial representation).  A
monomial is a multiset of such functionals; a polynomial is a GF(2)
set of monomials of a common degree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from z2bord.gf2 import InputError, parse_vec, rank_of, transpose, vec_str


class NonIsolatedError(ValueError):
    """A factor is the trivial representation, so fixed points are not isolated."""


@dataclass(frozen=True, order=True)
class Monomial:
    """A multiset of functionals, stored as a sorted tuple of bit-packed ints."""

    factors: tuple[int, ...]
    k: int

    @classmethod
    def make(cls, factors, k: int) -> "Monomial":
        return cls(tuple(sorted(factors)), k)

    @property
    def degree(self) -> int:
        return len(self.factors)

    def mult(self, gamma: int) -> int:
        return self.factors.count(gamma)

    def restrict(self, basis) -> "Monomial":
        """Factor rho becomes the vector (rho(b_1), ..., rho(b_r)) over the
        ordered basis, read from restriction_table; the basis is not
        validated."""
        basis = tuple(basis)
        table = restriction_table(basis)
        return Monomial.make([table[f] for f in self.factors], len(basis))

    def is_faithful(self) -> bool:
        """No trivial factor, and the factors span the full dual space."""
        if 0 in self.factors:
            return False
        return rank_of(self.factors) == self.k

    def __str__(self) -> str:
        return ",".join(vec_str(f, self.k) for f in self.factors)


# Bound on the table caches below: all of GL(4,2) (20,160 matrices) fits.
_TABLE_CACHE = 1 << 15


class RestrictionTable(dict):
    """Entry f is the functional f restricted to the ordered basis: the
    vector (f(b_1), ..., f(b_r)), with f(b_1) the highest bit.

    An entry is computed on its first lookup, so the table holds only the
    functionals read, however large the rank.
    """

    def __init__(self, basis: tuple[int, ...]):
        super().__init__()
        self.basis = basis

    def __missing__(self, f: int) -> int:
        image = 0
        for b in self.basis:
            image = image << 1 | (f & b).bit_count() & 1
        self[f] = image
        return image


@lru_cache(maxsize=_TABLE_CACHE)
def restriction_table(basis: tuple[int, ...]) -> RestrictionTable:
    """The one table per ordered basis, shared by every restriction to it."""
    return RestrictionTable(basis)


@dataclass(frozen=True)
class Polynomial:
    """A GF(2) sum of monomials of common degree n over rank k."""

    monomials: frozenset[Monomial]
    n: int
    k: int

    @classmethod
    def make(cls, monomials, n: int | None = None, k: int | None = None) -> "Polynomial":
        """Mod-2 sum of the monomials: a monomial that repeats cancels in pairs.

        The shape is read before cancelling, so make([m, m]) is the zero
        polynomial of m's degree and rank; an empty input needs n and k, and
        an n or k given with monomials must be theirs.
        """
        counts = Counter(monomials)
        degrees = {m.degree for m in counts}
        ranks = {m.k for m in counts}
        if len(degrees) > 1 or len(ranks) > 1:
            raise InputError("monomials of mixed degree or rank")
        if counts:
            shape = degrees.pop(), ranks.pop()
            given = (shape[0] if n is None else n, shape[1] if k is None else k)
            if given != shape:
                raise InputError(f"degree {given[0]} rank {given[1]} given for "
                                 f"monomials of degree {shape[0]} rank {shape[1]}")
            n, k = shape
        if n is None or k is None:
            raise InputError("zero polynomial needs explicit degree and rank")
        return cls(frozenset(m for m, c in counts.items() if c & 1), n, k)

    @classmethod
    def zero(cls, n: int, k: int) -> "Polynomial":
        return cls(frozenset(), n, k)

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    def support(self) -> list[Monomial]:
        return sorted(self.monomials)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not (self.is_zero or other.is_zero) and (self.n, self.k) != (other.n, other.k):
            raise InputError(
                f"cannot add degree {self.n} rank {self.k} "
                f"to degree {other.n} rank {other.k}"
            )
        shape = other if self.is_zero else self
        return Polynomial(self.monomials ^ other.monomials, shape.n, shape.k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.monomials != other.monomials:
            return False
        return self.is_zero or (self.n, self.k) == (other.n, other.k)

    def __hash__(self) -> int:
        return hash(self.monomials)

    def __len__(self) -> int:
        return len(self.monomials)

    def __str__(self) -> str:
        return render_polynomial(self)


@lru_cache(maxsize=_TABLE_CACHE)
def automorphism_columns(a: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The columns A e_1, ..., A e_k of an automorphism of (Z/2)^k given by
    its rows, checked once per matrix: f composed with g -> Ag is f
    restricted to this ordered basis."""
    if len(a) != k or any(r >> k for r in a) or rank_of(a) != k:
        raise InputError("matrix is singular or of the wrong size")
    return transpose(a, k)


def apply_automorphism(p: Polynomial, a: tuple[int, ...]) -> Polynomial:
    """Precompose every factor functional with the automorphism g -> Ag."""
    columns = automorphism_columns(a, p.k)
    monos = {m.restrict(columns) for m in p.monomials}
    return Polynomial(frozenset(monos), p.n, p.k)


def sub_multiset_multiplicity(t: Monomial, s) -> int:
    """Number of ways the multiset s sits inside the factors of t.

    s is an iterable of bit-packed functionals; the count is a product of
    binomial coefficients of multiplicities, and 0 when s is not a
    sub-multiset of t.
    """
    s = tuple(s)
    out = 1
    for gamma in set(s):
        out *= comb(t.factors.count(gamma), s.count(gamma))
    return out


def content_lines(text: str) -> list[tuple[int, str]]:
    """(line number from 1, stripped text) of every line that is not blank
    once its '#' comment is removed; shared by all input file formats."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def parse_polynomial(text: str) -> Polynomial:
    """Parse the one-monomial-per-line polynomial file format.

    Factors are comma-separated bit-strings of equal width; '#' starts a
    comment; blank lines are ignored; duplicate monomials cancel mod 2.
    """
    monos = []
    n = k = None
    for lineno, line in content_lines(text):
        factors = []
        width = None
        for tok in line.split(","):
            tok = tok.strip()
            try:
                bits, w = parse_vec(tok)
            except InputError as e:
                raise InputError(f"line {lineno}: {e}") from None
            if width is not None and w != width:
                raise InputError(f"line {lineno}: inconsistent bit-string widths")
            width = w
            factors.append(bits)
        if k is not None and width != k:
            raise InputError(f"line {lineno}: rank {width} != earlier rank {k}")
        if n is not None and len(factors) != n:
            raise InputError(f"line {lineno}: degree {len(factors)} != earlier degree {n}")
        k, n = width, len(factors)
        monos.append(Monomial.make(factors, k))
    if k is None:
        return Polynomial.zero(0, 0)
    return Polynomial.make(monos)


def render_polynomial(p: Polynomial) -> str:
    """Canonical text form: sorted factors within sorted monomials."""
    return "\n".join(str(m) for m in p.support()) + ("\n" if p.monomials else "")
