"""Monomials and GF(2) polynomials of irreducible (Z/2)^k-representations.

An irreducible representation is a functional on (Z/2)^k, stored as a
bit-packed vector (the zero vector is the trivial representation).  A
monomial is a multiset of such functionals, stored as the sorted tuple of
its factors, so its degree is len(m) and the multiplicity of rho is
m.count(rho).  A polynomial is a GF(2) set of monomials of a common
degree n over a common rank k, and it carries n and k once.
"""

from __future__ import annotations

from math import comb, prod

from z2bord.gf2 import Frozen, InputError, parse_vec, rank_of, transpose, vec_str


class NonIsolatedError(ValueError):
    """A factor is the trivial representation, so fixed points are not isolated."""


def is_faithful(m: tuple[int, ...], k: int) -> bool:
    """No trivial factor, and the factors span the rank-k dual space."""
    return 0 not in m and rank_of(m) == k


def images(factors, rows) -> dict[int, int]:
    """The dict from each f of factors to fM, the XOR of the rows of the
    matrix M at f's set bits, row 1 at bit len(rows) - 1, the highest of
    f's width.  Every linear map on functionals is read through it: fA is f
    composed with g -> Ag, and f times the transposed basis rows is f
    restricted to that basis.  Each f costs one XOR per set bit, so a
    caller maps only the factors it reads."""
    out = {}
    for f in factors:
        x, g = 0, f
        while g:
            low = g & -g
            x ^= rows[-low.bit_length()]
            g ^= low
        out[f] = x
    return out


def restrict(m: tuple[int, ...], basis, k: int) -> tuple[int, ...]:
    """The rank-k monomial m restricted to the subgroup with the ordered
    basis: factor f becomes the vector (f(b_1), ..., f(b_r)), f(b_1) its
    highest bit.  The basis is not validated."""
    image = images(m, transpose(tuple(basis), k))
    return tuple(sorted(map(image.__getitem__, m)))


def render_monomial(m: tuple[int, ...], k: int) -> str:
    """The factors as comma-separated width-k bit-strings."""
    return ",".join(vec_str(f, k) for f in m)


def kernel_class(m: tuple[int, ...], rho: int) -> tuple[int, ...]:
    """The class of m under restriction to ker rho, rho nonzero, over the
    canonical basis membership.kernel_basis: with q the lowest set bit of
    rho, that basis is e_g + rho_g e_q for g != q, so f restricts to
    f + rho when bit q of f is set, else to f, with bit q squeezed out.
    The rank is not needed."""
    low = rho & -rho
    return tuple(sorted([(f ^ rho if f & low else f) >> 1 & -low | f & (low - 1) for f in m]))


class Polynomial(Frozen):
    """A GF(2) sum of monomials of common degree n over rank k.

    The constructor keeps the monomials as given: each a sorted tuple of
    n factors below 1 << k.  make builds one from any monomials."""

    _fields = ("monomials", "n", "k")

    # Its own constructor, as it is hot: reproduce-paper builds 360, and the base's is slower.
    def __init__(self, monomials: frozenset[tuple[int, ...]], n: int, k: int):
        d = self.__dict__
        d["monomials"] = monomials
        d["n"] = n
        d["k"] = k

    @classmethod
    def make(cls, monomials, n: int, k: int) -> "Polynomial":
        """Mod-2 sum of the monomials, each n factors below 1 << k in any order
        (a sorted tuple is kept as given): a repeated monomial cancels in pairs.
        One pass sorts, checks and toggles each term in the set of those seen
        an odd number of times, so the first bad term raises, cancelled or not."""
        odd = set()
        bound = 1 << k
        for m in monomials:
            if (s := tuple(sorted(m))) != m:
                m = s
            if len(m) != n:
                raise InputError(f"monomial {render_monomial(m, k)} has degree "
                                 f"{len(m)}, not {n}")
            if m and not 0 <= m[0] <= m[-1] < bound:
                raise InputError(f"monomial {render_monomial(m, k)} has a factor "
                                 f"outside rank {k}")
            if m in odd:
                odd.remove(m)
            else:
                odd.add(m)
        return cls(frozenset(odd), n, k)

    @classmethod
    def zero(cls, n: int, k: int) -> "Polynomial":
        return cls(frozenset(), n, k)

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    def support(self) -> list[tuple[int, ...]]:
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


def apply_automorphism(p: Polynomial, a: tuple[int, ...]) -> Polynomial:
    """Precompose every factor functional with the automorphism g -> Ag:
    the rows a are checked once, then each distinct factor f becomes fA."""
    k = p.k
    if len(a) != k or any(r >> k for r in a) or rank_of(a) != k:
        raise InputError("matrix is singular or of the wrong size")
    image = images(set().union(*p.monomials), a).__getitem__
    monos = {tuple(sorted(map(image, m))) for m in p.monomials}
    return Polynomial(frozenset(monos), p.n, k)


def sub_multiset_multiplicity(t: tuple[int, ...], s) -> int:
    """Number of ways the multiset s sits inside the factors of t.

    s is an iterable of bit-packed functionals; the count is a product of
    binomial coefficients of multiplicities, and 0 when s is not a
    sub-multiset of t.
    """
    s = tuple(s)
    return prod(comb(t.count(gamma), s.count(gamma)) for gamma in set(s))


def content_lines(text: str) -> list[tuple[int, str]]:
    """(line number from 1, stripped text) of every line that is not blank
    once its '#' comment is removed; shared by all input file formats."""
    lines = enumerate(text.splitlines(), start=1)
    return [(lineno, line) for lineno, raw in lines if (line := raw.split("#", 1)[0].strip())]


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
        monos.append(factors)
    if k is None:
        return Polynomial.zero(0, 0)
    return Polynomial.make(monos, n, k)


def render_polynomial(p: Polynomial) -> str:
    """Canonical text form: sorted factors within sorted monomials.  The
    format has no line for the empty monomial, so a nonzero polynomial of
    degree 0 is refused."""
    if p.n == 0 and not p.is_zero:
        raise InputError("a nonzero polynomial of degree 0 has no text form")
    lines = (render_monomial(m, p.k) + "\n" for m in p.support())
    return "".join(lines)
