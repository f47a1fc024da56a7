"""Fixed-point polynomials of Milnor hypersurfaces under pulled-back actions.

An action of (Z/2)^r on the (m+n-1)-dimensional hypersurface H(m, n) in
RP^m x RP^n is induced by n subsets S_1..S_n of {1..r}.  H(m, n) is the
projectivization RP(xi) of a real vector bundle xi over RP^m: with
rho_0 = 0 and rho_l the functional of S_l, the fiber over the fixed point
e_i carries the characters rho_j, j in {0..n} minus {i}.  The
fixed-point polynomial sums, mod 2, one tangent monomial per fixed point
(e_i, rho_j) of RP(xi).

Relabeling S_1..S_m among themselves, or S_{m+1}..S_n among themselves,
by a permutation pi maps the fixed point (e_i, rho_j) to (e_{pi i},
rho_{pi j}) with the same tangent monomial, so the polynomial depends
only on the pair of sets {S_1..S_m}, {S_{m+1}..S_n}.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from z2bord.gf2 import InputError, Record, ResourceLimitError
from z2bord.repalg import Polynomial


def rho_of_subset(s, r: int) -> int:
    """Indicator functional of a subset of {1..r}."""
    v = 0
    for i in s:
        if not 1 <= i <= r:
            raise InputError(f"element {i} outside 1..{r}")
        v |= 1 << (r - i)
    return v


class SubsetFamily(NamedTuple):
    r: int
    sets: tuple[frozenset[int], ...]

    @classmethod
    def make(cls, r: int, sets) -> "SubsetFamily":
        return cls(r, tuple(frozenset(s) for s in sets))

    @classmethod
    def parse(cls, r: int, text: str) -> "SubsetFamily":
        """Parse digit-string sets, e.g. '2;12;23;123'."""
        sets = []
        for tok in text.split(";"):
            tok = tok.strip()
            if tok.strip("123456789"):
                raise InputError(f"bad subset token {tok!r}")
            sets.append(frozenset(int(c) for c in tok))
        return cls.make(r, sets)

    def rho(self, i: int) -> int:
        """Functional of S_i (1-based)."""
        return rho_of_subset(self.sets[i - 1], self.r)


def _check_sizes(m: int, n: int):
    if not 1 <= m <= n:
        raise InputError(f"need 1 <= m <= n, got m={m}, n={n}")


def _validate(m: int, n: int, family: SubsetFamily):
    _check_sizes(m, n)
    if len(family.sets) != n:
        raise InputError(f"need {n} subsets, got {len(family.sets)}")
    if any(not s for s in family.sets):
        raise InputError("subsets must be nonempty")
    if len(set(family.sets)) != n:
        raise InputError("subsets must be distinct")


def milnor_fixed_polynomial(m: int, n: int, family: SubsetFamily) -> Polynomial:
    """Fixed-point sum of RP(xi) over RP^m, mod 2.

    The fixed point (e_i, rho_j) has the tangent factors rho_i + rho_k
    (k <= m, k != i) along the base and rho_j + rho_l (l != i, j) along
    the fiber.  _validate makes rho_0..rho_n pairwise distinct, so no
    factor is trivial and every fixed point is isolated.
    """
    _validate(m, n, family)
    rho = [0] + [family.rho(l) for l in range(1, n + 1)]
    terms = []
    for i in range(m + 1):
        base = [rho[i] ^ rho[k] for k in range(m + 1) if k != i]
        others = [l for l in range(n + 1) if l != i]
        for j in others:
            fiber = [rho[j] ^ rho[l] for l in others if l != j]
            terms.append(base + fiber)
    return Polynomial.make(terms, m + n - 1, family.r)


class SearchReport(Record):
    """produced: the distinct polynomials; hits: per target, the families
    that reach it; unreached: the indices of targets never hit."""

    # skipped_non_isolated is always 0: a validated family has isolated
    # fixed points only.  Kept because milnor-search prints it.
    _fields = ("families_tried", "skipped_non_isolated", "produced", "hits", "unreached")

    def distinct_polynomials(self) -> int:
        return len(self.produced)


def search_orbit_hits(m: int, n: int, r: int, targets) -> SearchReport:
    """Exhaustive search over ordered families of n distinct nonempty
    subsets of {1..r}; reports which target orbits are reached.

    No family is skipped: _validate makes every fixed point isolated.
    Every family is counted and listed under the targets it hits, in
    permutation order, but its polynomial is computed once per relabeling
    class (see the module docstring): at (2, 4, 3), 840 families give 210
    polynomials to evaluate.
    """
    if r > 3 or n > 5:
        raise ResourceLimitError("search bounded by r <= 3, n <= 5")
    if r < 1 or n > (1 << r) - 1:
        raise InputError(
            f"no family of {n} distinct nonempty subsets of 1..{r}")
    _check_sizes(m, n)
    targets = list(targets)
    families_tried = 0
    produced: set[Polynomial] = set()
    hits: list[list[SubsetFamily]] = [[] for _ in targets]
    subsets = [frozenset(s) for size in range(1, r + 1)
               for s in itertools.combinations(range(1, r + 1), size)]
    hit_by_class: dict[tuple[frozenset, frozenset], list[int]] = {}
    for sets in itertools.permutations(subsets, n):
        family = SubsetFamily(r, sets)
        families_tried += 1
        relabeling_class = (frozenset(sets[:m]), frozenset(sets[m:]))
        hit = hit_by_class.get(relabeling_class)
        if hit is None:
            p = milnor_fixed_polynomial(m, n, family)
            produced.add(p)
            hit = hit_by_class[relabeling_class] = [
                t_i for t_i, t in enumerate(targets) if p in t.elements]
        for t_i in hit:
            hits[t_i].append(family)
    unreached = [i for i, fams in enumerate(hits) if not fams]
    return SearchReport(families_tried, 0, produced, hits, unreached)


def family_label(family: SubsetFamily) -> str:
    return ";".join("".join(map(str, sorted(s))) for s in family.sets)

