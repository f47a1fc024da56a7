"""Built-in data: generator polynomials, stabilizer shapes, construction inputs.

Monomials are written with subscript tokens: "123" is the functional
rho_1 + rho_2 + rho_3, so "1 1 2 3 123" is the degree-5 monomial
rho_1^2 rho_2 rho_3 rho_123.  Everything here is exact input, except the
small covers' tangent_monomials, restricted_cosets and complement: those
are published expected values that computed output is checked against.
"""

from __future__ import annotations

from z2bord.gf2 import unit
from z2bord.repalg import Polynomial


def rho(token: str, k: int) -> int:
    """Functional from a subscript token, e.g. rho("13", 3) = 101."""
    v = 0
    for c in token:
        v ^= unit(int(c), k)
    return v


def mono(tokens: str, k: int) -> tuple[int, ...]:
    """The monomial of space-separated subscript tokens, its sorted factors."""
    return tuple(sorted(rho(t, k) for t in tokens.split()))


def poly(text: str, k: int) -> Polynomial:
    """One monomial per line; the degree is that of the first line."""
    monos = [mono(line, k) for line in text.strip().splitlines()]
    return Polynomial.make(monos, len(monos[0]), k)


# The four degree-5 rank-3 generator polynomials.  Together with their
# GL(3,2) images they span the whole realizable degree-5 space.
GEN_1 = poly(
    """
    1 1 2 3 123
    1 1 2 13 23
    1 1 12 3 23
    1 1 12 13 123
    """,
    3,
)

GEN_2 = poly(
    """
    1 1 2 2 3
    1 1 12 12 3
    12 12 2 2 3
    1 13 2 23 3
    1 13 12 123 3
    12 123 2 23 3
    """,
    3,
)

GEN_3 = poly(
    """
    1 1 2 3 23
    1 1 2 13 123
    1 1 12 3 23
    1 1 12 13 123
    1 2 3 12 23
    1 2 3 13 23
    1 2 3 23 123
    1 2 12 13 123
    1 2 3 13 123
    1 2 13 23 123
    """,
    3,
)

GEN_4 = poly(
    """
    1 1 2 12 3
    1 1 2 2 3
    1 1 2 12 13
    1 1 12 12 13
    2 2 1 12 3
    2 2 1 12 23
    2 2 12 12 23
    12 12 1 2 13
    12 12 1 2 23
    1 2 3 13 23
    1 3 12 13 23
    2 3 12 13 23
    """,
    3,
)

GENERATORS = (GEN_1, GEN_2, GEN_3, GEN_4)

# The six orbit-3 elements whose support contains a rho_1^2-monomial;
# element 1 is GEN_3 itself.  They satisfy v4 = v1+v2+v3, v5 = v2+v3,
# v6 = v1+v2.
ORBIT3_SQUARES = (
    GEN_3,
    poly(
        """
        1 1 3 2 23
        1 1 3 12 123
        1 1 13 2 23
        1 1 13 12 123
        1 2 3 13 23
        1 2 3 12 23
        1 2 3 23 123
        1 3 12 13 123
        1 2 3 12 123
        1 3 12 23 123
        """,
        3,
    ),
    poly(
        """
        1 1 12 3 123
        1 1 12 13 23
        1 1 2 3 123
        1 1 2 13 23
        1 12 3 2 123
        1 12 3 13 123
        1 12 3 123 23
        1 12 2 13 23
        1 12 3 13 23
        1 12 13 123 23
        """,
        3,
    ),
    poly(
        """
        1 1 13 2 123
        1 1 13 12 23
        1 1 3 2 123
        1 1 3 12 23
        1 13 2 3 123
        1 13 2 12 123
        1 13 2 123 23
        1 13 3 12 23
        1 13 2 12 23
        1 13 12 123 23
        """,
        3,
    ),
    poly(
        """
        1 1 23 3 2
        1 1 23 13 12
        1 1 123 3 2
        1 1 123 13 12
        1 23 3 123 2
        1 23 3 13 2
        1 23 3 2 12
        1 23 123 13 12
        1 23 3 13 12
        1 23 13 2 12
        """,
        3,
    ),
    poly(
        """
        1 1 123 3 12
        1 1 123 13 2
        1 1 23 3 12
        1 1 23 13 2
        1 123 3 23 12
        1 123 3 13 12
        1 123 3 12 2
        1 123 23 13 2
        1 123 3 13 2
        1 123 13 12 2
        """,
        3,
    ),
)

# Four orbit-4 elements reached from GEN_4 by lower-unitriangular moves;
# element 1 is GEN_4.  v4 = v1+v2+v3 + the four ORBIT2_SQUARES below.
ORBIT4_SQUARES = (
    GEN_4,
    poly(
        """
        1 1 2 12 13
        1 1 2 2 13
        1 1 2 12 3
        1 1 12 12 3
        2 2 1 12 13
        2 2 1 12 123
        2 2 12 12 123
        12 12 1 2 3
        12 12 1 2 123
        1 2 13 3 123
        1 13 12 3 123
        2 13 12 3 123
        """,
        3,
    ),
    poly(
        """
        1 1 2 12 23
        1 1 2 2 23
        1 1 2 12 123
        1 1 12 12 123
        2 2 1 12 23
        2 2 1 12 3
        2 2 12 12 3
        12 12 1 2 123
        12 12 1 2 3
        1 2 23 123 3
        1 23 12 123 3
        2 23 12 123 3
        """,
        3,
    ),
    poly(
        """
        1 1 2 12 123
        1 1 2 2 123
        1 1 2 12 23
        1 1 12 12 23
        2 2 1 12 123
        2 2 1 12 13
        2 2 12 12 13
        12 12 1 2 23
        12 12 1 2 13
        1 2 123 23 13
        1 123 12 23 13
        2 123 12 23 13
        """,
        3,
    ),
)

# Four orbit-2 elements entering the seven-term dependency; element 1 is
# GEN_2 itself.
ORBIT2_SQUARES = (
    GEN_2,
    poly(
        """
        1 1 2 2 13
        1 1 12 12 13
        12 12 2 2 13
        1 3 2 123 13
        1 3 12 23 13
        12 23 2 123 13
        """,
        3,
    ),
    poly(
        """
        1 1 2 2 23
        1 1 12 12 23
        12 12 2 2 23
        1 123 2 3 23
        1 123 12 13 23
        12 13 2 3 23
        """,
        3,
    ),
    poly(
        """
        1 1 2 2 123
        1 1 12 12 123
        12 12 2 2 123
        1 23 2 13 123
        1 23 12 3 123
        12 3 2 13 123
        """,
        3,
    ),
)

# Monomial witnessing non-membership: a single tower rho_1^3 rho_2 rho_3.
REJECTED_SINGLETON = poly("1 1 1 2 3", 3)


# Stabilizer shape predicates for the four generators, on the row tuples
# of enumerate_gl(3).
def stab_shape_1(a: tuple[int, ...]) -> bool:
    """First row (1, 0, 0); the rest free."""
    return a[0] == 0b100


def stab_shape_2(a: tuple[int, ...]) -> bool:
    """Block-diagonal: invertible 2x2 block on coordinates 1,2 and a 1."""
    return (a[0] | a[1]) & 0b001 == 0 and a[2] == 0b001


def stab_shape_3(a: tuple[int, ...]) -> bool:
    """Lower-unitriangular with only the bottom-left entries free."""
    return a[0] == 0b100 and a[1] == 0b010 and a[2] & 0b001 == 0b001


STAB_MATRICES_4 = (
    (0b100, 0b010, 0b001),
    (0b010, 0b100, 0b001),
    (0b100, 0b110, 0b101),
    (0b110, 0b100, 0b101),
    (0b010, 0b110, 0b011),
    (0b110, 0b010, 0b011),
)


def stab_shape_4(a: tuple[int, ...]) -> bool:
    return a in STAB_MATRICES_4


STAB_SHAPES = (stab_shape_1, stab_shape_2, stab_shape_3, stab_shape_4)


def _vecs(tokens: str, k: int) -> tuple[int, ...]:
    return tuple(rho(t, k) for t in tokens.split())


# Small cover over a 1-simplex times a 4-simplex whose rank-3 subgroup
# restriction lands in the orbit of GEN_3.  Facet label columns are in
# printed order: the two facets of the first factor, then the five of the
# second.
SMALL_COVER_1 = {
    "factor_dims": (1, 4),
    "matrix": [
        [1, 0, 1, 0, 0, 0, 1],
        [0, 1, 1, 0, 0, 0, 1],
        [0, 0, 0, 1, 0, 0, 1],
        [0, 0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 0, 1, 1],
    ],
    "subgroup_basis": _vecs("2345 124 125", 5),
    "tangent_monomials": [
        mono(t, 5)
        for t in (
            "2 23 24 25 12",
            "3 23 34 35 12",
            "4 24 34 45 12",
            "5 25 35 45 12",
            "2 3 4 5 12",
            "1 13 14 15 12",
            "3 13 34 35 12",
            "4 14 34 45 12",
            "5 15 35 45 12",
            "1 3 4 5 12",
        )
    ],
    # Restriction classes written with rank-5 coset representatives,
    # aligned monomial by monomial with tangent_monomials: equal as
    # multisets after restriction to subgroup_basis.
    "restricted_cosets": [
        _vecs(t, 5)
        for t in (
            "2 1 125 25 12",
            "12 12 1 25 125",
            "15 125 25 1 12",
            "5 25 125 1 12",
            "2 12 12 15 5",
            "1 2 5 15 12",
            "12 12 2 25 125",
            "15 5 25 1 12",
            "5 15 125 1 12",
            "1 12 12 15 5",
        )
    ],
    "complement": _vecs("123 145 2345", 5),
}

# Small cover over a 2-simplex times a 3-simplex; its rank-3 restriction
# lands in the orbit of GEN_4.
SMALL_COVER_2 = {
    "factor_dims": (2, 3),
    "matrix": [
        [1, 0, 1, 1, 0, 0, 1],
        [0, 1, 1, 1, 0, 0, 1],
        [0, 0, 0, 1, 0, 0, 1],
        [0, 0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 0, 1, 1],
    ],
    "subgroup_basis": _vecs("2345 24 123", 5),
    "tangent_monomials": [
        mono(t, 5)
        for t in (
            "5 23 3 4 13",
            "5 23 3 4 12",
            "5 13 3 4 12",
            "5 23 35 45 13",
            "5 23 35 45 12",
            "5 13 35 45 12",
            "4 23 34 45 13",
            "4 23 34 45 12",
            "4 13 34 45 12",
            "3 23 34 35 13",
            "3 23 34 35 12",
            "3 13 34 35 12",
        )
    ],
    "restricted_cosets": [
        _vecs(t, 5)
        for t in (
            "13 13 23 3 12",
            "13 23 3 12 12",
            "13 13 3 12 12",
            "13 13 23 23 1",
            "13 23 23 1 12",
            "13 13 1 23 12",
            "12 23 23 123 13",
            "12 12 23 23 123",
            "12 12 13 123 23",
            "3 23 123 1 13",
            "3 23 123 1 12",
            "3 13 123 1 12",
        )
    ],
    "complement": _vecs("124 135 2345", 5),
}

# The standard simplex of dimension five admits essentially one
# characteristic function; no admissible rank-3 subgroup gives a nonzero
# isolated restriction.
DELTA5 = {
    "factor_dims": (5,),
    "matrix": [
        [1, 0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0, 1],
        [0, 0, 1, 0, 0, 1],
        [0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 1],
    ],
}

# Subset families for the rank-3 actions on the 5-dimensional Milnor
# hypersurface (m=2, n=4) hitting GEN_1 and GEN_2.
MILNOR_FAMILY_1 = (frozenset({2}), frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 2, 3}))
MILNOR_FAMILY_2 = (frozenset({1}), frozenset({2}), frozenset({1, 2}), frozenset({1, 2, 3}))
