"""Automorphism orbits, stabilizers, spans, generating sets."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2bord.catalog import (
    GENERATORS,
    ORBIT2_SQUARES,
    ORBIT3_SQUARES,
    ORBIT4_SQUARES,
    STAB_SHAPES,
    poly,
)
from z2bord import orbits
from z2bord.gf2 import InputError, enumerate_gl
from z2bord.membership import (
    build_constraint_system, check_membership, enumerate_faithful_monomials,
)
from z2bord.orbits import (
    orbit,
    span_dimension,
    stabilizer_matches,
    verify_generating_set,
)
from z2bord.repalg import Polynomial, apply_automorphism, parse_polynomial


ORBIT_SIZES = (7, 28, 42, 28)


class TestOrbit:
    def test_sizes(self):
        for g, size in zip(GENERATORS, ORBIT_SIZES):
            assert len(orbit(g)) == size

    def test_contains_seed(self):
        for g in GENERATORS:
            o = orbit(g)
            assert g in o and o.seed == g

    def test_orbit_stabilizer_product(self):
        for g in GENERATORS:
            o = orbit(g)
            assert len(o) * len(o.stabilizer) == 168

    def test_closed_under_action(self):
        o = orbit(GENERATORS[0])
        rng = random.Random(2)
        gl = enumerate_gl(3)
        for q in o.elements:
            for a in rng.sample(gl, 5):
                assert apply_automorphism(q, a) in o

    def test_stabilizer_fixes_seed(self):
        for g in GENERATORS:
            for a in orbit(g).stabilizer:
                assert apply_automorphism(g, a) == g

    def test_stabilizer_shapes(self):
        for g, shape in zip(GENERATORS, STAB_SHAPES):
            assert stabilizer_matches(orbit(g), shape)

    def test_named_squares_lie_in_their_orbits(self):
        o2, o3, o4 = (orbit(GENERATORS[i]) for i in (1, 2, 3))
        assert all(p in o3 for p in ORBIT3_SQUARES)
        assert all(p in o4 for p in ORBIT4_SQUARES)
        assert all(p in o2 for p in ORBIT2_SQUARES)


def act(p, a):
    """p under the matrix with rows a: factor f becomes the row vector fA,
    the XOR of the rows a_i over the bits f_i of f, f_1 its highest bit."""
    k = p.k

    def image(f):
        v = 0
        for i, row in enumerate(a, start=1):
            if f >> (k - i) & 1:
                v ^= row
        return v

    monos = frozenset(tuple(sorted(map(image, m))) for m in p.monomials)
    return Polynomial(monos, p.n, k)


def walk_orbit(p):
    """The orbit's elements and stabilizer by applying every matrix of GL(k,2)."""
    images = [(a, act(p, a)) for a in enumerate_gl(p.k)]
    return frozenset(q for _, q in images), tuple(a for a, q in images if q == p)


def assert_matches_the_walk(p):
    o = orbit(p)
    elements, stabilizer = walk_orbit(p)
    assert o.elements == elements
    assert o.stabilizer == stabilizer
    assert len(o) * len(o.stabilizer) == len(enumerate_gl(p.k))


@st.composite
def faithful_polynomials(draw):
    """A polynomial of up to 6 faithful monomials of degree n over rank k <= 3."""
    k = draw(st.integers(1, 3), label="k")
    n = draw(st.integers(k, 5), label="n")
    monos = draw(st.sets(st.sampled_from(enumerate_faithful_monomials(n, k)),
                         min_size=1, max_size=6), label="monomials")
    return Polynomial.make(monos, n, k)


class TestOrbitOracle:
    """orbit, with its stabilizer scan and one image per coset, against
    the walk over all of GL(k,2) with an action written here."""

    @settings(max_examples=60, deadline=None)
    @given(faithful_polynomials())
    def test_faithful_polynomials_of_rank_at_most_3(self, p):
        assert_matches_the_walk(p)

    def test_generators(self):
        for g in GENERATORS:
            assert_matches_the_walk(g)

    def test_one_image_per_orbit_element(self, monkeypatch):
        # The coset cover is what makes reproduce-paper apply 105 matrices, not 672.
        calls = []
        monkeypatch.setattr(orbits, "apply_automorphism",
                            lambda p, a: calls.append(a) or apply_automorphism(p, a))
        sizes = [len(orbit(g)) for g in GENERATORS]
        assert len(calls) == sum(sizes) == 105

    def test_zero_polynomial_is_fixed_by_all_of_gl(self):
        z = Polynomial.zero(5, 3)
        o = orbit(z)
        assert o.elements == {z} and o.stabilizer == enumerate_gl(3)
        assert_matches_the_walk(z)

    def test_rank_4_units(self):
        p = parse_polynomial("0001,0010,0100,1000\n")
        o = orbit(p)
        assert (len(o), len(o.stabilizer)) == (840, 24)
        assert_matches_the_walk(p)

    @pytest.mark.slow
    def test_rank_4_trivial_stabilizer(self):
        p = parse_polynomial("0001,0010,0100,1000\n0011,0010,0100,1000\n0001,0110,1100,1000\n")
        o = orbit(p)
        assert (len(o), len(o.stabilizer)) == (20160, 1)
        assert_matches_the_walk(p)


class TestSpan:
    def _ladder_pools(self):
        pool = []
        for g in GENERATORS:
            pool = pool + sorted(orbit(g).elements, key=str)
            yield list(pool)

    def test_ladder(self):
        dims = [span_dimension(pool) for pool in self._ladder_pools()]
        assert dims == [7, 35, 56, 77]

    def test_permutation_invariance(self):
        pool = list(orbit(GENERATORS[1]).elements)
        rng = random.Random(9)
        base = span_dimension(pool)
        for _ in range(5):
            rng.shuffle(pool)
            assert span_dimension(pool) == base

    def test_dependency_identities(self):
        s = ORBIT3_SQUARES
        assert s[3] == s[0] + s[1] + s[2]
        assert s[4] == s[1] + s[2]
        assert s[5] == s[0] + s[1]

    def test_seven_term_identity(self):
        s4, s2 = ORBIT4_SQUARES, ORBIT2_SQUARES
        assert s4[3] == s4[0] + s4[1] + s4[2] + s2[0] + s2[1] + s2[2] + s2[3]


class TestGeneratingSet:
    def test_full_pool_generates(self):
        pool = []
        for g in GENERATORS:
            pool.extend(orbit(g).elements)
        assert verify_generating_set(build_constraint_system(5, 3), pool)

    def test_the_system_accepts_the_full_pool(self):
        # verify_generating_set takes check_membership's verdicts alone;
        # the constraint system must agree on each of the 105 elements.
        cs = build_constraint_system(5, 3)
        pool = [p for g in GENERATORS for p in orbit(g).elements]
        assert len(pool) == 105
        assert all(check_membership(p).accepted and cs.accepts(p) for p in pool)

    def test_first_orbit_alone_does_not(self):
        cs = build_constraint_system(5, 3)
        assert not verify_generating_set(cs, list(orbit(GENERATORS[0]).elements))

    def test_projective_plane_generates_degree_two(self):
        rp2 = poly("1 2\n1 12\n2 12", 2)
        assert verify_generating_set(build_constraint_system(2, 2), [rp2])

    def test_generator_of_another_degree_raises(self):
        # accepted by the membership criterion at degree 4, outside the degree-5 basis
        p = min(build_constraint_system(4, 3).nullspace_basis(), key=len)
        assert check_membership(p).accepted
        with pytest.raises(InputError, match="^a polynomial of degree 4 rank 3 has no indicator "
                                             "over the faithful monomials of degree 5 rank 3$"):
            verify_generating_set(build_constraint_system(5, 3), [p])

    def test_rejected_generator_raises(self):
        with pytest.raises(InputError, match="^generator rejected by the membership criterion:\n01,10\n$"):
            verify_generating_set(build_constraint_system(2, 2), [poly("1 2", 2)])


BAD_INPUT = {
    "span_mixed_shapes": (lambda: span_dimension([GENERATORS[0], poly("1 2\n1 12\n2 12", 2)]),
                          "polynomials of mixed degree or rank"),
}


@pytest.mark.parametrize("call,message", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_raises_input_error(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()
