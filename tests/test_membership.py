"""Realizability criterion: direct checker and linear constraint system."""

import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2bord.catalog import GEN_1, GENERATORS, REJECTED_SINGLETON, mono, poly
from z2bord.gf2 import ResourceLimitError
from z2bord.membership import (
    NonFaithfulError,
    build_constraint_system,
    check_membership,
    decompose_for_rho,
    enumerate_faithful_monomials,
    image_dimension,
    kernel_basis,
    restriction_class,
)
from z2bord.repalg import Polynomial
from test_acceptance import closed_form_dimension


RP2 = poly("1 2\n1 12\n2 12", 2)  # the unique realizable class at degree 2, rank 2


class TestDecomposition:
    def test_kernel_basis_orthogonal(self):
        from z2bord.gf2 import dot

        for rho in range(1, 8):
            basis = kernel_basis(rho, 3)
            assert len(basis) == 2
            assert all(dot(rho, b) == 0 for b in basis)

    def test_restriction_class_kills_divisible_factors(self):
        m = mono("1 1 2 3 23", 3)
        r = restriction_class(m, 0b100)
        assert r.k == 2 and r.degree == 5
        assert r.mult(0) == 2  # both copies of the first functional vanish

    def test_generator_groups_for_first_coordinate(self):
        dec = decompose_for_rho(GEN_1, 0b100)
        assert sorted(g.multiplicity for g in dec.groups) == [2]
        (g,) = dec.groups
        assert len(g.members) == 4  # every monomial of f_1 is divisible twice

    def test_multiplicity_one_groups_have_even_size_when_accepted(self):
        for p in GENERATORS:
            cert = check_membership(p)
            assert cert.accepted
            for dec in cert.decompositions:
                for g in dec.groups:
                    if g.multiplicity == 1:
                        assert len(g.members) % 2 == 0


class TestChecker:
    def test_accepts_generators(self):
        for p in GENERATORS:
            assert check_membership(p).accepted

    def test_accepts_zero(self):
        assert check_membership(Polynomial.zero(5, 3)).accepted

    def test_accepts_projective_plane(self):
        assert check_membership(RP2).accepted

    def test_rejects_singleton_with_certificate(self):
        cert = check_membership(REJECTED_SINGLETON)
        assert not cert.accepted
        v = cert.violation
        assert v is not None and v.rho != 0

    def test_rejects_single_faithful_monomial_any_rank(self):
        p = poly("1 2", 2)
        cert = check_membership(p)
        assert not cert.accepted

    def test_non_faithful_input_raises(self):
        with pytest.raises(NonFaithfulError):
            check_membership(poly("1 1 2 1 12", 3))  # factors span rank 2 only


class TestFaithfulEnumeration:
    def test_small_counts(self):
        assert len(enumerate_faithful_monomials(1, 2)) == 0
        assert len(enumerate_faithful_monomials(2, 2)) == 3
        assert len(enumerate_faithful_monomials(5, 3)) == 329

    def test_all_enumerated_are_faithful(self):
        for m in enumerate_faithful_monomials(3, 2):
            assert m.is_faithful()

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            enumerate_faithful_monomials(9, 3)


class TestConstraintSystem:
    def test_degree_two_rank_two(self):
        cs = build_constraint_system(2, 2)
        assert cs.nullspace_dimension() == 1
        (basis_poly,) = cs.nullspace_basis()
        assert basis_poly == RP2

    def test_dimensions(self):
        assert image_dimension(2, 2) == 1
        assert image_dimension(3, 3) == 13
        assert image_dimension(1, 3) == 0
        assert image_dimension(2, 3) == 0

    def test_dropped_system_is_freed(self):
        cs = build_constraint_system(2, 2)
        assert cs.accepts(RP2)
        ref = weakref.ref(cs)
        del cs
        gc.collect()
        assert ref() is None

    def test_indicator_round_trip(self):
        cs = build_constraint_system(5, 3)
        bits = cs.indicator(GEN_1)
        assert bits.bit_count() == 4
        assert cs.in_nullspace(bits)

    def _oracle_agreement(self, n, k, subsets):
        cs = build_constraint_system(n, k)
        for monos in subsets:
            p = Polynomial(frozenset(monos), n, k)
            assert check_membership(p).accepted == cs.accepts(p)

    def test_oracle_equivalence_exhaustive(self):
        for n, k in ((2, 2), (3, 2)):
            monomials = enumerate_faithful_monomials(n, k)
            subsets = []
            for size in range(len(monomials) + 1):
                subsets.extend(itertools.combinations(monomials, size))
            self._oracle_agreement(n, k, subsets)

    def test_oracle_equivalence_sampled(self):
        rng = random.Random(17)
        for n, k in ((4, 2), (3, 3)):
            monomials = enumerate_faithful_monomials(n, k)
            subsets = [
                rng.sample(monomials, rng.randint(1, len(monomials)))
                for _ in range(300)
            ]
            self._oracle_agreement(n, k, subsets)

    def test_wide_system_at_full_rank(self):
        # (4,4) has 840 faithful monomials; n = k gives a closed form.
        assert image_dimension(4, 4) == closed_form_dimension(4) == 511
        cs = build_constraint_system(4, 4)
        basis = cs.nullspace_basis()
        assert len(cs.monomials) == 840 and len(basis) == 511
        for p in basis:
            assert cs.accepts(p)
            assert check_membership(p).accepted

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_membership_closed_under_addition(self, rng):
        cs = build_constraint_system(3, 3)
        basis = cs.nullspace_basis()
        p = Polynomial.zero(3, 3)
        for b in basis:
            if rng.random() < 0.5:
                p = p + b
        assert check_membership(p).accepted
