"""Realizability criterion: direct checker and linear constraint system."""

import collections
import functools
import gc
import itertools
import operator
import random
import re
import sys
import threading
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2bord.catalog import (
    GEN_1, GENERATORS, REJECTED_SINGLETON, SMALL_COVER_1, SMALL_COVER_2, mono, poly,
)
from z2bord.gf2 import (
    InputError, ResourceLimitError, enumerate_gl, from_bits, nullspace, rank_of, set_bits, unit,
)
from z2bord import gf2, membership
from z2bord.membership import (
    Violation,
    build_constraint_system,
    check_membership,
    decompose_for_rho,
    enumerate_faithful_monomials,
    factor_counts,
    image_dimension,
    index_permutation,
    kernel_basis,
    odd_codes,
    parity_profile,
    restriction_class,
    singer_coordinates,
    singer_cycle,
    submultiset,
)
from z2bord.repalg import (
    Polynomial, apply_automorphism, automorphism_table, is_faithful, kernel_class,
    sub_multiset_multiplicity,
)
from z2bord.report import run_reproduction
from z2bord.smallcover import CharacteristicFunction, fixed_polynomial
from test_acceptance import closed_form_dimension
from test_gf2 import walk


RP2 = poly("1 2\n1 12\n2 12", 2)  # the unique realizable class at degree 2, rank 2


@functools.lru_cache(maxsize=None)
def indexed_system(n, k):
    """The constraint system of (n, k) and the indicators of its basis."""
    cs = build_constraint_system(n, k)
    return cs, [cs.indicator(p) for p in cs.nullspace_basis()]


class TestDecomposition:
    def test_kernel_basis_orthogonal(self):
        from z2bord.gf2 import dot

        for rho in range(1, 8):
            basis = kernel_basis(rho, 3)
            assert len(basis) == 2
            assert all(dot(rho, b) == 0 for b in basis)

    def test_restriction_class_kills_divisible_factors(self):
        m = mono("1 1 2 3 23", 3)
        r = restriction_class(m, 0b100, 3)
        assert len(r) == 5 and all(f < 0b100 for f in r)  # rank 2
        assert r.count(0) == 2  # both copies of the first functional vanish

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


UNIT_MONOMIALS = ["units", "first_unit_plus_units"]


def unit_monomials(k):
    """The factors of two faithful rank-k monomials of degree k, each
    factor of multiplicity 1: the units, and unit 1 with unit 1 + unit i."""
    return [[unit(i, k) for i in range(1, k + 1)],
            [unit(1, k)] + [unit(1, k) ^ unit(i, k) for i in range(2, k + 1)]]


class TestChecker:
    def test_accepts_generators(self):
        for p in GENERATORS:
            assert check_membership(p).accepted

    def test_accepts_zero(self):
        assert check_membership(Polynomial.zero(5, 3)).accepted

    def test_zero_certificate_of_high_rank_is_empty(self):
        # An accepted certificate lists only the rhos that divide some
        # monomial, not all 2^20 - 1 nonzero functionals.
        tracemalloc.start()
        try:
            cert = check_membership(Polynomial.zero(5, 20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert certificate(cert) == (True, None, ())
        assert peak < 1 << 20

    def test_decompositions_are_built_when_read(self):
        cert = check_membership(GEN_1)
        assert "decompositions" not in vars(cert)
        assert cert.decompositions is cert.decompositions
        assert len(cert.decompositions) == 7

    def test_certificate_lists_the_rhos_that_occur(self):
        rhos = [dec.rho for dec in check_membership(GEN_1).decompositions]
        assert len(rhos) == 7 and rhos == sorted(rhos)
        assert {f for m in GEN_1.monomials for f in m} == set(rhos)

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
        # factors span rank 2 only
        with pytest.raises(InputError, match="^monomial 010,100,100,100,110 is not faithful$"):
            check_membership(poly("1 1 2 1 12", 3))

    def test_non_faithful_error_names_the_smallest(self):
        # 1,1,2 and 1,2,2 span rank 2 only; 1,2,2 is 010,010,100 and sorts first.
        p = poly("1 2 3\n1 1 2\n1 2 2", 3)
        with pytest.raises(InputError, match="^monomial 010,010,100 is not faithful$"):
            check_membership(p)

    def test_a_type_error_from_the_kernel_is_not_an_input_error(self, monkeypatch):
        # Only a None profile means a non-faithful monomial; any other
        # TypeError on the way is raised as it is.
        def broken(m, k):
            raise TypeError("broken kernel")

        monkeypatch.setattr(membership, "_profiles", {})
        monkeypatch.setattr(membership, "parity_profile", broken)
        with pytest.raises(TypeError, match="^broken kernel$"):
            check_membership(GEN_1)

    @staticmethod
    def one_monomial_verdict(factors, k):
        """The violation of the one monomial with these factors over rank k,
        and the tracemalloc peak of its check."""
        p = Polynomial.make([tuple(sorted(factors))], k, k)
        tracemalloc.start()
        try:
            v = check_membership(p).violation
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return v, peak

    @pytest.mark.parametrize("factors", unit_monomials(16), ids=UNIT_MONOMIALS)
    def test_rank_16_monomial_rejected_in_small_memory(self, factors):
        # Every factor has multiplicity 1, so the smallest fails with the
        # empty witness; nothing of size 2^16 may be built on the way.
        v, peak = self.one_monomial_verdict(factors, 16)
        assert (v.rho, v.multiplicity, v.witness) == (min(factors), 1, ())
        assert peak < 1 << 20

    @pytest.mark.parametrize("factors", unit_monomials(32), ids=UNIT_MONOMIALS)
    def test_rank_32_monomial_rejected_in_small_memory(self, factors):
        # As at rank 16: a check's class tuples grow with the degree, not 2^k.
        v, peak = self.one_monomial_verdict(factors, 32)
        assert (v.rho, v.multiplicity, v.witness) == (min(factors), 1, ())
        assert peak < 1 << 20


class TestFaithfulEnumeration:
    def test_small_counts(self):
        assert len(enumerate_faithful_monomials(1, 2)) == 0
        assert len(enumerate_faithful_monomials(2, 2)) == 3
        assert len(enumerate_faithful_monomials(5, 3)) == 329
        # The dim-ladder rungs beyond the paper.
        assert len(enumerate_faithful_monomials(6, 3)) == 742
        assert len(enumerate_faithful_monomials(7, 3)) == 1478
        assert len(enumerate_faithful_monomials(8, 3)) == 2702
        assert len(enumerate_faithful_monomials(5, 4)) == 6048
        # The empty monomial spans rank 0; at rank 1 the one factor is 1.
        assert all(enumerate_faithful_monomials(0, k) == [] for k in range(1, 5))
        assert all(enumerate_faithful_monomials(n, 1) == [(1,) * n] for n in range(1, 9))

    def test_all_enumerated_are_faithful(self):
        for m in enumerate_faithful_monomials(3, 2):
            assert is_faithful(m, 2)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_equals_the_rank_definition(self, k):
        # Up to the ladder's rank-3 degrees, and (5,4) at rank 4.
        for n in range(9 if k <= 3 else 6):
            faithful = [
                factors
                for factors in itertools.combinations_with_replacement(range(1, 1 << k), n)
                if rank_of(factors) == k
            ]
            assert enumerate_faithful_monomials(n, k) == faithful
            # The build's prefix: the first block, the monomials holding 1.
            prefix = enumerate_faithful_monomials(n, k, (1,))
            assert prefix == [m for m in faithful if m[0] == 1] == faithful[:len(prefix)]

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
        # The dim-ladder rungs beyond the paper.
        assert image_dimension(6, 3) == 162
        assert image_dimension(7, 3) == 307
        assert image_dimension(8, 3) == 557
        assert image_dimension(5, 4) == 3177

    def test_rows_are_made_only_when_read(self, monkeypatch):
        # The rank, the basis and the checks read the spun seeds only.
        built = []
        build = membership.build_constraint_system
        monkeypatch.setattr(membership, "build_constraint_system",
                            lambda n, k: built.append(build(n, k)) or built[-1])
        assert image_dimension(5, 4) == 3177
        (cs,) = built
        assert "rows" not in cs.__dict__
        assert cs.accepts(cs.nullspace_basis()[0])
        assert not cs.in_nullspace(1)
        assert "rows" not in cs.__dict__
        assert len(cs.rows) == 4725

    def test_the_dimension_leaves_the_spun_rows_unmade(self):
        cs = build_constraint_system(5, 4)
        assert cs.nullspace_dimension() == 3177
        assert "_spanning" not in cs.__dict__ and "rows" not in cs.__dict__
        assert "monomials" not in cs.__dict__ and "_permutation" not in cs.__dict__

    def test_the_reproduction_spins_no_rows(self, monkeypatch):
        # Its row count is a product and its generators' verdicts come from
        # check_membership, so no rows are spun to repeat them.
        def no_spin(*args):
            raise AssertionError("gf2.spin was called")

        monkeypatch.setattr(gf2, "spin", no_spin)
        assert run_reproduction().ok

    def test_rank_five_at_full_degree(self, monkeypatch):
        # The first rank-5 check, beyond _ENUM_BOUNDS: 83,328 faithful
        # monomials, and n = k gives a closed form.
        monkeypatch.setattr(membership, "_ENUM_BOUNDS", (5, 5))
        cs = build_constraint_system(5, 5)
        assert len(cs.monomials) == 83328
        assert cs.nullspace_dimension() == closed_form_dimension(5) == 61193

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
        # the last monomial alone is an indicator, and not realizable
        assert not cs.in_nullspace(1 << (len(cs.monomials) - 1))

    @pytest.mark.parametrize("text,message", [
        ("1 2 3 123", "a polynomial of degree 4 rank 3 has no indicator over the faithful "
                      "monomials of degree 5 rank 3"),
        ("1 1 2 2 12", "monomial 010,010,100,100,110 is not a faithful monomial of degree 5 rank 3"),
    ])
    def test_indicator_refuses_monomials_outside_the_basis(self, text, message):
        cs = build_constraint_system(5, 3)
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            cs.indicator(poly(text, 3))
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            cs.accepts(poly(text, 3))

    @pytest.mark.parametrize("n,k", [(0, 3), (2, 3), (1, 9)])
    def test_system_without_rows(self, n, k, monkeypatch):
        # No faithful monomial, so no row: the nullspace is the zero space,
        # and no Singer cycle is read, also at a rank with none pinned.
        def no_cycle(*args):
            raise AssertionError("a Singer cycle was read")

        monkeypatch.setattr(membership, "singer_cycle", no_cycle)
        monkeypatch.setattr(membership, "index_permutation", no_cycle)
        cs = build_constraint_system(n, k)
        assert cs.nullspace_dimension() == 0 == cs.monomial_count()
        assert cs.prefix == () == cs.monomials and cs.rows == ()
        assert cs.nullspace_basis() == []
        assert cs.in_nullspace(0)
        assert cs.accepts(Polynomial.zero(n, k))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_in_nullspace_is_the_parity_of_every_row(self, data):
        # An indicator is a sum of basis elements with a few bits toggled,
        # the top valid bit among those that may be; it meets each row of
        # the system, scanned by definition, an even number of times iff
        # in_nullspace holds, and iff check_membership accepts its support.
        n, k = data.draw(st.sampled_from([(5, 3), (6, 3), (4, 4)]))
        cs, basis = indexed_system(n, k)
        top = len(cs.monomials) - 1
        bits = 0
        for b in data.draw(st.lists(st.sampled_from(basis), max_size=6)):
            bits ^= b
        for j in data.draw(st.lists(st.one_of(st.just(top), st.integers(0, top)), max_size=3)):
            bits ^= 1 << j
        even = all(sum(bits >> j & 1 for j in row) % 2 == 0 for row in cs.rows)
        p = Polynomial(frozenset(m for j, m in enumerate(cs.monomials) if bits >> j & 1), n, k)
        assert cs.in_nullspace(bits) == even == check_membership(p).accepted

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


def reference_candidates(group):
    """Every S with |S| < multiplicity that is a sub-multiset of a member,
    in (len(S), S) order; any other S has a zero parity sum."""
    cands = set()
    for m in group.members:
        for size in range(group.multiplicity):
            cands.update(itertools.combinations(m, size))
    return sorted(cands, key=lambda s: (len(s), s))


def certificate(cert):
    """The certificate's (accepted, violation, decompositions)."""
    return cert.accepted, cert.violation, cert.decompositions


def reference_violations(p):
    """Every violation of the criterion by definition: decompose_for_rho,
    then the parity of sub_multiset_multiplicity summed over each group,
    per candidate; in rho, (multiplicity, class), (len(S), S) order."""
    for rho in range(1, 1 << p.k):
        for group in decompose_for_rho(p, rho).groups:
            for s in reference_candidates(group):
                if sum(sub_multiset_multiplicity(m, s) for m in group.members) & 1:
                    yield Violation(rho, group.multiplicity, group.restriction, s)


def reference_check(p):
    """(accepted, violation, decompositions) by definition: the first
    violation, or every nonempty decomposition.  p must be faithful."""
    violation = next(reference_violations(p), None)
    if violation is not None:
        return False, violation, ()
    decs = (decompose_for_rho(p, rho) for rho in range(1, 1 << p.k))
    return True, None, tuple(dec for dec in decs if dec.groups)


def reference_rows(n, k):
    """The constraint rows by definition: one per group and candidate."""
    monomials = enumerate_faithful_monomials(n, k)
    index = {m: j for j, m in enumerate(monomials)}
    everything = Polynomial.make(monomials, n, k)
    rows = set()
    for rho in range(1, 1 << k):
        for group in decompose_for_rho(everything, rho).groups:
            for s in reference_candidates(group):
                row = 0
                for m in group.members:
                    if sub_multiset_multiplicity(m, s) & 1:
                        row |= 1 << index[m]
                if row:
                    rows.add(row)
    return tuple(sorted(rows))


def spanning_factors(draw, n, k):
    """n nonzero factors over rank k, in drawn order, that span rank k:
    k independent ones and n - k more."""
    factors = []
    for _ in range(k):
        span = {0}
        for f in factors:
            span |= {v ^ f for v in span}
        factors.append(draw(st.sampled_from([v for v in range(1 << k) if v not in span])))
    factors += draw(st.lists(st.integers(1, (1 << k) - 1), min_size=n - k, max_size=n - k))
    return draw(st.permutations(factors))


def projective_product(parts):
    """The fixed-point monomials of a product of real projective spaces,
    one RP^a per part of a distinct characters d_1, ..., d_a; see
    faithful_polynomials."""
    fixed_points = itertools.product(*(
        [[x ^ y for y in (0, *part) if y != x] for x in (0, *part)] for part in parts))
    return [tuple(sorted(itertools.chain(*point))) for point in fixed_points]


@st.composite
def faithful_polynomials(draw):
    """(p, realizable): a degree-n polynomial over rank k = 1..6, n = k..k+2,
    of faithful monomials.  p is the fixed-point polynomial of a product of
    real projective spaces, plus up to two random faithful monomials;
    realizable when none is added.

    Each factor RP^a carries the characters 0, d_1, ..., d_a (distinct);
    its fixed point at character x has the tangent factors x + y for the
    other characters y, which span the d's.  Together the d's span rank k,
    so every monomial is faithful.  RP^1's two fixed points have the same
    tangent factor, so a product with an RP^1 factor is zero; the factors
    have a >= 2 where the characters allow it.
    """
    k = draw(st.integers(1, 6))
    n = draw(st.integers(k, k + 2))
    parts = [[]]
    for d in spanning_factors(draw, n, k):
        if d in parts[-1] or len(parts[-1]) > 1 and draw(st.booleans()):
            parts.append([])
        parts[-1].append(d)
    monomials = projective_product(parts)
    extra = [tuple(sorted(spanning_factors(draw, n, k)))
             for _ in range(draw(st.integers(0, 2)))]
    return Polynomial.make(monomials + extra, n, k), not extra


def count_vector(cls, width):
    """The count vector of a class by definition: slot r, of width bits,
    holds cls.count(r)."""
    return sum(cls.count(r) << width * r for r in set(cls))


def code_of(s, k):
    """The code of the sorted sub-multiset s over rank k: a leading 1, then
    the factors of s, k bits each."""
    code = 1
    for f in s:
        code = code << k | f
    return code


def table_pairs(m, k):
    """The (rho, multiplicity, class, code) pairs of the faithful m, decoded
    from its profile in a shape table of its own."""
    table = membership._Profiles(k)
    return {table.pairs[bit] for bit in set_bits(table[m])}


def pair_count(p):
    """The pairs of p's monomials, one per set bit of their profiles: no
    table stores these profiles in fewer bits."""
    return sum(len(codes) for m in p.monomials for _, _, codes in parity_profile(m, p.k))


class CountingTables(dict):
    """Shape tables that count how often a verdict drops them."""

    drops = 0

    def clear(self):
        self.drops += 1
        super().clear()


def rho_free_odd(m, rho, c):
    """By definition: the sub-multisets s of m with |s| < c and rho not in
    s whose sub_multiset_multiplicity is odd, in (len(s), s) order."""
    subs = {s for size in range(c) for s in itertools.combinations(m, size) if rho not in s}
    return sorted((s for s in subs if sub_multiset_multiplicity(m, s) & 1),
                  key=lambda s: (len(s), s))


class TestParityKernel:
    """The per-rho listing of rho-free odd witnesses behind check_membership
    and the build, against the criterion by definition."""

    @pytest.mark.fixed_seed
    @settings(max_examples=300)
    @given(st.data())
    def test_lists_exactly_the_odd_sub_multisets(self, data):
        k = data.draw(st.integers(1, 4))
        pool = data.draw(st.lists(st.integers(1, (1 << k) - 1), min_size=1, max_size=4))
        factors = data.draw(st.lists(st.sampled_from(pool), max_size=8))
        m = tuple(sorted(factors))
        for rho, c, codes in parity_profile(m, k):
            listed = [submultiset(code, k) for code in codes]
            assert len(set(listed)) == len(listed)
            assert set(listed) == set(rho_free_odd(m, rho, c))
            assert list(codes) == sorted(codes)
            assert listed == sorted(listed, key=lambda s: (len(s), s))

    @pytest.mark.fixed_seed
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_kernel_class_is_the_restriction_class(self, data):
        # The closed form against restrict over kernel_basis, for every
        # nonzero rho, m drawn as in the test above up to rank 8.
        k = data.draw(st.integers(1, 8))
        pool = data.draw(st.lists(st.integers(1, (1 << k) - 1), min_size=1, max_size=4))
        m = tuple(sorted(data.draw(st.lists(st.sampled_from(pool), max_size=8))))
        for rho in range(1, 1 << k):
            assert kernel_class(m, rho) == restriction_class(m, rho, k)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_kernel_class_of_every_factor(self, k):
        for rho in range(1, 1 << k):
            for f in range(1 << k):
                assert kernel_class((f,), rho) == restriction_class((f,), rho, k)

    def test_codes(self):
        m = (0b001, 0b010, 0b010, 0b010)
        # C(3, j) is odd for j = 0..3, C(1, j) for j = 0, 1; only sizes
        # below each rho's multiplicity are listed, and none holds rho.
        listed = {rho: [submultiset(c, 3) for c in codes]
                  for rho, _, codes in parity_profile(m, 3)}
        assert listed == {1: [()], 2: [(), (1,)]}
        assert submultiset(1, 3) == ()
        assert submultiset(0b1_001_010, 3) == (1, 2)

    @pytest.mark.fixed_seed
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_profile_equals_the_definition(self, data):
        # Sorted monomials, faithful or not, with repeats up to the
        # degree: every branch of odd_codes (multiplicity 1, multiplicity
        # 2, multiplicity 3 and more) against the criterion.
        k = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(0, 12))
        pool = data.draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=n + 1,
                                  unique=True))
        m = tuple(sorted(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))))
        profile = parity_profile(m, k)
        assert [(rho, c) for rho, c, _ in profile] == [
            (rho, m.count(rho)) for rho in dict.fromkeys(m)]
        for rho, c, codes in profile:
            assert type(codes) is tuple
            assert [submultiset(code, k) for code in codes] == rho_free_odd(m, rho, c)
            # The lister itself, on counts made apart from factor_counts.
            assert odd_codes(collections.Counter(m), rho, k) == codes
        if is_faithful(m, k):
            assert table_pairs(m, k) == {(rho, c, restriction_class(m, rho, k), code)
                                         for rho, c, codes in profile for code in codes}

    @pytest.mark.fixed_seed
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_keys_are_equal_iff_the_classes_are(self, data):
        # Two monomials of one degree, drawn as in the test above; the
        # second is often the first with some factors f moved to f + d for
        # a factor d, which restricts to ker d as f does.  Per rho in both,
        # kernel_class keys and classes are equal together, and so are
        # (multiplicity, key) and (multiplicity, class), also when a
        # factor 0 stands in for rho.  So are the multisets of label cosets
        # mod rho, min(f, f + rho) per factor, as graph validation needs.
        # At rho = 1 the key is the factors f >> 1, the build's row key.
        k = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(0, 12))
        pool = data.draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=n + 1,
                                  unique=True))
        draw_monomial = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
        m = tuple(sorted(data.draw(draw_monomial)))
        if data.draw(st.booleans()) and m:
            d = data.draw(st.sampled_from(m))
            moved = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
            twin = tuple(sorted(f ^ d if t else f for f, t in zip(m, moved)))
        else:
            twin = tuple(sorted(data.draw(draw_monomial)))
        groups = [{rho: (c, kernel_class(x, rho)) for rho, c, _ in parity_profile(x, k)}
                  for x in (m, twin)]
        for rho in set(m) & set(twin):
            (c, key), (c2, key2) = groups[0][rho], groups[1][rho]
            cls, cls2 = restriction_class(m, rho, k), restriction_class(twin, rho, k)
            cosets, cosets2 = (sorted(min(f, f ^ rho) for f in x) for x in (m, twin))
            assert (key == key2) == (cls == cls2) == (cosets == cosets2)
            assert ((c, key) == (c2, key2)) == ((m.count(rho), cls) == (twin.count(rho), cls2))
        for x in (m, twin):
            assert kernel_class(x, 1) == tuple(sorted(f >> 1 for f in x))

    @pytest.mark.parametrize("rho", range(1, 8))
    def test_a_full_slot_does_not_carry(self, rho):
        # Two degree-7 classes that a packed count vector would merge if
        # its slots were 2 bits wide: five factors restricting to 1 and one
        # to 3 sum to the int of one restricting to 1 and five to 2, as a
        # full slot carries into the next.  The build keys rho = 1's groups
        # by the class tuple, so the two stay two groups with two seeds.
        # Each rho's rows are translates of the seeds, so the pair moved by
        # the Singer power taking 1 to rho must keep two rows of rho.
        m, twin = (1, 2, 2, 2, 2, 2, 6), (1, 2, 4, 4, 4, 4, 4)
        classes = [restriction_class(x, 1, 3) for x in (m, twin)]
        assert classes[0] != classes[1]
        assert count_vector(classes[0], 2) == count_vector(classes[1], 2)
        image = automorphism_table(singer_cycle(3), 3).__getitem__
        one = 1
        while one != rho:
            one = image(one)
            m, twin = (tuple(sorted(map(image, x))) for x in (m, twin))
        cs = build_constraint_system(7, 3)
        rows = set(cs.rows)
        for x in (m, twin):
            cls = restriction_class(x, rho, 3)
            row = tuple(j for j in reversed(range(len(cs.monomials)))
                        if cs.monomials[j].count(rho) == 1
                        and restriction_class(cs.monomials[j], rho, 3) == cls)
            assert x.count(rho) == 1 and row in rows

    @pytest.mark.parametrize("n,k", [(5, 3), (4, 4), (8, 3), (5, 4)])
    def test_profile_keys_are_restriction_classes(self, n, k):
        for m in enumerate_faithful_monomials(n, k):
            profile = parity_profile(m, k)
            assert [rho for rho, _, _ in profile] == list(dict.fromkeys(m))
            for rho, mult, codes in profile:
                assert mult == m.count(rho)
                if mult == 1:
                    assert codes == (1,)
            pairs = table_pairs(m, k)
            for rho, mult, cls, _ in pairs:
                assert cls == restriction_class(m, rho, k)
                assert mult == m.count(rho) == cls.count(0)
            assert {pair[:3] for pair in pairs} == {
                (rho, mult, restriction_class(m, rho, k)) for rho, mult, _ in profile}


@pytest.mark.fixed_seed
@settings(max_examples=200, deadline=None)
@given(faithful_polynomials())
def test_a_violation_holding_its_rho_has_a_rho_free_companion(p_and_realizable):
    # Every member of a group has rho-multiplicity c, so s + rho^j has
    # C(c, j) times the parity of s: the kernel lists rho-free witnesses
    # only.  Checked here from the definitions alone.
    p, _ = p_and_realizable
    violations = set(reference_violations(p))
    for v in violations:
        if v.rho in v.witness:
            rest = tuple(f for f in v.witness if f != v.rho)
            assert v._replace(witness=rest) in violations
    first = next(reference_violations(p), None)
    assert first is None or first.rho not in first.witness


REFERENCE_SHAPES = [
    (2, 2), (3, 3), (5, 3), (6, 3), (7, 3), (8, 3), (4, 4), (5, 4),
    (3, 1), (4, 2), (6, 2), (6, 4),
]


class TestAgainstReference:
    """check_membership and build_constraint_system share the parity
    kernel; these tests compare both with the criterion by definition."""

    @pytest.mark.parametrize("n,k", REFERENCE_SHAPES)
    def test_rows(self, n, k):
        # (3,1) has no Singer translates, (4,2) and (6,2) two each, and
        # (6,4) is the least rank-4 degree with a multiplicity of 3.  The
        # count, which dim and reproduce-paper print, makes no rows.
        sparse = tuple(tuple(set_bits(row)) for row in reference_rows(n, k))
        cs = build_constraint_system(n, k)
        assert cs.row_count() == len(sparse)
        assert "rows" not in cs.__dict__
        assert cs.rows == sparse

    @pytest.mark.parametrize("n,k", REFERENCE_SHAPES)
    def test_spun_seeds_span_every_row(self, n, k):
        # The dimension comes from the seeds' block ranks and the basis from
        # their spun rows; ranked and reduced over every row they must come
        # out the same.  This is a second elimination over the same rows,
        # not a second criterion: test_rows compares the rows with the
        # definition.  The rank is the width less the nullity, as
        # tests/test_gf2.py checks.
        cs = build_constraint_system(n, k)
        dense = [from_bits(row) for row in cs.rows]
        width = len(cs.monomials)
        kernel = nullspace(dense, width)
        rank = width - len(kernel)
        assert cs.nullspace_dimension() == width - rank
        assert len(cs._spanning) == rank
        assert [cs.indicator(p) for p in cs.nullspace_basis()] == list(kernel)

    def test_catalog_certificates(self):
        covers = [fixed_polynomial(CharacteristicFunction.from_matrix(
            data["factor_dims"], data["matrix"])) for data in (SMALL_COVER_1, SMALL_COVER_2)]
        # Dropping one monomial from a realizable polynomial leaves it
        # unrealizable, since no single monomial is realizable.
        twins = [Polynomial(p.monomials - {min(p.monomials)}, p.n, p.k) for p in covers]
        for p in (*GENERATORS, REJECTED_SINGLETON, RP2, *covers, *twins):
            assert certificate(check_membership(p)) == reference_check(p)
        assert [p.k for p in covers] == [5, 5]
        assert all(check_membership(p).accepted for p in covers)
        assert not any(check_membership(p).accepted for p in (REJECTED_SINGLETON, *twins))

    def test_rank_10_certificates(self):
        # RP^3 x RP^3 x RP^4 over rank 10, above every rank the build reaches.
        parts = [(0b1, 0b11, 0b111), (0b1000, 0b11000, 0b111001),
                 (0b1000000, 0b11000000, 0b111000000, 0b1111111111)]
        p = Polynomial.make(projective_product(parts), 10, 10)
        twin = Polynomial(p.monomials - {min(p.monomials)}, 10, 10)
        assert len(p) == 80
        assert certificate(check_membership(p)) == reference_check(p)
        assert certificate(check_membership(twin)) == reference_check(twin)
        assert check_membership(p).accepted and not check_membership(twin).accepted

    @pytest.mark.fixed_seed
    @settings(max_examples=200, deadline=None)
    @given(faithful_polynomials())
    def test_random_certificates(self, p_and_realizable):
        p, realizable = p_and_realizable
        cert = check_membership(p)
        assert certificate(cert) == reference_check(p)
        if realizable:
            assert cert.accepted

    @pytest.mark.parametrize("n,k", [(5, 3), (6, 3), (4, 4)])
    def test_seeded_certificates(self, n, k):
        rng = random.Random(f"reference/{n},{k}")
        cs = build_constraint_system(n, k)
        basis = cs.nullspace_basis()
        for i in range(110):
            count = 1 + i % 3 if i % 2 else rng.randint(1, len(basis) // 2)
            monos = frozenset()
            for q in rng.sample(basis, count):
                monos ^= q.monomials
            twin = monos ^ {rng.choice(cs.monomials)}
            for support, accepted in ((monos, True), (twin, False)):
                p = Polynomial(support, n, k)
                cert = check_membership(p)
                assert cert.accepted == accepted
                assert certificate(cert) == reference_check(p)

    def test_interleaved_shapes_across_a_table_reset(self, monkeypatch):
        # Each shape numbers its (group, witness) pairs in first-seen order
        # in its own table, and a verdict that starts with the tables full
        # drops them all and numbers its pairs from scratch.
        rng = random.Random("interleaved")
        by_shape = []
        for n, k in ((5, 3), (4, 4), (6, 3)):
            cs = build_constraint_system(n, k)
            basis = cs.nullspace_basis()
            polys = []
            for _ in range(8):
                monos = frozenset()
                for q in rng.sample(basis, rng.randint(1, 4)):
                    monos ^= q.monomials
                polys.append(Polynomial(monos, n, k))
                polys.append(Polynomial(monos ^ {rng.choice(cs.monomials)}, n, k))
            by_shape.append(polys)
        interleaved = [p for ps in zip(*by_shape) for p in ps]
        factors = {k: {f for p in interleaved if p.k == k for m in p.monomials for f in m}
                   for k in (3, 4)}
        assert factors[3] & factors[4]
        accepted = [p for p in interleaved if check_membership(p).accepted]
        assert 0 < len(accepted) < len(interleaved)
        read_before = {p: check_membership(p).decompositions for p in accepted}
        unread = {p: check_membership(p) for p in accepted}

        # A bound of a few polynomials' profile bits, so a drop happens
        # every few verdicts.
        bound = 3 * max(map(pair_count, interleaved))
        monkeypatch.setattr(membership, "_PROFILE_BOUND", bound)
        tables = membership._profiles
        drops = 0
        for p in interleaved:
            full = membership._profile_bits >= bound
            assert certificate(check_membership(p)) == reference_check(p)
            if full:  # the old numbering is gone: the table holds p's pairs alone
                drops += 1
                table = tables[p.n, p.k]
                assert list(tables) == [(p.n, p.k)] and set(table) == p.monomials
                assert set(table.pairs) == {
                    (rho, m.count(rho), restriction_class(m, rho, p.k), code_of(s, p.k))
                    for m in p.monomials for rho in set(m)
                    for s in rho_free_odd(m, rho, m.count(rho))}
            # A table numbers only its shape's pairs, whose classes have its degree.
            assert all(len(pair[2]) == n for (n, _), table in tables.items()
                       for pair in table.pairs)
        assert drops >= 3
        for p, cert in unread.items():
            assert cert.decompositions == read_before[p] == reference_check(p)[2]

    def test_threads_share_the_numbering(self, monkeypatch):
        # Three threads check polynomials of two shapes under a bound of one
        # polynomial's profile bits, so verdicts drop the tables and
        # renumber the pairs while other verdicts are under way.
        polys = [*GENERATORS, REJECTED_SINGLETON, RP2]
        polys += [Polynomial(p.monomials - {min(p.monomials)}, p.n, p.k) for p in GENERATORS]
        expected = [reference_check(p) for p in polys]
        errors = []
        tables = CountingTables()
        monkeypatch.setattr(membership, "_profiles", tables)
        # Every table's profiles together outgrow the bound whatever the
        # numbering, so verdicts that profile afresh keep dropping tables.
        monkeypatch.setattr(membership, "_PROFILE_BOUND", max(map(pair_count, polys)))

        def verdicts():
            try:
                for _ in range(40):
                    for p, want in zip(polys, expected):
                        if certificate(check_membership(p)) != want:
                            errors.append(p)
            except Exception as e:  # reported by the assertion below
                errors.append(e)

        checkers = [threading.Thread(target=verdicts) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in checkers:
                t.start()
            for t in checkers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in checkers)
        assert errors == []
        assert tables.drops >= 100

    def test_a_verdict_reads_the_table_it_took(self, monkeypatch):
        # The tables are dropped while the verdict computes its first
        # profile; it goes on with the table it took, numbering and all.
        p = GENERATORS[3]
        twin = Polynomial(p.monomials - {min(p.monomials)}, p.n, p.k)
        for q, accepted in ((p, True), (twin, False)):
            monkeypatch.setattr(membership, "_profiles", {})
            calls = []

            def dropping(m, k):
                if not calls:
                    membership._profiles.clear()
                calls.append(m)
                return parity_profile(m, k)

            monkeypatch.setattr(membership, "parity_profile", dropping)
            cert = check_membership(q)
            assert not membership._profiles and len(calls) == len(q)
            assert cert.accepted == accepted
            assert certificate(cert) == reference_check(q)
            monkeypatch.undo()

    @pytest.mark.parametrize("n,k,count", [(5, 3, 532), (6, 3, 1414)])
    def test_tables_number_only_rho_free_pairs(self, monkeypatch, n, k, count):
        # A witness that holds rho repeats a rho-free row, so no table
        # numbers it; with it, (5,3) and (6,3) would hold 658 and 1,722.
        monkeypatch.setattr(membership, "_profiles", {})
        check_membership(Polynomial.make(enumerate_faithful_monomials(n, k), n, k))
        pairs = membership._profiles[n, k].pairs
        assert all(rho not in submultiset(code, k) for rho, _, _, code in pairs)
        assert len(pairs) == count

    def test_least_violation_is_reported(self):
        # Three groups of rho = 001 are odd, of multiplicities 2, 2 and 3,
        # and so are groups of other rhos; the least group has a
        # multiplicity of 2 and an odd witness of one factor.
        p = Polynomial.make([
            (1, 1, 1, 2, 4), (1, 1, 2, 2, 4), (1, 1, 3, 3, 5), (1, 1, 3, 5, 7)], 5, 3)
        violations = list(reference_violations(p))
        assert len({v.rho for v in violations}) > 1
        assert len({(v.multiplicity, v.restriction) for v in violations if v.rho == 1}) == 3
        least = min(violations, key=lambda v: (
            v.rho, v.multiplicity, v.restriction, len(v.witness), v.witness))
        assert least == Violation(1, 2, (0, 0, 1, 1, 2), (4,))
        assert certificate(check_membership(p)) == (False, least, ())

    def test_multiplicity_above_255(self):
        # 1^256 2^256 + 1^256 3^256 + 2^256 3^256 is the 256th power of RP2's
        # class; each rho has one group of multiplicity 256 and two members.
        ms = [(a,) * 256 + (b,) * 256 for a, b in ((1, 2), (1, 3), (2, 3))]
        p = Polynomial.make(ms, 512, 2)
        cert = check_membership(p)
        assert cert.accepted and cert.violation is None
        assert cert.decompositions == tuple(decompose_for_rho(p, rho) for rho in (1, 2, 3))
        assert [len(g.members) for dec in cert.decompositions for g in dec.groups] == [2, 2, 2]
        # Without 2^256 3^256, rho = 10 and rho = 11 each have a lone member.
        v = check_membership(Polynomial.make(ms[:2], 512, 2)).violation
        assert v == Violation(2, 256, restriction_class(ms[0], 2, 2), ())


# The shapes beyond REFERENCE_SHAPES whose prefix coordinates are checked:
# (3,2) has an orbit of size 1, and (5,5) lies beyond _ENUM_BOUNDS.
PREFIX_SHAPES = [*REFERENCE_SHAPES, (3, 2), (5, 5), (7, 4)]


class TestPrefixCoordinates:
    """The dimension reads the Singer orbit coordinates of the prefix, the
    monomials holding 1, in place of the full list and its permutation."""

    @pytest.mark.parametrize("n,k", PREFIX_SHAPES)
    def test_they_begin_the_walk_of_the_permutation(self, n, k, monkeypatch):
        monkeypatch.setattr(membership, "_ENUM_BOUNDS", (8, 5))
        cs = build_constraint_system(n, k)
        size = len(cs.prefix)
        assert cs.monomials[:size] == cs.prefix
        orbit, position, sizes = walk(cs._permutation)
        assert singer_coordinates(cs.prefix, k) == (orbit[:size], position[:size], sizes)
        assert cs.monomial_count() == len(enumerate_faithful_monomials(n, k))

    @pytest.mark.parametrize("n,k", PREFIX_SHAPES)
    def test_the_dimension_makes_no_full_list(self, n, k, monkeypatch):
        monkeypatch.setattr(membership, "_ENUM_BOUNDS", (8, 5))
        cs = build_constraint_system(n, k)
        cs.nullspace_dimension()
        assert not {"monomials", "_index", "_permutation", "rows", "_spanning"} & set(vars(cs))

    def test_orbits_of_size_1_and_3(self):
        # At (3,2) the Singer cycle takes 1 -> 3 -> 2 -> 1.  It fixes
        # (1, 2, 3), and its two orbits of size 3 each hold two prefix
        # members: (1, 1, 2) -> (1, 3, 3) -> (2, 2, 3) and
        # (1, 1, 3) -> (2, 3, 3) -> (1, 2, 2).
        cs = build_constraint_system(3, 2)
        assert cs.prefix == ((1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3), (1, 3, 3))
        assert singer_coordinates(cs.prefix, 2) == (
            [0, 1, 1, 2, 0], [0, 0, 2, 0, 1], [3, 3, 1])
        assert cs.monomial_count() == 7


def kernel_filed_seeds(n, k):
    """rho = 1's rows filed as the build files them, but with every prefix
    monomial's codes from odd_codes(factor_counts(m), 1, k), multiplicity 1
    included, and its class from kernel_class; rows that two codes share
    once."""
    prefix = enumerate_faithful_monomials(n, k, (1,))
    rows = collections.defaultdict(list)
    for j in reversed(range(len(prefix))):
        m = prefix[j]
        for code in odd_codes(factor_counts(m), 1, k):
            rows[kernel_class(m, 1), code].append(j)
    return tuple(sorted(set(map(tuple, rows.values()))))


# (3,2) has an orbit of size 1; (6,2) is already a reference shape.
BASIS_SHAPES = [*REFERENCE_SHAPES, (3, 2)]


def assert_basis_ranks_as_the_seeds(cs):
    coordinates = cs._coordinates
    assert gf2.block_rank(cs._seed_basis, *coordinates) == gf2.block_rank(cs.seeds, *coordinates)


class TestSeedBasis:
    """The dimension ranks a GF(2) basis of the seeds, one pivot table per
    group, and the build files a monomial holding 1 once without its
    witness list."""

    @pytest.mark.parametrize("n,k", BASIS_SHAPES)
    def test_the_build_files_as_the_kernel_does(self, n, k):
        assert build_constraint_system(n, k).seeds == kernel_filed_seeds(n, k)

    @pytest.mark.parametrize("n,k", BASIS_SHAPES)
    def test_the_basis_is_a_basis_of_the_seeds(self, n, k):
        cs = build_constraint_system(n, k)
        basis = cs._seed_basis
        assert set(basis) <= set(cs.seeds) and len(set(basis)) == len(basis)
        assert len(basis) == rank_of(map(from_bits, cs.seeds)) == rank_of(map(from_bits, basis))
        assert_basis_ranks_as_the_seeds(cs)

    @pytest.mark.parametrize("n", [10, 12])
    def test_it_ranks_as_the_seeds_beyond_the_bound(self, n, monkeypatch):
        monkeypatch.setattr(membership, "_ENUM_BOUNDS", (n, 3))
        cs = build_constraint_system(n, 3)
        assert len(cs._seed_basis) < len(cs.seeds)
        assert_basis_ranks_as_the_seeds(cs)

    @pytest.mark.slow
    @pytest.mark.parametrize("n,k", [(14, 3), (16, 3), (7, 4), (8, 4)])
    def test_it_ranks_as_the_seeds_at_the_frontier(self, n, k, monkeypatch):
        monkeypatch.setattr(membership, "_ENUM_BOUNDS", (n, k))
        assert_basis_ranks_as_the_seeds(build_constraint_system(n, k))


def matrix_product(a, b):
    """Rows of AB over GF(2), for square matrices given by their rows."""
    k = len(a)
    return tuple(functools.reduce(operator.xor, (b[j] for j in range(k) if row >> k - 1 - j & 1),
                                  0) for row in a)


def prime_factors(h):
    return [p for p in range(2, h + 1) if h % p == 0 and all(p % q for q in range(2, p))]


class TestSingerTranslates:
    """The build files rho = 1's rows and moves them by a Singer cycle's
    index permutation; test_rows compares the result with the definition."""

    @pytest.mark.parametrize("k", sorted(membership.PRIMITIVE_POLYNOMIALS))
    def test_the_pinned_cycle_has_order_2_to_the_k_minus_1(self, k):
        g, h = singer_cycle(k), (1 << k) - 1
        assert rank_of(g) == k
        identity = tuple(unit(i, k) for i in range(1, k + 1))
        powers = [identity]
        for _ in range(h):
            powers.append(matrix_product(powers[-1], g))
        assert powers[h] == identity
        assert all(powers[h // p] != identity for p in prime_factors(h))
        image = automorphism_table(g, k)
        orbit = [1]
        for _ in range(h - 1):
            orbit.append(image[orbit[-1]])
        assert sorted(orbit) == list(range(1, 1 << k))

    def test_a_count_set_is_least_near_its_witness_counts(self):
        # H1 and H2 of the ConstraintSystem docstring's proof that the row
        # orbits are free, for every N < 40.  X(N) is empty once A + B > N.
        top, premises = 40, 0
        for a in range(top):
            for b in range(top - a):
                least = [next((x for x in range(n + 1) if not a & ~x | b & ~(n - x)), None)
                         for n in range(top)]
                for n, low in enumerate(least):
                    if low is None:
                        continue
                    assert low <= a + b
                    if n + 1 < top and least[n + 1] is None:
                        premises += 1
                        assert low < a + b
        assert premises

    @pytest.mark.parametrize("n,k", [(5, 3), (5, 4)])
    def test_index_permutation_is_the_gl_action(self, n, k):
        cs = build_constraint_system(n, k)
        rng = random.Random(f"permutation/{n},{k}")
        for a in (singer_cycle(k), *rng.sample(enumerate_gl(k), 4)):
            sigma = index_permutation(a, cs.monomials)
            assert sorted(sigma) == list(range(len(cs.monomials)))
            for _ in range(20):
                p = Polynomial(frozenset(rng.sample(cs.monomials, rng.randint(1, 40))), n, k)
                moved = from_bits(sigma[j] for j in set_bits(cs.indicator(p)))
                assert cs.indicator(apply_automorphism(p, a)) == moved


def rank_20_recipe(count):
    """count polynomials of one degree-26 monomial over rank 20 each: the 20
    unit vectors and 6 seeded functionals, so nearly every verdict meets
    new rhos, new classes and new pairs."""
    rng = random.Random(1)
    units = [unit(i, 20) for i in range(1, 21)]
    for _ in range(count):
        m = tuple(sorted(units + [rng.randrange(1, 1 << 20) for _ in range(6)]))
        yield Polynomial(frozenset([m]), 26, 20)


class TestTableDrops:
    """A drop frees what the check path built: its shape tables."""

    def test_a_drop_frees_the_tables(self, monkeypatch):
        monkeypatch.setattr(membership, "_profiles", {})
        check_membership(GEN_1)
        ref = weakref.ref(membership._profiles[GEN_1.n, GEN_1.k])
        monkeypatch.setattr(membership, "_profile_bits", membership._PROFILE_BOUND)
        check_membership(RP2)
        gc.collect()
        assert ref() is None
        assert list(membership._profiles) == [(RP2.n, RP2.k)]

    def test_a_stream_of_new_rhos_stays_small(self, monkeypatch):
        # Without the drops, 400 verdicts of the recipe hold some 9 MB.
        tables = CountingTables()
        monkeypatch.setattr(membership, "_profiles", tables)
        monkeypatch.setattr(membership, "_profile_bits", 0)
        monkeypatch.setattr(membership, "_PROFILE_BOUND", 1 << 18)
        polys = list(rank_20_recipe(400))
        sizes = []
        tracemalloc.start()
        try:
            for p in polys:
                assert not check_membership(p).accepted
                sizes.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert tables.drops >= 1
        assert max(sizes) < 8 << 20


BAD_INPUT = {
    "decompose_rho_zero": (lambda: decompose_for_rho(GEN_1, 0), "rho must be nonzero"),
    "dimension_negative_degree": (lambda: image_dimension(-1, 3), "need n >= 0 and k >= 1"),
    "dimension_negative_rank": (lambda: image_dimension(3, -1), "need n >= 0 and k >= 1"),
    "dimension_rank_zero": (lambda: image_dimension(3, 0), "need n >= 0 and k >= 1"),
    "indicator_of_another_rank": (
        lambda: build_constraint_system(5, 3).accepts(Polynomial(GEN_1.monomials, 5, 4)),
        "a polynomial of degree 5 rank 4 has no indicator over the faithful monomials "
        "of degree 5 rank 3"),
    "nullspace_negative_indicator": (
        lambda: build_constraint_system(5, 3).in_nullspace(-1),
        "not an indicator over the 329 faithful monomials of degree 5 rank 3"),
    "nullspace_indicator_too_wide": (
        lambda: build_constraint_system(5, 3).in_nullspace(1 << 400),
        "not an indicator over the 329 faithful monomials of degree 5 rank 3"),
}


@pytest.mark.parametrize("call,message", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_raises_input_error(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()
