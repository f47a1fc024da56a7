"""Realizability criterion: direct checker and linear constraint system."""

import gc
import itertools
import random
import re
import sys
import threading
import tracemalloc
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2bord.catalog import (
    GEN_1, GENERATORS, REJECTED_SINGLETON, SMALL_COVER_1, SMALL_COVER_2, mono, poly,
)
from z2bord.gf2 import InputError, ResourceLimitError, rank_of, unit
from z2bord import membership
from z2bord.membership import (
    Violation,
    build_constraint_system,
    check_membership,
    decompose_for_rho,
    enumerate_faithful_monomials,
    image_dimension,
    kernel_basis,
    odd_submultisets,
    parity_profile,
    restriction_class,
    submultiset,
)
from z2bord.repalg import Polynomial, is_faithful, sub_multiset_multiplicity
from z2bord.smallcover import CharacteristicFunction, fixed_polynomial
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

    @pytest.mark.parametrize("factors", [
        [unit(i, 16) for i in range(1, 17)],
        [unit(1, 16)] + [unit(1, 16) ^ unit(i, 16) for i in range(2, 17)],
    ], ids=["units", "first_unit_plus_units"])
    def test_rank_16_monomial_rejected_in_small_memory(self, factors):
        # Every factor has multiplicity 1, so the smallest fails with the
        # empty witness; nothing of size 2^16 may be built on the way.
        p = Polynomial.make([tuple(sorted(factors))], 16, 16)
        tracemalloc.start()
        try:
            v = check_membership(p).violation
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
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

    def test_all_enumerated_are_faithful(self):
        for m in enumerate_faithful_monomials(3, 2):
            assert is_faithful(m, 2)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_equals_the_rank_definition(self, k):
        for n in range(6):
            assert enumerate_faithful_monomials(n, k) == [
                factors
                for factors in itertools.combinations_with_replacement(range(1, 1 << k), n)
                if rank_of(factors) == k
            ]

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
        ("1 2 3 123", "monomial 001,010,100,111 is not a faithful monomial of degree 5 rank 3"),
        ("1 1 2 2 12", "monomial 010,010,100,100,110 is not a faithful monomial of degree 5 rank 3"),
    ])
    def test_indicator_refuses_monomials_outside_the_basis(self, text, message):
        cs = build_constraint_system(5, 3)
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            cs.indicator(poly(text, 3))
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            cs.accepts(poly(text, 3))

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
    fixed_points = itertools.product(*(
        [[x ^ y for y in (0, *part) if y != x] for x in (0, *part)] for part in parts))
    monomials = [tuple(sorted(itertools.chain(*point))) for point in fixed_points]
    extra = [tuple(sorted(spanning_factors(draw, n, k)))
             for _ in range(draw(st.integers(0, 2)))]
    return Polynomial.make(monomials + extra, n, k), not extra


class TestParityKernel:
    """The odd sub-multiset listing behind check_membership and the build."""

    @settings(max_examples=300)
    @given(st.data())
    def test_lists_exactly_the_odd_sub_multisets(self, data):
        k = data.draw(st.integers(1, 4))
        pool = data.draw(st.lists(st.integers(1, (1 << k) - 1), min_size=1, max_size=4))
        factors = data.draw(st.lists(st.sampled_from(pool), max_size=8))
        m = tuple(sorted(factors))
        top = max(map(m.count, m), default=1)
        subs = {s for size in range(top)
                for s in itertools.combinations(m, size)}
        odd = {s for s in subs if sub_multiset_multiplicity(m, s) & 1}
        codes = odd_submultisets(Counter(m), k)
        listed = [submultiset(code, k) for code in codes]
        assert len(set(listed)) == len(listed) and set(listed) == odd
        assert list(codes) == sorted(codes)
        assert listed == sorted(listed, key=lambda s: (len(s), s))

    def test_codes(self):
        m = (0b001, 0b010, 0b010, 0b010)
        # C(3, j) is odd for j = 0..3, C(1, j) for j = 0, 1; only sizes
        # below the largest multiplicity, 3, are listed.
        assert [submultiset(c, 3) for c in odd_submultisets(Counter(m), 3)] == [
            (), (1,), (2,), (1, 2), (2, 2),
        ]
        assert submultiset(1, 3) == ()
        assert submultiset(0b1_001_010, 3) == (1, 2)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_profile_equals_the_definition(self, data):
        # Sorted monomials, faithful or not, with repeats up to the
        # degree: every fast path of the kernel (all factors distinct, top
        # multiplicity 2, c at or below the top) against the criterion.
        k = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(0, 12))
        pool = data.draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=n + 1,
                                  unique=True))
        m = tuple(sorted(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))))
        profile = parity_profile(m, k)
        assert [group for group, _ in profile] == [
            (rho, m.count(rho), restriction_class(m, rho, k)) for rho in dict.fromkeys(m)]
        for (_, c, _), codes in profile:
            subs = {s for size in range(c) for s in itertools.combinations(m, size)}
            odd = sorted((s for s in subs if sub_multiset_multiplicity(m, s) & 1),
                         key=lambda s: (len(s), s))
            assert type(codes) is tuple
            assert [submultiset(code, k) for code in codes] == odd

    @pytest.mark.parametrize("n,k", [(5, 3), (4, 4), (8, 3), (5, 4)])
    def test_profile_keys_are_restriction_classes(self, n, k):
        for m in enumerate_faithful_monomials(n, k):
            profile = parity_profile(m, k)
            assert [rho for (rho, _, _), _ in profile] == list(dict.fromkeys(m))
            for (rho, mult, cls), codes in profile:
                assert cls == restriction_class(m, rho, k)
                assert mult == m.count(rho) == cls.count(0)
                if mult == 1:
                    assert codes == (1,)


class TestAgainstReference:
    """check_membership and build_constraint_system share the parity
    kernel; these tests compare both with the criterion by definition."""

    @pytest.mark.parametrize("n,k", [
        (2, 2), (3, 3), (5, 3), (6, 3), (7, 3), (8, 3), (4, 4), (5, 4),
    ])
    def test_rows(self, n, k):
        assert build_constraint_system(n, k).rows == reference_rows(n, k)

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

        # A bound of a few polynomials, so a drop happens every few verdicts.
        bound = 3 * max(map(len, interleaved))
        monkeypatch.setattr(membership, "_PROFILE_BOUND", bound)
        tables = membership._profiles
        drops = 0
        for p in interleaved:
            full = sum(map(len, tables.values())) >= bound
            assert certificate(check_membership(p)) == reference_check(p)
            if full:  # the old numbering is gone: the table holds p's pairs alone
                drops += 1
                table = tables[p.n, p.k]
                assert list(tables) == [(p.n, p.k)] and set(table) == p.monomials
                assert set(table.pairs) == {group + (code,) for m in p.monomials
                                            for group, codes in parity_profile(m, p.k)
                                            for code in codes}
            # A table numbers only its shape's pairs, whose classes have its degree.
            assert all(len(pair[2]) == n for (n, _), table in tables.items()
                       for pair in table.pairs)
        assert drops >= 3
        for p, cert in unread.items():
            assert cert.decompositions == read_before[p] == reference_check(p)[2]

    def test_threads_share_the_numbering(self, monkeypatch):
        # Three threads check polynomials of two shapes under a bound of a
        # few polynomials, so verdicts drop the tables and renumber the
        # pairs while other verdicts are under way.
        polys = [*GENERATORS, REJECTED_SINGLETON, RP2]
        polys += [Polynomial(p.monomials - {min(p.monomials)}, p.n, p.k) for p in GENERATORS]
        expected = [reference_check(p) for p in polys]
        errors = []

        class Tables(dict):
            drops = 0

            def clear(self):
                Tables.drops += 1
                super().clear()

        monkeypatch.setattr(membership, "_profiles", Tables())
        monkeypatch.setattr(membership, "_PROFILE_BOUND", 2 * max(map(len, polys)))

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
        assert Tables.drops >= 100

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


BAD_INPUT = {
    "decompose_rho_zero": (lambda: decompose_for_rho(GEN_1, 0), "rho must be nonzero"),
    "dimension_negative_degree": (lambda: image_dimension(-1, 3), "need n >= 0 and k >= 1"),
    "dimension_negative_rank": (lambda: image_dimension(3, -1), "need n >= 0 and k >= 1"),
    "dimension_rank_zero": (lambda: image_dimension(3, 0), "need n >= 0 and k >= 1"),
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
