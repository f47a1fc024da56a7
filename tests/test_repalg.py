"""Monomials, polynomials, automorphism action, restriction, parsing."""

import math
import random
import re
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2bord.catalog import GEN_1, GEN_2, GEN_3, GENERATORS, mono, poly
from z2bord.gf2 import (
    InputError, ResourceLimitError, dot, enumerate_gl, reduce_into, transpose, unit,
)
from z2bord.repalg import (
    Polynomial,
    apply_automorphism,
    automorphism_table,
    is_faithful,
    parse_polynomial,
    render_monomial,
    render_polynomial,
    restrict,
    restriction_table,
    sub_multiset_multiplicity,
)
from test_gf2 import IDENTITY_3, matmul


class TestMonomial:
    """A monomial is the sorted tuple of its factors."""

    def test_factors_sorted(self):
        assert mono("3 1 2", 3) == (0b001, 0b010, 0b100)

    def test_multiplicity(self):
        m = mono("1 1 2", 3)
        assert m.count(0b100) == 2
        assert m.count(0b001) == 0

    def test_faithful(self):
        assert is_faithful(mono("1 2 3", 3), 3)
        assert not is_faithful(mono("1 2 12", 3), 3)  # rank 2 only
        assert not is_faithful((0, 0b010, 0b100), 3)
        assert not is_faithful(mono("1 2 3", 3), 4)  # rank 3 inside rank 4

    def test_restrict_to_the_identity_basis(self):
        m = mono("1 1 2 3 23", 3)
        assert restrict(m, (0b100, 0b010, 0b001), 3) == m

    def test_restrict_sorts_the_images(self):
        # Over the reversed basis f becomes f with its bits reversed.
        assert restrict((0b001, 0b110), [0b001, 0b010, 0b100], 3) == (0b011, 0b100)

    def test_str(self):
        assert render_monomial(mono("1 2 123", 3), 3) == "010,100,111"
        assert render_monomial((1, 2), 4) == "0001,0010"
        assert render_monomial((), 3) == ""


class TestPolynomial:
    def test_addition_cancels_mod_2(self):
        p = poly("1 2 3", 3)
        assert (p + p).is_zero
        assert p + Polynomial.zero(3, 3) == p

    def test_shape_mismatch(self):
        with pytest.raises(InputError, match="^cannot add degree 3 rank 3 to degree 2 rank 3$"):
            poly("1 2 3", 3) + poly("1 2", 3)

    def test_zero_polynomials_equal_across_shapes(self):
        assert Polynomial.zero(5, 3) == Polynomial.zero(2, 2)

    def test_make_cancels_repeats_mod_2(self):
        m = mono("1 2 3", 3)
        pair = Polynomial.make([m, m], 3, 3)
        assert pair.is_zero and (pair.n, pair.k) == (3, 3)
        assert Polynomial.make([m, m, m], 3, 3) == Polynomial.make([m], 3, 3)
        # Factors are sorted before counting, and a sorted tuple is kept.
        assert Polynomial.make([(1, 3, 2), (1, 2, 3)], 3, 2).is_zero
        assert Polynomial.make([(3, 1)], 2, 2).monomials == {(1, 3)}
        assert next(iter(Polynomial.make([m], 3, 3).monomials)) is m

    def test_make_keeps_the_shape_of_the_zero_polynomial(self):
        for n, k in ((0, 0), (5, 3), (5, 20)):
            p = Polynomial.make([], n, k)
            assert p.is_zero and (p.n, p.k) == (n, k)

    def test_make_accepts_the_empty_monomial_of_degree_zero(self):
        assert Polynomial.make([()], 0, 3).monomials == {()}

    def test_generator_sizes(self):
        assert [len(g) for g in GENERATORS] == [4, 6, 10, 12]


class TestAutomorphismAction:
    def test_identity_acts_trivially(self):
        for g in GENERATORS:
            assert apply_automorphism(g, IDENTITY_3) == g

    def test_rejects_singular(self):
        a = (0b110, 0b110, 0b001)
        with pytest.raises(InputError, match="^matrix is singular or of the wrong size$"):
            apply_automorphism(GEN_1, a)

    @pytest.mark.parametrize("a", [
        (0b1000, 0b010, 0b001),  # rank 3, but a row wider than 3
        (0b100, 0b010),  # too few rows
        (0b1000, 0b0100, 0b0010, 0b0001),  # GL(4,2) on a rank-3 polynomial
    ])
    def test_rejects_the_wrong_size(self, a):
        with pytest.raises(InputError, match="^matrix is singular or of the wrong size$"):
            apply_automorphism(GEN_1, a)

    def test_composition_law(self):
        rng = random.Random(3)
        gl = enumerate_gl(3)
        for _ in range(25):
            a, b = rng.choice(gl), rng.choice(gl)
            lhs = apply_automorphism(apply_automorphism(GEN_2, a), b)
            assert lhs == apply_automorphism(GEN_2, matmul(a, b))

    def test_preserves_degree_and_faithfulness(self):
        rng = random.Random(5)
        for a in rng.sample(enumerate_gl(3), 30):
            q = apply_automorphism(GEN_3, a)
            assert all(len(m) == 5 and is_faithful(m, 3) for m in q.support())

    @pytest.mark.parametrize("k,kept", [(8, 1), (9, 0)])
    def test_the_cache_keeps_no_table_above_rank_8(self, k, kept):
        # A rank-20 table holds some 42 MB and no caller reads one twice,
        # so only the ranks of the Singer tables and GL(k,2) walks are kept.
        # The matrix has rows e_i + e_(i+1), new to the cache at either rank.
        a = tuple(unit(i, k) | (i < k and unit(i + 1, k)) for i in range(1, k + 1))
        p = Polynomial(frozenset([tuple(sorted(unit(i, k) for i in range(1, k + 1)))]), k, k)
        before = automorphism_table.cache_info().currsize
        image = restriction_table(transpose(a, k), k)
        assert apply_automorphism(p, a).support() == [tuple(sorted(image[f] for f in m))
                                                       for m in p.support()]
        assert automorphism_table.cache_info().currsize == before + kept

    def test_known_stabilizer_element(self):
        # fixing the first coordinate functional stabilizes the first generator
        a = (0b100, 0b011, 0b010)
        assert apply_automorphism(GEN_1, a) == GEN_1


class TestRestriction:
    def test_factors_are_evaluation_vectors(self):
        basis = (0b01111, 0b11010, 0b11001)
        m = (0b01000, 0b01010, 0b01100)
        expect = sorted(
            sum(dot(f, b) << (len(basis) - 1 - i) for i, b in enumerate(basis))
            for f in m
        )
        assert list(restrict(m, basis, 5)) == expect

    def test_a_table_above_rank_20_is_refused(self):
        # A rank-20 table is 2^20 entries; one more bit doubles it.
        with pytest.raises(ResourceLimitError, match="rank <= 20, got 21"):
            restrict((1,), (1,), 21)
        assert len(restriction_table((1 << 19,), 20)) == 1 << 20

    def test_a_dropped_table_is_freed(self):
        # No cache keeps a restriction table: three rank-16 tables, about
        # 2.4 MiB each, leave nothing behind once dropped.
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for shift in range(3):
                basis = tuple(1 << (i + shift) % 16 for i in range(16))
                assert len(restriction_table(basis, 16)) == 1 << 16
            assert tracemalloc.get_traced_memory()[0] - start < 1 << 19
        finally:
            tracemalloc.stop()

    @pytest.mark.fixed_seed
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_restrict_matches_dot_formula(self, data):
        k = data.draw(st.integers(1, 8), label="k")
        vec = st.integers(1, 2**k - 1)
        basis, table = [], {}
        for v in data.draw(st.lists(vec, min_size=1, max_size=k), label="vectors"):
            if reduce_into(table, v):  # v is outside the span of basis
                basis.append(v)
        m = tuple(sorted(data.draw(st.lists(vec, min_size=1, max_size=8))))
        r = len(basis)
        expect = sorted(
            sum(dot(f, b) << (r - 1 - j) for j, b in enumerate(basis))
            for f in m
        )
        restricted = restrict(m, tuple(basis), k)
        assert list(restricted) == expect
        assert all(f < 1 << r for f in restricted)


class TestMultisetMultiplicity:
    def test_binomial_products(self):
        t = (0b010, 0b100, 0b100, 0b100)
        assert sub_multiset_multiplicity(t, (0b100,)) == 3
        assert sub_multiset_multiplicity(t, (0b100, 0b100)) == 3
        assert sub_multiset_multiplicity(t, (0b100, 0b010)) == 3
        assert sub_multiset_multiplicity(t, (0b001,)) == 0
        assert sub_multiset_multiplicity(t, ()) == 1

    @settings(max_examples=200)
    @given(st.data())
    def test_matches_counter_definition(self, data):
        factors = data.draw(st.lists(st.integers(1, 15), min_size=1, max_size=8))
        t = tuple(sorted(factors))
        inside = st.sets(st.integers(0, len(t) - 1)).map(
            lambda picks: tuple(t[i] for i in sorted(picks))
        )
        anything = st.lists(st.integers(1, 15), max_size=5).map(tuple)
        s = data.draw(st.one_of(inside, anything))
        tc, sc = Counter(t), Counter(s)
        expect = math.prod(math.comb(tc[g], c) for g, c in sc.items())
        assert sub_multiset_multiplicity(t, s) == expect

    def test_vandermonde_total(self):
        # summing over all distinct size-j sub-multisets counts C(degree, j)
        t = mono("1 1 2 3 23", 3)
        for j in range(len(t) + 1):
            subs = {tuple(sorted(s)) for s in combinations(t, j)}
            total = sum(sub_multiset_multiplicity(t, s) for s in subs)
            assert total == math.comb(len(t), j)


class TestParsing:
    def test_round_trip_generators(self):
        for g in GENERATORS:
            assert parse_polynomial(render_polynomial(g)) == g

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\n100,010,001\n  # another\n"
        assert parse_polynomial(text) == poly("1 2 3", 3)

    def test_duplicate_lines_cancel(self):
        text = "100,010,001\n100,010,001\n"
        assert parse_polynomial(text).is_zero

    def test_empty_file_is_zero(self):
        assert parse_polynomial("").is_zero
        assert parse_polynomial("# only comments\n").is_zero

    def test_malformed_inputs(self):
        for text, message in (
            ("100,01x,001\n", "line 1: malformed bit-string '01x'"),
            ("100,01,001\n", "line 1: inconsistent bit-string widths"),
            (",\n", "line 1: malformed bit-string ''"),
        ):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                parse_polynomial(text)

    def test_canonical_rendering_is_sorted(self):
        lines = render_polynomial(GEN_3).strip().splitlines()
        assert lines == sorted(lines)

    @settings(max_examples=30)
    @given(st.sets(st.tuples(st.integers(1, 7), st.integers(1, 7),
                             st.integers(1, 7)), min_size=1, max_size=8))
    def test_round_trip_random(self, tuples):
        monos = frozenset(tuple(sorted(t)) for t in tuples)
        p = Polynomial(monos, 3, 3)
        assert parse_polynomial(render_polynomial(p)) == p


BAD_INPUT = {
    "make_mixed_shapes": (lambda: Polynomial.make([mono("1 2 3", 3), mono("1 2", 3)], 3, 3),
                          "monomial 010,100 has degree 2, not 3"),
    "make_shape_mismatch": (lambda: Polynomial.make([(1, 2, 4)], 4, 5),
                            "monomial 00001,00010,00100 has degree 3, not 4"),
    "make_degree_mismatch": (lambda: Polynomial.make([mono("1 2 3", 3)], 4, 3),
                             "monomial 001,010,100 has degree 3, not 4"),
    "make_degree_mismatch_of_a_cancelled_pair": (
        lambda: Polynomial.make([mono("1 2", 3), mono("1 2", 3)], 3, 3),
        "monomial 010,100 has degree 2, not 3"),
    "make_rank_mismatch": (lambda: Polynomial.make([mono("1 2 3", 3)], 3, 2),
                           "monomial 01,10,100 has a factor outside rank 2"),
    "make_negative_factor": (lambda: Polynomial.make([(-1, 1, 2)], 3, 3),
                             "monomial -01,001,010 has a factor outside rank 3"),
    "render_degree_zero": (lambda: render_polynomial(Polynomial.make([()], 0, 3)),
                           "a nonzero polynomial of degree 0 has no text form"),
    "parse_degree_mismatch": (lambda: parse_polynomial("100,010,001\n100,010\n"),
                              "line 2: degree 2 != earlier degree 3"),
    "parse_rank_mismatch": (lambda: parse_polynomial("100,010,001\n10,01,11\n"),
                            "line 2: rank 2 != earlier rank 3"),
}


@pytest.mark.parametrize("call,message", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_raises_input_error(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()
