"""Milnor hypersurface fixed-point polynomials and the subset-family search."""

import hashlib
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2bord.catalog import GEN_1, GEN_2, GENERATORS, MILNOR_FAMILY_1, MILNOR_FAMILY_2
from z2bord.gf2 import InputError, ResourceLimitError
from z2bord import milnor
from z2bord.membership import check_membership
from z2bord.milnor import (
    SearchReport,
    SubsetFamily,
    family_label,
    milnor_fixed_polynomial,
    rho_of_subset,
    search_orbit_hits,
)
from z2bord.orbits import orbit
from z2bord.repalg import NonIsolatedError, Polynomial, render_polynomial


def nonempty_subsets(r):
    return [frozenset(s) for size in range(1, r + 1)
            for s in itertools.combinations(range(1, r + 1), size)]


def all_families(n, r):
    for sets in itertools.permutations(nonempty_subsets(r), n):
        yield SubsetFamily(r, sets)


# Every (m, n, r) that search_orbit_hits accepts.
ADMISSIBLE = [(m, n, r) for r in (1, 2, 3) for n in range(1, min(5, (1 << r) - 1) + 1)
              for m in range(1, n + 1)]


def search_by_definition(m, n, r, targets):
    """search_orbit_hits's report, with every family's polynomial evaluated."""
    families_tried = 0
    produced = set()
    hits = [[] for _ in targets]
    for f in all_families(n, r):
        families_tried += 1
        p = milnor_fixed_polynomial(m, n, f)
        produced.add(p)
        for t_i, t in enumerate(targets):
            if p in t:
                hits[t_i].append(f)
    unreached = [i for i, fams in enumerate(hits) if not fams]
    return SearchReport(families_tried, 0, produced, hits, unreached)


@st.composite
def block_relabelings(draw):
    """(m, n, family, relabeled): a family at an admissible shape and the
    same family with S_1..S_m and S_{m+1}..S_n each permuted in place."""
    m, n, r = draw(st.sampled_from(ADMISSIBLE))
    sets = draw(st.permutations(nonempty_subsets(r)))[:n]
    relabeled = draw(st.permutations(sets[:m])) + draw(st.permutations(sets[m:]))
    return m, n, SubsetFamily(r, tuple(sets)), SubsetFamily(r, tuple(relabeled))


def rho_sym(f, i, j):
    """Functional of the symmetric difference of S_i and S_j."""
    return f.rho(i) ^ f.rho(j)


def six_term_expansion(f):
    """The explicit six-monomial form of the m=2, n=4 case, evaluated
    directly as printed; an independent cross-check of the general formula."""
    terms = [
        (f.rho(1), f.rho(2), rho_sym(f, 1, 3), rho_sym(f, 2, 3), rho_sym(f, 3, 4)),
        (f.rho(1), f.rho(2), rho_sym(f, 1, 4), rho_sym(f, 2, 4), rho_sym(f, 3, 4)),
        (f.rho(1), f.rho(3), rho_sym(f, 1, 2), rho_sym(f, 2, 3), rho_sym(f, 3, 4)),
        (f.rho(1), f.rho(4), rho_sym(f, 1, 2), rho_sym(f, 2, 4), rho_sym(f, 3, 4)),
        (f.rho(2), f.rho(3), rho_sym(f, 1, 2), rho_sym(f, 1, 3), rho_sym(f, 3, 4)),
        (f.rho(2), f.rho(4), rho_sym(f, 1, 2), rho_sym(f, 1, 4), rho_sym(f, 3, 4)),
    ]
    if any(0 in factors for factors in terms):
        raise NonIsolatedError("a factor is the trivial representation")
    return Polynomial.make((tuple(sorted(factors)) for factors in terms), 5, f.r)


class TestSubsetFamily:
    def test_rho_of_subset(self):
        assert rho_of_subset({1}, 3) == 0b100
        assert rho_of_subset({2, 3}, 3) == 0b011
        with pytest.raises(InputError, match=r"^element 4 outside 1\.\.3$"):
            rho_of_subset({4}, 3)

    def test_parse(self):
        f = SubsetFamily.parse(3, "2;12;23;123")
        assert f.sets == tuple(frozenset(s) for s in MILNOR_FAMILY_1)

    def test_validation(self):
        good = SubsetFamily.make(3, MILNOR_FAMILY_1)
        with pytest.raises(InputError, match="^need 1 <= m <= n, got m=5, n=4$"):
            milnor_fixed_polynomial(5, 4, good)
        with pytest.raises(InputError, match="^need 3 subsets, got 4$"):
            milnor_fixed_polynomial(2, 3, good)
        dup = SubsetFamily.make(3, ({1}, {1}, {2}, {3}))
        with pytest.raises(InputError, match="^subsets must be distinct$"):
            milnor_fixed_polynomial(2, 4, dup)
        empty = SubsetFamily.make(3, ({1}, set(), {2}, {3}))
        with pytest.raises(InputError, match="^subsets must be nonempty$"):
            milnor_fixed_polynomial(2, 4, empty)


class TestFixedPolynomial:
    def test_published_families(self):
        p1 = milnor_fixed_polynomial(2, 4, SubsetFamily.make(3, MILNOR_FAMILY_1))
        p2 = milnor_fixed_polynomial(2, 4, SubsetFamily.make(3, MILNOR_FAMILY_2))
        assert p1 == GEN_1
        assert p2 == GEN_2

    def test_six_term_shape_matches_general_formula(self):
        for f in all_families(4, 3):
            assert six_term_expansion(f) == milnor_fixed_polynomial(2, 4, f)

    def test_outputs_pinned_over_the_small_range(self):
        # Digest of every family with r <= 3, n <= 4, 1 <= m <= n, in the
        # order of all_families; pinned from the two-part literal formula
        # that the RP(xi) sum replaced.
        digest = hashlib.sha256()
        for r in range(1, 4):
            for n in range(1, 5):
                for m in range(1, n + 1):
                    for f in all_families(n, r):
                        p = milnor_fixed_polynomial(m, n, f)
                        digest.update((render_polynomial(p) + "--\n").encode())
        assert digest.hexdigest() == (
            "82e48ffcabb3254172cbdd1418fd3a23dfd49b20a291a4d313fd9a064b819c32")

    def test_every_output_is_realizable(self):
        rng = random.Random(37)
        fams = list(all_families(4, 3))
        for f in rng.sample(fams, 40):
            p = milnor_fixed_polynomial(2, 4, f)
            assert check_membership(p).accepted

    def test_relabeling_invariance(self):
        # permuting the ground set {1..r} maps outputs within one orbit
        f = SubsetFamily.make(3, MILNOR_FAMILY_1)
        base = milnor_fixed_polynomial(2, 4, f)
        o = orbit(base)
        for perm in itertools.permutations((1, 2, 3)):
            relabeled = SubsetFamily.make(
                3, [{perm[i - 1] for i in s} for s in MILNOR_FAMILY_1]
            )
            assert milnor_fixed_polynomial(2, 4, relabeled) in o

    @pytest.mark.fixed_seed
    @settings(max_examples=200, deadline=None)
    @given(block_relabelings())
    def test_block_permutation_invariance(self, case):
        # the relabeling argument that search_orbit_hits rests on
        m, n, family, relabeled = case
        assert milnor_fixed_polynomial(m, n, relabeled) == milnor_fixed_polynomial(m, n, family)

    def test_swap_across_blocks_changes_the_polynomial(self):
        sets = list(MILNOR_FAMILY_1)
        sets[0], sets[2] = sets[2], sets[0]
        swapped = milnor_fixed_polynomial(2, 4, SubsetFamily.make(3, sets))
        assert swapped != milnor_fixed_polynomial(2, 4, SubsetFamily.make(3, MILNOR_FAMILY_1))

    def test_degree_and_rank(self):
        p = milnor_fixed_polynomial(2, 4, SubsetFamily.make(3, MILNOR_FAMILY_1))
        assert all(len(m) == 5 for m in p.support())
        assert p.k == 3


class TestSearch:
    def test_hits_first_two_orbits_only(self):
        targets = [orbit(g) for g in GENERATORS]
        report = search_orbit_hits(2, 4, 3, targets)
        assert report.families_tried == 840
        assert report.skipped_non_isolated == 0
        assert report.hits[0] and report.hits[1]
        assert report.unreached == [2, 3]

    def test_distinct_outputs_counted(self):
        report = search_orbit_hits(2, 4, 3, [])
        assert report.distinct_polynomials() == 35

    @pytest.mark.parametrize("m,n,r", ADMISSIBLE, ids=[f"{m}-{n}-{r}" for m, n, r in ADMISSIBLE])
    def test_equals_evaluating_every_family(self, m, n, r):
        # Targets: the generator orbits, which only degree-5 rank-3 shapes
        # reach, and the orbits of the first and last family's polynomial.
        first = milnor_fixed_polynomial(m, n, next(all_families(n, r)))
        last = milnor_fixed_polynomial(m, n, list(all_families(n, r))[-1])
        targets = [orbit(g) for g in GENERATORS] + [orbit(first), orbit(last)]
        assert search_orbit_hits(m, n, r, targets) == search_by_definition(m, n, r, targets)

    @pytest.mark.parametrize("n", [4, 5])
    def test_one_evaluation_per_relabeling_class(self, monkeypatch, n):
        # 7!/(7-n)! ordered families, 2! (n-2)! relabelings each: 210 classes
        calls = []

        def counted(*args):
            calls.append(args)
            return milnor_fixed_polynomial(*args)

        monkeypatch.setattr(milnor, "milnor_fixed_polynomial", counted)
        report = search_orbit_hits(2, n, 3, [])
        assert len(calls) == 210
        assert report.families_tried == {4: 840, 5: 2520}[n]

    def test_family_label_round_trip(self):
        f = SubsetFamily.make(3, MILNOR_FAMILY_1)
        assert SubsetFamily.parse(3, family_label(f)).sets == f.sets

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            search_orbit_hits(2, 4, 4, [])


BAD_INPUT = {
    "parse_bad_token": (lambda: SubsetFamily.parse(3, "2;1a"), "bad subset token '1a'"),
    "search_no_family": (lambda: search_orbit_hits(2, 4, 2, []),
                         "no family of 4 distinct nonempty subsets of 1..2"),
}


@pytest.mark.parametrize("call,message", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_raises_input_error(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()
