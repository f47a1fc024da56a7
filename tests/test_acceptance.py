"""Acceptance gate: the nine headline criteria, one report line each.

Every expected value here is an exact integer or boolean; there are no
tolerances.  Criteria 1-8 hold this file's literals and time budgets
against the checkpoints of one run_reproduction(): each criterion reads
the computed text of its checkpoints and sums their elapsed_s.  Criterion
9, closed_form_dimension and image_dimension(1, 2) are computed here.
"""

import itertools
import math
import random

import pytest

from z2bord.catalog import GENERATORS, SMALL_COVER_1, SMALL_COVER_2
from z2bord.gf2 import enumerate_gl, rank_of, transpose
from z2bord.membership import (
    build_constraint_system,
    check_membership,
    enumerate_faithful_monomials,
    image_dimension,
)
from z2bord.orbits import orbit
from z2bord.repalg import Polynomial, apply_automorphism
from z2bord.report import run_reproduction
from z2bord.smallcover import CharacteristicFunction, fixed_polynomial
from test_gf2 import product_table


def closed_form_dimension(n: int) -> int:
    """Independent oracle for the top-degree dimension at full rank."""
    total = (-1) ** n
    for i in range(n):
        prod = math.prod(2**n - 2**j for j in range(i + 1))
        total += (-1) ** (n - 1 - i) * prod // math.factorial(i + 1)
    return total


def report(name: str, expected, computed):
    status = "PASS" if expected == computed else "FAIL"
    print(f"{name}={expected}:{computed}:{status}")
    assert expected == computed


class Reproduction:
    """The checkpoints of one run_reproduction(), read by name."""

    def __init__(self):
        self.by_name = {c.name: c for c in run_reproduction().checkpoints}

    def count(self, name: str) -> int:
        return int(self.by_name[name].computed)

    def flag(self, name: str) -> bool:
        return {"True": True, "False": False}[self.by_name[name].computed]

    def elapsed(self, *prefixes: str) -> float:
        """Seconds of every checkpoint whose name starts with a prefix."""
        return sum(c.elapsed_s for n, c in self.by_name.items() if n.startswith(prefixes))


@pytest.fixture(scope="module")
def rep():
    return Reproduction()


class TestAcceptance:
    def test_1_membership(self, rep):
        assert rep.elapsed("generator_", "candidate_") < 1.0
        verdicts = [rep.flag(f"generator_{i}_accepted") for i in range(1, 5)]
        verdicts.append(not rep.flag("candidate_rejected"))
        report("criterion_1_membership", True, all(verdicts))

    def test_2_dimensions(self, rep):
        assert rep.elapsed("faithful_", "constraint_", "dimension_") < 60.0
        values = (
            rep.count("dimension_5_3"),
            rep.count("dimension_4_3"),
            rep.count("dimension_2_2"),
            rep.count("dimension_3_3"),
            image_dimension(1, 2),
            rep.count("dimension_1_3"),
            rep.count("dimension_2_3"),
        )
        expected = (77, 32, 1, closed_form_dimension(3), 0, 0, 0)
        assert closed_form_dimension(3) == 13
        assert closed_form_dimension(2) == 1
        report("criterion_2_dimensions", expected, values)

    def test_3_orbits_and_stabilizers(self, rep):
        sizes = tuple(rep.count(f"orbit_{i}_size") for i in range(1, 5))
        shapes = all(rep.flag(f"stabilizer_{i}_shape") for i in range(1, 5))
        report("criterion_3_orbits", ((7, 28, 42, 28), True), (sizes, shapes))

    def test_4_span_ladder_and_identities(self, rep):
        ladder = [rep.count(f"span_ladder_{i}") for i in range(1, 5)]
        identities = (rep.flag("orbit3_dependency_456")
                      and rep.flag("orbit4_seven_term_dependency"))
        report("criterion_4_span_ladder",
               ([7, 35, 56, 77], True), (ladder, identities))

    def test_5_generating_set_equivalence(self, rep):
        # every orbit element is accepted by check_membership and the (5,3)
        # constraints, and the orbits span the whole 77-dimensional image
        same_dim = rep.count("dimension_5_3") == 77
        report("criterion_5_generating_set", True,
               rep.flag("generating_set_spans_image") and same_dim)

    def test_6_constructions(self, rep):
        results = [
            rep.flag(name)
            for idx in (1, 2)
            for name in (f"small_cover_{idx}_tangent_reps",
                         f"small_cover_{idx}_restriction_in_orbit_{2 + idx}")
        ]
        results.extend((rep.flag("milnor_family_1_gives_generator_1"),
                        rep.flag("milnor_family_2_gives_generator_2")))
        report("criterion_6_constructions", True, all(results))

    def test_7_simplex_five_impossibility(self, rep):
        assert rep.elapsed("simplex5_") < 5.0
        assert rep.count("simplex5_admissible_rank3_subgroups") <= 155
        bad = rep.count("simplex5_isolated_nonzero_restrictions")
        report("criterion_7_simplex5_impossibility", 0, bad)

    def test_8_milnor_search(self, rep):
        assert rep.elapsed("milnor_search_") < 30.0
        # The report states the hits on orbits 1 and 2 jointly, and that
        # orbits 3 and 4 (and only they) are never hit.
        reached = rep.flag("milnor_search_hits_orbits_1_2")
        missed = 0 if rep.flag("milnor_search_misses_orbits_3_4") else None
        outcome = (
            rep.count("milnor_search_families"), reached, reached, missed, missed,
        )
        report("criterion_8_milnor_search", (840, True, True, 0, 0), outcome)

    def test_9_property_suites(self):
        rng = random.Random(2024)
        gl = enumerate_gl(3)
        monomials = enumerate_faithful_monomials(5, 3)
        cs = build_constraint_system(5, 3)

        # GL-equivariance of the verdict: 168 automorphisms x
        # (4 accepted generators + 20 random rejected polynomials)
        rejects = []
        while len(rejects) < 20:
            p = Polynomial(
                frozenset(rng.sample(monomials, rng.randint(1, 30))), 5, 3
            )
            if not check_membership(p).accepted:
                rejects.append(p)
        equivariant = all(
            check_membership(apply_automorphism(p, a)).accepted is verdict
            for p, verdict in [(g, True) for g in GENERATORS]
            + [(p, False) for p in rejects]
            for a in gl
        )

        # oracle equivalence: exhaustive at degree 3 rank 2
        small = enumerate_faithful_monomials(3, 2)
        cs32 = build_constraint_system(3, 2)
        exhaustive = all(
            check_membership(Polynomial(frozenset(monos), 3, 2)).accepted
            == cs32.accepts(Polynomial(frozenset(monos), 3, 2))
            for size in range(len(small) + 1)
            for monos in itertools.combinations(small, size)
        )

        # oracle equivalence: 10^4 random subsets at degree 5 rank 3
        sampled = all(
            check_membership(p).accepted == cs.accepts(p)
            for p in (
                Polynomial(
                    frozenset(rng.sample(monomials, rng.randint(1, 40))), 5, 3
                )
                for _ in range(10_000)
            )
        )

        # every sampled valid small cover has a realizable polynomial
        covers_ok = True
        for dims in ((2,), (1, 1)):
            from z2bord.smallcover import ProductOfSimplices

            poly = ProductOfSimplices(dims)
            n, nf = poly.dim, len(poly.facets)
            for labels in itertools.product(range(1, 2**n), repeat=nf):
                cf = CharacteristicFunction(poly, labels)
                if cf.is_valid():
                    covers_ok &= check_membership(fixed_polynomial(cf)).accepted
        for data in (SMALL_COVER_1, SMALL_COVER_2):
            cf0 = CharacteristicFunction.from_matrix(
                data["factor_dims"], data["matrix"]
            )
            k = len(data["matrix"])
            for _ in range(5):
                while True:
                    rows = tuple(rng.randrange(1, 2**k) for _ in range(k))
                    if rank_of(rows) == k:
                        break
                table = product_table(transpose(rows, k))
                cf = CharacteristicFunction(
                    cf0.polytope, tuple(table[l] for l in cf0.labels)
                )
                covers_ok &= cf.is_valid()
                covers_ok &= check_membership(fixed_polynomial(cf)).accepted

        # orbit-stabilizer product on every tested polynomial
        tested = list(GENERATORS) + rejects[:5]
        orbit_stab = all(
            len(orbit(p)) * len(orbit(p).stabilizer) == 168 for p in tested
        )

        outcome = (equivariant, exhaustive, sampled, covers_ok, orbit_stab)
        report("criterion_9_property_suites",
               (True, True, True, True, True), outcome)
