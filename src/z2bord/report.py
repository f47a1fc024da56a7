"""End-to-end reproduction of the published computational results.

Runs every headline computation against its expected value and emits one
machine-readable line per checkpoint, in the form

    checkpoint_name=expected:computed:PASS|FAIL

Each result is computed once (one (5,3) constraint system, one orbit per
generator).  Each checkpoint also records elapsed_s, the seconds since the
previous checkpoint was added (or since the report began).
"""

from __future__ import annotations

from time import perf_counter
from typing import NamedTuple

from z2bord.catalog import (
    DELTA5,
    GEN_1,
    GEN_2,
    GENERATORS,
    MILNOR_FAMILY_1,
    MILNOR_FAMILY_2,
    ORBIT2_SQUARES,
    ORBIT3_SQUARES,
    ORBIT4_SQUARES,
    REJECTED_SINGLETON,
    SMALL_COVER_1,
    SMALL_COVER_2,
    STAB_SHAPES,
)
from z2bord.gf2 import Record
from z2bord.membership import build_constraint_system, check_membership, image_dimension
from z2bord.milnor import SubsetFamily, milnor_fixed_polynomial, search_orbit_hits
from z2bord.orbits import orbit, span_dimension, stabilizer_matches, verify_generating_set
from z2bord.smallcover import (
    CharacteristicFunction,
    admissible_subgroups,
    restricted_polynomial,
    tangent_reps,
)


class Checkpoint(NamedTuple):
    name: str
    expected: str
    computed: str
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return self.expected == self.computed

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name}={self.expected}:{self.computed}:{status}"


class ReproductionReport(Record):
    _fields = ("checkpoints",)

    # Its own constructor, as it starts the clock of the first checkpoint.
    def __init__(self, checkpoints: list[Checkpoint] | None = None):
        self.checkpoints = [] if checkpoints is None else checkpoints
        self._since = perf_counter()

    def add(self, name: str, expected, computed):
        now, since = perf_counter(), self._since
        self.checkpoints.append(Checkpoint(name, str(expected), str(computed), now - since))
        self._since = now

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checkpoints)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checkpoints]


def run_reproduction() -> ReproductionReport:
    rep = ReproductionReport()

    # Membership of the four generators, rejection of the extra candidate.
    for i, g in enumerate(GENERATORS, 1):
        rep.add(f"generator_{i}_accepted", True, check_membership(g).accepted)
    rep.add("candidate_rejected", False, check_membership(REJECTED_SINGLETON).accepted)

    # Image dimensions in degree 5 and below for rank 3, plus rank 2.
    sys53 = build_constraint_system(5, 3)
    rep.add("faithful_monomials_5_3", 329, sys53.monomial_count())
    rep.add("constraint_rows_5_3", 490, sys53.row_count())
    rep.add("dimension_5_3", 77, sys53.nullspace_dimension())
    rep.add("dimension_4_3", 32, image_dimension(4, 3))
    rep.add("dimension_3_3", 13, image_dimension(3, 3))
    rep.add("dimension_2_2", 1, image_dimension(2, 2))
    for n in (1, 2):
        rep.add(f"dimension_{n}_3", 0, image_dimension(n, 3))

    # Orbit sizes and predicted stabilizer shapes for the generators.
    orbits = [orbit(g) for g in GENERATORS]
    for i, (o, size, shape) in enumerate(
        zip(orbits, (7, 28, 42, 28), STAB_SHAPES), 1
    ):
        rep.add(f"orbit_{i}_size", size, len(o))
        rep.add(f"stabilizer_{i}_shape", True, stabilizer_matches(o, shape))

    # Span ladder: cumulative orbit spans fill the 77-dimensional image.
    pool: list = []
    for i, (o, target) in enumerate(zip(orbits, (7, 35, 56, 77)), 1):
        pool.extend(o.elements)
        rep.add(f"span_ladder_{i}", target, span_dimension(pool))
    rep.add("generating_set_spans_image", True, verify_generating_set(sys53, pool))

    # Linear dependencies among the named orbit elements.
    s3 = ORBIT3_SQUARES
    rep.add("orbit3_dependency_456", True,
            s3[3] == s3[0] + s3[1] + s3[2]
            and s3[4] == s3[1] + s3[2]
            and s3[5] == s3[0] + s3[1])
    s4, s2 = ORBIT4_SQUARES, ORBIT2_SQUARES
    rep.add("orbit4_seven_term_dependency", True,
            s4[3] == s4[0] + s4[1] + s4[2] + s2[0] + s2[1] + s2[2] + s2[3])
    rep.add("orbit3_squares_in_orbit_3", True, all(p in orbits[2] for p in s3))
    rep.add("orbit4_squares_in_orbit_4", True, all(p in orbits[3] for p in s4))
    rep.add("orbit2_squares_in_orbit_2", True, all(p in orbits[1] for p in s2))

    # Small covers over products of simplices.
    for idx, data in ((1, SMALL_COVER_1), (2, SMALL_COVER_2)):
        cf = CharacteristicFunction.from_matrix(data["factor_dims"], data["matrix"])
        rep.add(f"small_cover_{idx}_valid", True, cf.is_valid())
        rep.add(f"small_cover_{idx}_tangent_reps", True,
                sorted(tangent_reps(cf).values()) == sorted(data["tangent_monomials"]))
        restricted = restricted_polynomial(cf, data["subgroup_basis"])
        rep.add(f"small_cover_{idx}_restriction_accepted", True,
                check_membership(restricted).accepted)
        target = orbits[2] if idx == 1 else orbits[3]
        rep.add(f"small_cover_{idx}_restriction_in_orbit_{2 + idx}", True,
                restricted in target)

    # The 5-simplex admits no rank-3 subgroup with isolated fixed points.
    d5 = CharacteristicFunction.from_matrix(DELTA5["factor_dims"], DELTA5["matrix"])
    admissible = admissible_subgroups(d5, 3)
    rep.add("simplex5_admissible_rank3_subgroups", 15, len(admissible))
    realized = sum(
        not restricted_polynomial(d5, h).is_zero for h in admissible
    )
    rep.add("simplex5_isolated_nonzero_restrictions", 0, realized)

    # Milnor hypersurface actions.
    p1 = milnor_fixed_polynomial(2, 4, SubsetFamily.make(3, MILNOR_FAMILY_1))
    p2 = milnor_fixed_polynomial(2, 4, SubsetFamily.make(3, MILNOR_FAMILY_2))
    rep.add("milnor_family_1_gives_generator_1", True, p1 == GEN_1)
    rep.add("milnor_family_2_gives_generator_2", True, p2 == GEN_2)
    search = search_orbit_hits(2, 4, 3, orbits)
    rep.add("milnor_search_families", 840, search.families_tried)
    rep.add("milnor_search_hits_orbits_1_2", True,
            bool(search.hits[0]) and bool(search.hits[1]))
    rep.add("milnor_search_misses_orbits_3_4", True, search.unreached == [2, 3])

    return rep


def emit_data(directory):
    """Write the embedded catalog data out as plain files; return the names
    written, sorted, and none of what directory held before."""
    import pathlib

    from z2bord.graphs import projective_space_graph, render_graph
    from z2bord.repalg import render_polynomial

    files = {f"generator_{i}.poly": render_polynomial(g) for i, g in enumerate(GENERATORS, 1)}
    files["rejected_candidate.poly"] = render_polynomial(REJECTED_SINGLETON)
    for name, group in (("orbit3", ORBIT3_SQUARES), ("orbit4", ORBIT4_SQUARES),
                        ("orbit2", ORBIT2_SQUARES)):
        for i, p in enumerate(group, 1):
            files[f"{name}_square_{i}.poly"] = render_polynomial(p)
    for idx, data in ((1, SMALL_COVER_1), (2, SMALL_COVER_2)):
        dims = " ".join(str(d) for d in data["factor_dims"])
        rows = "\n".join(
            " ".join(str(e) for e in row) for row in data["matrix"]
        )
        files[f"small_cover_{idx}.lam"] = dims + "\n" + rows + "\n"
    for n in (2, 3, 4):
        files[f"projective_{n}.graph"] = render_graph(projective_space_graph(n))
    out = pathlib.Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)
    return sorted(files)
