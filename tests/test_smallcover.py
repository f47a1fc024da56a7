"""Products of simplices, characteristic functions, subgroup restrictions."""

import itertools
import math
import random
import re
import tracemalloc

import pytest

from z2bord.catalog import DELTA5, SMALL_COVER_1, SMALL_COVER_2
from z2bord.gf2 import (
    InputError, enumerate_subspaces, nullspace, rank_of, row_reduce, transpose,
)
from z2bord.membership import check_membership
from z2bord.orbits import orbit
from z2bord.repalg import Polynomial, restrict
from z2bord.smallcover import (
    CharacteristicFunction,
    NonIsolatedError,
    ProductOfSimplices,
    admissible_subgroups,
    fixed_polynomial,
    parse_characteristic,
    restricted_polynomial,
    skeleton_graph,
    tangent_reps,
)
from z2bord.graphs import LabeledGraph, validate_graph
from test_gf2 import product_table


def random_invertible(k, rng):
    while True:
        rows = tuple(rng.randrange(1, 2**k) for _ in range(k))
        if rank_of(rows) == k:
            return rows


def edge_facets(p, v, w):
    """The dim-1 facets containing the edge {v, w}."""
    return tuple(f for f in p.vertex_facets(v) if f in set(p.vertex_facets(w)))


def valid_labelings(dims):
    """Every valid characteristic function over the product of simplices."""
    p = ProductOfSimplices(dims)
    for labels in itertools.product(range(1, 2**p.dim), repeat=len(p.facets)):
        cf = CharacteristicFunction(p, labels)
        if cf.is_valid():
            yield cf


def randomized_valid_cf(data, rng):
    """A fresh valid characteristic function from a catalog one, obtained
    by relabeling with a random change of basis."""
    a = random_invertible(len(data["matrix"]), rng)
    cf = CharacteristicFunction.from_matrix(data["factor_dims"], data["matrix"])
    table = product_table(transpose(a, len(a)))
    return CharacteristicFunction(cf.polytope, tuple(table[l] for l in cf.labels))


class TestPolytope:
    @pytest.mark.parametrize("dims", [(1,), (2,), (1, 1), (1, 4), (2, 3), (5,)])
    def test_counts(self, dims):
        p = ProductOfSimplices(dims)
        n = sum(dims)
        assert p.dim == n
        assert len(p.facets) == n + len(dims)
        assert len(p.vertices) == math.prod(d + 1 for d in dims)
        assert len(p.edges) == math.prod(d + 1 for d in dims) * n // 2

    def test_vertex_facet_incidence(self):
        p = ProductOfSimplices((1, 4))
        for v in p.vertices:
            assert len(p.vertex_facets(v)) == p.dim

    def test_edge_facets(self):
        p = ProductOfSimplices((2, 3))
        for v, w in p.edges:
            common = edge_facets(p, v, w)
            assert len(common) == p.dim - 1

    def test_parse(self):
        assert ProductOfSimplices.parse("1x4").factor_dims == (1, 4)
        assert ProductOfSimplices.parse("5").factor_dims == (5,)
        with pytest.raises(InputError, match=r"^factor dimensions must be positive: \(0, 4\)$"):
            ProductOfSimplices.parse("0x4")


class TestCharacteristicFunction:
    def test_simplex_two_standard(self):
        cf = CharacteristicFunction.from_matrix((2,), [[1, 0, 1], [0, 1, 1]])
        assert cf.is_valid()
        p = fixed_polynomial(cf)
        assert len(p) == 3 and check_membership(p).accepted

    def test_interval_gives_zero(self):
        cf = CharacteristicFunction.from_matrix((1,), [[1, 1]])
        assert cf.is_valid()
        assert fixed_polynomial(cf).is_zero

    def test_constant_labeling_invalid(self):
        cf = CharacteristicFunction.from_matrix((2,), [[1, 1, 1], [1, 1, 1]])
        assert not cf.is_valid()

    @pytest.mark.parametrize("compute", [
        tangent_reps,
        fixed_polynomial,
        lambda cf: admissible_subgroups(cf, 1),
        lambda cf: restricted_polynomial(cf, [0b10, 0b01]),
        skeleton_graph,
    ], ids=["tangent_reps", "fixed_polynomial", "admissible_subgroups",
            "restricted_polynomial", "skeleton_graph"])
    def test_constant_labeling_raises(self, compute):
        cf = CharacteristicFunction.from_matrix((2,), [[1, 1, 1], [1, 1, 1]])
        with pytest.raises(InputError, match=r"^facet labels at vertex \(0,\) are not a basis$"):
            compute(cf)

    def test_all_valid_labelings_accepted_tiny(self):
        for dims in ((2,), (1, 1)):
            cfs = list(valid_labelings(dims))
            assert cfs
            for cf in cfs:
                assert check_membership(fixed_polynomial(cf)).accepted

    def test_randomized_valid_labelings_accepted(self):
        rng = random.Random(23)
        for data in (SMALL_COVER_1, SMALL_COVER_2):
            for _ in range(5):
                cf = randomized_valid_cf(data, rng)
                assert cf.is_valid()
                p = fixed_polynomial(cf)
                assert check_membership(p).accepted

    def test_skeleton_graph_validates(self):
        for data in (SMALL_COVER_1, SMALL_COVER_2):
            cf = CharacteristicFunction.from_matrix(
                data["factor_dims"], data["matrix"]
            )
            assert validate_graph(skeleton_graph(cf)) == []


class TestConstructions:
    @pytest.mark.parametrize("data,orbit_seed_index",
                             [(SMALL_COVER_1, 2), (SMALL_COVER_2, 3)])
    def test_restriction_lands_in_predicted_orbit(self, data, orbit_seed_index):
        from z2bord.catalog import GENERATORS

        cf = CharacteristicFunction.from_matrix(data["factor_dims"], data["matrix"])
        assert cf.is_valid()
        reps = tangent_reps(cf)
        assert sorted(reps.values()) == sorted(data["tangent_monomials"])
        restricted = restricted_polynomial(cf, data["subgroup_basis"])
        assert check_membership(restricted).accepted
        assert restricted in orbit(GENERATORS[orbit_seed_index])

    def test_restricted_factors_match_published_cosets(self):
        from z2bord.gf2 import dot

        for data in (SMALL_COVER_1, SMALL_COVER_2):
            cf = CharacteristicFunction.from_matrix(
                data["factor_dims"], data["matrix"]
            )
            basis = data["subgroup_basis"]
            p = restricted_polynomial(cf, basis)

            def evaluate(rep):
                return sum(
                    dot(rep, b) << (len(basis) - 1 - i)
                    for i, b in enumerate(basis)
                )

            # the published coset representatives restrict to the same classes
            expect = frozenset(
                tuple(sorted(evaluate(r) for r in reps))
                for reps in data["restricted_cosets"]
            )
            assert p == Polynomial(expect, 5, len(basis))

    @pytest.mark.parametrize("data", [SMALL_COVER_1, SMALL_COVER_2], ids=["cover_1", "cover_2"])
    def test_published_cosets_align_with_tangent_monomials(self, data):
        # Monomial by monomial, not factor by factor: each published coset
        # list restricts to the same multiset as its tangent monomial.
        basis = data["subgroup_basis"]
        pairs = zip(data["tangent_monomials"], data["restricted_cosets"], strict=True)
        for tangent, cosets in pairs:
            assert restrict(tangent, basis, 5) == restrict(cosets, basis, 5)

    def test_different_basis_same_orbit(self):
        data = SMALL_COVER_1
        cf = CharacteristicFunction.from_matrix(data["factor_dims"], data["matrix"])
        b = list(data["subgroup_basis"])
        alt = [b[1], b[0] ^ b[2], b[2]]
        assert row_reduce(alt) == row_reduce(b)
        p1 = restricted_polynomial(cf, b)
        p2 = restricted_polynomial(cf, alt)
        assert p2 in orbit(p1)

    @pytest.mark.parametrize("basis", [
        [0b01111, 0b01111, 0b11001], [0b01111, 0], [0b01111, 0b11010, 0b10101],
    ], ids=["repeated", "zero", "sum"])
    def test_rejects_dependent_basis(self, basis):
        data = SMALL_COVER_1
        cf = CharacteristicFunction.from_matrix(data["factor_dims"], data["matrix"])
        with pytest.raises(InputError, match="^basis rows are not independent$"):
            restricted_polynomial(cf, basis)

    @pytest.mark.parametrize("basis,message", [
        ([0b100000, 0b01111], "basis vector 32 is outside (Z/2)^5"),
        ([0b01111, -1], "basis vector -1 is outside (Z/2)^5"),
    ], ids=["wide", "negative"])
    def test_rejects_basis_outside_the_group(self, basis, message):
        data = SMALL_COVER_1
        cf = CharacteristicFunction.from_matrix(data["factor_dims"], data["matrix"])
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            restricted_polynomial(cf, basis)

    def test_admissible_full_rank_is_whole_group(self):
        cf = CharacteristicFunction.from_matrix((2,), [[1, 0, 1], [0, 1, 1]])
        subs = admissible_subgroups(cf, 2)
        assert subs == [(0b10, 0b01)]


def admissible_by_definition(cf, r):
    """Rank-r subgroups contained in no edge's facet-label span; h lies in a
    span exactly when adding its basis leaves the labels' rank unchanged."""
    p = cf.polytope
    spans = [[cf.label(f) for f in edge_facets(p, v, w)] for v, w in p.edges]
    return [h for h in enumerate_subspaces(p.dim, r)
            if not any(rank_of(s + list(h)) == rank_of(s) for s in spans)]


CATALOG_COVERS = [
    pytest.param(CharacteristicFunction.from_matrix(d["factor_dims"], d["matrix"]), id=name)
    for name, d in (("delta5", DELTA5), ("cover1", SMALL_COVER_1), ("cover2", SMALL_COVER_2))
]


class TestAdmissibility:
    @pytest.mark.parametrize("dims", [(2,), (1, 1), (3,)])
    def test_matches_edge_spans_on_every_valid_labeling(self, dims):
        cfs = list(valid_labelings(dims))
        assert cfs
        for cf in cfs:
            for r in range(cf.polytope.dim + 1):
                assert admissible_subgroups(cf, r) == admissible_by_definition(cf, r)

    @pytest.mark.parametrize("cf", CATALOG_COVERS)
    def test_matches_edge_spans_on_catalog_covers(self, cf):
        for r in range(cf.polytope.dim + 1):
            assert admissible_subgroups(cf, r) == admissible_by_definition(cf, r)

    @pytest.mark.parametrize("cf", CATALOG_COVERS)
    def test_restriction_raises_exactly_off_admissible(self, cf):
        dim = cf.polytope.dim
        for r in range(dim + 1):
            admissible = set(admissible_subgroups(cf, r))
            for h in enumerate_subspaces(dim, r):
                if h in admissible:
                    restricted_polynomial(cf, h)
                else:
                    with pytest.raises(NonIsolatedError):
                        restricted_polynomial(cf, h)


def skeleton_by_definition(cf):
    """Each edge labeled by the one functional annihilating the labels of
    the facets containing it."""
    p = cf.polytope
    edges = []
    for v, w in p.edges:
        ann = nullspace([cf.label(f) for f in edge_facets(p, v, w)], p.dim)
        assert len(ann) == 1
        edges.append(("v" + "".join(map(str, v)), "v" + "".join(map(str, w)), ann[0]))
    return LabeledGraph.make(p.dim, edges)


class TestSkeletonGraph:
    @pytest.mark.parametrize("dims", [(2,), (1, 1), (3,)])
    def test_matches_definition_on_every_valid_labeling(self, dims):
        cfs = list(valid_labelings(dims))
        assert cfs
        for cf in cfs:
            assert skeleton_graph(cf) == skeleton_by_definition(cf)

    @pytest.mark.parametrize("cf", CATALOG_COVERS)
    def test_matches_definition_on_catalog_covers(self, cf):
        assert skeleton_graph(cf) == skeleton_by_definition(cf)


class TestSimplexFiveObstruction:
    def test_no_isolated_nonzero_restriction(self):
        cf = CharacteristicFunction.from_matrix(
            DELTA5["factor_dims"], DELTA5["matrix"]
        )
        assert cf.is_valid()
        subs = admissible_subgroups(cf, 3)
        assert len(subs) == 15
        for h in subs:
            assert restricted_polynomial(cf, h).is_zero


class TestParsing:
    HEADERED = "1 4\n" + "\n".join(
        " ".join(map(str, row)) for row in SMALL_COVER_1["matrix"]
    )

    def test_header_round_trip(self):
        cf = parse_characteristic(self.HEADERED)
        assert cf.polytope.factor_dims == (1, 4)
        assert cf.is_valid()

    def test_explicit_dims_must_agree(self):
        message = "header (1, 4) disagrees with requested polytope (2, 3)"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            parse_characteristic(self.HEADERED, (2, 3))

    def test_headerless_needs_dims(self):
        body = self.HEADERED.split("\n", 1)[1]
        assert parse_characteristic(body, (1, 4)).is_valid()
        with pytest.raises(InputError, match="^no factor-dimension header and no polytope given$"):
            parse_characteristic(body)

    def test_malformed(self):
        for text, message in (
            ("", "empty characteristic matrix file"),
            ("2\n1 0 2\n1 1 0\n", "bad matrix row '1 0 2'"),
            ("1 x\n1 0 1\n", "invalid literal for int() with base 10: 'x'"),
            ("1 4\n", "no matrix rows after the header"),
        ):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                parse_characteristic(text)

    def test_empty_matrix_is_a_shape_error(self):
        with pytest.raises(InputError, match="^label matrix must be 1 x 2, got 0 x 0$"):
            CharacteristicFunction.from_matrix((1,), [])

    def test_shape_error_does_not_list_the_facets(self):
        tracemalloc.start()
        try:
            message = "label matrix must be 1000000 x 1000001, got 2 x 2"
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                CharacteristicFunction.from_matrix((10**6,), [[1, 0], [0, 1]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


BAD_INPUT = {
    "ragged_rows": (lambda: CharacteristicFunction.from_matrix((1,), [[1, 0], [1]]),
                    "ragged rows"),
    "entry_negative": (lambda: CharacteristicFunction.from_matrix((1,), [[-1]]),
                       "matrix entry -1 is not 0 or 1"),
    "entry_two": (lambda: CharacteristicFunction.from_matrix((1,), [[2, 0]]),
                  "matrix entry 2 is not 0 or 1"),
}


@pytest.mark.parametrize("call,message", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_raises_input_error(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()
