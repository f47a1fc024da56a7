"""Labeled multigraph validation and labeling polynomials."""

import itertools
import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2bord.gf2 import InputError, rank_of, vec_str
from z2bord.graphs import (
    LabeledGraph,
    labeling_polynomial,
    labeling_verdict,
    parse_graph,
    projective_space_graph,
    render_graph,
    validate_graph,
)
from z2bord.catalog import SMALL_COVER_1, SMALL_COVER_2
from z2bord.membership import check_membership
from z2bord.smallcover import CharacteristicFunction, skeleton_graph


class TestProjectiveSpaceGraphs:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_valid(self, n):
        assert validate_graph(projective_space_graph(n)) == []

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_polynomial_is_realizable(self, n):
        p = labeling_polynomial(projective_space_graph(n))
        assert not p.is_zero
        assert check_membership(p).accepted
        assert labeling_verdict(projective_space_graph(n)) == "labeling_polynomial=accepted"

    def test_vertex_and_edge_counts(self):
        g = projective_space_graph(4)
        assert len(g.vertices) == 5
        assert len(g.edges) == 10


# A graph that meets every condition validate_graph checks, though its
# labeling polynomial is not realizable: the conditions are necessary only.
VALID_BUT_REJECTED = """\
3 4
v0 v1 001
v0 v3 101
v0 v3 101
v0 v4 010
v1 v2 101
v1 v2 101
v1 v4 011
v2 v3 001
v2 v5 110
v3 v5 111
v4 v5 101
v4 v5 101
"""


class TestValidation:
    def test_a_valid_graph_can_have_a_rejected_polynomial(self):
        # Its (rho, multiplicity, class) groups all have even size, which
        # the graph conditions see; the witness 010 of rho 101 at
        # multiplicity 2 has an odd parity sum, which none of them sees.
        g = parse_graph(VALID_BUT_REJECTED)
        assert validate_graph(g) == []
        v = check_membership(labeling_polynomial(g)).violation
        assert (v.rho, v.multiplicity, v.witness) == (0b101, 2, (0b010,))
        assert labeling_verdict(g) == (
            "labeling_polynomial=rejected rho 101 multiplicity 2 witness 010")

    def test_single_edge_fails_congruence(self):
        # a doubled edge is regular, balances both congruences and forms a
        # single label-11 component, so no other component can share its
        # class; only the span check at each endpoint rejects it
        g = LabeledGraph.make(2, [("a", "b", 0b11), ("a", "b", 0b11)])
        assert validate_graph(g) == [
            "labels at vertex a do not span the rank-2 dual space",
            "labels at vertex b do not span the rank-2 dual space",
        ]

    def test_irregular_graph_rejected(self):
        g = LabeledGraph.make(2, [("a", "b", 0b10), ("b", "c", 0b01),
                                  ("b", "c", 0b11)])
        assert validate_graph(g) == [
            "graph is not regular: valences [1, 2, 3]",
            "labels at vertex a do not span the rank-2 dual space",
        ] + [
            f"edge {e} (label {l}): endpoint label multisets disagree mod the edge label"
            for e, l in (("a-b", "10"), ("b-c", "01"), ("b-c", "11"))
        ]

    def test_non_spanning_labels_rejected(self):
        g = LabeledGraph.make(2, [("a", "b", 0b10), ("a", "b", 0b10)])
        assert validate_graph(g) == [
            "labels at vertex a do not span the rank-2 dual space",
            "labels at vertex b do not span the rank-2 dual space",
        ]

    def test_zero_label_rejected(self):
        g = LabeledGraph.make(2, [("a", "b", 0), ("a", "b", 0b11)])
        assert validate_graph(g) == [
            "edge a-b carries the trivial label",
            "labels at vertex a do not span the rank-2 dual space",
            "labels at vertex b do not span the rank-2 dual space",
        ]

    def test_loop_rejected_at_construction(self):
        with pytest.raises(InputError, match="^loop at vertex a$"):
            LabeledGraph.make(2, [("a", "a", 0b10)])

    def test_congruence_violation_detected(self):
        # triangle where one vertex breaks the mod-label matching
        g = LabeledGraph.make(2, [("a", "b", 0b10), ("a", "b", 0b01),
                                  ("b", "c", 0b10), ("c", "a", 0b11),
                                  ("c", "a", 0b01), ("b", "c", 0b11)])
        assert validate_graph(g) == [
            f"edge {e} (label {l}): endpoint label multisets disagree mod the edge label"
            for e, l in (("a-b", "01"), ("a-b", "10"), ("a-c", "01"),
                         ("a-c", "11"), ("b-c", "10"), ("b-c", "11"))
        ] + [
            f"label {l}: component ['a', 'b', 'c'] has nonconstant label multiplicity"
            for l in ("01", "10", "11")
        ]


# The validator as it scanned every edge per incidence query, kept as the
# oracle for validate_graph: the same violations, in the same order.
def incident_labels(g, x):
    return sorted(l for u, v, l in g.edges if x in (u, v))


def _mod_rho(labels, rho):
    return Counter(min(l, l ^ rho) for l in labels)


def reference_violations(g):
    violations = []
    for u, v, l in g.edges:
        if l == 0:
            violations.append(f"edge {u}-{v} carries the trivial label")
    valences = {x: len(incident_labels(g, x)) for x in g.vertices}
    if len(set(valences.values())) > 1:
        violations.append(f"graph is not regular: valences {sorted(set(valences.values()))}")
    for x in g.vertices:
        labels = incident_labels(g, x)
        if rank_of(labels) != g.k:
            violations.append(
                f"labels at vertex {x} do not span the rank-{g.k} dual space"
            )
    # Congruence along each edge, with the edge itself removed from both sides.
    for i, (u, v, rho) in enumerate(g.edges):
        if rho == 0:
            continue
        left = Counter(incident_labels(g, u))
        right = Counter(incident_labels(g, v))
        left[rho] -= 1
        right[rho] -= 1
        if _mod_rho(left.elements(), rho) != _mod_rho(right.elements(), rho):
            violations.append(
                f"edge {u}-{v} (label {vec_str(rho, g.k)}): endpoint label "
                "multisets disagree mod the edge label"
            )
    _reference_components(g, violations)
    return violations


def _reference_components(g, violations):
    for rho in sorted({l for _, _, l in g.edges if l}):
        adj = {}
        for u, v, l in g.edges:
            if l == rho:
                adj.setdefault(u, set()).add(v)
                adj.setdefault(v, set()).add(u)
        seen = set()
        classes = {}
        for start in sorted(adj):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in adj[x] - comp:
                    comp.add(y)
                    stack.append(y)
            seen |= comp
            mults = {sum(1 for l in incident_labels(g, x) if l == rho) for x in comp}
            if len(mults) > 1:
                violations.append(
                    f"label {vec_str(rho, g.k)}: component {sorted(comp)} has "
                    "nonconstant label multiplicity"
                )
                continue
            m = mults.pop()
            if m <= 1:
                continue
            x = min(comp)
            key = (m, tuple(sorted(_mod_rho(incident_labels(g, x), rho).items())))
            if key in classes:
                violations.append(
                    f"label {vec_str(rho, g.k)}: two valence-{m} components "
                    "share a restriction class"
                )
            classes[key] = 1


class TestAgainstReference:
    def test_every_small_multigraph(self):
        # Every loopless multigraph on a, b, c with 1 to 4 edges labeled in
        # (Z/2)^2, zero included: 1,819 graphs.
        slots = [(u, v, l) for u, v in (("a", "b"), ("a", "c"), ("b", "c"))
                 for l in range(4)]
        count = 0
        for size in range(1, 5):
            for edges in itertools.combinations_with_replacement(slots, size):
                g = LabeledGraph.make(2, edges)
                assert validate_graph(g) == reference_violations(g), edges
                count += 1
        assert count == 1819

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_multigraphs(self, data):
        k = data.draw(st.integers(1, 3))
        names = "abcdef"[:data.draw(st.integers(2, 6))]
        edge = st.tuples(st.sampled_from(names), st.sampled_from(names),
                         st.integers(0, (1 << k) - 1)).filter(lambda e: e[0] != e[1])
        g = LabeledGraph.make(k, data.draw(st.lists(edge, min_size=1, max_size=10)))
        assert validate_graph(g) == reference_violations(g)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_projective_spaces(self, n):
        g = projective_space_graph(n)
        assert validate_graph(g) == reference_violations(g) == []

    @pytest.mark.parametrize("data", [SMALL_COVER_1, SMALL_COVER_2], ids=["cover1", "cover2"])
    def test_small_cover_skeletons(self, data):
        g = skeleton_graph(CharacteristicFunction.from_matrix(data["factor_dims"], data["matrix"]))
        assert validate_graph(g) == reference_violations(g) == []

    def test_shared_restriction_class(self):
        # Two doubled-01 components with the same class mod 01; the small
        # multigraphs above never produce this violation.
        g = LabeledGraph.make(2, [("a", "b", 0b01)] * 2 + [("a", "b", 0b10)]
                              + [("c", "d", 0b01)] * 2 + [("c", "d", 0b10)])
        assert validate_graph(g) == reference_violations(g) == [
            "label 01: two valence-2 components share a restriction class"
        ]

    def test_components_in_vertex_order(self):
        # Two label-01 components, each of nonconstant multiplicity, are
        # reported in the order of their least vertices.
        g = LabeledGraph.make(2, [("e", "f", 0b01), ("d", "e", 0b01), ("d", "e", 0b01),
                                  ("b", "c", 0b01), ("a", "b", 0b01), ("a", "b", 0b01)])
        assert validate_graph(g) == reference_violations(g)
        assert validate_graph(g)[-2:] == [
            f"label 01: component {comp} has nonconstant label multiplicity"
            for comp in (["a", "b", "c"], ["d", "e", "f"])
        ]

    def test_large_graph_in_linear_passes(self):
        # RP^80: 81 vertices, 3,240 edges; one edge scan per incidence query
        # took several seconds here.
        g = projective_space_graph(80)
        start = time.perf_counter()
        assert validate_graph(g) == []
        assert time.perf_counter() - start < 1.0


class TestSerialization:
    def test_round_trip(self):
        for n in (2, 3, 4):
            g = projective_space_graph(n)
            assert parse_graph(render_graph(g)) == g

    def test_irregular_graph_round_trips(self):
        # the header's valence is checked only for a regular graph, so an
        # irregular one parses whatever it declares
        g = LabeledGraph.make(2, [("a", "b", 0b10), ("b", "c", 0b01), ("b", "c", 0b11)])
        text = render_graph(g)
        assert parse_graph(text) == g
        assert parse_graph("2 7" + text[text.index("\n"):]) == g

    def test_parse_rejects_malformed(self):
        for text, message in (
            ("", "empty graph file"),
            ("2\n", "bad graph header '2'; expected 'k n'"),
            ("2 2\na b 1x\n", "malformed bit-string '1x'"),
            ("2 2\na 11\n", "bad edge line 'a 11'"),
            ("2 2\na b 11\n", "declared valence 2 but graph has valences [1]"),
        ):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                parse_graph(text)

    def test_comments_allowed(self):
        g = projective_space_graph(2)
        text = "# header comment\n" + render_graph(g)
        assert parse_graph(text) == g


BAD_INPUT = {
    "labeling_not_regular": (
        lambda: labeling_polynomial(LabeledGraph.make(2, [("a", "b", 0b10), ("b", "c", 0b01)])),
        "labeling polynomial requires a regular graph"),
    "projective_n_below_one": (lambda: projective_space_graph(0), "n must be at least 1"),
    "parse_negative_valence": (lambda: parse_graph("2 -1\n"),
                               "bad graph header '2 -1'; expected 'k n'"),
    "parse_label_width": (lambda: parse_graph("2 1\na b 101\n"),
                          "edge label '101' has width 3, expected 2"),
    "label_too_wide": (lambda: LabeledGraph.make(2, [("a", "b", 5), ("a", "b", 1)]),
                       "edge a-b label 5 is outside (Z/2)^2"),
    "label_negative": (lambda: LabeledGraph.make(2, [("b", "a", -1)]),
                       "edge b-a label -1 is outside (Z/2)^2"),
    "rank_negative": (lambda: LabeledGraph.make(-1, [("a", "b", 0)]), "rank -1 is negative"),
}


@pytest.mark.parametrize("call,message", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_raises_input_error(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()
