"""Labeled multigraph validation and labeling polynomials."""

import re

import pytest

from z2bord.gf2 import InputError
from z2bord.graphs import (
    LabeledGraph,
    labeling_polynomial,
    parse_graph,
    projective_space_graph,
    render_graph,
    validate_graph,
)
from z2bord.membership import check_membership


class TestProjectiveSpaceGraphs:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_valid(self, n):
        assert validate_graph(projective_space_graph(n)).ok

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_polynomial_is_realizable(self, n):
        p = labeling_polynomial(projective_space_graph(n))
        assert not p.is_zero
        assert check_membership(p).accepted

    def test_vertex_and_edge_counts(self):
        g = projective_space_graph(4)
        assert len(g.vertices) == 5
        assert len(g.edges) == 10


class TestValidation:
    def test_single_edge_fails_congruence(self):
        # a doubled edge is regular, balances both congruences and forms a
        # single label-11 component, so no other component can share its
        # class; only the span check at each endpoint rejects it
        g = LabeledGraph.make(2, [("a", "b", 0b11), ("a", "b", 0b11)])
        assert validate_graph(g).violations == [
            "labels at vertex a do not span the rank-2 dual space",
            "labels at vertex b do not span the rank-2 dual space",
        ]

    def test_irregular_graph_rejected(self):
        g = LabeledGraph.make(2, [("a", "b", 0b10), ("b", "c", 0b01),
                                  ("b", "c", 0b11)])
        assert not validate_graph(g).ok

    def test_non_spanning_labels_rejected(self):
        g = LabeledGraph.make(2, [("a", "b", 0b10), ("a", "b", 0b10)])
        assert not validate_graph(g).ok

    def test_zero_label_rejected(self):
        g = LabeledGraph.make(2, [("a", "b", 0), ("a", "b", 0b11)])
        assert not validate_graph(g).ok

    def test_loop_rejected_at_construction(self):
        with pytest.raises(InputError, match="^loop at vertex a$"):
            LabeledGraph.make(2, [("a", "a", 0b10)])

    def test_congruence_violation_detected(self):
        # triangle where one vertex breaks the mod-label matching
        g = LabeledGraph.make(2, [("a", "b", 0b10), ("a", "b", 0b01),
                                  ("b", "c", 0b10), ("c", "a", 0b11),
                                  ("c", "a", 0b01), ("b", "c", 0b11)])
        assert validate_graph(g).violations == [
            f"edge {e} (label {l}): endpoint label multisets disagree mod the edge label"
            for e, l in (("a-b", "01"), ("a-b", "10"), ("a-c", "01"),
                         ("a-c", "11"), ("b-c", "10"), ("b-c", "11"))
        ] + [
            f"label {l}: component ['a', 'b', 'c'] has nonconstant label multiplicity"
            for l in ("01", "10", "11")
        ]


class TestSerialization:
    def test_round_trip(self):
        for n in (2, 3, 4):
            g = projective_space_graph(n)
            assert parse_graph(render_graph(g)) == g

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
    "parse_label_width": (lambda: parse_graph("2 1\na b 101\n"),
                          "edge label '101' has width 3, expected 2"),
}


@pytest.mark.parametrize("call,message", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_raises_input_error(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()
