"""Command-line interface: dispatch, output, and exit codes."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import z2bord
from z2bord.catalog import GEN_1, GEN_4, REJECTED_SINGLETON, SMALL_COVER_1
from z2bord.cli import EXIT_BROKEN_PIPE, _parse_subgroup, main
from z2bord.gf2 import InputError
from z2bord.repalg import render_polynomial


def _argparse_keeps_dashes() -> bool:
    """Python 3.13 passes the value of --NAME=-- through as '--'; earlier
    versions store [] for it."""
    ap = argparse.ArgumentParser()
    ap.add_argument("--x")
    return ap.parse_args(["--x=--"]).x == "--"


DASHES_KEPT = _argparse_keeps_dashes()


@pytest.fixture
def gen1_file(tmp_path):
    path = tmp_path / "gen1.poly"
    path.write_text(render_polynomial(GEN_1))
    return str(path)


@pytest.fixture
def gen4_file(tmp_path):
    path = tmp_path / "gen4.poly"
    path.write_text(render_polynomial(GEN_4))
    return str(path)


@pytest.fixture
def lam_file(tmp_path):
    path = tmp_path / "sc1.lam"
    rows = "\n".join(" ".join(map(str, r)) for r in SMALL_COVER_1["matrix"])
    path.write_text("1 4\n" + rows + "\n")
    return str(path)


@pytest.fixture
def rejected_file(tmp_path):
    path = tmp_path / "rejected.poly"
    path.write_text(render_polynomial(REJECTED_SINGLETON))
    return str(path)


# The full `check` output on GEN_4, whose groups have 2 and 4 members,
# and on the rejected candidate: every group, member and witness, in the
# order they are printed; each group's members in sorted order.
GEN_4_CHECK = (
    'accepted\n'
    'rho 001:\n'
    '  multiplicity 1  size 2  members 001,010,010,100,100 / 001,010,011,100,101\n'
    '  multiplicity 1  size 2  members 001,010,010,100,110 / 001,010,011,101,110\n'
    '  multiplicity 1  size 2  members 001,010,100,100,110 / 001,011,100,101,110\n'
    'rho 010:\n'
    '  multiplicity 1  size 2  members 001,010,011,100,101 / 001,010,011,101,110\n'
    '  multiplicity 1  size 2  members 001,010,100,100,110 / 010,011,100,110,110\n'
    '  multiplicity 1  size 2  members 010,100,100,101,110 / 010,100,101,110,110\n'
    '  multiplicity 2  size 4  members 001,010,010,100,100 / 001,010,010,100,110 / 010,010,011,100,110 / 010,010,011,110,110\n'
    'rho 011:\n'
    '  multiplicity 1  size 2  members 001,010,011,100,101 / 010,010,011,100,110\n'
    '  multiplicity 1  size 2  members 001,010,011,101,110 / 010,010,011,110,110\n'
    '  multiplicity 1  size 2  members 001,011,100,101,110 / 010,011,100,110,110\n'
    'rho 100:\n'
    '  multiplicity 1  size 2  members 001,010,011,100,101 / 001,011,100,101,110\n'
    '  multiplicity 1  size 2  members 001,010,010,100,110 / 010,100,101,110,110\n'
    '  multiplicity 1  size 2  members 010,010,011,100,110 / 010,011,100,110,110\n'
    '  multiplicity 2  size 4  members 001,010,010,100,100 / 001,010,100,100,110 / 010,100,100,101,110 / 100,100,101,110,110\n'
    'rho 101:\n'
    '  multiplicity 1  size 2  members 001,010,011,100,101 / 010,100,100,101,110\n'
    '  multiplicity 1  size 2  members 001,010,011,101,110 / 010,100,101,110,110\n'
    '  multiplicity 1  size 2  members 001,011,100,101,110 / 100,100,101,110,110\n'
    'rho 110:\n'
    '  multiplicity 1  size 2  members 001,010,010,100,110 / 001,010,100,100,110\n'
    '  multiplicity 1  size 2  members 001,010,011,101,110 / 001,011,100,101,110\n'
    '  multiplicity 1  size 2  members 010,010,011,100,110 / 010,100,100,101,110\n'
    '  multiplicity 2  size 4  members 010,010,011,110,110 / 010,011,100,110,110 / 010,100,101,110,110 / 100,100,101,110,110\n'
)
REJECTED_CHECK = (
    'rejected\n'
    'rho 001\n'
    'multiplicity 1\n'
    'witness (empty)\n'
)


class TestCheck:
    def test_accepted(self, gen1_file, capsys):
        assert main(["check", gen1_file]) == 0
        assert capsys.readouterr().out.startswith("accepted")

    def test_accepted_output(self, gen4_file, capsys):
        assert main(["check", gen4_file]) == 0
        assert capsys.readouterr() == (GEN_4_CHECK, "")

    def test_only_dividing_rhos_get_headers(self, tmp_path, capsys):
        # RP^20's fixed data has rank 20: 210 rhos divide a monomial, each
        # in one group, and the other 2^20 - 211 get no header.
        from z2bord.graphs import labeling_polynomial, projective_space_graph

        path = tmp_path / "rp20.poly"
        path.write_text(render_polynomial(labeling_polynomial(projective_space_graph(20))))
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 421 and out[0] == "accepted"
        assert sum(line.startswith("rho ") for line in out) == 210

    def test_rejected(self, rejected_file, capsys):
        assert main(["check", rejected_file]) == 1
        assert capsys.readouterr() == (REJECTED_CHECK, "")

    def test_missing_file(self, capsys):
        assert main(["check", "/no/such/file.poly"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.poly"
        path.write_text("100,0x0\n")
        assert main(["check", str(path)]) == 2

    def test_non_faithful_input(self, tmp_path, capsys):
        path = tmp_path / "nonfaithful.poly"
        path.write_text("100,100,010\n")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not faithful" in err
        assert len(err.splitlines()) == 1


class TestDim:
    def test_headline_value(self, capsys):
        assert main(["dim", "--n", "5", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1] == "77"
        assert "faithful=329" in out and "constraints=490" in out

    def test_trivial_range(self, capsys):
        assert main(["dim", "--n", "1", "--k", "2"]) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "0"

    def test_trivial_range_beyond_the_bounds(self, capsys):
        assert main(["dim", "--n", "1", "--k", "9"]) == 0
        assert capsys.readouterr().out == (
            "n=1 k=9 faithful=0 constraints=0 dimension=0\n0\n"
        )
        for n, k in ((0, 9), (9, 3)):
            assert main(["dim", "--n", str(n), "--k", str(k)]) == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_bad_flags(self, capsys):
        assert main(["dim", "--n", "5"]) == 2
        assert main(["dim", "--n", "-1", "--k", "2"]) == 2


class TestOrbitAndSpan:
    def test_orbit(self, gen1_file, capsys):
        assert main(["orbit", gen1_file]) == 0
        out = capsys.readouterr().out
        assert "orbit_size=7" in out and "stabilizer_size=24" in out

    def test_orbit_elements_listing(self, gen1_file, capsys):
        assert main(["orbit", gen1_file, "--elements"]) == 0
        assert capsys.readouterr().out.count("--") == 7

    def test_span_with_orbit_expansion(self, gen1_file, capsys):
        assert main(["span", gen1_file, "--expand-orbits"]) == 0
        assert "span_dimension=7" in capsys.readouterr().out

    def test_span_plain(self, gen1_file, capsys):
        assert main(["span", gen1_file, gen1_file]) == 0
        assert "span_dimension=1" in capsys.readouterr().out

    @pytest.mark.parametrize("expand", [[], ["--expand-orbits"]])
    def test_span_of_zero(self, expand, tmp_path, capsys):
        # The repeated monomial cancels mod 2; a zero span has both lines.
        path = tmp_path / "zero.poly"
        path.write_text("001,010,100\n001,010,100\n")
        assert main(["span", *expand, str(path)]) == 0
        assert capsys.readouterr() == ("span_dimension=0\nbasis_size=0\n", "")

    @pytest.mark.parametrize("monomial", ["100,100,010", "000,100,010,001"])
    @pytest.mark.parametrize("command", ["orbit", "span"])
    def test_non_faithful_input(self, command, monomial, tmp_path, capsys):
        path = tmp_path / "nonfaithful.poly"
        path.write_text(monomial + "\n")
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not faithful" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", [["orbit"], ["span", "--expand-orbits"]])
    def test_rank_five_refused(self, command, tmp_path, capsys):
        path = tmp_path / "rank5.poly"
        path.write_text("10000,01000,00100,00010,00001\n")
        assert main([*command, str(path)]) == 2
        assert capsys.readouterr() == (
            "", "error: GL(5,2) enumeration not supported (k <= 4)\n"
        )

    def test_span_of_different_shapes(self, gen1_file, tmp_path, capsys):
        path = tmp_path / "rp2.poly"
        path.write_text("01,10\n01,11\n10,11\n")
        assert main(["span", gen1_file, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("expand", [[], ["--expand-orbits"]])
    def test_span_of_different_degrees(self, expand, gen1_file, tmp_path, capsys):
        path = tmp_path / "degree3.poly"
        path.write_text("001,010,100\n")
        assert main(["span", *expand, gen1_file, str(path)]) == 2
        assert capsys.readouterr() == ("", "error: polynomials of mixed degree or rank\n")

    def test_span_refuses_mixed_shapes_before_expanding_orbits(self, gen1_file, tmp_path,
                                                               capsys):
        # Expanding the rank-5 orbit would fail with its own error first.
        path = tmp_path / "rank5.poly"
        path.write_text("10000,01000,00100,00010,00001\n")
        assert main(["span", "--expand-orbits", gen1_file, str(path)]) == 2
        assert capsys.readouterr() == ("", "error: polynomials of mixed degree or rank\n")


class TestGraphValidate:
    def test_valid(self, tmp_path, capsys):
        from z2bord.graphs import projective_space_graph, render_graph

        path = tmp_path / "rp3.graph"
        path.write_text(render_graph(projective_space_graph(3)))
        assert main(["graph-validate", str(path)]) == 0
        assert capsys.readouterr().out == "valid\nlabeling_polynomial=accepted\n"

    def test_invalid(self, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_text("2 1\na b 10\nc d 01\n")
        assert main(["graph-validate", str(path)]) == 1
        assert capsys.readouterr().out.startswith("invalid")

    def test_irregular_graph_is_reported(self, tmp_path, capsys):
        from z2bord.graphs import LabeledGraph, render_graph, validate_graph

        g = LabeledGraph.make(2, [("a", "b", 0b10), ("b", "c", 0b01), ("b", "c", 0b11)])
        path = tmp_path / "irregular.graph"
        path.write_text(render_graph(g))
        assert main(["graph-validate", str(path)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == ["invalid", *validate_graph(g)]
        assert "graph is not regular: valences [1, 2, 3]" in out

    def test_valid_does_not_mean_realizable(self, tmp_path, capsys):
        # The graph conditions are necessary only: check rejects the
        # labeling polynomial of this valid graph, and graph-validate
        # prints that verdict after valid, still exiting 0.
        from test_graphs import VALID_BUT_REJECTED
        from z2bord.graphs import labeling_polynomial, parse_graph

        graph, poly = tmp_path / "g.graph", tmp_path / "g.poly"
        graph.write_text(VALID_BUT_REJECTED)
        poly.write_text(render_polynomial(labeling_polynomial(parse_graph(VALID_BUT_REJECTED))))
        assert main(["graph-validate", str(graph)]) == 0
        assert capsys.readouterr().out == (
            "valid\nlabeling_polynomial=rejected rho 101 multiplicity 2 witness 010\n")
        assert main(["check", str(poly)]) == 1
        assert capsys.readouterr().out == "rejected\nrho 101\nmultiplicity 2\nwitness 010\n"

    def test_malformed(self, tmp_path):
        path = tmp_path / "junk.graph"
        path.write_text("not a graph\n")
        assert main(["graph-validate", str(path)]) == 2


class TestSmallcover:
    def test_fixed_polynomial(self, lam_file, capsys):
        assert main(["smallcover", "--polytope", "1x4", "--lambda", lam_file]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 10

    def test_restriction(self, lam_file, tmp_path, capsys):
        sub = tmp_path / "h.sub"
        sub.write_text("01111\n11010\n11001\n")
        assert main(["smallcover", "--polytope", "1x4", "--lambda", lam_file,
                     "--subgroup", str(sub)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 10 and all(len(l.split(",")) == 5 for l in out)

    def test_subgroup_file_comments(self, lam_file, tmp_path, capsys):
        sub = tmp_path / "h.sub"
        sub.write_text("# basis of h\n01111 # first row\n  # indented\n11010\n11001\n")
        assert main(["smallcover", "--polytope", "1x4", "--lambda", lam_file,
                     "--subgroup", str(sub)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 10 and all(len(l.split(",")) == 5 for l in out)

    def test_polytope_mismatch(self, lam_file):
        assert main(["smallcover", "--polytope", "2x3", "--lambda", lam_file]) == 2

    def test_header_without_rows(self, tmp_path, capsys):
        path = tmp_path / "header.lam"
        path.write_text("1 4\n")
        assert main(["smallcover", "--polytope", "1x4", "--lambda", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_non_isolated_subgroup(self, lam_file, tmp_path, capsys):
        sub = tmp_path / "h.sub"
        sub.write_text("10000\n01000\n00100\n")
        assert main(["smallcover", "--polytope", "1x4", "--lambda", lam_file,
                     "--subgroup", str(sub)]) == 1
        assert capsys.readouterr().out == (
            "non-isolated: factor 00010 at vertex (0, 2) restricts to the "
            "trivial representation\n"
        )

    def test_dependent_subgroup_rows(self, lam_file, tmp_path):
        sub = tmp_path / "h.sub"
        sub.write_text("01111\n01111\n11001\n")
        assert main(["smallcover", "--polytope", "1x4", "--lambda", lam_file,
                     "--subgroup", str(sub)]) == 2

    def test_subgroups_of_a_21_simplex(self, tmp_path, capsys):
        # The standard characteristic function e_1, ..., e_21, e_1 + ... + e_21
        # of the 21-simplex: the subgroup of every unit row restricts each
        # factor to itself, and three unit rows meet a factor trivially.
        n = 21
        lam = tmp_path / "simplex.lam"
        lam.write_text(f"{n}\n" + "".join(
            " ".join("1" if j in (i, n) else "0" for j in range(n + 1)) + "\n"
            for i in range(n)))
        run = ["smallcover", "--polytope", str(n), "--lambda", str(lam)]
        assert main(run) == 0
        unrestricted = capsys.readouterr().out
        assert len(unrestricted.splitlines()) == n + 1
        units = [format(1 << n - i, f"0{n}b") for i in range(1, n + 1)]
        sub = tmp_path / "h.sub"
        sub.write_text("\n".join(units) + "\n")
        assert main([*run, "--subgroup", str(sub)]) == 0
        assert capsys.readouterr().out == unrestricted
        sub.write_text("\n".join(units[:3]) + "\n")
        assert main([*run, "--subgroup", str(sub)]) == 1
        assert capsys.readouterr().out == (
            f"non-isolated: factor {units[3]} at vertex (3,) restricts to the "
            "trivial representation\n"
        )


class TestMilnor:
    def test_published_family(self, capsys):
        assert main(["milnor", "--m", "2", "--n", "4", "--r", "3",
                     "--sets", "2;12;23;123"]) == 0
        out = capsys.readouterr().out
        assert out == render_polynomial(GEN_1)

    def test_bad_family(self, capsys):
        assert main(["milnor", "--m", "2", "--n", "4", "--r", "3",
                     "--sets", "2;2;23;123"]) == 2

    def test_search(self, capsys):
        assert main(["milnor-search", "--m", "2", "--n", "4", "--r", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "families_tried=840", "skipped_non_isolated=0", "distinct_polynomials=35",
            "orbit_1_hits=504 first=1;2;3;13", "orbit_2_hits=336 first=1;2;3;12",
            "orbit_3_hits=0", "orbit_4_hits=0", "unreached_orbits=3,4"]

    def test_search_in_degree_six(self, capsys):
        # No degree-6 family reaches a degree-5 generator orbit.
        assert main(["milnor-search", "--m", "2", "--n", "5", "--r", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "families_tried=2520", "skipped_non_isolated=0", "distinct_polynomials=70",
            "orbit_1_hits=0", "orbit_2_hits=0", "orbit_3_hits=0", "orbit_4_hits=0",
            "unreached_orbits=1,2,3,4"]

    def test_search_below_rank_three(self, capsys):
        # Rank-2 polynomials never lie in a rank-3 generator orbit, so every
        # orbit is reported as searched and unreached.
        assert main(["milnor-search", "--m", "1", "--n", "2", "--r", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[3:] == [f"orbit_{i}_hits=0" for i in range(1, 5)] + [
            "unreached_orbits=1,2,3,4"
        ]

    def test_search_with_m_zero(self, capsys):
        assert main(["milnor-search", "--m", "0", "--n", "4", "--r", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("n,r", [("4", "0"), ("4", "-2"), ("4", "2")])
    def test_search_with_no_possible_family(self, capsys, n, r):
        assert main(["milnor-search", "--m", "2", "--n", n, "--r", r]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


class TestReproduce:
    def test_all_checkpoints_pass(self, capsys):
        assert main(["reproduce-paper"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if ":PASS" in l or ":FAIL" in l]
        assert len(lines) >= 40
        assert all(l.endswith(":PASS") for l in lines)
        assert "all checkpoints passed" in out

    def test_emit_data(self, tmp_path, capsys):
        out_dir = tmp_path / "data"
        assert main(["reproduce-paper", "--emit-data", str(out_dir)]) == 0
        names = {p.name for p in out_dir.iterdir()}
        assert "generator_1.poly" in names
        assert "small_cover_1.lam" in names
        assert "projective_3.graph" in names

    def test_emit_data_under_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        target = str(blocker / "out")
        assert main(["reproduce-paper", "--emit-data", target]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {target}: Not a directory\n"
        assert captured.out == ""

    def test_deterministic(self, capsys):
        main(["reproduce-paper"])
        first = capsys.readouterr().out
        main(["reproduce-paper"])
        assert capsys.readouterr().out == first


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["reproduce-paper"], ["dim", "--n", "5", "--k", "3"]],
                         ids=["reproduce-paper", "dim"])
def test_reader_closed_at_once(argv, unbuffered):
    # The read end is closed before the process starts, so its first write
    # (a print when unbuffered, the flush in main when buffered) fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(z2bord.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        done = subprocess.run([sys.executable, "-m", "z2bord.cli", *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == EXIT_BROKEN_PIPE == 141


class TestDispatch:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_command(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("argv", [
        ["dim", "--n", "5"], ["frobnicate"], [], ["span"], ["orbit", "--elements=x"],
    ])
    def test_usage_error_is_one_line(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["dim", "--help"]])
    def test_help(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: ")


# argv with one option written --NAME=--, and the exit code where argparse
# keeps the '--' as the value: then --emit-data names a directory '--'.
DASH_CASES = {
    "polytope": (["smallcover", "--polytope=--", "--lambda", "LAM"], 2),
    "lambda": (["smallcover", "--polytope", "1x4", "--lambda=--"], 2),
    "subgroup": (["smallcover", "--polytope", "1x4", "--lambda", "LAM",
                  "--subgroup=--"], 2),
    "sets": (["milnor", "--m", "2", "--n", "4", "--r", "3", "--sets=--"], 2),
    "m": (["milnor", "--m=--", "--n", "4", "--r", "3", "--sets", "2;12"], 2),
    "n": (["dim", "--n=--", "--k", "3"], 2),
    "r": (["milnor-search", "--m", "2", "--n", "4", "--r=--"], 2),
    "emit-data": (["reproduce-paper", "--emit-data=--"], 0),
}


@pytest.mark.parametrize("argv,kept_code", DASH_CASES.values(), ids=DASH_CASES.keys())
def test_option_value_of_two_dashes(argv, kept_code, lam_file, tmp_path,
                                    monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main([lam_file if a == "LAM" else a for a in argv])
    out, err = capsys.readouterr()
    if not DASHES_KEPT:
        option = next(a for a in argv if a.endswith("=--"))[:-3]
        assert (code, out, err) == (2, "", f"error: argument {option}: expected one argument\n")
    elif kept_code == 2:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code == 0 and (tmp_path / "--" / "generator_1.poly").is_file()


# argv, with FILE standing for a file holding the given text, and the one
# stderr line after "error: " (PATH: the file's path) on exit 2.
ERROR_LINES = {
    "milnor_bad_token": (["milnor", "--m", "2", "--n", "4", "--r", "3", "--sets", "2;1a;23;123"],
                         None, "bad subset token '1a'"),
    "milnor_element_range": (["milnor", "--m", "2", "--n", "4", "--r", "3",
                              "--sets", "2;12;24;123"], None, "element 4 outside 1..3"),
    "milnor_duplicate_sets": (["milnor", "--m", "2", "--n", "4", "--r", "3",
                               "--sets", "2;2;23;123"], None, "subsets must be distinct"),
    "milnor_m_above_n": (["milnor", "--m", "5", "--n", "4", "--r", "3",
                          "--sets", "2;12;23;123"], None, "need 1 <= m <= n, got m=5, n=4"),
    "milnor_search_r_zero": (["milnor-search", "--m", "2", "--n", "4", "--r", "0"], None,
                             "no family of 4 distinct nonempty subsets of 1..0"),
    "polytope_zero": (["smallcover", "--polytope", "0", "--lambda", "FILE"], "1 1\n",
                      "factor dimensions must be positive: (0,)"),
    "lam_header_not_integer": (["smallcover", "--polytope", "1x4", "--lambda", "FILE"],
                               "1 x\n1 0 1 0 0 1 1\n",
                               "PATH: invalid literal for int() with base 10: 'x'"),
    "check_non_faithful": (["check", "FILE"], "100,100,010\n",
                           "PATH: monomial 010,100,100 is not faithful"),
}


@pytest.mark.parametrize("argv,text,line", ERROR_LINES.values(), ids=ERROR_LINES.keys())
def test_error_line(argv, text, line, tmp_path, capsys):
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text)
    assert main([str(path) if a == "FILE" else a for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {line.replace('PATH', str(path))}\n")


def test_subgroup_of_wrong_width(lam_file, tmp_path, capsys):
    sub = tmp_path / "h.sub"
    sub.write_text("0111\n1101\n")
    assert main(["smallcover", "--polytope", "1x4", "--lambda", lam_file,
                 "--subgroup", str(sub)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {sub}: each row must be a bit-string of width 5\n")


@pytest.mark.parametrize("text,message", [
    ("0111\n", "each row must be a bit-string of width 5"),
    ("0111x\n", "malformed bit-string '0111x'"),
    ("01111\n01111\n", "rows are not independent"),
])
def test_parse_subgroup_refusals(text, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        _parse_subgroup(text, 5)
