"""Fuzzing the file parsers and the CLI on generated file text.

A parser may refuse its input only with InputError; the CLI may end only
in exit 0, 1 or 2, and exit 2 prints exactly one 'error:' line.  Labels
are at most 3 bits wide, so every accepted input stays small (orbit
enumerates at most GL(3,2)).  dim is left out because the enumeration
bounds admit (8, 4), which runs for minutes.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from z2bord.cli import main
from z2bord.gf2 import InputError
from z2bord.graphs import parse_graph
from z2bord.repalg import parse_polynomial
from z2bord.smallcover import parse_characteristic

pytestmark = pytest.mark.fixed_seed

BITS = [format(v, f"0{w}b") for w in (1, 2, 3) for v in range(2**w)]
PIECES = BITS + [",", ", ", " ", "\t", "\n", "\n", "#", "2", "-1", "a", "x"]
FILE_TEXT = st.lists(st.sampled_from(PIECES), max_size=30).map("".join)


def label(w):
    return st.integers(0, 2**w - 1).map(lambda v: format(v, f"0{w}b"))


@st.composite
def polynomial_text(draw):
    """Rows of n comma-separated labels of one width w: mostly well formed."""
    w = draw(st.integers(1, 3))
    n = draw(st.integers(w, w + 2))
    rows = draw(st.lists(st.lists(label(w), min_size=n, max_size=n), max_size=5))
    return "\n".join(", ".join(r) for r in rows)


@st.composite
def graph_text(draw):
    """Header 'k n', then edges 'u v label' among four vertices."""
    k = draw(st.integers(1, 3))
    edge = st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd"), label(k))
    edges = draw(st.lists(edge, max_size=8))
    lines = [f"{k} {draw(st.integers(0, 4))}"] + [" ".join(e) for e in edges]
    return "\n".join(lines)


# Polytope spec -> (dimension, number of facets).
POLYTOPES = {"1": (1, 2), "2": (2, 3), "3": (3, 4), "1x1": (2, 4), "1x2": (3, 5)}


@st.composite
def smallcover_args(draw):
    """A polytope spec and a 0/1 matrix of its shape, sometimes a header."""
    spec = draw(st.sampled_from(sorted(POLYTOPES)))
    rows, cols = POLYTOPES[spec]
    entries = st.lists(st.sampled_from("01"), min_size=cols, max_size=cols)
    matrix = draw(st.lists(entries, min_size=rows, max_size=rows))
    lines = [" ".join(r) for r in matrix]
    if draw(st.booleans()):
        lines.insert(0, spec.replace("x", " "))
    return spec, "\n".join(lines)


FUZZ = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestParsers:
    @FUZZ
    @given(FILE_TEXT | polynomial_text())
    def test_parse_polynomial(self, text):
        with contextlib.suppress(InputError):
            parse_polynomial(text)

    @FUZZ
    @given(FILE_TEXT | graph_text())
    def test_parse_graph(self, text):
        with contextlib.suppress(InputError):
            parse_graph(text)

    @FUZZ
    @given(FILE_TEXT, st.none() | st.sampled_from([(1,), (2,), (1, 1), (1, 2)]))
    def test_parse_characteristic(self, text, factor_dims):
        with contextlib.suppress(InputError):
            parse_characteristic(text, factor_dims)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_cli(workdir, argv, files):
    """main(argv) with each name in argv that is a key of files replaced by
    a path holding that text; returns the exit code and stderr."""
    paths = {}
    for i, (name, text) in enumerate(files.items()):
        paths[name] = workdir / f"{i}.txt"
        paths[name].write_text(text)
    argv = [str(paths.get(a, a)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    errors = [ln for ln in err.getvalue().splitlines() if ln.startswith("error:")]
    if code == 2:
        assert len(errors) == 1 and err.getvalue().count("\n") == 1
    else:
        assert not errors
    return code


class TestCli:
    @FUZZ
    @given(FILE_TEXT | polynomial_text())
    def test_check(self, workdir, text):
        run_cli(workdir, ["check", "P"], {"P": text})

    @FUZZ
    @given(st.lists(FILE_TEXT | polynomial_text(), min_size=1, max_size=3), st.booleans())
    def test_span(self, workdir, texts, expand):
        names = [f"P{i}" for i in range(len(texts))]
        argv = ["span", *names] + (["--expand-orbits"] if expand else [])
        run_cli(workdir, argv, dict(zip(names, texts)))

    @FUZZ
    @given(FILE_TEXT | graph_text())
    def test_graph_validate(self, workdir, text):
        run_cli(workdir, ["graph-validate", "G"], {"G": text})

    @FUZZ
    @given(
        smallcover_args() | st.tuples(st.text(alphabet="0123x-", max_size=4), FILE_TEXT),
        st.none() | FILE_TEXT | polynomial_text(),
    )
    def test_smallcover(self, workdir, polytope_and_matrix, subgroup):
        polytope, matrix = polytope_and_matrix
        argv = ["smallcover", f"--polytope={polytope}", "--lambda", "L"]
        files = {"L": matrix}
        if subgroup is not None:
            argv += ["--subgroup", "S"]
            files["S"] = subgroup
        run_cli(workdir, argv, files)

    @FUZZ
    @given(FILE_TEXT | polynomial_text(), st.booleans())
    def test_orbit(self, workdir, text, elements):
        argv = ["orbit", "P"] + (["--elements"] if elements else [])
        run_cli(workdir, argv, {"P": text})

    @FUZZ
    @given(
        st.lists(st.integers(-2, 6), min_size=3, max_size=3),
        st.text(alphabet="0123456789;,- x", max_size=12),
    )
    def test_milnor(self, workdir, mnr, sets):
        m, n, r = mnr
        run_cli(workdir, ["milnor", f"--m={m}", f"--n={n}", f"--r={r}", f"--sets={sets}"], {})

    @FUZZ
    @given(st.integers(-1, 6), st.integers(-1, 7), st.integers(-1, 5))
    def test_milnor_search(self, workdir, m, n, r):
        # At and past the search bound r <= 3, n <= 5: a search runs iff
        # 1 <= m <= n and there are n distinct nonempty subsets of 1..r.
        code = run_cli(workdir, ["milnor-search", f"--m={m}", f"--n={n}", f"--r={r}"], {})
        assert (code == 0) == (1 <= m <= n <= min(5, 2**r - 1) and 1 <= r <= 3)
