"""Bit-packed GF(2) linear algebra."""

import functools
import math
import operator
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2bord.catalog import SMALL_COVER_1, SMALL_COVER_2
from z2bord.gf2 import (
    InputError,
    ResourceLimitError,
    block_rank,
    cyclotomic_factors,
    dot,
    enumerate_gl,
    enumerate_subspaces,
    from_bits,
    inverse,
    nullspace,
    parse_vec,
    rank_of,
    row_reduce,
    set_bits,
    transpose,
    unit,
    vec_str,
)
from z2bord.repalg import images


def gl_order(k):
    return math.prod(2**k - 2**j for j in range(k))


def gaussian_binomial(k, r):
    num = math.prod(2**k - 2**j for j in range(r))
    den = math.prod(2**r - 2**j for j in range(r))
    return num // den


def reference_rref(rows):
    """RREF by sorted-list insertion: each new row is reduced by the basis,
    which is then fully re-reduced by it and re-sorted."""
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis = [min(b, b ^ row) for b in basis]
            basis.append(row)
            basis.sort(reverse=True)
    return basis


def span_vectors(rows):
    """Every XOR of a subset of the rows, as a set."""
    out = {0}
    for row in rows:
        out |= {v ^ row for v in out}
    return out


def from_entries(entries):
    """Row tuple of a matrix given by its 0/1 entries, e.g. [[1,0],[1,1]]."""
    return tuple(int("".join(map(str, r)), 2) for r in entries)


def entry(a, n_cols, i, j):
    """Entry in row i, column j (both 1-based) of the rows a of width n_cols."""
    return (a[i - 1] >> (n_cols - j)) & 1


def matmul(a, b):
    """Entry-by-entry product over GF(2) of two k x k row tuples."""
    k = len(a)
    return from_entries(
        [[sum(entry(a, k, i, j) & entry(b, k, j, l) for j in range(1, k + 1)) & 1
          for l in range(1, k + 1)]
         for i in range(1, k + 1)]
    )


IDENTITY_3 = (0b100, 0b010, 0b001)


def product_table(rows):
    """The reference for repalg.images: entry f of this 2^k list, k =
    len(rows), is fM, built by doubling, as the map is linear: bit j of f
    adds row k - j of M."""
    table = [0]
    for row in reversed(rows):
        table += [x ^ row for x in table]
    return table


@st.composite
def bit_matrices(draw):
    """(rows, width): up to 40 rows of width up to 80, mixing random rows,
    XORs of a few fixed vectors (so the rank is often low), zero rows and
    repeats."""
    width = draw(st.integers(1, 80))
    vec = st.integers(0, 2**width - 1)
    generators = draw(st.lists(vec, min_size=1, max_size=6))
    combination = st.lists(st.sampled_from(generators), max_size=4).map(
        lambda vs: functools.reduce(operator.xor, vs, 0)
    )
    rows = draw(st.lists(st.one_of(vec, combination, st.just(0)), max_size=32))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=8))
    return draw(st.permutations(rows)), width


class TestVectors:
    def test_unit_and_coord(self):
        assert vec_str(unit(1, 3), 3) == "100"
        assert vec_str(unit(3, 3), 3) == "001"

    def test_parse_render_round_trip(self):
        for s in ("110", "0001", "1", "10101"):
            v, k = parse_vec(s)
            assert vec_str(v, k) == s

    def test_parse_rejects_garbage(self):
        for s in ("", "102", "1 0", "ab"):
            with pytest.raises(InputError, match=f"^{re.escape(f'malformed bit-string {s!r}')}$"):
                parse_vec(s)

    def test_dot_is_parity_of_overlap(self):
        assert dot(0b110, 0b101) == 1
        assert dot(0b110, 0b110) == 0
        assert dot(0, 0b111) == 0

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_dot_bilinear(self, a, b, c):
        assert dot(a ^ b, c) == (dot(a, c) + dot(b, c)) % 2

    @given(st.integers(0, 2**700), st.integers(0, 2**700))
    def test_sparse_round_trip_and_order(self, a, b):
        # A sparse vector is its set bits, highest first; as tuples these
        # sort in the order of their ints.
        sparse = tuple(set_bits(a))
        assert list(sparse) == sorted((j for j in range(a.bit_length()) if a >> j & 1),
                                      reverse=True)
        assert from_bits(sparse) == a
        assert (sparse < tuple(set_bits(b))) == (a < b)

    @given(st.sets(st.integers(0, 700)))
    def test_set_bits_inverts_from_bits(self, positions):
        bits = sorted(positions, reverse=True)
        assert set_bits(from_bits(bits)) == bits
        assert from_bits(tuple(bits)) == sum(1 << j for j in positions)


class TestRowReduce:
    def test_idempotent(self):
        rows = [0b1101, 0b0110, 0b1011]
        once = row_reduce(rows)
        assert row_reduce(once) == once

    def test_rank_examples(self):
        assert rank_of([0b100, 0b010, 0b001]) == 3
        assert rank_of([0b110, 0b011, 0b101]) == 2
        assert rank_of([0, 0]) == 0

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 2**6 - 1), max_size=8))
    def test_rank_matches_span_size(self, rows):
        r = rank_of(rows)
        assert len(span_vectors(rows)) == 2**r

    @settings(max_examples=300, deadline=None)
    @given(bit_matrices())
    def test_matches_reference_rref(self, matrix):
        rows, width = matrix
        expected = reference_rref(rows)
        assert row_reduce(rows) == expected
        assert rank_of(rows) == len(expected)

    @settings(max_examples=300, deadline=None)
    @given(bit_matrices())
    def test_nullspace_dimension_and_orthogonality(self, matrix):
        rows, width = matrix
        ns = nullspace(rows, width)
        assert type(ns) is tuple
        assert len(ns) == width - rank_of(rows)
        assert all(dot(r, v) == 0 for r in rows for v in ns)
        assert all(0 < v < 2**width for v in ns)
        assert list(ns) == reference_rref(ns)


def translates(rows, perm):
    """Every row moved by every power of the permutation, as ints, each
    row until it comes back."""
    out = []
    for row in rows:
        moved = row
        while True:
            out.append(from_bits(moved))
            moved = tuple(sorted((perm[j] for j in moved), reverse=True))
            if moved == row:
                break
    return out


@st.composite
def rows_and_odd_permutations(draw):
    """Sparse rows and a permutation, as a list, whose cycle lengths all
    divide an odd h drawn from 1, 3, 5, 7, 15 and 31."""
    h = draw(st.sampled_from([1, 3, 5, 7, 15, 31]))
    lengths = draw(st.lists(st.sampled_from([s for s in range(1, h + 1) if h % s == 0]),
                            min_size=1, max_size=5))
    order = draw(st.permutations(range(sum(lengths))))
    perm = [0] * len(order)
    start = 0
    for s in lengths:
        cycle = order[start:start + s]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a] = b
        start += s
    row = st.sets(st.integers(0, len(perm) - 1), max_size=6).map(
        lambda r: tuple(sorted(r, reverse=True)))
    return draw(st.lists(row, max_size=6)), perm


def walk(perm):
    """The orbit coordinates that block_rank takes, (orbit, position,
    sizes), of the permutation perm of range(len(perm)), given as a list:
    orbits are numbered in order of their least index and walked from it,
    that index at position 0."""
    orbit: list = [None] * len(perm)
    position = [0] * len(perm)
    sizes: list[int] = []
    for start in range(len(perm)):
        if orbit[start] is None:
            j, t = start, 0
            while orbit[j] is None:
                orbit[j], position[j] = len(sizes), t
                j, t = perm[j], t + 1
            sizes.append(t)
    return orbit, position, sizes


def poly_mul(a, b):
    """Carry-less product of two GF(2) polynomials, bit i the coefficient of x^i."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a, b = a << 1, b >> 1
    return out


def poly_mod(a, f):
    """Remainder of the GF(2) polynomial a by f."""
    while a.bit_length() >= f.bit_length():
        a ^= f << a.bit_length() - f.bit_length()
    return a


class TestBlockRank:
    @pytest.mark.fixed_seed
    @settings(max_examples=300, deadline=None)
    @given(rows_and_odd_permutations())
    def test_equals_the_rank_of_every_translate(self, rows_and_perm):
        rows, perm = rows_and_perm
        rank = rank_of(translates(rows, perm))
        assert block_rank(rows, *walk(perm)) == rank
        # Only the indices the rows hold need coordinates.
        held = 1 + max((j for row in rows for j in row), default=-1)
        orbit, position, sizes = walk(perm)
        assert block_rank(rows, orbit[:held], position[:held], sizes) == rank

    @settings(max_examples=200, deadline=None)
    @given(rows_and_odd_permutations(), st.data())
    def test_sums_of_rows_add_nothing(self, rows_and_perm, data):
        # A GF(2) sum of rows, the symmetric difference of their index
        # sets, lies in their span in every block: so the rank of a basis
        # of the rows is the rank of the rows.
        rows, perm = rows_and_perm
        choices = st.lists(st.booleans(), min_size=len(rows), max_size=len(rows))
        sums = [functools.reduce(operator.xor, (from_bits(row) for row, b in zip(rows, chosen)
                                                if b), 0)
                for chosen in data.draw(st.lists(choices, max_size=4))]
        more = data.draw(st.permutations(rows + [tuple(set_bits(v)) for v in sums]))
        coordinates = walk(perm)
        assert block_rank(more, *coordinates) == block_rank(rows, *coordinates)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_the_factors_of_x_to_the_2_to_the_k_minus_1(self, k):
        # Each factor has degree dividing k, as the order of 2 mod 2^k - 1
        # is k, and no polynomial of at most half its degree divides it.
        h = 2**k - 1
        factors = cyclotomic_factors(h)
        assert list(factors) == sorted(set(factors))
        assert functools.reduce(poly_mul, factors) == 1 << h | 1
        for f in factors:
            degree = f.bit_length() - 1
            assert k % degree == 0
            assert all(poly_mod(f, g) for g in range(2, 1 << degree // 2 + 1))

    def test_examples(self):
        # x^7 - 1 = (x + 1)(x^3 + x + 1)(x^3 + x^2 + 1).  Under the 3-cycle
        # on 0, 1, 2 the row (1, 0) spans the 2-dimensional even part and
        # (2, 1, 0) the invariant line; (3, 2, 1, 0), which the permutation
        # fixes, adds one more line.
        assert cyclotomic_factors(7) == (0b11, 0b1011, 0b1101)
        coordinates = walk([1, 2, 0, 3])
        assert coordinates == ([0, 0, 0, 1], [0, 1, 2, 0], [3, 1])
        assert block_rank([(1, 0)], *coordinates) == 2
        assert block_rank([(2, 1, 0)], *coordinates) == 1
        assert block_rank([(1, 0), (3, 2, 1, 0)], *coordinates) == 3
        assert block_rank([], *coordinates) == 0 and block_rank([()], *walk([])) == 0

    @pytest.mark.parametrize("h", [0, 2, 6, -3])
    def test_refuses_an_even_order(self, h):
        with pytest.raises(InputError, match="odd h"):
            cyclotomic_factors(h)
        if h > 0:
            with pytest.raises(InputError, match="odd h"):
                block_rank([(0,)], *walk(list(range(1, h)) + [0]))


class TestSubspace:
    def test_rank_nullity(self):
        rows = [0b11010, 0b01100, 0b10110]
        assert rank_of(rows) + len(nullspace(rows, 5)) == 5

    def test_nullspace_orthogonal(self):
        rows = [0b1101, 0b0111]
        ns = nullspace(rows, 4)
        assert all(dot(r, v) == 0 for r in rows for v in span_vectors(ns))

    def test_complement_of_construction_subgroup(self):
        # rank-3 subgroup of (Z/2)^5 used by the first small cover
        ns = nullspace(SMALL_COVER_1["subgroup_basis"], 5)
        assert span_vectors(ns) == {0, *SMALL_COVER_1["complement"]}

    def test_complement_of_second_construction_subgroup(self):
        ns = nullspace(SMALL_COVER_2["subgroup_basis"], 5)
        assert span_vectors(ns) == {0, *SMALL_COVER_2["complement"]}

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 2**5 - 1), max_size=5))
    def test_complement_involution_and_dimension(self, rows):
        h = tuple(row_reduce(rows))
        hp = nullspace(h, 5)
        assert len(hp) == 5 - len(h)
        assert nullspace(hp, 5) == h

    def test_enumeration_counts(self):
        # distinct canonical basis tuples, as many as the Gaussian binomial
        for k in range(6):
            for r in range(k + 1):
                subspaces = enumerate_subspaces(k, r)
                assert len(subspaces) == gaussian_binomial(k, r)
                assert len(set(subspaces)) == len(subspaces)
                for h in subspaces:
                    assert type(h) is tuple and len(h) == r
                    assert all(0 < v < 2**k for v in h)
                    assert list(h) == reference_rref(h)
        assert len(enumerate_subspaces(5, 3)) == 155

    def test_enumeration_guard(self):
        with pytest.raises(ResourceLimitError):
            enumerate_subspaces(7, 3)


class TestMat:
    """Matrices as tuples of bit-packed rows: transpose and inverse, against
    the entry-by-entry oracles above."""

    def test_entry_indexing_is_one_based(self):
        a = from_entries([[1, 0], [1, 1]])
        assert a == (0b10, 0b11)
        assert entry(a, 2, 1, 1) == 1 and entry(a, 2, 1, 2) == 0
        assert entry(a, 2, 2, 1) == 1 and entry(a, 2, 2, 2) == 1

    def test_columns_round_trip(self):
        a = from_entries([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        columns = transpose(a, 3)
        assert [[(c >> (3 - i)) & 1 for i in (1, 2, 3)] for c in columns] == [
            [entry(a, 3, i, j) for i in (1, 2, 3)] for j in (1, 2, 3)
        ]
        assert transpose(columns, 3) == a

    def test_transpose_of_a_wide_matrix(self):
        a = from_entries([[1, 0, 1, 1], [0, 1, 1, 0]])
        assert transpose(a, 4) == from_entries([[1, 0], [0, 1], [1, 1], [1, 0]])
        assert transpose(transpose(a, 4), 2) == a

    def test_restriction_table_matches_entry_arithmetic(self):
        # bit i of the image is column i . v, column 1 the highest bit, in
        # the reference table and in repalg.images alike
        for a in enumerate_gl(3):
            table = product_table(a)
            assert images(range(8), a) == dict(enumerate(table))
            for v in range(8):
                product = [sum(entry(a, 3, j, i) & (v >> (3 - j)) & 1 for j in (1, 2, 3)) & 1
                           for i in (1, 2, 3)]
                assert vec_str(table[v], 3) == "".join(map(str, product))

    def test_inverse(self):
        gl = enumerate_gl(3)
        assert len(gl) == 168
        for a in gl:
            assert matmul(a, inverse(a)) == IDENTITY_3
            assert matmul(inverse(a), a) == IDENTITY_3

    def test_singular_has_no_inverse(self):
        a = (0b11, 0b11)
        assert rank_of(a) < len(a)
        with pytest.raises(InputError, match="^singular matrix$"):
            inverse(a)

    def test_transpose_reverses_products(self):
        rng = random.Random(11)
        gl = enumerate_gl(3)
        for _ in range(20):
            a, b = rng.choice(gl), rng.choice(gl)
            assert transpose(matmul(a, b), 3) == matmul(transpose(b, 3), transpose(a, 3))


class TestEnumerateGL:
    def test_counts_match_order_formula(self):
        for k in range(1, 5):
            assert len(enumerate_gl(k)) == gl_order(k)

    def test_brute_force_oracle_small_k(self):
        for k in (1, 2, 3):
            brute = 0
            for bits in range(2 ** (k * k)):
                rows = tuple((bits >> (k * i)) & (2**k - 1) for i in range(k))
                if rank_of(rows) == k:
                    brute += 1
            assert len(enumerate_gl(k)) == brute

    def test_all_invertible_and_distinct(self):
        gl = enumerate_gl(3)
        assert len(set(gl)) == len(gl)
        assert all(len(a) == 3 and max(a) < 8 and rank_of(a) == 3 for a in gl)

    def test_guard(self):
        for k in (5, 6):
            with pytest.raises(ResourceLimitError):
                enumerate_gl(k)

    def test_computed_once_per_k(self):
        assert isinstance(enumerate_gl(3), tuple)
        assert enumerate_gl(3) is enumerate_gl(3)


BAD_INPUT = {
    "unit_range": (lambda: unit(4, 3), "coordinate 4 out of range 1..3"),
    "inverse_not_square": (lambda: inverse((0b101,)), "not square"),
    # passes the one-pivot test of the augmented rows; only the width check stops it
    "inverse_row_too_wide": (lambda: inverse((0b10,)), "not square"),
    "inverse_singular": (lambda: inverse((0b11, 0b11)), "singular matrix"),
    "gl_negative_rank": (lambda: enumerate_gl(-1), "need k >= 0, got -1"),
}


@pytest.mark.parametrize("call,message", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_raises_input_error(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()
