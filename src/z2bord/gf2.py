"""Exact linear algebra over GF(2) on bit-packed vectors.

A length-k vector is an int whose bit (k - i) holds coordinate i, so the
bit-string "110" is the vector (1, 1, 0) and numeric order on ints equals
lexicographic order on bit-strings.  All operations are pure.  A subspace
is the tuple of its canonical RREF basis rows, highest first, and a matrix
is the tuple of its bit-packed rows; repalg.restriction_table(rows, k)
lists its products with all 2^k vectors of width k.  Every elimination
goes through one step, reduce_into, on a pivot table: a dict from a
pivot bit to the one row whose highest set bit it is.

A sparse vector is the tuple of its set-bit positions, highest first, as
set_bits lists them; these tuples sort in the numeric order of their
ints.  from_bits, the inverse of set_bits, makes the int of a sparse
vector.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache


class InputError(ValueError):
    """Malformed or inconsistent input to any z2bord function or command."""


class ResourceLimitError(ValueError):
    """A request beyond the supported desk-scale bounds: an enumeration or a table."""


class Record:
    """Base of z2bord's value classes: instances of one class compare and
    print by the attributes named in _fields, in order.  The constructor
    takes one value per field, in order; a subclass with defaults writes its own."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes values for {self._fields}, "
                            f"got {len(values)}")
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple([self.__dict__[name] for name in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # a mutable record

    def __repr__(self) -> str:
        fields = zip(self._fields, self._values())
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in fields)})"


class Frozen(Record):
    """An immutable Record, hashed by its _fields.  A constructor writes
    the instance __dict__ directly; after that, assigning or deleting an
    attribute raises AttributeError.  A functools.cached_property still
    caches, as it writes to the __dict__."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


def dot(a: int, b: int) -> int:
    return (a & b).bit_count() & 1


def unit(i: int, k: int) -> int:
    """Standard basis vector e_i, coordinates numbered 1..k."""
    if not 1 <= i <= k:
        raise InputError(f"coordinate {i} out of range 1..{k}")
    return 1 << (k - i)


def vec_str(v: int, k: int) -> str:
    return format(v, f"0{k}b")


def parse_vec(s: str) -> tuple[int, int]:
    """Parse a bit-string, returning (bits, width)."""
    if not s or s.strip("01"):
        raise InputError(f"malformed bit-string {s!r}")
    return int(s, 2), len(s)


def set_bits(v: int) -> list[int]:
    """Positions of the set bits of v, highest first."""
    s = format(v, "b")
    top = len(s) - 1
    out = []
    i = s.find("1")
    while i >= 0:
        out.append(top - i)
        i = s.find("1", i + 1)
    return out


def from_bits(bits) -> int:
    """The int whose set bits are at the positions bits, in any order: the
    inverse of set_bits.  One bit is ORed in per position; listed highest
    first, every intermediate already has the result's width."""
    v = 0
    for j in bits:
        v |= 1 << j
    return v


def reduce_into(table: dict[int, int], v: int) -> int:
    """Reduce v by a pivot table and file the remainder under its top bit.

    The table maps each pivot bit to the one row whose highest set bit it
    is, so its rows are in echelon form.  v is XORed with the row filed
    under its current top bit until no row is; a nonzero remainder is then
    added to the table.  Returns the remainder, which is 0 exactly when v
    already lay in the span of the table's rows.
    """
    while v:
        top = v.bit_length() - 1
        row = table.get(top)
        if row is None:
            table[top] = v
            return v
        v ^= row
    return 0


def pivot_table(rows) -> dict[int, int]:
    """Pivot table of the rows' span, filled by reduce_into."""
    table: dict[int, int] = {}
    for row in rows:
        reduce_into(table, row)
    return table


def spin(rows, step) -> list[tuple[int, ...]]:
    """Independent sparse rows of the least span that holds the sparse rows
    and is invariant under the index permutation j -> step(j).

    Rows go through one pivot table, shortest first.  A row with a nonzero
    remainder is kept and its translate (its positions' images, highest
    first, so of its length) is filed next; a row with remainder 0 is
    dropped with its translates.  The kept rows span the rows and their own
    translates, and each is a translate of a row: the least such span, from
    at most len(rows) + its dimension reductions (MeatAxe spinning, Parker 1984)."""
    table: dict[int, int] = {}
    kept = []
    queue = sorted(rows, key=len, reverse=True)
    while queue:
        row = queue.pop()
        if reduce_into(table, from_bits(row)):
            kept.append(row)
            queue.append(tuple(sorted(map(step, row), reverse=True)))
    return kept


def _poly_divmod(a: int, f: int) -> tuple[int, int]:
    """Quotient and remainder of the GF(2) polynomial a by f, bit i the
    coefficient of x^i."""
    quotient, width = 0, f.bit_length()
    while a.bit_length() >= width:
        shift = a.bit_length() - width
        quotient |= 1 << shift
        a ^= f << shift
    return quotient, a


@lru_cache(maxsize=None)
def cyclotomic_factors(h: int) -> tuple[int, ...]:
    """The irreducible factors of x^h - 1 over GF(2), for odd h, in
    increasing order, a polynomial being the int with bit i its coefficient
    of x^i.  Found once per h.

    For odd h, x^h - 1 is prime to its derivative x^(h-1), so squarefree.
    Candidates, all with constant term 1, are tried by increasing degree
    and each one that divides what is left is divided out; what is left
    then has no factor of lower degree, so each found factor is irreducible."""
    if h < 1 or not h & 1:
        raise InputError(f"need an odd h >= 1, got {h}")
    rest, factors, degree = 1 << h | 1, [], 1
    while rest != 1:
        for f in range(1 << degree | 1, 2 << degree, 2):
            quotient, remainder = _poly_divmod(rest, f)
            if not remainder:
                factors.append(f)
                rest = quotient
        degree += 1
    return tuple(factors)


def block_rank(rows, orbit, position, sizes) -> int:
    """Dimension of the least span that holds the sparse rows and is
    invariant under an index permutation of odd order h, given by its
    orbits: orbit[j] and position[j] number index j's orbit and its place
    t in it, and sizes[o] is orbit o's size.  Every index a row holds must
    have coordinates; the others need none.  Equal to len(spin(rows, step))
    for that permutation's step, with narrower pivot tables.

    With x acting as the permutation, the span is a module over
    GF(2)[x]/(x^h - 1), h the lcm of the sizes.  For odd h that ring is the
    sum of the fields GF(2)[x]/(f), f running over cyclotomic_factors(h),
    so the span is the sum of its projections to these blocks and its
    dimension the sum of theirs.  An orbit of size s is
    GF(2)[x]/(x^s - 1), its index at position t being x^t.  It adds a slot
    of d = deg f bits to block f when f divides x^s - 1, and a row's entry
    in the slot is the sum of x^t mod f over the row's indices in the
    orbit; the other orbits' entries are masked off.  Block by block, the
    rows' projections go into one pivot table, shortest row first.  A
    nonzero remainder u spans a field line that meets the table's span, a
    sum of such lines, only in 0, so u and its d - 1 translates x^i u are
    all filed: x multiplies every slot at once.  Only one block's table is
    held at a time."""
    h = math.lcm(*sizes)
    rows = sorted(rows, key=len)
    rank = 0
    for f in cyclotomic_factors(h):
        d = f.bit_length() - 1
        powers = [1]  # x^t mod f, t below the order of x mod f
        while (p := powers[-1] << 1 ^ (f if powers[-1] >> d - 1 else 0)) != 1:
            powers.append(p)
        order = len(powers)
        inside = [s % order == 0 for s in sizes]
        width = d * sum(inside)
        slots = [d * before if i else width  # each orbit's slot, or width when it has none
                 for i, before in zip(inside, itertools.accumulate(inside, initial=0))]
        value = list(map((powers * (h // order)).__getitem__, position))  # x^t mod f
        shift = list(map(slots.__getitem__, orbit))
        mask = (1 << width) - 1
        top = mask // ((1 << d) - 1) << d - 1  # the top bit of every slot
        low = f ^ 1 << d
        table: dict[int, int] = {}
        for row in rows:
            u = 0
            for j in row:
                u ^= value[j] << shift[j]
            u = reduce_into(table, u & mask)
            for _ in range(d - 1) if u else ():
                u = (u & ~top) << 1 ^ ((u & top) >> d - 1) * low
                reduce_into(table, u)
        rank += len(table)
    return rank


def row_reduce(rows) -> list[int]:
    """Reduced row echelon form; returns nonzero rows, pivots high-bit first.

    The rows are filed into one pivot table (see reduce_into).  Each table
    row is then cleared of the lower pivot bits, in increasing pivot order,
    so the rows it is XORed with are already reduced.  The result is the
    canonical RREF of the span: every pivot bit is set in its own row only.
    """
    table = pivot_table(rows)
    lower = 0  # the pivot bits below the current one
    for top in sorted(table):
        row = table[top]
        for bit in set_bits(row & lower):
            row ^= table[bit]
        table[top] = row
        lower |= 1 << top
    return [table[top] for top in sorted(table, reverse=True)]


def rank_of(rows) -> int:
    """Dimension of the span: the size of the rows' pivot table, whose rows
    are independent (see reduce_into) and span the input."""
    return len(pivot_table(rows))


# Entry b is b with its 8 bits reversed, built by doubling: bit j of b sets
# bit 7 - j.  A tenth of the time of reversing 256 bit-strings, at import.
_REVERSED_BYTE = [0]
for _j in range(8):
    _REVERSED_BYTE += [r | 0x80 >> _j for r in _REVERSED_BYTE]
_REVERSED_BYTE = bytes(_REVERSED_BYTE)
del _j


def reverse_bits(v: int, k: int) -> int:
    """v < 2^k with bit i moved to bit k - 1 - i."""
    n = (k + 7) // 8
    flipped = v.to_bytes(n, "little").translate(_REVERSED_BYTE)
    return int.from_bytes(flipped, "big") >> (8 * n - k)


def nullspace(rows, k: int) -> tuple[int, ...]:
    """Canonical basis tuple of the right-nullspace of the rows' matrix.

    The rows are reduced with their bit order reversed (see row_reduce),
    which gives the RREF whose pivots are the rows' lowest set bits.  The
    nullspace then has one basis vector per non-pivot bit g: bit g, plus the
    pivot bit q of every reduced row with bit g set.  Its highest bit is g
    and its other bits are pivots q, so these vectors are already the
    canonical RREF.  Only the set bits of the reduced rows are visited.
    """
    vectors = {g: 1 << g for g in range(k)}
    for rev in row_reduce(reverse_bits(r, k) for r in rows):
        bits = set_bits(rev)
        q = k - 1 - bits[0]  # the row's lowest bit, in the original order
        del vectors[q]
        for j in bits[1:]:
            vectors[k - 1 - j] |= 1 << q
    return tuple(vectors[g] for g in sorted(vectors, reverse=True))


def transpose(rows, n_cols: int) -> tuple[int, ...]:
    """The columns of the matrix whose rows have width n_cols, each as a
    bit-packed int of width len(rows), column 1 first."""
    cols = []
    for shift in range(n_cols - 1, -1, -1):
        c = 0
        for r in rows:
            c = (c << 1) | ((r >> shift) & 1)
        cols.append(c)
    return tuple(cols)


def inverse(rows) -> tuple[int, ...]:
    """Rows of the inverse of the square matrix whose rows these are.

    [A | I] is reduced to [I | A^-1]; row_reduce returns the rows pivot-high
    first, so the rows of A^-1 come out in order.
    """
    k = len(rows)
    if any(r >> k for r in rows):
        raise InputError("not square")
    aug = [(r << k) | (1 << (k - 1 - i)) for i, r in enumerate(rows)]
    red = row_reduce(aug)
    if len(red) != k or any((r >> k).bit_count() != 1 for r in red):
        raise InputError("singular matrix")
    mask = (1 << k) - 1
    return tuple(r & mask for r in red)


@lru_cache(maxsize=None)
def enumerate_gl(k: int) -> tuple[tuple[int, ...], ...]:
    """Row tuples of all invertible k x k matrices, in lexicographic order.

    The tuple is computed once per k and shared by every caller.
    """
    if k < 0:
        raise InputError(f"need k >= 0, got {k}")
    if k > 4:
        raise ResourceLimitError(f"GL({k},2) enumeration not supported (k <= 4)")
    out: list[tuple[int, ...]] = []

    def extend(rows: list[int], table: dict[int, int]):
        if len(rows) == k:
            out.append(tuple(rows))
            return
        for v in range(1, 1 << k):
            new = reduce_into(table, v)
            if new:
                extend(rows + [v], table)
                del table[new.bit_length() - 1]

    extend([], {})
    return tuple(out)


def enumerate_subspaces(k: int, r: int) -> list[tuple[int, ...]]:
    """Canonical basis tuples of all rank-r subspaces of (Z/2)^k, in a
    deterministic order."""
    if k > 6:
        raise ResourceLimitError(f"subspace enumeration needs ambient rank <= 6, got {k}")
    if not 0 <= r <= k:
        return []
    out = []
    for pivots in itertools.combinations(range(1, k + 1), r):
        # Row i pivots in column pivots[i]; free entries sit to the right
        # of the pivot in non-pivot columns.
        free_cols = [
            [c for c in range(p + 1, k + 1) if c not in pivots] for p in pivots
        ]
        n_free = sum(len(f) for f in free_cols)
        for bits in range(1 << n_free):
            rows = []
            pos = 0
            for i, p in enumerate(pivots):
                row = unit(p, k)
                for c in free_cols[i]:
                    if (bits >> pos) & 1:
                        row |= unit(c, k)
                    pos += 1
                rows.append(row)
            out.append(tuple(sorted(rows, reverse=True)))
    return out
