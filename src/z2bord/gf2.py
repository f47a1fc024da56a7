"""Exact linear algebra over GF(2) on bit-packed vectors.

A length-k vector is an int whose bit (k - i) holds coordinate i, so the
bit-string "110" is the vector (1, 1, 0) and numeric order on ints equals
lexicographic order on bit-strings.  All operations are pure; matrices
and subspaces are immutable and hashable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class ResourceLimitError(ValueError):
    """Enumeration request beyond the supported desk-scale bounds."""


def dot(a: int, b: int) -> int:
    return (a & b).bit_count() & 1


def unit(i: int, k: int) -> int:
    """Standard basis vector e_i, coordinates numbered 1..k."""
    if not 1 <= i <= k:
        raise ValueError(f"coordinate {i} out of range 1..{k}")
    return 1 << (k - i)


def coord(v: int, i: int, k: int) -> int:
    return (v >> (k - i)) & 1


def vec_str(v: int, k: int) -> str:
    return format(v, f"0{k}b")


def parse_vec(s: str) -> tuple[int, int]:
    """Parse a bit-string, returning (bits, width)."""
    if not s or s.strip("01"):
        raise ValueError(f"malformed bit-string {s!r}")
    return int(s, 2), len(s)


def reduce_by(v: int, basis) -> int:
    """Reduce v by an echelon basis listed in decreasing pivot order.

    The result is 0 exactly when v lies in the span of the basis.
    """
    for b in basis:
        v = min(v, v ^ b)
    return v


def row_reduce(rows) -> list[int]:
    """Reduced row echelon form; returns nonzero rows, pivots high-bit first."""
    basis: list[int] = []  # kept fully reduced, in decreasing pivot order
    for row in rows:
        row = reduce_by(row, basis)
        if row:
            basis = [min(b, b ^ row) for b in basis]
            basis.append(row)
            basis.sort(reverse=True)
    return basis


def rank_of(rows) -> int:
    return len(row_reduce(rows))


@dataclass(frozen=True)
class Subspace:
    """A subspace of (Z/2)^k in canonical reduced-row-echelon form."""

    basis: tuple[int, ...]
    k: int

    @classmethod
    def span(cls, vectors, k: int) -> "Subspace":
        return cls(tuple(row_reduce(vectors)), k)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: int) -> bool:
        return reduce_by(v, self.basis) == 0

    def vectors(self) -> list[int]:
        """All 2^dim elements, in increasing numeric order."""
        out = [0]
        for b in self.basis:
            out += [v ^ b for v in out]
        return sorted(out)

    def complement(self) -> "Subspace":
        """Orthogonal complement under the standard bilinear pairing."""
        return nullspace(self.basis, self.k)

    def __str__(self) -> str:
        return "{" + ", ".join(vec_str(b, self.k) for b in self.basis) + "}"


def nullspace(rows, k: int) -> Subspace:
    """Canonical right-nullspace of the matrix with the given rows."""
    red = row_reduce(rows)
    pivots = {r.bit_length() - 1 for r in red}
    free = [p for p in range(k - 1, -1, -1) if p not in pivots]
    basis = []
    for f in free:
        v = 1 << f
        for r in red:
            if (r >> f) & 1:
                v ^= 1 << (r.bit_length() - 1)
        basis.append(v)
    return Subspace.span(basis, k)


@dataclass(frozen=True)
class Mat:
    """A dense GF(2) matrix; each row is a bit-packed int of width n_cols."""

    rows: tuple[int, ...]
    n_cols: int

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, k: int) -> "Mat":
        return cls(tuple(1 << (k - 1 - i) for i in range(k)), k)

    @classmethod
    def from_entries(cls, entries) -> "Mat":
        """Build from an iterable of 0/1 rows, e.g. [[1,0],[1,1]]."""
        entries = [list(r) for r in entries]
        n_cols = len(entries[0])
        rows = []
        for r in entries:
            if len(r) != n_cols:
                raise ValueError("ragged rows")
            rows.append(int("".join(str(int(x)) for x in r), 2))
        return cls(tuple(rows), n_cols)

    @classmethod
    def from_columns(cls, cols, k: int) -> "Mat":
        """Build a k x len(cols) matrix from bit-packed column vectors."""
        return cls(tuple(cols), k).transpose()

    def entry(self, i: int, j: int) -> int:
        """Entry in row i, column j (both 1-based)."""
        return (self.rows[i - 1] >> (self.n_cols - j)) & 1

    def column(self, j: int) -> int:
        return self.transpose().rows[j - 1]

    def transpose(self) -> "Mat":
        cols = []
        for shift in range(self.n_cols - 1, -1, -1):
            c = 0
            for r in self.rows:
                c = (c << 1) | ((r >> shift) & 1)
            cols.append(c)
        return Mat(tuple(cols), self.n_rows)

    def apply(self, v: int) -> int:
        """Matrix-vector product over GF(2)."""
        out = 0
        for i, r in enumerate(self.rows):
            out |= dot(r, v) << (self.n_rows - 1 - i)
        return out

    def __mul__(self, other: "Mat") -> "Mat":
        if self.n_cols != other.n_rows:
            raise ValueError("shape mismatch")
        return Mat.from_columns(
            [self.apply(c) for c in other.transpose().rows], self.n_rows
        )

    def rank(self) -> int:
        return rank_of(self.rows)

    def is_invertible(self) -> bool:
        return self.n_rows == self.n_cols and self.rank() == self.n_rows

    def inverse(self) -> "Mat":
        if self.n_rows != self.n_cols:
            raise ValueError("not square")
        k = self.n_rows
        # Augment [A | I] and reduce A to the identity.
        aug = [(self.rows[i] << k) | (1 << (k - 1 - i)) for i in range(k)]
        red = row_reduce(aug)
        if len(red) != k or any((r >> k).bit_count() != 1 for r in red):
            raise ValueError("singular matrix")
        mask = (1 << k) - 1
        red.sort(key=lambda r: -(r >> k))
        return Mat(tuple(r & mask for r in red), k)

    def __str__(self) -> str:
        return "\n".join(vec_str(r, self.n_cols) for r in self.rows)


def enumerate_gl(k: int) -> list[Mat]:
    """All invertible k x k matrices, lexicographic in their row tuples."""
    if k > 5:
        raise ResourceLimitError(f"GL({k},2) enumeration not supported (k <= 5)")
    out: list[Mat] = []

    def extend(rows: list[int], space: Subspace):
        if len(rows) == k:
            out.append(Mat(tuple(rows), k))
            return
        for v in range(1, 1 << k):
            if not space.contains(v):
                extend(rows + [v], Subspace.span(rows + [v], k))

    extend([], Subspace.span([], k))
    return out


def enumerate_subspaces(k: int, r: int) -> list[Subspace]:
    """All rank-r subspaces of (Z/2)^k, canonical form, deterministic order."""
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
            out.append(Subspace(tuple(sorted(rows, reverse=True)), k))
    return out
