"""Small covers over products of simplices.

The polytope is a product of simplices; a characteristic function labels
each facet with a nonzero vector of (Z/2)^n such that the labels at every
vertex form a basis.  It inverts each vertex label matrix once: the rows,
the dual basis of those labels, are the tangent monomial at that isolated
fixed point, and the row dual to facet F labels the skeleton edge leaving
F.  A subgroup H is admissible when no tangent factor restricts to the
trivial representation on it.  The factor along an edge e vanishes exactly
on the span of the labels of the facets that contain e, so H lies inside
no edge's span, and then H fixes only the vertices: a point over the
interior of a face F has as isotropy the span of the labels of the facets
that contain F, and a face of positive dimension contains an edge e, each
such facet containing e, so that span lies inside e's.  So restricting to
H keeps the fixed points isolated and gives fixed-point data for
lower-rank actions.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from types import MappingProxyType

from z2bord.gf2 import (
    Frozen,
    InputError,
    enumerate_subspaces,
    inverse,
    rank_of,
    transpose,
    vec_str,
)
from z2bord.graphs import LabeledGraph
from z2bord.repalg import NonIsolatedError, Polynomial, content_lines, images

Facet = tuple[int, int]  # (factor index, facet index within the factor)
Vertex = tuple[int, ...]


class ProductOfSimplices(Frozen):
    _fields = ("factor_dims",)

    @classmethod
    def parse(cls, spec: str) -> "ProductOfSimplices":
        """Parse '1x4' or '5' into factor dimensions."""
        try:
            dims = tuple(int(t) for t in spec.lower().split("x"))
        except ValueError:
            raise InputError(f"bad polytope spec {spec!r}; expected e.g. '1x4'") from None
        if not dims or any(d < 1 for d in dims):
            raise InputError(f"factor dimensions must be positive: {dims}")
        return cls(dims)

    @property
    def dim(self) -> int:
        return sum(self.factor_dims)

    @cached_property
    def facets(self) -> tuple[Facet, ...]:
        """All facets in printed order: factor by factor."""
        return tuple(
            (j, i) for j, d in enumerate(self.factor_dims) for i in range(d + 1)
        )

    @cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(itertools.product(*(range(d + 1) for d in self.factor_dims)))

    def vertex_facets(self, v: Vertex) -> tuple[Facet, ...]:
        """The dim-many facets through v, in printed order."""
        return tuple(
            (j, i)
            for j, d in enumerate(self.factor_dims)
            for i in range(d + 1)
            if i != v[j]
        )

    @cached_property
    def edges(self) -> tuple[tuple[Vertex, Vertex], ...]:
        """Unordered vertex pairs differing in a single coordinate."""
        out = []
        for v in self.vertices:
            for j, d in enumerate(self.factor_dims):
                for w in range(v[j] + 1, d + 1):
                    out.append((v, tuple(w if i == j else c for i, c in enumerate(v))))
        return tuple(sorted(out))


class CharacteristicFunction(Frozen):
    """The labels of polytope's facets: one label per facet, in printed order."""

    _fields = ("polytope", "labels")

    @classmethod
    def from_matrix(cls, factor_dims, matrix_rows) -> "CharacteristicFunction":
        """Rows of 0/1 entries; columns are facets in printed order."""
        p = ProductOfSimplices(tuple(factor_dims))
        entries = [list(r) for r in matrix_rows]
        n_cols = len(entries[0]) if entries else 0
        rows = []
        for r in entries:
            if len(r) != n_cols:
                raise InputError("ragged rows")
            bad = [x for x in r if x not in (0, 1)]
            if bad:
                raise InputError(f"matrix entry {bad[0]!r} is not 0 or 1")
            rows.append(int("".join(str(int(x)) for x in r), 2))
        n_facets = sum(d + 1 for d in p.factor_dims)
        if len(rows) != p.dim or n_cols != n_facets:
            raise InputError(
                f"label matrix must be {p.dim} x {n_facets}, got {len(rows)} x {n_cols}"
            )
        return cls(p, transpose(rows, n_cols))

    def label(self, f: Facet) -> int:
        return self.labels[self.polytope.facets.index(f)]

    @cached_property
    def _inverses(self) -> MappingProxyType | Vertex:
        """Rows of each vertex's inverted label matrix (columns: the labels of
        vertex_facets(v)), or the first vertex where they are not a basis."""
        out = {}
        for v in self.polytope.vertices:
            cols = [self.label(f) for f in self.polytope.vertex_facets(v)]
            try:
                out[v] = inverse(transpose(cols, self.polytope.dim))
            except InputError:
                return v
        return MappingProxyType(out)

    def is_valid(self) -> bool:
        return isinstance(self._inverses, MappingProxyType)

    def dual_bases(self) -> MappingProxyType[Vertex, tuple[int, ...]]:
        """The dual basis of the labels at each vertex, in vertex_facets(v)
        order: row i is 1 on the i-th label and 0 on the others."""
        if not self.is_valid():
            raise InputError(
                f"facet labels at vertex {self._inverses} are not a basis")
        return self._inverses


def tangent_reps(cf: CharacteristicFunction) -> dict[Vertex, tuple[int, ...]]:
    """Tangent monomial at each vertex: the dual basis of its facet labels."""
    return {v: tuple(sorted(rows)) for v, rows in cf.dual_bases().items()}


def fixed_polynomial(cf: CharacteristicFunction) -> Polynomial:
    """Mod-2 sum of the tangent monomials over all vertices."""
    dim = cf.polytope.dim
    return Polynomial.make(tangent_reps(cf).values(), dim, dim)


def skeleton_graph(cf: CharacteristicFunction) -> LabeledGraph:
    """The labeled one-skeleton: edge v-w carries the functional annihilating
    the labels of the facets containing it, which is the dual row at v of
    the one facet through v that it leaves, (j, w[j]) where v[j] != w[j]."""
    p = cf.polytope
    duals = cf.dual_bases()
    edges = []
    for v, w in p.edges:
        j = next(i for i, (a, b) in enumerate(zip(v, w)) if a != b)
        label = duals[v][p.vertex_facets(v).index((j, w[j]))]
        edges.append(("v" + "".join(map(str, v)), "v" + "".join(map(str, w)), label))
    return LabeledGraph.make(p.dim, edges)


def _trivial_factor(reps: dict[Vertex, tuple[int, ...]], image: dict[int, int]):
    """The first (vertex, factor), in reps order and sorted factor order,
    whose image under the subgroup's restriction is 0, the trivial
    representation, or None."""
    trivial = ((v, f) for v, m in reps.items() for f in m if not image[f])
    return next(trivial, None)


def admissible_subgroups(cf: CharacteristicFunction, r: int) -> list[tuple[int, ...]]:
    """Canonical basis tuples of the admissible rank-r subgroups (module
    docstring).  Raises InputError for an invalid cf, as tangent_reps does."""
    reps, dim = tangent_reps(cf), cf.polytope.dim
    factors = set().union(*reps.values())
    return [h for h in enumerate_subspaces(dim, r)
            if 0 not in images(factors, transpose(h, dim)).values()]


def restricted_polynomial(cf: CharacteristicFunction, basis) -> Polynomial:
    """Restrict every vertex monomial to the subgroup spanned by the ordered
    basis and sum; InputError when the basis is dependent or leaves (Z/2)^dim."""
    basis, dim = tuple(basis), cf.polytope.dim
    wide = [b for b in basis if not 0 <= b < 1 << dim]
    if wide:
        raise InputError(f"basis vector {wide[0]} is outside (Z/2)^{dim}")
    if rank_of(basis) != len(basis):
        raise InputError("basis rows are not independent")
    reps = tangent_reps(cf)
    image = images(set().union(*reps.values()), transpose(basis, dim))
    trivial = _trivial_factor(reps, image)
    if trivial is not None:
        v, f = trivial
        raise NonIsolatedError(f"factor {vec_str(f, dim)} at vertex {v} restricts "
                               "to the trivial representation")
    return Polynomial.make((map(image.__getitem__, m) for m in reps.values()), dim, len(basis))


def parse_characteristic(text: str, factor_dims=None) -> CharacteristicFunction:
    """Matrix file: optional header 'n_1 ... n_l', then rows of 0/1."""
    rows = [ln.split() for _, ln in content_lines(text)]
    if not rows:
        raise InputError("empty characteristic matrix file")
    # A leading line with an entry other than 0/1, or with too few columns,
    # is the factor-dimension header.
    has_header = any(t not in ("0", "1") for t in rows[0]) or (
        len(rows) > 1 and len(rows[0]) < len(rows[1])
    )
    if has_header:
        try:
            header = tuple(int(t) for t in rows[0])
        except ValueError as e:
            raise InputError(str(e)) from None
        rows = rows[1:]
        if factor_dims is not None and tuple(factor_dims) != header:
            raise InputError(
                f"header {header} disagrees with requested polytope {tuple(factor_dims)}"
            )
        factor_dims = header
    elif factor_dims is None:
        raise InputError("no factor-dimension header and no polytope given")
    if not rows:
        raise InputError("no matrix rows after the header")
    entries = []
    for r in rows:
        if any(t not in ("0", "1") for t in r):
            raise InputError(f"bad matrix row {' '.join(r)!r}")
        entries.append([int(t) for t in r])
    return CharacteristicFunction.from_matrix(factor_dims, entries)
