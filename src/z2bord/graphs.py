"""(Z/2)^k-labeled multigraphs of actions and their labeling polynomials.

The fixed points of a (Z/2)^k-action form a regular multigraph whose edges
carry the nonzero functionals of the tangent representations; Z. Lü,
"Graphs of 2-torus actions" (Contemp. Math. 460, 2008), gives the
conditions validate_graph checks.  Each graph computes one incidence map,
each vertex's sorted incident labels, and every reader uses it, so
validation makes linear passes over the edges and that map.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType

from z2bord.gf2 import Frozen, InputError, parse_vec, rank_of, unit, vec_str
from z2bord.membership import check_membership
from z2bord.repalg import Polynomial, content_lines, kernel_class


class LabeledGraph(Frozen):
    """An undirected multigraph without loops, edges labeled by functionals
    in (Z/2)^k; a zero label is allowed here and reported by validate_graph.
    The edges are (u, v, label bits) with u < v."""

    _fields = ("k", "edges")

    @classmethod
    def make(cls, k: int, edges) -> "LabeledGraph":
        if k < 0:
            raise InputError(f"rank {k} is negative")
        canon = []
        for u, v, label in edges:
            u, v = str(u), str(v)
            if u == v:
                raise InputError(f"loop at vertex {u}")
            if not 0 <= label < 1 << k:
                raise InputError(f"edge {u}-{v} label {label} is outside (Z/2)^{k}")
            canon.append((min(u, v), max(u, v), label))
        return cls(k, tuple(sorted(canon)))

    @cached_property
    def incidence(self) -> MappingProxyType[str, tuple[int, ...]]:
        """Each vertex's sorted incident labels, the vertices in sorted order."""
        labels: dict[str, list[int]] = {}
        for u, v, l in self.edges:
            labels.setdefault(u, []).append(l)
            labels.setdefault(v, []).append(l)
        return MappingProxyType({x: tuple(sorted(labels[x])) for x in sorted(labels)})

    @property
    def vertices(self) -> list[str]:
        return list(self.incidence)

    @property
    def valences(self) -> list[int]:
        """The distinct vertex valences, in increasing order."""
        return sorted({len(labels) for labels in self.incidence.values()})


def validate_graph(g: LabeledGraph) -> list[str]:
    """The violations of g, in order: zero labels, irregularity, labels not
    spanning the dual space at a vertex, the mod-rho congruence along every
    edge, and same-valence monochromatic components sharing a restriction
    class.  An empty list means g is valid.  These are necessary conditions
    only: no condition here sees the odd-witness parities of membership,
    so a valid graph's labeling polynomial can still be rejected by
    check_membership, whose verdict labeling_verdict gives."""
    inc = g.incidence
    violations = [f"edge {u}-{v} carries the trivial label" for u, v, l in g.edges if l == 0]
    if len(g.valences) > 1:
        violations.append(f"graph is not regular: valences {g.valences}")
    violations += [f"labels at vertex {x} do not span the rank-{g.k} dual space"
                   for x, labels in inc.items() if rank_of(labels) != g.k]
    # Two label multisets agree mod rho iff their restrictions to ker rho
    # do, as restriction has kernel {0, rho}.  Both endpoints carry the
    # edge's own label, which is 0 mod rho, so comparing the full label
    # multisets gives the same verdict as comparing them with the edge removed.
    violations += [
        f"edge {u}-{v} (label {vec_str(rho, g.k)}): endpoint label "
        "multisets disagree mod the edge label"
        for u, v, rho in g.edges
        if rho and kernel_class(inc[u], rho) != kernel_class(inc[v], rho)
    ]
    return violations + _component_violations(g)


def _component_violations(g: LabeledGraph) -> list[str]:
    """Same-label components of valence > 1 must have distinct restriction
    classes; valence-one components are exempt."""
    adj: dict[int, dict[str, list[str]]] = {}  # label -> vertex -> one neighbour per edge
    for u, v, l in g.edges:
        if l:
            nbrs = adj.setdefault(l, {})
            nbrs.setdefault(u, []).append(v)
            nbrs.setdefault(v, []).append(u)
    violations = []
    for rho in sorted(adj):
        nbrs, seen, classes = adj[rho], set(), set()
        for start in sorted(nbrs):  # so start is the least vertex of its component
            if start in seen:
                continue
            comp, stack = {start}, [start]
            while stack:
                for y in nbrs[stack.pop()]:
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            m = len(nbrs[start])
            if any(len(nbrs[x]) != m for x in comp):
                violations.append(f"label {vec_str(rho, g.k)}: component {sorted(comp)} "
                                  "has nonconstant label multiplicity")
            elif m > 1:
                key = (m, kernel_class(g.incidence[start], rho))
                if key in classes:
                    violations.append(f"label {vec_str(rho, g.k)}: two valence-{m} "
                                      "components share a restriction class")
                classes.add(key)
    return violations


def labeling_polynomial(g: LabeledGraph) -> Polynomial:
    """Mod-2 sum over vertices of the product of incident labels."""
    if not g.edges:
        return Polynomial.zero(0, g.k)
    if len(g.valences) > 1:
        raise InputError("labeling polynomial requires a regular graph")
    return Polynomial.make(g.incidence.values(), g.valences[0], g.k)


def labeling_verdict(g: LabeledGraph) -> str:
    """check_membership's verdict on the labeling polynomial of the valid
    graph g, as the line graph-validate prints after valid:
    labeling_polynomial=accepted, or labeling_polynomial=rejected with the
    violation's rho, multiplicity and witness as check prints them.  Each
    vertex's labels span, so every monomial is faithful."""
    cert = check_membership(labeling_polynomial(g))
    if cert.accepted:
        return "labeling_polynomial=accepted"
    return " ".join(["labeling_polynomial=rejected", *cert.violation.lines(g.k)])


def projective_space_graph(n: int) -> LabeledGraph:
    """Complete graph on x0..xn at rank n; edge {xi, xj} labeled rho_i + rho_j
    with rho_0 = 0 (the fixed points of the standard action on RP^n)."""
    if n < 1:
        raise InputError("n must be at least 1")
    r = [0] + [unit(i, n) for i in range(1, n + 1)]  # rho_0, ..., rho_n
    edges = [
        (f"x{i}", f"x{j}", r[i] ^ r[j])
        for i in range(n + 1)
        for j in range(i + 1, n + 1)
    ]
    return LabeledGraph.make(n, edges)


def parse_graph(text: str) -> LabeledGraph:
    """Graph file: header 'k n', then one 'u v bitstring' line per edge.  n
    is checked against the valence of a regular graph only: validate_graph
    reports an irregular one."""
    lines = [ln for _, ln in content_lines(text)]
    if not lines:
        raise InputError("empty graph file")
    try:
        k, n = map(int, lines[0].split())
        if n < 0:
            raise ValueError
    except ValueError:
        raise InputError(f"bad graph header {lines[0]!r}; expected 'k n'") from None
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise InputError(f"bad edge line {ln!r}")
        bits, width = parse_vec(parts[2])
        if width != k:
            raise InputError(f"edge label {parts[2]!r} has width {width}, expected {k}")
        edges.append((parts[0], parts[1], bits))
    g = LabeledGraph.make(k, edges)
    if len(g.valences) == 1 and g.valences != [n]:
        raise InputError(f"declared valence {n} but graph has valences {g.valences}")
    return g


def render_graph(g: LabeledGraph) -> str:
    valence = len(next(iter(g.incidence.values()), ()))  # the first vertex's
    lines = [f"{g.k} {valence}"]
    lines += [f"{u} {v} {vec_str(l, g.k)}" for u, v, l in g.edges]
    return "\n".join(lines) + "\n"
