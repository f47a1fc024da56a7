"""(Z/2)^k-labeled multigraphs of actions and their labeling polynomials."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from z2bord.gf2 import InputError, parse_vec, rank_of, unit, vec_str
from z2bord.repalg import Monomial, Polynomial, content_lines


@dataclass(frozen=True)
class LabeledGraph:
    """An undirected multigraph without loops, edges labeled by nonzero functionals."""

    k: int
    edges: tuple[tuple[str, str, int], ...]  # (u, v, label bits), u != v

    @classmethod
    def make(cls, k: int, edges) -> "LabeledGraph":
        canon = []
        for u, v, label in edges:
            u, v = str(u), str(v)
            if u == v:
                raise InputError(f"loop at vertex {u}")
            canon.append((min(u, v), max(u, v), label))
        return cls(k, tuple(sorted(canon)))

    @property
    def vertices(self) -> list[str]:
        return sorted({x for u, v, _ in self.edges for x in (u, v)})

    def incident_labels(self, x: str) -> list[int]:
        return sorted(l for u, v, l in self.edges if x in (u, v))


@dataclass
class GraphReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _mod_rho(labels, rho: int) -> Counter:
    """Multiset of label cosets mod rho; coset rep is min(l, l ^ rho)."""
    return Counter(min(l, l ^ rho) for l in labels)


def validate_graph(g: LabeledGraph) -> GraphReport:
    """Structural validation: regularity, nonzero spanning labels at each
    vertex, the mod-rho congruence along every edge, and distinctness of
    same-valence monochromatic components."""
    report = GraphReport()
    for u, v, l in g.edges:
        if l == 0:
            report.violations.append(f"edge {u}-{v} carries the trivial label")
    valences = {x: len(g.incident_labels(x)) for x in g.vertices}
    if len(set(valences.values())) > 1:
        report.violations.append(f"graph is not regular: valences {sorted(set(valences.values()))}")
    for x in g.vertices:
        labels = g.incident_labels(x)
        if rank_of(labels) != g.k:
            report.violations.append(
                f"labels at vertex {x} do not span the rank-{g.k} dual space"
            )
    # Congruence along each edge, with the edge itself removed from both sides.
    for i, (u, v, rho) in enumerate(g.edges):
        if rho == 0:
            continue
        left = Counter(g.incident_labels(u))
        right = Counter(g.incident_labels(v))
        left[rho] -= 1
        right[rho] -= 1
        if _mod_rho(left.elements(), rho) != _mod_rho(right.elements(), rho):
            report.violations.append(
                f"edge {u}-{v} (label {vec_str(rho, g.k)}): endpoint label "
                "multisets disagree mod the edge label"
            )
    _check_components(g, report)
    return report


def _check_components(g: LabeledGraph, report: GraphReport):
    """Same-label components of valence > 1 must have distinct restriction
    classes; valence-one components are exempt."""
    for rho in sorted({l for _, _, l in g.edges if l}):
        adj: dict[str, set[str]] = {}
        for u, v, l in g.edges:
            if l == rho:
                adj.setdefault(u, set()).add(v)
                adj.setdefault(v, set()).add(u)
        seen: set[str] = set()
        classes: dict[tuple, int] = {}
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
            mults = {sum(1 for l in g.incident_labels(x) if l == rho) for x in comp}
            if len(mults) > 1:
                report.violations.append(
                    f"label {vec_str(rho, g.k)}: component {sorted(comp)} has "
                    "nonconstant label multiplicity"
                )
                continue
            m = mults.pop()
            if m <= 1:
                continue
            x = min(comp)
            key = (m, tuple(sorted(_mod_rho(g.incident_labels(x), rho).items())))
            if key in classes:
                report.violations.append(
                    f"label {vec_str(rho, g.k)}: two valence-{m} components "
                    "share a restriction class"
                )
            classes[key] = 1


def labeling_polynomial(g: LabeledGraph) -> Polynomial:
    """Mod-2 sum over vertices of the product of incident labels."""
    verts = g.vertices
    if not verts:
        return Polynomial.zero(0, g.k)
    valences = {len(g.incident_labels(x)) for x in verts}
    if len(valences) > 1:
        raise InputError("labeling polynomial requires a regular graph")
    monos = [Monomial.make(g.incident_labels(x), g.k) for x in verts]
    return Polynomial.make(monos, valences.pop(), g.k)


def projective_space_graph(n: int) -> LabeledGraph:
    """Complete graph on x0..xn at rank n; edge {xi, xj} labeled rho_i + rho_j
    with rho_0 = 0 (the fixed points of the standard action on RP^n)."""
    if n < 1:
        raise InputError("n must be at least 1")

    def r(i):
        return 0 if i == 0 else unit(i, n)

    edges = [
        (f"x{i}", f"x{j}", r(i) ^ r(j))
        for i in range(n + 1)
        for j in range(i + 1, n + 1)
    ]
    return LabeledGraph.make(n, edges)


def parse_graph(text: str) -> LabeledGraph:
    """Graph file: header 'k n', then one 'u v bitstring' line per edge."""
    lines = [ln for _, ln in content_lines(text)]
    if not lines:
        raise InputError("empty graph file")
    try:
        k, n = map(int, lines[0].split())
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
    valences = {len(g.incident_labels(x)) for x in g.vertices}
    if valences and valences != {n}:
        raise InputError(f"declared valence {n} but graph has valences {sorted(valences)}")
    return g


def render_graph(g: LabeledGraph) -> str:
    valence = len(g.incident_labels(g.vertices[0])) if g.vertices else 0
    lines = [f"{g.k} {valence}"]
    lines += [f"{u} {v} {vec_str(l, g.k)}" for u, v, l in g.edges]
    return "\n".join(lines) + "\n"
