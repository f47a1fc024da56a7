"""Exact GF(2) computations with fixed-point data of (Z/2)^k actions.

Vectors and functionals live in (Z/2)^k and are bit-packed into Python
ints (leftmost bit-string character = coordinate 1); a matrix is the tuple
of its bit-packed rows.  On top of that sit
monomials (multisets of irreducible representations), GF(2) polynomials,
a membership checker for realizable fixed-point polynomials, GL(k,2)
orbit machinery, labeled graphs, small covers over products of
simplices, and Milnor hypersurface fixed-point polynomials.
"""

from z2bord.repalg import Monomial, Polynomial

__all__ = ["Monomial", "Polynomial"]
