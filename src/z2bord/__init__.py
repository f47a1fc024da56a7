"""Exact GF(2) computations with fixed-point data of (Z/2)^k actions.

Vectors and functionals live in (Z/2)^k and are bit-packed into Python
ints (leftmost bit-string character = coordinate 1); a matrix is the tuple
of its bit-packed rows, and a monomial (a multiset of irreducible
representations) is the sorted tuple of its bit-packed factors.  On top
of that sit GF(2) polynomials, which carry their degree and rank once,
a membership checker for realizable fixed-point polynomials, GL(k,2)
orbit machinery, labeled graphs, small covers over products of
simplices, and Milnor hypersurface fixed-point polynomials.
"""

from z2bord.repalg import Polynomial

__all__ = ["Polynomial"]
