"""Exact computation of the quantum sl(3) link invariant and its integral
bigraded categorification.

Modules
-------
algebra   Laurent polynomials over Z, the rank-3 Frobenius algebra Z[X]/(X^3),
          the three-sheet circle evaluation, and closed dotted surface values.
diagram   Planar-diagram (PD) presentations of oriented links, crossing signs,
          and the flattening of a diagram at a chosen binary resolution.
web       Closed trivalent plane graphs ("webs") with oriented edges and free
          loops; their nonnegative-Laurent bracket; reduction-site search.
foam      Movie presentations of dotted singular cobordisms between webs and
          their exact integer evaluation when closed.
webhom    Graded integer bases of cobordism spaces from the empty web to a
          given web; exact matrices of movie-induced linear maps.
memo      Every table kept from one call to the next, and their ``clear()``.
cube      The binary resolution hypercube of a diagram, its bigraded integer
          homology, and the Reidemeister-invariance checker.
corpus    Fixture diagrams and the Reidemeister pairs used for invariance
          testing.
selftest  The machine-checkable identity suite behind ``sl3web --mode
          selftest``.
cli       Command-line interface (installed as ``sl3web``).

All arithmetic in this package is exact integer arithmetic; no floating
point is used anywhere.
"""

__version__ = "0.1.0"
