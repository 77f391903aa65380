"""Independent oracles used to fix expected values in the test suite.

These helpers recompute target quantities by a second route so the tests
compare two independent ones.  All but the Laurent polynomial, replay,
gluing, state-space, per-matrix Smith, zip, web, flattening,
orientation and planarity oracles avoid importing the package under
test.

Laurent polynomial oracles
--------------------------
``poly_items`` lists a ``LaurentPoly``'s terms and ``poly_mirror``
negates its exponents (``q -> q**-1``).  Only tests read a polynomial
term by term or mirror one; the package prints polynomials whole.

Flag-variety trace oracle
-------------------------
The integral cohomology ring of the variety of full flags in C^3 is

    Z[x1, x2, x3] / (e1, e2, e3)

where ``e_k`` is the k-th elementary symmetric polynomial in x1, x2, x3.
Eliminating ``x3 = -x1 - x2`` leaves ``Z[x1, x2]`` modulo the rewriting
rules

    x2^2 -> -x1^2 - x1*x2        and        x1^3 -> 0,

with free Z-basis ``{x1^i * x2^j : 0 <= i <= 2, 0 <= j <= 1}``.  The trace
of the top class is normalised by ``Tr(x1^2 * x2) = -1`` (equivalently
``Tr(x1 * x2^2) = +1``); all other basis monomials have trace 0.  The
three-sheet circle evaluation equals ``Tr(x1^a * x2^b * x3^c)``.

Closed-surface oracle
---------------------
A closed sheet is evaluated in the Frobenius algebra ``Z[X] / (X^3)`` with
trace ``Tr(X^2) = -1`` and ``Tr(1) = Tr(X) = 0``.  Its comultiplication
sends ``1`` to ``-(1 (x) X^2 + X (x) X + X^2 (x) 1)``, so a handle
multiplies by ``m(Delta(1)) = -3 X^2``, and a genus ``g`` sheet with ``d``
dots has the value ``Tr((-3 X^2)^g X^d)``: ``surface_value`` in closed
form, and ``FrobeniusElement`` with ``comultiply``, ``handle_operator``
and ``trace`` as the algebra itself, which the package's table of
closed-surface values is checked against.

Exact solve oracle
------------------
``fraction_solve`` solves ``G @ X = R`` by Gauss-Jordan elimination over
the rationals (``fractions.Fraction``), the reference for the package's
Gram-block inverses, which eliminate over the integers.

Smith transform oracle
----------------------
``smith_form_with_transforms`` is the package's dense Smith normal form
(``cube.smith_diagonal``) with its unimodular row and column transforms
kept, so that tests can check ``P @ M @ Q`` against the diagonal; the
package keeps only the diagonal.

Replay and gluing oracles
-------------------------
``extract_prefoam`` runs a whole closed movie (empty web to empty web)
through the package's sweep and reads its facets and singular circles
off the final state, numbered by the same canonical numbering as the
package's glue plans; ``evaluate_closed`` evaluates that.  ``glue``
joins two once-swept halves into the ``PreFoam`` of one followed by the
reflection of the other, through the package's glue plan, checking the
end webs and every summed facet; it must give exactly what replaying
their composite gives.  It sums the labels as plain tuples
(``glued_prefoam`` makes the foam of a summed tuple), not through the
package's packed projections.  The package's pairing kernel never
builds the foam: it evaluates a glued foam straight from the summed
labels.

Circle-recursion oracle
-----------------------
``evaluate_by_circles`` is the reference for ``foam.evaluate``: it sums
over the weights (0, 1, 2) each singular circle gives its three sheets
by a recursion over the circles, memoized within one foam on the
weights each open facet has received, and multiplies in each facet's
closed-surface value (``surface_value``) where its last circle closes
it, each circle signed by ``flag_theta``.  It forces no
weight and shares nothing between foams; the package forces each
facet's weight and counts colourings in one memo for all foams.

Dense cube oracle
-----------------
A resolution cube is given as plain data: ``q_degrees`` maps each choice
vector ``bits`` to the shifted quantum degrees of its basis, and
``edge_maps`` maps ``(bits, c)`` (``bits[c] == 0``) to the integer
matrix of the edge that switches crossing ``c``, rows indexed by the
target's basis.  The edge is signed ``(-1)**(bits[0] + ... + bits[c-1])``
here, independently of the package.  ``dense_differential`` assembles
the full matrix between two weights (optionally one quantum degree of
it), with generators ordered by ``bits`` then basis index;
``d_squared_is_zero`` and ``squares_anticommute`` multiply them densely.
``helpers.cube_data`` builds this data from a diagram, with the
package's sparse edge maps densified; the package itself keeps no cube
and writes each edge map straight into ``cube.differential_blocks``.

Per-matrix Smith oracle
-----------------------
``sparse_smith_diagonal`` is the per-block path the package's homology
took before it reduced each quantum degree as one complex: one matrix's
unit pivots cancelled by the package's ``cube.eliminate_units``, and
the remainder handed densely to ``cube.smith_diagonal``.  Homology read
off it block by block is the reference for ``cube.block_homology``.

State-space oracles
-------------------
``pair_movies`` is the one-by-one pairing of two preparation movies:
each swept to its half, the pair evaluated by the package's
``foam.pair_halves``, which pairs whole lists of halves at once.
``scratch_matrix`` computes the matrix of a movie between two given
bases from nothing but ``pair_movies``: the Gram matrix
of the target basis, the pairings of the pushed source basis against
it, and ``fraction_solve`` on each degree block.  ``label_basis`` is the
label-keyed reference for the package's class-shared bases: the
preparation basis built on a web's own labels and reduction sites, kept
by the web's exact key, with nothing shared between relabelings.
``class_basis`` is the basis the package keeps for a relabeling class,
as movies: the preparations of the class's canonical web, built on the
served bases of the smaller webs; ``served_basis`` renames it onto a
web of the class with ``relabeled_movie``, which renames a movie's start
web and moves and runs the renamed moves anew.  The package keeps only
their halves and degrees.  ``gram`` is the Gram matrix of a served
state space, dense: the package pairs its blocks to invert them, and
keeps only the inverses.

Zip and birth oracles
---------------------
The package never zips or births by surgery: every zip it runs is the
inverse of an unzip, and every birth undoes a death, given its slices.
``apply_zip`` is that zip surgery, kept as the reference the package's
zip slices must match: it cuts the two sites, adds the seam edge and
its two vertices, and re-derives the faces, the nesting and the outer
faces.  ``apply_birth`` adds a free loop to a region.  ``run_movie``
runs a movie's moves from its start web, zips by ``apply_zip``, births
by ``apply_birth``, deaths and unzips by the package's
``foam.apply_death`` and ``foam.apply_unzip``, and hands the slices to
``FoamMovie``; a test that builds a movie from its moves alone builds
it this way.

Web oracles
-----------
``validate_by_walks`` is the reference for the checks ``Web(...)``
makes: it checks the maps dart by dart, then counts each component's
vertices by walking sigma cycles and its faces by scanning every face,
and looks each parent region up in the list that ``regions`` makes by
scanning the faces; the package counts in one pass and tests a region
by ``Web.has_region``.  ``component_bfs_unpruned`` is the reference for
``web._component_bfs``: it serializes every start in full before
comparing, where the package drops a start at its first larger entry.

Flattening oracle
-----------------
``region_flatten`` flattens a diagram without any move: it traces every
strand of the resolved diagram, and derives the nesting, the outer faces
and the loop orientations from the crossing quadrants.  The four
quadrants of every crossing are the region atoms; the PD arcs and the
smoothings glue them into region classes, and a breadth-first search
from each piece's quadrant 0 places every component and loop.  The
package builds the same webs by unzipping bridges one crossing at a
time, and must agree with this on every flattening.

Orientation and planarity oracles
---------------------------------
``parity_signs`` derives crossing signs from one binary unknown per
crossing ("the over-strand enters at slot 3"), solving the parity
constraints of every arc having one inflow and one outflow end in a
``_ParityUnionFind``.  ``face_walk_planarity`` walks the faces of the PD
graph and checks V - E + F = 2 on each connected piece.  The package
orients each link component by one walk and checks planarity on the
flattening that bridges every crossing; both must accept and reject the
same PD data, with the same signs.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from math import comb

from artifact import cube
from artifact.algebra import LaurentPoly
from artifact.diagram import (
    MalformedDiagram,
    _IN_SLOTS,
    _SMOOTH_EXIT,
    _arc_other,
    _bridge_darts,
    _occurrences,
    _port,
)
from artifact.foam import (
    Birth,
    Death,
    Dot,
    FoamMovie,
    HalfFoam,
    MalformedMovie,
    MoveError,
    PreFoam,
    Unzip,
    Zip,
    _DSU,
    _canonical_numbering,
    _carry_faces,
    _check_webs,
    _facet_genera,
    _make_renamer,
    _plan_of,
    _relabel_move,
    _site_aligned,
    _sweep,
    apply_death,
    apply_unzip,
    digon_movies,
    evaluate,
    half_foam,
    identity_movie,
    pair_halves,
    square_split_movies,
)
from artifact.web import (
    DigonFace,
    Empty,
    FreeLoop,
    MalformedWeb,
    Region,
    SquareFace,
    Web,
    _component_split,
    _face_orbits,
    find_reduction,
)
from artifact.webhom import StateSpace, _extended

# --------------------------------------------------------------------------
# Laurent polynomial oracles
# --------------------------------------------------------------------------


def poly_items(p: LaurentPoly) -> tuple[tuple[int, int], ...]:
    """The terms of ``p`` as ``(exponent, coefficient)`` pairs, ascending
    exponent."""
    return tuple(sorted(p._coeffs.items()))


def poly_mirror(p: LaurentPoly) -> LaurentPoly:
    """The image of ``p`` under ``q -> q**-1`` (all exponents negated)."""
    return LaurentPoly({-e: c for e, c in p._coeffs.items()})


# A polynomial in Z[x1, x2] is a dict {(i, j): coefficient} for x1^i * x2^j.
FlagPoly = dict[tuple[int, int], int]


def _add_term(poly: FlagPoly, key: tuple[int, int], coeff: int) -> None:
    s = poly.get(key, 0) + coeff
    if s:
        poly[key] = s
    elif key in poly:
        del poly[key]


def flag_reduce(poly: FlagPoly) -> FlagPoly:
    """Normal form modulo ``x2^2 -> -x1^2 - x1*x2`` and ``x1^3 -> 0``."""
    work = dict(poly)
    out: FlagPoly = {}
    while work:
        (i, j), c = work.popitem()
        if not c:
            continue
        if j >= 2:
            # x1^i x2^j  ->  -x1^(i+2) x2^(j-2) - x1^(i+1) x2^(j-1)
            _add_term(work, (i + 2, j - 2), -c)
            _add_term(work, (i + 1, j - 1), -c)
        elif i >= 3:
            continue  # x1^3 = 0 in the quotient
        else:
            _add_term(out, (i, j), c)
    return out


def flag_multiply(p: FlagPoly, q: FlagPoly) -> FlagPoly:
    prod: FlagPoly = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            _add_term(prod, (i1 + i2, j1 + j2), c1 * c2)
    return flag_reduce(prod)


def flag_trace(poly: FlagPoly) -> int:
    """Trace functional: -1 times the normal-form coefficient of x1^2*x2."""
    return -flag_reduce(poly).get((2, 1), 0)


def flag_theta(a: int, b: int, c: int) -> int:
    """``Tr(x1^a * x2^b * x3^c)`` with ``x3 = -x1 - x2`` expanded."""
    # x3^c = (-1)^c * sum_k C(c, k) x1^k x2^(c-k)
    poly: FlagPoly = {}
    sign = -1 if c % 2 else 1
    for k in range(c + 1):
        _add_term(poly, (a + k, b + c - k), sign * comb(c, k))
    return flag_trace(poly)


def count_edge_3_colorings(edges: list[tuple[int, int]]) -> int:
    """Number of proper 3-edge-colorings of a graph given as vertex pairs.

    Counted by direct backtracking.  At ``q = 1`` the bracket of a web
    equals this count for its underlying trivalent graph (a circle counts
    as one unconstrained edge), which gives an independent check of the
    face-reduction recursion.
    """
    n = len(edges)
    incident: dict[int, list[int]] = {}
    for idx, (u, v) in enumerate(edges):
        incident.setdefault(u, []).append(idx)
        incident.setdefault(v, []).append(idx)
    colors: list[int | None] = [None] * n

    def admissible(idx: int, c: int) -> bool:
        u, v = edges[idx]
        for j in incident[u]:
            if j != idx and colors[j] == c:
                return False
        for j in incident[v]:
            if j != idx and colors[j] == c:
                return False
        return True

    def count_from(idx: int) -> int:
        if idx == n:
            return 1
        total = 0
        for c in range(3):
            if admissible(idx, c):
                colors[idx] = c
                total += count_from(idx + 1)
                colors[idx] = None
        return total

    return count_from(0)


def surface_value(genus: int, dots: int) -> int:
    """``Tr((-3 X^2)^genus X^dots)`` in ``Z[X] / (X^3)`` with
    ``Tr(X^2) = -1``: the value of a closed dotted sheet of that genus."""
    power = 2 * genus + dots
    if power != 2:
        return 0  # X^3 = 0, and only X^2 has nonzero trace
    return -((-3) ** genus)


class FrobeniusElement:
    """An element ``c0 + c1*X + c2*X^2`` of ``Z[X]/(X^3)``.

    The grading puts ``X^i`` in degree ``2*i - 2``; the counit (``trace``)
    sends ``X^2`` to ``-1`` and ``1, X`` to ``0``.
    """

    __slots__ = ("_c",)

    def __init__(self, c0: int = 0, c1: int = 0, c2: int = 0) -> None:
        for c in (c0, c1, c2):
            if not isinstance(c, int):
                raise TypeError("coefficients must be ints")
        self._c = (c0, c1, c2)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "FrobeniusElement":
        return cls()

    @classmethod
    def one(cls) -> "FrobeniusElement":
        return cls(1, 0, 0)

    @classmethod
    def basis(cls, i: int) -> "FrobeniusElement":
        """``X**i``, which is zero for ``i >= 3``."""
        if not isinstance(i, int) or i < 0:
            raise ValueError("basis exponent must be a nonnegative int")
        if i >= 3:
            return cls()
        coeffs = [0, 0, 0]
        coeffs[i] = 1
        return cls(*coeffs)

    # -- inspection --------------------------------------------------------

    @property
    def coefficients(self) -> tuple[int, int, int]:
        return self._c

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "FrobeniusElement") -> "FrobeniusElement":
        if not isinstance(other, FrobeniusElement):
            return NotImplemented
        a, b = self._c, other._c
        return FrobeniusElement(a[0] + b[0], a[1] + b[1], a[2] + b[2])

    def __sub__(self, other: "FrobeniusElement") -> "FrobeniusElement":
        if not isinstance(other, FrobeniusElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "FrobeniusElement":
        a = self._c
        return FrobeniusElement(-a[0], -a[1], -a[2])

    def __mul__(self, other: "FrobeniusElement | int") -> "FrobeniusElement":
        if isinstance(other, int):
            a = self._c
            return FrobeniusElement(a[0] * other, a[1] * other, a[2] * other)
        if not isinstance(other, FrobeniusElement):
            return NotImplemented
        a, b = self._c, other._c
        out = [0, 0, 0]
        for i in range(3):
            for j in range(3):
                if i + j < 3:
                    out[i + j] += a[i] * b[j]
        return FrobeniusElement(*out)

    def __rmul__(self, other: int) -> "FrobeniusElement":
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrobeniusElement):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(self._c)

    def __repr__(self) -> str:
        return f"FrobeniusElement{self._c!r}"


def trace(a: FrobeniusElement) -> int:
    """The counit: coefficient of ``X^2``, negated."""
    return -a.coefficients[2]


def comultiply(a: FrobeniusElement) -> dict[tuple[int, int], int]:
    """Coproduct as a tensor written in the basis ``X^i (x) X^j``.

    Returns a mapping ``(i, j) -> coefficient`` with zero entries omitted.
    On basis elements:

    * ``1   -> -(1 (x) X^2) - (X (x) X) - (X^2 (x) 1)``
    * ``X   -> -(X (x) X^2) - (X^2 (x) X)``
    * ``X^2 -> -(X^2 (x) X^2)``

    This is the unique coproduct dual to the product under ``trace``:
    it satisfies ``comultiply(a*b) = (a (x) 1) . comultiply(b)``.
    """
    out: dict[tuple[int, int], int] = {}
    for k, ck in enumerate(a.coefficients):
        if not ck:
            continue
        # Coproduct of X^k: -sum of X^(k+i) (x) X^(2-i) over i with k+i <= 2.
        for i in range(0, 3 - k):
            key = (k + i, 2 - i)
            s = out.get(key, 0) - ck
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def handle_operator(a: FrobeniusElement) -> FrobeniusElement:
    """Multiplication composed with comultiplication (adds one handle).

    ``1 -> -3*X^2``, ``X -> 0``, ``X^2 -> 0``.
    """
    out = FrobeniusElement.zero()
    for (i, j), c in comultiply(a).items():
        out = out + c * (FrobeniusElement.basis(i) * FrobeniusElement.basis(j))
    return out


def evaluate_bruteforce(prefoam) -> int:
    """Value of a closed foam given by ``prefoam.facets`` (``(genus,
    dots)`` per facet) and ``prefoam.circles`` (cyclic facet triples),
    by looping over all 27 weight assignments per circle with no pruning
    or factoring: each circle contributes the flag trace of its weights
    and hands each of its sheets ``2 - weight`` extra dots, each facet
    contributes its closed-surface value, and each circle a sign -1."""
    facets = prefoam.facets
    circles = prefoam.circles
    sign = -1 if len(circles) % 2 else 1
    total = 0
    for assignment in itertools.product(
        itertools.product(range(3), repeat=3), repeat=len(circles)
    ):
        factor = 1
        extra = [0] * len(facets)
        for tri, weights in zip(circles, assignment):
            factor *= flag_theta(*weights)
            if factor == 0:
                break
            for f, w in zip(tri, weights):
                extra[f] += 2 - w
        if factor == 0:
            continue
        for i, (g, d) in enumerate(facets):
            factor *= surface_value(g, d + extra[i])
            if factor == 0:
                break
        total += factor
    return sign * total


def fraction_solve(gram, rhs) -> tuple[tuple[int, ...], ...]:
    """Solve ``gram @ X = rhs`` by Gauss-Jordan elimination over the
    rationals.  A singular ``gram``, a determinant other than +-1 or a
    non-integral solution raises ``ArithmeticError``."""
    n = len(gram)
    m = len(rhs[0]) if rhs and rhs[0] is not None else 0
    if len(rhs) != n:
        raise ValueError("right-hand side has wrong height")
    aug = [
        [Fraction(gram[i][j]) for j in range(n)]
        + [Fraction(rhs[i][j]) for j in range(m)]
        for i in range(n)
    ]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ArithmeticError("pairing matrix is singular")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            det = -det
        det *= aug[col][col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    if det != 1 and det != -1:
        raise ArithmeticError(f"pairing matrix has determinant {det}, not ±1")
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            x = aug[i][n + j]
            if x.denominator != 1:
                raise ArithmeticError(f"non-integral coefficient {x} in exact solve")
            row.append(int(x))
        out.append(tuple(row))
    return tuple(out)


def smith_form_with_transforms(
    mat,
) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Smith normal form of an integer matrix, with its transforms.

    Returns ``(diag, p, q)``: ``p`` (rows by rows) and ``q`` (columns by
    columns) are unimodular, and ``p @ mat @ q`` is zero except for
    ``diag`` down its diagonal.  Entries of ``diag`` are positive and
    each divides the next; their count is the rank.  The elimination is
    the package's ``cube.smith_diagonal``, with every row operation also
    applied to ``p`` and every column operation to ``q``, which start as
    identities.
    """
    a = [list(row) for row in mat]
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    p = [[int(i == j) for j in range(n_rows)] for i in range(n_rows)]
    q = [[int(i == j) for j in range(n_cols)] for i in range(n_cols)]
    diag: list[int] = []
    t = 0
    while t < min(n_rows, n_cols):

        def repivot() -> bool:
            best = None
            for i in range(t, n_rows):
                for j in range(t, n_cols):
                    v = a[i][j]
                    if v and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                        best = (i, j)
                if best is not None and abs(a[best[0]][best[1]]) == 1:
                    break
            if best is None:
                return False
            i0, j0 = best
            a[t], a[i0] = a[i0], a[t]
            p[t], p[i0] = p[i0], p[t]
            for row in a:
                row[t], row[j0] = row[j0], row[t]
            for row in q:
                row[t], row[j0] = row[j0], row[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                p[t] = [-x for x in p[t]]
            return True

        if not repivot():
            break
        while True:
            piv = a[t][t]
            clean = True
            for i in range(t + 1, n_rows):
                if a[i][t]:
                    f = a[i][t] // piv
                    if f:
                        a[i] = [x - f * y for x, y in zip(a[i], a[t])]
                        p[i] = [x - f * y for x, y in zip(p[i], p[t])]
                    if a[i][t]:
                        clean = False
            for j in range(t + 1, n_cols):
                if a[t][j]:
                    f = a[t][j] // piv
                    if f:
                        for row in a:
                            row[j] -= f * row[t]
                        for row in q:
                            row[j] -= f * row[t]
                    if a[t][j]:
                        clean = False
            if not clean:
                repivot()
                continue
            offender = None
            if piv != 1:
                for i in range(t + 1, n_rows):
                    if any(a[i][j] % piv for j in range(t + 1, n_cols)):
                        offender = i
                        break
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            p[t] = [x + y for x, y in zip(p[t], p[offender])]
        diag.append(a[t][t])
        t += 1
    return diag, p, q


def extract_prefoam(movie: FoamMovie) -> PreFoam:
    """Run the movie and return its facet/circle shadow.

    The movie must be closed: it must start and end at the empty web and
    leave no unfinished seam arcs.
    """
    if not movie.start.is_empty():
        raise MalformedMovie("a closed movie must start at the empty web")
    state = _sweep(movie)
    if not movie.end.is_empty():
        raise MalformedMovie("a closed movie must end at the empty web")
    if state.arc_of_vertex:
        raise MalformedMovie("the movie ends with unfinished seam arcs")
    find = state.facets.find
    index, slots, circles = _canonical_numbering(
        state.chi, [(find(a), find(b), find(c)) for a, b, c in state.circles]
    )
    chi = [0] * len(index)
    dots = [0] * len(index)
    for root, i in index.items():
        chi[i] = state.chi[root]
        dots[i] = state.dots[root]
    return PreFoam(_facet_genera(chi, dots, slots), circles)


def evaluate_closed(movie: FoamMovie) -> int:
    """Exact value of a closed movie (empty web to empty web), by replay."""
    return evaluate(extract_prefoam(movie))


def glue(a: HalfFoam, b: HalfFoam) -> PreFoam:
    """The closed foam made of ``a`` followed by the reflection of ``b``,
    glued along their shared end web.

    The joining comes from the package's glue plan of the two shapes;
    the call adds the two halves' facet labels through it.  Mismatched
    end webs, every seam error of the plan, and a facet that is not a
    closed orientable sheet raise ``MalformedMovie`` on every offending
    call."""
    _check_webs(a, b)
    plan = _plan_of(a, b)
    labels = [0] * (2 * len(plan.slots))
    for f, (c, d) in zip(plan.facet_map, a.facets + b.facets):
        labels[2 * f] += c
        labels[2 * f + 1] += d
    return glued_prefoam(plan, labels)


def glued_prefoam(plan, labels) -> PreFoam:
    """The closed foam a glue plan makes of summed labels: entry ``2 f``
    is output facet ``f``'s twice Euler characteristic, entry ``2 f +
    1`` its dots.  A facet of odd Euler characteristic, then one that is
    not a closed orientable sheet, raises ``MalformedMovie``."""
    twice_chi = labels[::2]
    for c in twice_chi:
        if c % 2:
            raise MalformedMovie(f"glued facet has odd Euler characteristic {c}/2")
    chi = [c // 2 for c in twice_chi]
    return PreFoam(_facet_genera(chi, labels[1::2], plan.slots), plan.circles)


#: Each way of giving the weights (0, 1, 2) to a circle's three sheets,
#: with its sign.
_SIGNED_PERMS = tuple(
    (flag_theta(*perm), perm)
    for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0), (1, 0, 2), (0, 2, 1))
)


def evaluate_by_circles(prefoam: PreFoam) -> int:
    """Exact integer value of a closed dotted singular surface.

    Sums over all ways of assigning the weights (0, 1, 2) to the three
    sheets around each singular circle (only arrangements using all
    three survive: cyclic ones count +1, reversed ones -1), multiplying
    each facet's closed-surface value at its own dots plus a
    complementary weight (2 - i) per boundary slot, with a global sign
    (-1) per circle.
    """
    facets, circles = prefoam
    n = len(facets)
    slots = [0] * n
    for tri in circles:
        for f in tri:
            slots[f] += 1
    for (g, d), b in zip(facets, slots):
        if g >= 2 or (g == 1 and d > 0) or (g == 0 and d > 2):
            return 0
    # total dots must balance the total complementary weight the circles
    # hand out, or every term dies
    if sum(2 - 2 * g - b for (g, _), b in zip(facets, slots)) != sum(
        d for _, d in facets
    ):
        return 0
    base = 1
    for (g, d), b in zip(facets, slots):
        if b == 0:
            base *= surface_value(g, d)
            if base == 0:
                return 0
    close_at = [-1] * n
    for idx, tri in enumerate(circles):
        for f in tri:
            close_at[f] = idx
    sign = -1 if len(circles) % 2 else 1
    memo: dict[tuple[int, tuple[tuple[int, int], ...]], int] = {}

    def rec(idx: int, acc: tuple[tuple[int, int], ...]) -> int:
        if idx == len(circles):
            return 1
        key = (idx, acc)
        hit = memo.get(key)
        if hit is not None:
            return hit
        tri = circles[idx]
        sheets = set(tri)
        total = 0
        for sgn, perm in _SIGNED_PERMS:
            nxt = dict(acc)
            for f, w in zip(tri, perm):
                nxt[f] = nxt.get(f, 0) + (2 - w)
            factor = sgn
            dead = False
            for f in sheets:
                g, d = facets[f]
                tot = d + nxt[f]
                if close_at[f] == idx:
                    factor *= surface_value(g, tot)
                    del nxt[f]
                    if factor == 0:
                        dead = True
                        break
                elif (g == 0 and tot > 2) or (g == 1 and tot > 0):
                    dead = True
                    break
            if dead:
                continue
            total += factor * rec(idx + 1, tuple(sorted(nxt.items())))
        memo[key] = total
        return total

    return sign * base * rec(0, ())


Bits = tuple[int, ...]


def _edge_sign(bits: Bits, c: int) -> int:
    return -1 if sum(bits[:c]) % 2 else 1


def _switched(bits: Bits, c: int) -> Bits:
    return bits[:c] + (1,) + bits[c + 1 :]


def _dense_mul(a, b) -> list[list[int]]:
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [
        [sum(row[t] * b[t][c] for t in range(inner)) for c in range(cols)]
        for row in a
    ]


def cube_generators(q_degrees, weight: int, q=None) -> list[tuple[Bits, int]]:
    """The generators ``(bits, k)`` with ``weight`` choice-1 crossings (of
    quantum degree ``q`` when given), by ``bits`` then ``k``."""
    return [
        (bits, k)
        for bits in sorted(q_degrees)
        if sum(bits) == weight
        for k, deg in enumerate(q_degrees[bits])
        if q is None or deg == q
    ]


def dense_differential(q_degrees, edge_maps, weight: int, q=None) -> list[list[int]]:
    """The signed cube differential from ``weight`` to ``weight + 1`` as a
    dense list of rows (restricted to quantum degree ``q`` when given)."""
    src = cube_generators(q_degrees, weight, q)
    dst = {g: r for r, g in enumerate(cube_generators(q_degrees, weight + 1, q))}
    rows = [[0] * len(src) for _ in dst]
    for col, (bits, k) in enumerate(src):
        for c, bit in enumerate(bits):
            if bit:
                continue
            target = _switched(bits, c)
            mat = edge_maps[(bits, c)]
            for r, row in enumerate(mat):
                if row[k] and (target, r) in dst:
                    rows[dst[(target, r)]][col] += _edge_sign(bits, c) * row[k]
    return rows


def d_squared_is_zero(q_degrees, edge_maps) -> bool:
    """Every composite of two consecutive full differentials is zero."""
    n = len(next(iter(q_degrees)))
    for w in range(n - 1):
        prod = _dense_mul(
            dense_differential(q_degrees, edge_maps, w + 1),
            dense_differential(q_degrees, edge_maps, w),
        )
        if any(x for row in prod for x in row):
            return False
    return True


def squares_anticommute(edge_maps) -> bool:
    """Around every square face of the cube the two signed composites
    sum to zero."""
    for bits, b in edge_maps:
        for c in range(b + 1, len(bits)):
            if bits[c]:
                continue
            via_b, via_c = _switched(bits, b), _switched(bits, c)
            first = _dense_mul(edge_maps[(via_b, c)], edge_maps[(bits, b)])
            second = _dense_mul(edge_maps[(via_c, b)], edge_maps[(bits, c)])
            s1 = _edge_sign(via_b, c) * _edge_sign(bits, b)
            s2 = _edge_sign(via_c, b) * _edge_sign(bits, c)
            if any(
                s1 * f + s2 * g
                for frow, grow in zip(first, second)
                for f, g in zip(frow, grow)
            ):
                return False
    return True


def sparse_smith_diagonal(columns) -> list[int]:
    """``smith_diagonal`` of the matrix whose column ``c`` has the
    nonzero entries ``columns[c]`` (``{row: value}``; not modified):
    a 1 for each unit pivot ``cube.eliminate_units`` cancels, then the
    dense Smith diagonal of what is left; 1 divides everything, so the
    result is still a divisor chain."""
    pivots, rows = cube.eliminate_units(
        {c: dict(col) for c, col in enumerate(columns) if col}
    )
    rest = cube.dense_rows(rows)
    return [1] * len(pivots) + (cube.smith_diagonal(rest) if rest else [])


def per_block_homology(dims, blocks, diagonal=sparse_smith_diagonal) -> tuple:
    """The homology table (``BigradedHomology.entries``) of a complex
    given as ``cube.differential_blocks`` returns it, each block
    diagonalized on its own by ``diagonal`` (applied to its sparse
    columns): free rank ``dims - rank d_i - rank d_{i-1}``, torsion from
    ``d_{i-1}``."""
    snf = {key: diagonal(cols) for key, cols in blocks.items()}
    entries = []
    for (i, j), dim in sorted(dims.items()):
        incoming = snf.get((i - 1, j), [])
        free = dim - len(snf[(i, j)]) - len(incoming)
        torsion = tuple(x for x in incoming if x > 1)
        if free or torsion:
            entries.append((i, j, free, torsion))
    return tuple(entries)


# --------------------------------------------------------------------------
# state-space oracles
# --------------------------------------------------------------------------


def pair_movies(u: FoamMovie, v: FoamMovie) -> int:
    """The closed evaluation of u glued to the reflection of v.  Both
    movies must start at the empty web and end at the same web; end webs
    that differ raise ``MalformedMovie``.  The value vanishes unless the
    degrees cancel.  It is the one-by-one case of ``foam.pair_halves``
    on the two movies' halves, each swept once from the empty web
    (``foam.half_foam``)."""
    if u.degree() + v.degree() != 0:
        return 0
    return pair_halves([half_foam(u)], [half_foam(v)])[0][0]


def scratch_matrix(movie: FoamMovie, source, target) -> tuple[tuple, tuple]:
    """``(gram, matrix)``: the Gram matrix of the ``target`` basis and
    the matrix of ``movie`` from the ``source`` basis to it, both from
    plain pairings.  The Gram matrix pairs degree ``d`` only with degree
    ``-d``, so ``gram @ X = R`` is solved one degree block at a time."""
    gram = tuple(
        tuple(pair_movies(v, w) if v.degree() + w.degree() == 0 else 0 for w in target)
        for v in target
    )
    pushed = [u.compose(movie) for u in source]
    by_degree: dict[int, list[int]] = {}
    for k, v in enumerate(target):
        by_degree.setdefault(v.degree(), []).append(k)
    out = [[0] * len(source) for _ in target]
    for d, rows in by_degree.items():
        cols = by_degree.get(-d, [])
        block = [[gram[r][c] for c in cols] for r in rows]
        rhs = [[pair_movies(p, target[r]) for p in pushed] for r in rows]
        for c, row in zip(cols, fraction_solve(block, rhs)):
            out[c] = list(row)
    return gram, tuple(tuple(row) for row in out)


def gram(space: StateSpace) -> tuple[tuple[int, ...], ...]:
    """The Gram matrix of ``space``'s basis, dense: each half paired
    with those of the opposite degree by the package's ``pair_halves``,
    both blocks of every pair of opposite degrees paired, and every
    other entry 0."""
    out = [[0] * space.dim for _ in range(space.dim)]
    for d, rows in space.index.items():
        cols = space.index.get(-d, ())
        block = pair_halves(
            [space.halves[j] for j in rows], [space.halves[k] for k in cols]
        )
        for j, values in zip(rows, block):
            for k, x in zip(cols, values):
                out[j][k] = x
    return tuple(map(tuple, out))


_LABEL_BASES: dict[str, tuple[FoamMovie, ...]] = {}
_CLASS_BASES: dict[str, tuple[FoamMovie, ...]] = {}
_SERVED_BASES: dict[str, tuple[FoamMovie, ...]] = {}


def label_basis(web: Web) -> tuple[FoamMovie, ...]:
    """The preparation basis of ``web`` on its own labels: reduce at
    ``find_reduction(web)`` and build on the label-keyed bases of the
    smaller webs."""
    key = web.exact_key()
    if key not in _LABEL_BASES:
        _LABEL_BASES[key] = _preparations(web, label_basis)
    return _LABEL_BASES[key]


def class_basis(web: Web) -> tuple[FoamMovie, ...]:
    """The basis of ``web``'s relabeling class, as movies: the
    preparations of its canonical web, built on the served bases of the
    smaller webs, kept by the canonical web's exact key."""
    canonical = web.canonical()[0]
    key = canonical.exact_key()
    if key not in _CLASS_BASES:
        _CLASS_BASES[key] = _preparations(canonical, served_basis)
    return _CLASS_BASES[key]


def served_basis(web: Web) -> tuple[FoamMovie, ...]:
    """The basis ``state_space(web)`` serves, as movies in its order:
    the class basis renamed onto ``web`` by the inverse of
    ``web.canonical()``'s maps, kept by the web's exact key.  The loop
    ids the movies birth and zip away go past the web's own; no movie
    deletes a dart."""
    key = web.exact_key()
    if key not in _SERVED_BASES:
        _, dart_map, loop_map = web.canonical()
        basis = class_basis(web)
        born = {l for b in basis for w in b.states() for l in w.loop_ccw}
        to_darts = {c: d for d, c in dart_map.items()}
        to_loops = _extended(
            {c: l for l, c in loop_map.items()}, sorted(born, reverse=True), -1
        )
        _SERVED_BASES[key] = tuple(relabeled_movie(b, to_darts, to_loops) for b in basis)
    return _SERVED_BASES[key]


def relabeled_movie(movie: FoamMovie, darts, loops) -> FoamMovie:
    """``movie`` with its darts renamed by ``darts`` and its loop ids by
    ``loops`` (ids absent from a map kept): its start web and each move
    renamed, each move's regions and component keys read in the slice
    it starts from, and the renamed moves run anew from the renamed
    start web by ``run_movie``."""
    dmap = lambda d: darts.get(d, d)
    lmap = lambda l: loops.get(l, l)
    moves = [
        _relabel_move(mv, w, dmap, lmap) for mv, w in zip(movie.moves, movie.states())
    ]
    return run_movie(movie.start.relabeled(darts, loops), moves)


def _preparations(web: Web, basis) -> tuple[FoamMovie, ...]:
    """The preparation basis of ``web`` at ``find_reduction(web)``, on
    ``basis`` of each smaller web."""
    reduction = find_reduction(web)
    if isinstance(reduction, Empty):
        return (identity_movie(web),)
    if isinstance(reduction, FreeLoop):
        lid = reduction.loop_id
        smaller = apply_death(web, Death(lid))
        births = [
            run_movie(
                smaller,
                (Birth(lid, web.parent[lid], web.loop_ccw[lid]),) + (Dot(lid),) * dots,
            )
            for dots in range(3)
        ]
        return tuple(b.compose(g) for b in basis(smaller) for g in births)
    if isinstance(reduction, DigonFace):
        lift_plain, lift_dotted, _, _ = digon_movies(web, reduction.face)
        return tuple(
            b.compose(lift)
            for b in basis(lift_plain.start)
            for lift in (lift_plain, lift_dotted)
        )
    assert isinstance(reduction, SquareFace)
    out: list[FoamMovie] = []
    for branch in square_split_movies(web, reduction.face):
        back = branch.reflect()
        out.extend(b.compose(back) for b in basis(branch.end))
    return tuple(out)


# --------------------------------------------------------------------------
# flattening oracle
# --------------------------------------------------------------------------

#: Slots where the strands flow out of a crossing's disk, per sign.
_OUT_SLOTS = {1: (2, 3), -1: (1, 2)}


def _bridge_tables(sign: int, a: tuple[int, int, int, int], m1: int, m2: int):
    """Vertex cycles, outflow darts and dart->quadrant table of the
    bridge picture of a crossing with the given sign.

    ``a`` lists the four port darts by slot.  Counterclockwise vertex
    cycles are fixed by the disk geometry: the sink vertex sits between
    the two inflow ports and also carries the bridge's sink end; the
    source vertex likewise.
    """

    a0, a1, a2, a3 = a
    if sign == 1:
        sink = (a0, a1, m1)
        source = (a2, a3, m2)
        out = (a2, a3, m2)
        quadrant = {a0: 0, a1: 1, m1: 3, a2: 2, a3: 3, m2: 1}
    else:
        sink = (m1, a3, a0)
        source = (a1, a2, m2)
        out = (a1, a2, m2)
        quadrant = {a0: 0, a1: 1, a2: 2, a3: 3, m1: 2, m2: 0}
    return sink, source, out, quadrant


def region_flatten(d, bits: Bits) -> tuple[Web, dict[tuple[int, int], int]]:
    """The flattening of ``d`` at ``bits`` and the id of the free loop
    through each smoothed crossing's inflow port, keyed ``(crossing,
    slot)``, from region atoms (see the module docstring)."""
    xs = d.crossings
    n = len(xs)
    occ = _occurrences(xs)
    bridged = [c for c in range(n) if (bits[c] == 1) == (d.signs[c] == 1)]
    smoothed = [c for c in range(n) if c not in set(bridged)]
    smoothed_set = set(smoothed)

    # ---- strands ---------------------------------------------------------
    edge_routes: list[tuple[int, int]] = []
    loop_routes: list[tuple[int, list[tuple[int, int]]]] = []
    entered: set[tuple[int, int]] = set()

    def _trace_to_vertex(c: int, s: int):
        """Follow the strand leaving port (c, s) of a bridged crossing
        until it reaches a bridged crossing's inflow port; marks the
        smoothed transits on the way as entered."""

        c2, s2 = _arc_other(xs, occ, c, s)
        while c2 in smoothed_set:
            assert s2 in _IN_SLOTS[d.signs[c2]], (c2, s2)
            entered.add((c2, s2))
            s3 = _SMOOTH_EXIT[d.signs[c2]][s2]
            c2, s2 = _arc_other(xs, occ, c2, s3)
        assert s2 in _IN_SLOTS[d.signs[c2]], (c2, s2)
        return _port(c2, s2)

    for c in bridged:
        for s in _OUT_SLOTS[d.signs[c]]:
            edge_routes.append((_port(c, s), _trace_to_vertex(c, s)))
    for c in smoothed:
        for s in _IN_SLOTS[d.signs[c]]:
            if (c, s) in entered:
                continue
            route = []
            ports: list[int] = []
            cur = (c, s)
            while cur not in entered:
                entered.add(cur)
                route.append(cur)
                cc, ss = cur
                exit_slot = _SMOOTH_EXIT[d.signs[cc]][ss]
                ports.extend([_port(cc, ss), _port(cc, exit_slot)])
                cur = _arc_other(xs, occ, cc, exit_slot)
                assert cur[0] in smoothed_set
            assert cur == (c, s)
            loop_routes.append((-min(ports), route))
    loop_at = {cs: lid for lid, route in loop_routes for cs in route}

    # ---- permutations ----------------------------------------------------
    sigma: dict[int, int] = {}
    alpha: dict[int, int] = {}
    out_darts: set[int] = set()
    dart_quadrant: dict[int, int] = {}
    for c in bridged:
        ports = tuple(_port(c, s) for s in range(4))
        m1, m2 = _bridge_darts(n, c)
        sink, source, out, quadrant = _bridge_tables(d.signs[c], ports, m1, m2)
        for cyc in (sink, source):
            for i, dart in enumerate(cyc):
                sigma[dart] = cyc[(i + 1) % 3]
        alpha[m1], alpha[m2] = m2, m1
        out_darts.update(out)
        for dart, k in quadrant.items():
            dart_quadrant[dart] = 4 * c + k
    for (tail, head) in edge_routes:
        alpha[tail], alpha[head] = head, tail

    # ---- region atoms ----------------------------------------------------
    atoms = _DSU()
    for _ in range(4 * n):
        atoms.make()
    for lab in occ:
        (c1, s1), (c2, s2) = occ[lab]
        atoms.union(4 * c1 + s1, 4 * c2 + (s2 - 1) % 4)
        atoms.union(4 * c1 + (s1 - 1) % 4, 4 * c2 + s2)
    for c in smoothed:
        if d.signs[c] == 1:
            atoms.union(4 * c + 0, 4 * c + 2)
        else:
            atoms.union(4 * c + 1, 4 * c + 3)

    faces = _face_orbits(sigma, alpha) if sigma else {}
    comps = _component_split(sigma, alpha) if sigma else {}
    comp_of_dart = {dart: comp for comp, ds in comps.items() for dart in ds}
    face_class: dict[int, int] = {}
    comp_faces: dict[int, list[int]] = {comp: [] for comp in comps}
    class_comp_face: dict[tuple[int, int], int] = {}
    for f, orbit in faces.items():
        classes = {atoms.find(dart_quadrant[dart]) for dart in orbit}
        assert len(classes) == 1, f"face {f} spans region classes {classes}"
        g = classes.pop()
        face_class[f] = g
        comp = comp_of_dart[f]
        comp_faces[comp].append(f)
        assert (g, comp) not in class_comp_face
        class_comp_face[(g, comp)] = f
    loop_sides: dict[int, tuple[int, int]] = {}
    for lid, route in loop_routes:
        lefts = {atoms.find(4 * cc + (ss - 1) % 4) for (cc, ss) in route}
        rights = {atoms.find(4 * cc + ss) for (cc, ss) in route}
        assert len(lefts) == 1 and len(rights) == 1, (lid, lefts, rights)
        left, right = lefts.pop(), rights.pop()
        assert left != right, f"loop {lid} fails to separate its sides"
        loop_sides[lid] = (left, right)

    # ---- nesting ---------------------------------------------------------
    class_items: dict[int, list[tuple[str, int]]] = {}
    for f, g in face_class.items():
        comp = comp_of_dart[f]
        item = ("comp", comp)
        class_items.setdefault(g, [])
        if item not in class_items[g]:
            class_items[g].append(item)
    for lid, (left, right) in loop_sides.items():
        for g in (left, right):
            class_items.setdefault(g, []).append(("loop", lid))

    pieces = _DSU()
    for _ in range(n):
        pieces.make()
    for lab in occ:
        (c1, _), (c2, _) = occ[lab]
        pieces.union(c1, c2)
    piece_min: dict[int, int] = {}
    for c in range(n):
        root = pieces.find(c)
        piece_min.setdefault(root, c)

    parent: dict[int, Region] = {}
    outer_face: dict[int, int] = {}
    loop_ccw: dict[int, bool] = {}
    designator: dict[int, Region] = {}
    placed: set[tuple[str, int]] = set()
    for root in sorted(piece_min.values()):
        start = atoms.find(4 * root + 0)
        if start in designator:
            continue
        designator[start] = None
        queue = deque([start])
        while queue:
            g = queue.popleft()
            region = designator[g]
            for item in sorted(class_items.get(g, [])):
                if item in placed:
                    continue
                placed.add(item)
                kind, ident = item
                parent[ident] = region
                if kind == "comp":
                    outer_face[ident] = class_comp_face[(g, ident)]
                    for f in comp_faces[ident]:
                        cf = face_class[f]
                        if cf == g:
                            continue
                        inner_region: Region = ("face", f)
                        assert cf not in designator
                        designator[cf] = inner_region
                        queue.append(cf)
                else:
                    left, right = loop_sides[ident]
                    assert (left == g) != (right == g), (ident, g)
                    inner = right if left == g else left
                    loop_ccw[ident] = inner == left
                    assert inner not in designator
                    designator[inner] = ("inside", ident)
                    queue.append(inner)
    assert len(placed) == len(comps) + len(loop_routes)
    for j in range(d.free_loops):
        lid = -(6 * n + j + 1)
        loop_ccw[lid] = True
        parent[lid] = None

    web = Web(sigma, alpha, frozenset(out_darts), loop_ccw, parent, outer_face)
    return web, loop_at


# --------------------------------------------------------------------------
# orientation and planarity oracles
# --------------------------------------------------------------------------


class _ParityUnionFind:
    """Union-find over binary variables tracking relative parity."""

    def __init__(self, size: int) -> None:
        self._parent = list(range(size))
        self._parity = [0] * size

    def find(self, x: int) -> tuple[int, int]:
        parity = 0
        while self._parent[x] != x:
            parity ^= self._parity[x]
            x = self._parent[x]
        return x, parity

    def union(self, a: int, b: int, relative_parity: int) -> bool:
        """Impose ``value(a) xor value(b) == relative_parity``; returns
        whether that is consistent with previous constraints."""

        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra == rb:
            return (pa ^ pb) == relative_parity
        self._parent[rb] = ra
        self._parity[rb] = pa ^ pb ^ relative_parity
        return True


def parity_signs(xs, occ, over_in) -> tuple[int, ...]:
    """Derive crossing signs by orienting every arc consistently.

    Encodes, per crossing ``c``, the binary unknown ``x_c`` ("the
    over-strand enters at slot 3") and solves the parity constraints
    coming from each arc having one inflow and one outflow end.  Slot 0
    is always inflow and slot 2 always outflow; slot 1 is inflow exactly
    when ``x_c`` is 0 and slot 3 exactly when ``x_c`` is 1.
    """

    n = len(xs)
    if over_in is not None:
        if not isinstance(over_in, (list, tuple)):
            raise MalformedDiagram(f"over_in must be a list, got {over_in!r}")
        if len(over_in) != n:
            raise MalformedDiagram(
                f"over_in must list one entry per crossing ({n}), got "
                f"{len(over_in)}"
            )
        for v in over_in:
            if isinstance(v, bool) or v not in (None, 1, 3):
                raise MalformedDiagram(
                    f"over_in entries must be 1, 3 or null, got {v!r}"
                )
    anchor = n
    uf = _ParityUnionFind(n + 1)

    def inflow_term(c: int, s: int):
        """The inflow indicator of slot ``s`` at ``c``: either a constant
        or ``x_c`` xor a constant."""

        if s == 0:
            return ("const", 1)
        if s == 2:
            return ("const", 0)
        return ("var", c, 1 if s == 1 else 0)

    for lab in sorted(occ):
        (c1, s1), (c2, s2) = occ[lab]
        t1, t2 = inflow_term(c1, s1), inflow_term(c2, s2)
        if t1[0] == "const" and t2[0] == "const":
            if t1[1] ^ t2[1] != 1:
                raise MalformedDiagram(
                    f"inconsistent orientation: arc {lab} has two "
                    f"{'inflow' if t1[1] else 'outflow'} ends"
                )
        elif t1[0] == "const" or t2[0] == "const":
            const, var = (t1, t2) if t1[0] == "const" else (t2, t1)
            # const ^ (x_c ^ p) == 1
            value = 1 ^ const[1] ^ var[2]
            if not uf.union(var[1], anchor, value):
                raise MalformedDiagram(
                    f"inconsistent orientation: arc {lab} over-constrains "
                    f"crossing {var[1]}"
                )
        else:
            parity = 1 ^ t1[2] ^ t2[2]
            if not uf.union(t1[1], t2[1], parity):
                raise MalformedDiagram(
                    f"inconsistent orientation: arc {lab} closes an "
                    f"inconsistent cycle"
                )
    if over_in is not None:
        for c, v in enumerate(over_in):
            if v is None:
                continue
            if not uf.union(c, anchor, 0 if v == 1 else 1):
                raise MalformedDiagram(
                    f"orientation hint for crossing {c} conflicts with the "
                    f"arcs"
                )
    # Components that never pass under leave their class unanchored; give
    # the lowest-numbered crossing of each such class over-in slot 1.
    root_anchor, _ = uf.find(anchor)
    for c in range(n):
        root, _ = uf.find(c)
        if root != root_anchor:
            uf.union(c, anchor, 0)
            root_anchor, _ = uf.find(anchor)
    signs = []
    for c in range(n):
        _, parity = uf.find(c)
        _, base = uf.find(anchor)
        signs.append(-1 if parity ^ base else 1)
    return tuple(signs)


def face_walk_planarity(xs, occ) -> None:
    """Verify the PD data embeds in the plane: each connected piece of
    the 4-valent graph must satisfy V - E + F = 2 for the face count
    determined by the counterclockwise slot order."""

    n = len(xs)
    if n == 0:
        return
    piece = _DSU()
    for _ in range(n):
        piece.make()
    for lab in occ:
        (c1, _), (c2, _) = occ[lab]
        piece.union(c1, c2)
    face_seen: set[tuple[int, int]] = set()
    faces_of_piece: dict[int, int] = {}
    for c in range(n):
        for s in range(4):
            if (c, s) in face_seen:
                continue
            cur = (c, s)
            while cur not in face_seen:
                face_seen.add(cur)
                c2, s2 = _arc_other(xs, occ, *cur)
                cur = (c2, (s2 - 1) % 4)
            root = piece.find(c)
            faces_of_piece[root] = faces_of_piece.get(root, 0) + 1
    sizes: dict[int, int] = {}
    for c in range(n):
        root = piece.find(c)
        sizes[root] = sizes.get(root, 0) + 1
    for root, v in sizes.items():
        f = faces_of_piece[root]
        if v - 2 * v + f != 2:
            raise MalformedDiagram(
                f"non-planar PD data: a connected piece with {v} crossings "
                f"closes into {f} faces instead of {v + 2}"
            )


# --------------------------------------------------------------------------
# zip and birth oracles
# --------------------------------------------------------------------------


def run_movie(start: Web, moves) -> FoamMovie:
    """``FoamMovie(start, moves, slices)`` with its slices made by
    surgery: each zip by ``apply_zip``, each birth by ``apply_birth``,
    each death and unzip by the package's ``foam.apply_death`` and
    ``foam.apply_unzip``; a dot keeps its slice."""
    slices = [start]
    for mv in moves:
        web = slices[-1]
        if isinstance(mv, Zip):
            web = apply_zip(web, mv)
        elif isinstance(mv, Birth):
            web = apply_birth(web, mv)
        elif isinstance(mv, Death):
            web = apply_death(web, mv)
        elif isinstance(mv, Unzip):
            web = apply_unzip(web, mv)
        slices.append(web)
    return FoamMovie(start, moves, slices)


def apply_birth(web: Web, mv: Birth) -> Web:
    """The web after a free loop is born in ``mv.region``, by surgery.
    The package builds no birth this way: a birth it runs undoes the
    death of a loop (a free-loop preparation, a reflected cap), so its
    end slice is known."""
    lid = mv.loop_id
    if lid >= 0 or lid in web.loop_ccw:
        raise MoveError(f"birth needs a fresh negative loop id, got {lid}")
    if not web.has_region(mv.region):
        raise MoveError(f"birth region {mv.region!r} does not exist")
    loop_ccw = dict(web.loop_ccw)
    loop_ccw[lid] = mv.ccw
    parent = dict(web.parent)
    parent[lid] = mv.region
    return Web(web.sigma, web.alpha, web.out_darts, loop_ccw, parent, web.outer_face)


def _site_region_candidates(web: Web, site: int) -> tuple[Region, ...]:
    if site < 0:
        if site not in web.loop_ccw:
            raise MoveError(f"loop {site} does not exist")
        return (web.parent[site], ("inside", site))
    if site not in web.sigma:
        raise MoveError(f"dart {site} does not exist")
    return (web.region_of_face(web.face_of(site)),)


def apply_zip(web: Web, mv: Zip) -> Web:
    """The web after zipping ``mv`` from ``web``, by surgery: the new
    darts and vertices, the split or merged faces, the nesting and the
    outer faces, as ``foam.Zip`` describes.  Invalid zips raise
    ``MoveError``."""
    region = mv.region
    if region is not None and region not in regions(web):
        raise MoveError(f"zip region {region!r} does not exist")
    if mv.site_a == mv.site_b:
        raise MoveError("zip sites must be distinct")
    for site in (mv.site_a, mv.site_b):
        if region not in _site_region_candidates(web, site):
            raise MoveError(f"zip site {site} is not adjacent to region {region!r}")
    al_a = _site_aligned(web, mv.site_a, region)
    al_b = _site_aligned(web, mv.site_b, region)
    if al_a == al_b:
        raise MoveError(
            "zip needs exactly one aligned site (a consistently oriented pair "
            "cannot be zipped from this region)"
        )
    s_plus, s_minus = (mv.site_a, mv.site_b) if al_a else (mv.site_b, mv.site_a)

    labels = mv.labels
    m1, m2, in_p, out_p, in_m, out_m = labels
    if len(set(labels)) != 6 or any(d in web.sigma or d <= 0 for d in labels):
        raise MoveError(f"zip labels {labels} must be six fresh positive darts")

    same_edge = s_plus > 0 and s_minus > 0 and web.alpha[s_plus] == s_minus

    # ---- surgery on sigma/alpha/out -------------------------------------
    sigma = dict(web.sigma)
    alpha = dict(web.alpha)
    out = set(web.out_darts)
    loop_ccw = dict(web.loop_ccw)
    consumed_loops: list[int] = []

    if same_edge:
        t, h = s_plus, s_minus
        if mv.middle == "aligned_first":
            pieces = [(t, in_p), (out_p, in_m), (out_m, h)]
        elif mv.middle == "anti_first":
            pieces = [(t, in_m), (out_m, in_p), (out_p, h)]
        else:
            raise MoveError(
                "zip with both sites on one edge needs middle="
                "'aligned_first' or 'anti_first'"
            )
        for a, b in pieces:
            alpha[a] = b
            alpha[b] = a
    else:
        if s_plus > 0:
            t = s_plus
            old_head = web.alpha[t]
            alpha[t] = in_p
            alpha[in_p] = t
            alpha[out_p] = old_head
            alpha[old_head] = out_p
        else:
            alpha[out_p] = in_p
            alpha[in_p] = out_p
            consumed_loops.append(s_plus)
        if s_minus > 0:
            h = s_minus
            old_tail = web.alpha[h]
            alpha[old_tail] = in_m
            alpha[in_m] = old_tail
            alpha[out_m] = h
            alpha[h] = out_m
        else:
            alpha[out_m] = in_m
            alpha[in_m] = out_m
            consumed_loops.append(s_minus)
    # new vertices: sink (m1, in_minus, in_plus), source (m2, out_plus, out_minus)
    sigma[m1], sigma[in_m], sigma[in_p] = in_m, in_p, m1
    sigma[m2], sigma[out_p], sigma[out_m] = out_p, out_m, m2
    alpha[m1] = m2
    alpha[m2] = m1
    out |= {m2, out_p, out_m}
    for lid in consumed_loops:
        del loop_ccw[lid]

    # ---- faces, components ----------------------------------------------
    new_faces = _face_orbits(sigma, alpha)
    new_face_of = {d: f for f, orbit in new_faces.items() for d in orbit}
    new_comps = _component_split(sigma, alpha)
    new_comp_of = {d: c for c, comp in new_comps.items() for d in comp}
    carry = _carry_faces(web, new_face_of)

    sink_face = new_face_of[in_m]  # pocket between the two tail pieces
    source_face = new_face_of[out_p]  # pocket between the two head pieces
    split = sink_face != source_face

    old_comp_ids = {web.component_of(s) for s in (s_plus, s_minus) if s > 0}
    new_comp_id = new_comp_of[m1]

    parent: dict[int, Region] = {}
    outer_face: dict[int, int] = {}
    for c, f in web.outer_face.items():
        if c not in old_comp_ids:
            parent[c] = web.parent[c]
            outer_face[c] = carry[f]
    for l in loop_ccw:
        parent[l] = web.parent[l]

    if split:
        # both sites lie on one face walk of one dart component
        if len(old_comp_ids) != 1:
            raise MalformedMovie("zip: a splitting walk must lie on one component")
        c_old = next(iter(old_comp_ids))
        c_parent = web.parent[c_old]
        site_faces = {web.face_of(s) for s in (s_plus, s_minus) if s > 0}
        face_was_outer = web.outer_face[c_old] in site_faces
        parent[new_comp_id] = c_parent
        if face_was_outer:
            if mv.ceiling_side not in ("sink", "source"):
                raise MoveError(
                    "zip splitting a component's outer walk needs "
                    "ceiling_side='sink' or 'source'"
                )
            if mv.ceiling_side == "sink":
                outer_face[new_comp_id] = sink_face
                pocket_face = source_face
            else:
                outer_face[new_comp_id] = source_face
                pocket_face = sink_face
            sink_region: Region = (
                c_parent if mv.ceiling_side == "sink" else ("newface", pocket_face)
            )
            source_region: Region = (
                c_parent if mv.ceiling_side == "source" else ("newface", pocket_face)
            )
        else:
            outer_face[new_comp_id] = carry[web.outer_face[c_old]]
            sink_region = ("newface", sink_face)
            source_region = ("newface", source_face)
        for item in list(parent):
            if item != new_comp_id and parent[item] == region:
                parent[item] = (
                    sink_region if item in mv.children_to_sink else source_region
                )
    else:
        # the two site walks merge into one; the region keeps its name
        def encloses(site: int) -> bool:
            if site < 0:
                return region == ("inside", site)
            return web.face_of(site) != web.outer_face[web.component_of(site)]

        enc_plus = encloses(s_plus)
        enc_minus = encloses(s_minus)
        if enc_plus and enc_minus:
            raise MalformedMovie("zip sites cannot both enclose the shared region")
        if enc_plus or enc_minus:
            enclosing = s_plus if enc_plus else s_minus
            if enclosing > 0:
                c_old = web.component_of(enclosing)
                parent[new_comp_id] = web.parent[c_old]
                outer_face[new_comp_id] = carry[web.outer_face[c_old]]
            else:
                far_dart = m2 if enclosing == s_plus else m1
                parent[new_comp_id] = web.parent[enclosing]
                outer_face[new_comp_id] = new_face_of[far_dart]
        else:
            parent[new_comp_id] = region
            outer_face[new_comp_id] = sink_face

    # interiors of consumed loops
    override: dict[Region, Region] = {}
    for lid in consumed_loops:
        if region == ("inside", lid):
            override[("inside", lid)] = ("newface", sink_face)
        else:
            if lid == s_plus:
                interior_dart = out_p if web.loop_ccw[lid] else in_p
            else:
                interior_dart = out_m if web.loop_ccw[lid] else in_m
            override[("inside", lid)] = ("newface", new_face_of[interior_dart])

    rename = _make_renamer(carry, override, new_comp_of, outer_face, parent)
    final_parent = {item: rename(r) for item, r in parent.items()}
    return Web(sigma, alpha, out, loop_ccw, final_parent, outer_face)


# --------------------------------------------------------------------------
# web oracles
# --------------------------------------------------------------------------


def _region_list(faces, comp_of, outer_face, loop_ccw) -> tuple[Region, ...]:
    out: list[Region] = [None]
    for c, f_out in sorted(outer_face.items()):
        out += [("face", f) for f in sorted(faces) if comp_of[f] == c and f != f_out]
    out += [("inside", l) for l in sorted(loop_ccw)]
    return tuple(out)


def regions(web: Web) -> tuple[Region, ...]:
    """Every region of ``web`` in normal form, found by scanning its
    faces: ``None``, then the bounded faces of each component, then the
    inside of each loop.  The reference for ``Web.has_region``."""
    faces = web.faces()
    comp_of = {f: web.component_of(f) for f in faces}
    return _region_list(faces, comp_of, web.outer_face, web.loop_ccw)


def validate_by_walks(
    sigma, alpha, out_darts=(), loop_ccw=(), parent=None, outer_face=None
) -> None:
    """Raise ``MalformedWeb`` with the message that ``Web`` raises on the
    same arguments, or return if they describe a valid web.

    The maps are checked first, so that the face and component walks
    that follow end; planarity counts the vertices of each component by
    walking sigma cycles, its edges by alpha and its faces by scanning
    every face, and a parent region must be in the list of regions."""
    sigma, alpha, loop_ccw = dict(sigma), dict(alpha), dict(loop_ccw)
    out = frozenset(out_darts)
    darts = set(sigma)
    if set(alpha) != darts:
        raise MalformedWeb("sigma and alpha must act on the same darts")
    for d in darts:
        if not isinstance(d, int) or d <= 0:
            raise MalformedWeb(f"darts must be positive ints, got {d!r}")
    if sorted(sigma.values()) != sorted(darts):
        raise MalformedWeb("sigma is not a permutation")
    for d in darts:
        a = alpha[d]
        if a == d or a not in darts or alpha[a] != d:
            raise MalformedWeb(f"alpha is not a fixed-point-free involution at {d}")
    for d in darts:
        if sigma[sigma[sigma[d]]] != d or sigma[d] == d:
            raise MalformedWeb(f"sigma cycle through {d} does not have length 3")
        if sigma[sigma[d]] == d:
            raise MalformedWeb(f"sigma cycle through {d} does not have length 3")

    def vertex_of(d: int) -> tuple[int, int, int]:
        a, b, c = d, sigma[d], sigma[sigma[d]]
        while a != min(a, b, c):
            a, b, c = b, c, a
        return (a, b, c)

    faces = _face_orbits(sigma, alpha) if sigma else {}
    comp_of: dict[int, int] = {}
    comps: dict[int, set[int]] = {}
    for start in sorted(sigma):
        if start in comp_of:
            continue
        stack, comp = [start], set()
        while stack:
            d = stack.pop()
            if d not in comp:
                comp.add(d)
                stack += [sigma[d], alpha[d]]
        comps[min(comp)] = comp
        comp_of.update(dict.fromkeys(comp, min(comp)))
    if not out <= darts:
        raise MalformedWeb("out_darts must be a subset of the darts")
    for d in darts:
        if (d in out) != (sigma[d] in out):
            raise MalformedWeb(
                f"vertex of {d} mixes tail and head darts (must be a source or a sink)"
            )
        if (d in out) == (alpha[d] in out):
            raise MalformedWeb(f"edge of {d} needs exactly one tail dart")
        if comp_of[d] == comp_of[alpha[d]] and vertex_of(d) == vertex_of(alpha[d]):
            raise MalformedWeb(f"edge of {d} joins a vertex to itself")
    for l in loop_ccw:
        if not isinstance(l, int) or l >= 0:
            raise MalformedWeb(f"loop ids must be negative ints, got {l!r}")
    for c, comp in comps.items():
        v = sum(1 for d in comp if min(vertex_of(d)) == d)
        e = sum(1 for d in comp if d < alpha[d])
        f = sum(1 for key in faces if comp_of[key] == c)
        if v - e + f != 2:
            raise MalformedWeb(
                f"component {c} has Euler characteristic {v - e + f}, not 2: "
                "the rotation system is not planar"
            )
    outer_face = dict(outer_face) if outer_face is not None else {}
    if set(outer_face) != set(comps):
        raise MalformedWeb("outer_face must assign exactly one face per component")
    for c, f in outer_face.items():
        if f not in faces or comp_of[f] != c:
            raise MalformedWeb(f"outer face {f} is not a face of component {c}")
    if parent is None:
        parent = {k: None for k in [*comps, *loop_ccw]}
    parent = dict(parent)
    if set(parent) != set(comps) | set(loop_ccw):
        raise MalformedWeb("parent must assign a region to every component and loop")
    listed = _region_list(faces, comp_of, outer_face, loop_ccw)
    for k, r in parent.items():
        if r not in listed:
            raise MalformedWeb(f"parent region {r!r} of {k} does not exist")
    for k in parent:
        seen = {k}
        cur = parent[k]
        while cur is not None:
            owner = comp_of[cur[1]] if cur[0] == "face" else cur[1]
            if owner in seen:
                raise MalformedWeb(f"nesting of {k} is cyclic")
            seen.add(owner)
            cur = parent[owner]


def component_bfs_unpruned(sigma, alpha, out, darts) -> tuple[tuple, list[list[int]]]:
    """``web._component_bfs`` without pruning: every head start is
    serialized in full, then compared with the best so far."""
    best = None
    orders: list[list[int]] = []
    for start in sorted(d for d in darts if d not in out):
        label = {start: 0}
        order = [start]
        i = 0
        while i < len(order):
            d = order[i]
            i += 1
            for nb in (sigma[d], alpha[d]):
                if nb not in label:
                    label[nb] = len(order)
                    order.append(nb)
        key = tuple((label[sigma[d]], label[alpha[d]], d in out) for d in order)
        if best is None or key < best:
            best = key
            orders = [order]
        elif key == best:
            orders.append(order)
    if best is None:
        raise MalformedWeb("a dart component has no head dart")
    return best, orders
