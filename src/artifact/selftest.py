"""Self-verification of the evaluation calculus.

Re-derives, at run time, the identity families that pin every sign
convention in the package:

* the triple-disc table for all small dot counts, with its cyclic
  symmetry and order-reversal antisymmetry;
* closed dotted surfaces (sphere, torus, higher genus);
* five randomized local-relation suites, each run against many
  generated ambient closures: separating-neck surgery with arbitrary
  annulus splits, genus reduction, the symmetric dot relations at a
  singular circle, bubble bursting, and disc removal;
* the five two-edge-face and five four-edge-face identities as exact
  integer matrices on three reference webs;
* the edge-ring relations (vanishing symmetric sums at vertices, cube
  of any dot action) on reference webs.

Every check is an exact integer comparison counted individually; any
mismatch is collected as a failure message, never tolerated.

Each family fills the ``_Collector`` it is given and returns ``None``.
``check_triple_disc_table(col)``, ``check_closed_surfaces(col)``,
``check_digon_identities(col)``, ``check_square_identities(col)`` and
``check_edge_rings(col)`` take only the collector.  The five randomized
families of ``RANDOMIZED_FAMILIES`` take ``(col, rng, closures)``: a
``random.Random`` to draw from and the number of closures to draw.
``run_selftest(closures, seed)`` runs every family, the k-th randomized
one on ``random.Random(seed + k)``, and returns the report.
"""

from __future__ import annotations

import itertools
import random
from typing import List, NamedTuple, Sequence, Tuple

from .algebra import VALUE_EQUALITY, closed_surface_value, theta_symbol
from .foam import (
    FoamMovie,
    PreFoam,
    digon_movies,
    dot_movie,
    evaluate,
    square_split_movies,
)
from .web import Web
from .webhom import StateSpaceError, induced_matrix, state_space

#: A dense integer matrix, as a tuple of rows.
IntMatrix = Tuple[Tuple[int, ...], ...]


class SelfTestReport(NamedTuple):
    """Outcome of a verification run: how many elementary checks ran and
    the messages for any that failed."""

    checks: int
    failures: Tuple[str, ...]

    __eq__, __ne__, __hash__ = VALUE_EQUALITY

    @property
    def passed(self) -> bool:
        return not self.failures


class _Collector:
    def __init__(self) -> None:
        self.checks = 0
        self.failures: List[str] = []

    def expect(self, actual, expected, label: str) -> None:
        self.checks += 1
        if actual != expected:
            self.failures.append(f"{label}: got {actual!r}, expected {expected!r}")

    def report(self) -> SelfTestReport:
        return SelfTestReport(checks=self.checks, failures=tuple(self.failures))


# --------------------------------------------------------------------------
# dense integer matrices
# --------------------------------------------------------------------------


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zero_matrix(rows: int, cols: int) -> IntMatrix:
    return tuple((0,) * cols for _ in range(rows))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a
    )


def mat_add(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a: IntMatrix) -> IntMatrix:
    return tuple(tuple(-x for x in row) for row in a)


def mat_sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return mat_add(a, mat_neg(b))


def mat_power(a: IntMatrix, n: int) -> IntMatrix:
    out = identity_matrix(len(a))
    for _ in range(n):
        out = mat_mul(out, a)
    return out


def dense_induced(movie: FoamMovie) -> IntMatrix:
    """A dense copy of the movie's induced matrix (``induced_matrix``,
    which is sparse), for the dense helpers above."""
    columns = induced_matrix(movie)
    rows = [[0] * len(columns) for _ in range(state_space(movie.end).dim)]
    for j, col in enumerate(columns):
        for k, x in col:
            rows[k][j] = x
    return tuple(map(tuple, rows))


# --------------------------------------------------------------------------
# reference webs
# --------------------------------------------------------------------------


def theta_web() -> Web:
    """Two vertices joined by three parallel edges (two bounded two-edge
    faces).

    Drawn with the source vertex on the left, the sink on the right and
    the three edges (top, center, bottom) all running left to right.
    Darts: 1/2 top edge (sink/source side), 3/4 center, 5/6 bottom.
    Faces: (1,4) upper, (3,6) lower, (2,5) outer.
    """

    return Web(
        sigma={1: 3, 3: 5, 5: 1, 4: 2, 2: 6, 6: 4},
        alpha={1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5},
        out_darts={2, 4, 6},
        parent={1: None},
        outer_face={1: 2},
    )


def digon_chain_web() -> Web:
    """Four vertices around a square whose top and bottom sides are
    doubled, giving two two-edge faces flanking one four-edge face.

    Sources A (top left) and C (bottom right), sinks B (top right) and
    D (bottom left).  Edges: A->B twice (darts 1/4 outer, 2/5 inner),
    A->D (3/10), C->B (7/6), C->D twice (8/11 inner, 9/12 outer).
    Faces: (2,4) top digon, (3,5,7,11) central square, (8,12) bottom
    digon, (1,6,9,10) outer.
    """

    return Web(
        sigma={
            2: 1, 1: 3, 3: 2, 4: 5, 5: 6, 6: 4,
            7: 8, 8: 9, 9: 7, 11: 10, 10: 12, 12: 11,
        },
        alpha={
            1: 4, 4: 1, 2: 5, 5: 2, 3: 10, 10: 3,
            7: 6, 6: 7, 8: 11, 11: 8, 9: 12, 12: 9,
        },
        out_darts={1, 2, 3, 7, 8, 9},
        parent={1: None},
        outer_face={1: 1},
    )


#: counterclockwise neighbor lists of the planar cube graph, drawn as an
#: outer 4-cycle 0,1,2,3 around an inner 4-cycle 4,5,6,7 with spokes.
_CUBE_NEIGHBORS = {
    0: (1, 4, 3),
    1: (2, 5, 0),
    2: (3, 6, 1),
    3: (2, 0, 7),
    4: (5, 7, 0),
    5: (6, 4, 1),
    6: (2, 7, 5),
    7: (6, 3, 4),
}

#: source vertices of the cube web (one bipartition class)
_CUBE_SOURCES = {0, 2, 5, 7}


def cube_web() -> Web:
    """The planar cube graph, edges oriented from one bipartition class
    to the other; every face is four-sided.  The dart at vertex ``v``
    toward its neighbor ``w`` is ``8*v + w + 1``."""

    sigma: dict = {}
    alpha: dict = {}
    out: set = set()
    for v, nbrs in _CUBE_NEIGHBORS.items():
        cycle = [8 * v + w + 1 for w in nbrs]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            sigma[a] = b
        for w in nbrs:
            alpha[8 * v + w + 1] = 8 * w + v + 1
            if v in _CUBE_SOURCES:
                out.add(8 * v + w + 1)
    return Web(
        sigma=sigma, alpha=alpha, out_darts=out, parent={2: None}, outer_face={2: 4}
    )


# --------------------------------------------------------------------------
# small pre-foam helpers
# --------------------------------------------------------------------------


def _prefoam(facets: Sequence[Sequence[int]], circles: Sequence[Sequence[int]]) -> PreFoam:
    return PreFoam(
        facets=tuple((int(g), int(d)) for g, d in facets),
        circles=tuple((int(a), int(b), int(c)) for a, b, c in circles),
    )


def _ev(facets, circles) -> int:
    return evaluate(_prefoam(facets, circles))


def triple_disc(a: int, b: int, c: int) -> PreFoam:
    """Three discs glued along one singular circle, carrying a, b, c
    dots in the circle's cyclic order."""

    return _prefoam([(0, a), (0, b), (0, c)], [(0, 1, 2)])


_DOT_SPLITS = ((2, 0), (1, 1), (0, 2))


def _expected_triple(a: int, b: int, c: int) -> int:
    if sorted((a, b, c)) != [0, 1, 2]:
        return 0
    return 1 if (a, b, c) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1


# --------------------------------------------------------------------------
# check families
# --------------------------------------------------------------------------


def check_triple_disc_table(col: _Collector) -> None:
    """All triple-disc values for dot counts up to three, their cyclic
    symmetry, order-reversal antisymmetry, and agreement with the
    algebraic trace form."""
    for a, b, c in itertools.product(range(4), repeat=3):
        val = evaluate(triple_disc(a, b, c))
        col.expect(val, _expected_triple(a, b, c), f"triple-disc({a},{b},{c})")
        col.expect(val, theta_symbol(a, b, c), f"triple-disc trace form ({a},{b},{c})")
        col.expect(
            evaluate(triple_disc(b, c, a)), val, f"cyclic symmetry ({a},{b},{c})"
        )
        col.expect(
            evaluate(triple_disc(a, c, b)), -val, f"order reversal ({a},{b},{c})"
        )


def check_closed_surfaces(col: _Collector) -> None:
    """Closed connected dotted surfaces through the foam evaluator: the
    twice-dotted sphere is -1, the dotless torus is 3, everything else
    vanishes; agreement with the algebraic trace."""
    for dots in range(6):
        col.expect(
            _ev([(0, dots)], []), -1 if dots == 2 else 0, f"sphere with {dots} dots"
        )
    for dots in range(5):
        col.expect(
            _ev([(1, dots)], []), 3 if dots == 0 else 0, f"torus with {dots} dots"
        )
    for genus in range(2, 6):
        for dots in range(4):
            col.expect(_ev([(genus, dots)], []), 0, f"genus {genus}, {dots} dots")
    for genus in range(6):
        for dots in range(6):
            col.expect(
                _ev([(genus, dots)], []),
                closed_surface_value(genus, dots),
                f"surface trace form (genus {genus}, {dots} dots)",
            )


def _random_closure(rng: random.Random, min_facets: int = 1):
    """A random ambient pre-foam: facets as mutable [genus, dots] pairs
    and singular circles as facet-index triples."""

    n = rng.randint(min_facets, 4)
    facets = [[rng.randint(0, 1), rng.randint(0, 2)] for _ in range(n)]
    circles = [
        tuple(rng.randrange(n) for _ in range(3)) for _ in range(rng.randint(0, 2))
    ]
    return facets, circles


def _with_dots(facets, extra: dict) -> list:
    out = [list(f) for f in facets]
    for i, d in extra.items():
        out[i][1] += d
    return out


def check_surgery(col: _Collector, rng: random.Random, closures: int) -> None:
    """Separating-neck surgery: splitting any facet into two pieces,
    with an arbitrary distribution of its genus, dots and annuli, equals
    minus the sum over the three dot splits."""
    for trial in range(closures):
        facets, circles = _random_closure(rng)
        n = len(facets)
        f = rng.randrange(n)
        g, d = facets[f]
        g1, d1 = rng.randint(0, g), rng.randint(0, d)
        slots = [
            (ci, k) for ci, c in enumerate(circles) for k in range(3) if c[k] == f
        ]
        moved = [s for s in slots if rng.random() < 0.5]
        rhs = 0
        for p, q in _DOT_SPLITS:
            split = [list(x) for x in facets]
            split[f] = [g1, d1 + p]
            split.append([g - g1, d - d1 + q])
            cs = [list(c) for c in circles]
            for ci, k in moved:
                cs[ci][k] = n
            rhs -= _ev(split, cs)
        col.expect(_ev(facets, circles), rhs, f"surgery splice (trial {trial})")


def check_genus_reduction(col: _Collector, rng: random.Random, closures: int) -> None:
    """A handle on any facet equals -3 times the facet with the handle
    removed and two extra dots."""
    for trial in range(closures):
        facets, circles = _random_closure(rng)
        f = rng.randrange(len(facets))
        handled = [list(x) for x in facets]
        handled[f][0] += 1
        col.expect(
            _ev(handled, circles),
            -3 * _ev(_with_dots(facets, {f: 2}), circles),
            f"genus reduction (trial {trial})",
        )


def check_circle_dot_relations(
    col: _Collector, rng: random.Random, closures: int
) -> None:
    """At any singular circle the three elementary symmetric dot sums
    vanish; three dots kill any facet; a circle visiting the same facet
    twice evaluates to zero; nonzero evaluations force zero punctured
    Euler characteristic."""
    for trial in range(closures):
        facets, circles = _random_closure(rng, min_facets=3)
        n = len(facets)
        if not circles:
            circles = [tuple(rng.randrange(n) for _ in range(3))]
        i, j, k = rng.choice(circles)

        def dotted(ei: int, ej: int, ek: int) -> int:
            out = [list(f) for f in facets]
            out[i][1] += ei
            out[j][1] += ej
            out[k][1] += ek
            return _ev(out, circles)

        col.expect(
            dotted(1, 0, 0) + dotted(0, 1, 0) + dotted(0, 0, 1),
            0,
            f"dot sum e1 (trial {trial})",
        )
        col.expect(
            dotted(1, 1, 0) + dotted(1, 0, 1) + dotted(0, 1, 1),
            0,
            f"dot sum e2 (trial {trial})",
        )
        col.expect(dotted(1, 1, 1), 0, f"dot sum e3 (trial {trial})")
        f = rng.randrange(n)
        col.expect(
            _ev(_with_dots(facets, {f: 3}), circles),
            0,
            f"three dots vanish (trial {trial})",
        )
        a, b = rng.sample(range(n), 2)
        col.expect(
            _ev(facets, circles + [(a, a, b)]),
            0,
            f"repeated-facet circle (trial {trial})",
        )
        slots = [0] * n
        for c in circles:
            for x in c:
                slots[x] += 1
        chi = sum(2 - 2 * g - slots[idx] - d for idx, (g, d) in enumerate(facets))
        if chi != 0:
            col.expect(
                _ev(facets, circles), 0, f"nonzero Euler characteristic (trial {trial})"
            )


#: bursting a bubble with (p, q) dots on its two caps, attached to an
#: ambient facet in cyclic order (ambient, cap1, cap2): the resulting
#: multiple of the ambient dot operator (coefficient, extra dots).
BUBBLE_TABLE = {
    (0, 0): None,
    (1, 0): (1, 0),
    (0, 1): (-1, 0),
    (1, 1): None,
    (2, 0): (-1, 1),
    (0, 2): (1, 1),
    (2, 1): (1, 2),
    (1, 2): (-1, 2),
    (2, 2): None,
}


def check_bubble_bursting(col: _Collector, rng: random.Random, closures: int) -> None:
    """A two-cap bubble on a facet reduces to a signed dot multiple of
    that facet, for every cap-dot pattern up to two dots per cap."""
    for trial in range(closures):
        facets, circles = _random_closure(rng)
        n = len(facets)
        f = rng.randrange(n)
        for (p, q), rule in BUBBLE_TABLE.items():
            lhs = _ev(
                facets + [[0, p], [0, q]], circles + [(f, n, n + 1)]
            )
            if rule is None:
                rhs = 0
            else:
                coeff, extra = rule
                rhs = coeff * _ev(_with_dots(facets, {f: extra}), circles)
            col.expect(lhs, rhs, f"bubble ({p},{q}) (trial {trial})")


def check_disc_removal(col: _Collector, rng: random.Random, closures: int) -> None:
    """Removing a disc cap from a singular circle: with the circle in
    cyclic order (disc, A, B), a dotless disc gives dot(A) - dot(B) on
    the sealed remainder; one and two dots on the disc give the shifted
    analogues."""
    for trial in range(closures):
        facets, circles = _random_closure(rng, min_facets=2)
        n = len(facets)
        a, b = rng.sample(range(n), 2)

        def sealed(da: int, db: int) -> int:
            return _ev(_with_dots(facets, {a: da, b: db}), circles)

        def with_disc(disc_dots: int) -> int:
            return _ev(facets + [[0, disc_dots]], circles + [(n, a, b)])

        col.expect(
            with_disc(0), sealed(1, 0) - sealed(0, 1), f"dotless disc (trial {trial})"
        )
        col.expect(
            with_disc(1), sealed(0, 2) - sealed(2, 0), f"one-dot disc (trial {trial})"
        )
        col.expect(
            with_disc(2), sealed(2, 1) - sealed(1, 2), f"two-dot disc (trial {trial})"
        )


# --------------------------------------------------------------------------
# matrix identity suites
# --------------------------------------------------------------------------


def _bounded_faces(web: Web, size: int) -> List[int]:
    outer = set(web.outer_face.values())
    return sorted(
        f
        for f, orbit in web.faces().items()
        if len(orbit) == size and f not in outer
    )


def digon_identity_sites() -> List[Tuple[Web, int]]:
    return [(w, f) for w in (theta_web(), digon_chain_web()) for f in _bounded_faces(w, 2)]


def square_identity_sites() -> List[Tuple[Web, int]]:
    return [(w, f) for w in (digon_chain_web(), cube_web()) for f in _bounded_faces(w, 4)]


def check_digon_identities(col: _Collector) -> None:
    """The five two-edge-face identities, as exact matrices, at every
    bounded two-edge face of the reference webs."""
    for web, face in digon_identity_sites():
        lift_plain, lift_dotted, drop_dotted, drop_plain = digon_movies(web, face)
        small = identity_matrix(state_space(lift_plain.start).dim)
        zero = zero_matrix(len(small), len(small))
        big = identity_matrix(state_space(web).dim)
        where = f"two-edge face {face} of {len(web.sigma) // 3}-vertex web"
        col.expect(
            dense_induced(lift_plain.compose(drop_dotted)), small, f"{where}: drop.lift = 1"
        )
        col.expect(
            mat_neg(dense_induced(lift_dotted.compose(drop_plain))),
            small,
            f"{where}: -drop'.lift' = 1",
        )
        col.expect(
            dense_induced(lift_dotted.compose(drop_dotted)), zero, f"{where}: mixed drop.lift'"
        )
        col.expect(
            dense_induced(lift_plain.compose(drop_plain)), zero, f"{where}: mixed drop'.lift"
        )
        col.expect(
            mat_sub(
                dense_induced(drop_dotted.compose(lift_plain)),
                dense_induced(drop_plain.compose(lift_dotted)),
            ),
            big,
            f"{where}: lift.drop - lift'.drop' = 1",
        )


def check_square_identities(col: _Collector) -> None:
    """The five four-edge-face identities, as exact matrices, at every
    bounded four-edge face of the reference webs."""
    for web, face in square_identity_sites():
        split_first, split_second = square_split_movies(web, face)
        join_first, join_second = split_first.reflect(), split_second.reflect()
        n1 = state_space(split_first.end).dim
        n2 = state_space(split_second.end).dim
        where = f"four-edge face {face} of {len(web.sigma) // 3}-vertex web"
        col.expect(
            dense_induced(join_first.compose(split_first)),
            mat_neg(identity_matrix(n1)),
            f"{where}: split.join (first) = -1",
        )
        col.expect(
            dense_induced(join_second.compose(split_second)),
            mat_neg(identity_matrix(n2)),
            f"{where}: split.join (second) = -1",
        )
        col.expect(
            dense_induced(join_first.compose(split_second)),
            zero_matrix(n2, n1),
            f"{where}: mixed split.join",
        )
        col.expect(
            dense_induced(join_second.compose(split_first)),
            zero_matrix(n1, n2),
            f"{where}: mixed split.join (other)",
        )
        col.expect(
            mat_add(
                dense_induced(split_first.compose(join_first)),
                dense_induced(split_second.compose(join_second)),
            ),
            mat_neg(identity_matrix(state_space(web).dim)),
            f"{where}: join.split sum = -1",
        )


def edge_dot_action(web: Web, site: int) -> IntMatrix:
    """The degree-2 endomorphism placing one dot on the sheet swept by
    ``site`` (a dart of an edge, or a negative free-loop id)."""
    return dense_induced(dot_movie(web, site))


def edge_sites(web: Web) -> List[int]:
    """One dot site per edge (its smaller dart) and per free loop, in
    increasing order."""
    return sorted({min(d, web.alpha[d]) for d in web.out_darts} | set(web.loops))


def vertex_symmetric_actions(
    x1: IntMatrix, x2: IntMatrix, x3: IntMatrix
) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """The three elementary symmetric polynomials in the dot actions
    ``x1, x2, x3`` of the three edges at one vertex.  All three vanish
    on the state space."""
    e1 = mat_add(mat_add(x1, x2), x3)
    x2x3 = mat_mul(x2, x3)
    e2 = mat_add(mat_mul(x1, mat_add(x2, x3)), x2x3)
    e3 = mat_mul(x1, x2x3)
    return e1, e2, e3


def check_edge_ring(web: Web) -> None:
    """Verify the edge-ring relations on the state space: at every
    vertex the elementary symmetric sums of the three incident dot
    actions vanish, and every dot action cubes to zero.  Each edge's
    dot action is computed once."""
    n = state_space(web).dim
    zero = zero_matrix(n, n)
    actions = {site: edge_dot_action(web, site) for site in edge_sites(web)}
    for orbit in web.vertices():
        xs = (actions[min(d, web.alpha[d])] for d in orbit)
        for name, mat in zip("123", vertex_symmetric_actions(*xs)):
            if mat != zero:
                raise StateSpaceError(
                    f"symmetric relation e{name} fails at vertex {orbit}"
                )
    for site, x in actions.items():
        if mat_power(x, 3) != zero:
            raise StateSpaceError(f"dot action at {site} is not nilpotent of order 3")


def check_edge_rings(col: _Collector) -> None:
    """Edge-ring relations on the reference webs: symmetric sums vanish
    at each vertex and every dot action cubes to zero."""
    for web in (theta_web(), digon_chain_web(), cube_web()):
        label = f"web with {len(web.sigma) // 3} vertices, {len(web.loops)} loops"
        col.checks += 1
        try:
            check_edge_ring(web)
        except StateSpaceError as exc:
            col.failures.append(f"edge ring on {label}: {exc}")


# --------------------------------------------------------------------------
# the aggregate run
# --------------------------------------------------------------------------

#: The randomized families: the k-th draws from ``random.Random(seed + k)``.
RANDOMIZED_FAMILIES = (
    check_surgery,
    check_genus_reduction,
    check_circle_dot_relations,
    check_bubble_bursting,
    check_disc_removal,
)


def run_selftest(closures: int, seed: int) -> SelfTestReport:
    """The whole identity suite; report with total check count."""
    col = _Collector()
    check_triple_disc_table(col)
    check_closed_surfaces(col)
    for k, family in enumerate(RANDOMIZED_FAMILIES):
        family(col, random.Random(seed + k), closures)
    check_digon_identities(col)
    check_square_identities(col)
    check_edge_rings(col)
    return col.report()
