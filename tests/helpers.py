"""Hand-built example webs shared across the test suite.

The conventions match the package: ``sigma`` cycles are counterclockwise
dart orders at vertices, faces are orbits of ``sigma^-1 . alpha`` walked
with their region on the left, and each component names its outer face.
"""

from __future__ import annotations

from artifact.corpus import fixture_diagrams
from artifact.web import Web


def theta_web() -> Web:
    """Two vertices joined by three parallel edges.

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


def theta_with_loop_inside() -> Web:
    """The theta web with a counterclockwise free loop nested in its
    upper bounded face."""
    base = theta_web()
    return Web(
        sigma=base.sigma,
        alpha=base.alpha,
        out_darts=base.out_darts,
        loop_ccw={-1: True},
        parent={1: None, -1: ("face", 1)},
        outer_face={1: 2},
    )


def nested_loops_web() -> Web:
    """A counterclockwise loop containing a clockwise loop."""
    return Web(
        loop_ccw={-1: True, -2: False},
        parent={-1: None, -2: ("inside", -1)},
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

#: edges of the cube graph as (tail, head) vertex pairs
CUBE_EDGES = [
    (0, 1), (0, 3), (0, 4),
    (2, 1), (2, 3), (2, 6),
    (5, 1), (5, 4), (5, 6),
    (7, 3), (7, 4), (7, 6),
]


def _cube_dart(v: int, w: int) -> int:
    return 8 * v + w + 1


def digon_chain_web() -> Web:
    """Four vertices around a square, with the top and bottom sides
    doubled into two-edge faces.

    Sources A (top left) and C (bottom right), sinks B (top right) and
    D (bottom left).  Edges: A->B twice (darts 1/4 outer, 2/5 inner),
    A->D (3/10), C->B (7/6), C->D twice (8/11 inner, 9/12 outer).
    Faces: (2,4) top digon, (3,5,7,11) central square, (8,12) bottom
    digon, (1,6,9,10) outer.
    """
    return Web(
        sigma={2: 1, 1: 3, 3: 2, 4: 5, 5: 6, 6: 4, 7: 8, 8: 9, 9: 7, 11: 10, 10: 12, 12: 11},
        alpha={1: 4, 4: 1, 2: 5, 5: 2, 3: 10, 10: 3, 7: 6, 6: 7, 8: 11, 11: 8, 9: 12, 12: 9},
        out_darts={1, 2, 3, 7, 8, 9},
        parent={1: None},
        outer_face={1: 1},
    )


def cube_web() -> Web:
    """The planar cube graph, all edges oriented from one bipartition
    class to the other.  Every face is four-sided."""
    sigma: dict[int, int] = {}
    alpha: dict[int, int] = {}
    out: set[int] = set()
    for v, nbrs in _CUBE_NEIGHBORS.items():
        cycle = [_cube_dart(v, w) for w in nbrs]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            sigma[a] = b
        for w in nbrs:
            alpha[_cube_dart(v, w)] = _cube_dart(w, v)
            if v in _CUBE_SOURCES:
                out.add(_cube_dart(v, w))
    return Web(
        sigma=sigma,
        alpha=alpha,
        out_darts=out,
        parent={2: None},
        outer_face={2: 4},
    )


def fixture_webs():
    """Every flattening of every corpus diagram, deduplicated, as
    ``(label, web)`` pairs."""
    webs = {}
    for name, d in sorted(fixture_diagrams().items()):
        n = d.n_crossings
        for mask in range(1 << n):
            bits = tuple((mask >> k) & 1 for k in range(n))
            web = d.flatten(bits)
            webs.setdefault(web.exact_key(), (f"{name}:{bits}", web))
    return list(webs.values())


def cube_data(cx):
    """A built cube as plain data for the dense oracles in ``oracles``:
    the shifted quantum degrees by choice vector, and the edge maps."""
    return {bits: v.q_degrees for bits, v in cx.vertices.items()}, cx.edge_maps
