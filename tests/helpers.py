"""Hand-built example webs shared across the test suite.

The theta, digon-chain and cube webs are the selftest's reference webs
(``artifact.selftest``); their docstrings give the dart labels.

The conventions match the package: ``sigma`` cycles are counterclockwise
dart orders at vertices, faces are orbits of ``sigma^-1 . alpha`` walked
with their region on the left, and each component names its outer face.
"""

from __future__ import annotations

from artifact.corpus import fixture_diagrams
from artifact.diagram import resolutions
from artifact.selftest import cube_web, digon_chain_web, theta_web  # noqa: F401
from artifact.web import Web


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


#: edges of ``cube_web`` as (tail, head) vertex pairs
CUBE_EDGES = [
    (0, 1), (0, 3), (0, 4),
    (2, 1), (2, 3), (2, 6),
    (5, 1), (5, 4), (5, 6),
    (7, 3), (7, 4), (7, 6),
]


def fixture_webs():
    """Every flattening of every corpus diagram, deduplicated, as
    ``(label, web)`` pairs."""
    webs = {}
    for name, d in sorted(fixture_diagrams().items()):
        for bits in resolutions(d.n_crossings):
            web = d.flatten(bits)
            webs.setdefault(web.exact_key(), (f"{name}:{bits}", web))
    return list(webs.values())


def cube_data(cx):
    """A built cube as plain data for the dense oracles in ``oracles``:
    the shifted quantum degrees by choice vector, and the edge maps."""
    return {bits: v.q_degrees for bits, v in cx.vertices.items()}, cx.edge_maps
