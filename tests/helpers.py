"""Hand-built example webs shared across the test suite.

The theta, digon-chain and cube webs are the selftest's reference webs
(``artifact.selftest``); their docstrings give the dart labels.

The conventions match the package: ``sigma`` cycles are counterclockwise
dart orders at vertices, faces are orbits of ``sigma^-1 . alpha`` walked
with their region on the left, and each component names its outer face.
"""

from __future__ import annotations

import hashlib

from artifact import foam
from artifact.algebra import LaurentPoly
from artifact.corpus import fixture_diagrams
from artifact.diagram import resolution_edge_movie, resolutions
from artifact.selftest import cube_web, digon_chain_web, theta_web  # noqa: F401
from artifact.web import Web
from artifact.webhom import induced_matrix, state_space

from .oracles import poly_items, run_movie


def web_from_json_dict(data) -> Web:
    """Read back the dict ``Web.to_json_dict`` writes.

    The package only writes this format (``--dump-webs``); this reader
    lets tests check that the written form determines the web."""
    sigma: dict[int, int] = {}
    for a, b, c in data["rotations"]:
        sigma[a], sigma[b], sigma[c] = b, c, a
    alpha: dict[int, int] = {}
    for a, b in data["pairings"]:
        alpha[a], alpha[b] = b, a
    return Web(
        sigma=sigma,
        alpha=alpha,
        out_darts=set(data["orientations"]),
        loop_ccw={l["id"]: l["ccw"] for l in data["loops"]},
        parent={
            int(k): None if r is None else (r[0], r[1])
            for k, r in data["nesting"].items()
        },
        outer_face={int(c): f for c, f in data["outer_faces"].items()},
    )


_MOVE_TYPES = {
    t.__name__: t for t in (foam.Birth, foam.Death, foam.Dot, foam.Zip, foam.Unzip)
}


def move_from_json_dict(data) -> foam.Move:
    """Read back the dict ``foam.move_to_json`` writes."""
    t = _MOVE_TYPES[data["type"]]
    kwargs = {}
    for name in t._fields:
        v = data[name]
        if name == "region":
            v = None if v is None else (v[0], v[1])
        elif name == "children_to_sink":
            v = frozenset(v)
        elif name == "labels":
            v = tuple(v)
        kwargs[name] = v
    return t(**kwargs)


def movie_from_json_dict(data) -> foam.FoamMovie:
    """Read back the dict ``FoamMovie.to_json_dict`` writes (the
    ``--dump-foams`` entries), checking its frame checksums against the
    slices ``oracles.run_movie`` makes by surgery, zips included."""
    movie = run_movie(
        web_from_json_dict(data["start"]),
        tuple(move_from_json_dict(m) for m in data["moves"]),
    )
    sums = [hashlib.md5(w.exact_key().encode()).hexdigest() for w in movie.states()]
    assert sums == data["frame_checksums"], "movie frame checksums do not match"
    return movie


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


def at_one(p) -> int:
    """A Laurent polynomial at ``q = 1``: the sum of its coefficients."""
    return sum(c for _, c in poly_items(p))


def component_count(d) -> int:
    """The number of link components of a diagram, free loops included.

    Read straight off the PD code: at ``X(a, b, c, d)`` arcs ``a`` and
    ``c`` are one strand, and so are ``b`` and ``d``."""
    parent = {a: a for x in d.crossings for a in x}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for a, b, c, e in d.crossings:
        parent[find(a)] = find(c)
        parent[find(b)] = find(e)
    return len({find(a) for a in parent}) + d.free_loops


def graded_dimension(space) -> LaurentPoly:
    """The graded rank of a state space: one ``q^d`` per basis element
    of degree ``d``."""
    total = LaurentPoly.zero()
    for deg in space.degrees:
        total = total + LaurentPoly.monomial(deg)
    return total


def free_ranks(h) -> dict:
    """The nonzero free ranks of a homology table, by bidegree."""
    return {(i, j): r for i, j, r, _t in h.entries if r}


def fixture_webs():
    """Every flattening of every corpus diagram, deduplicated, as
    ``(label, web)`` pairs."""
    webs = {}
    for name, d in sorted(fixture_diagrams().items()):
        for bits in resolutions(d.n_crossings):
            web = d.flatten(bits)
            webs.setdefault(web.exact_key(), (f"{name}:{bits}", web))
    return list(webs.values())


def dense(columns, n_rows: int) -> tuple:
    """A sparse matrix with ``n_rows`` rows (``webhom.SparseColumns``:
    the ``(row, value)`` pairs of each column) as a dense tuple of
    rows."""
    rows = [[0] * len(columns) for _ in range(n_rows)]
    for j, col in enumerate(columns):
        for k, x in col:
            rows[k][j] = x
    return tuple(map(tuple, rows))


def cube_data(d):
    """The signed resolution cube of a diagram as plain data for the
    dense oracles in ``oracles``: the shifted quantum degrees by choice
    vector (``3*p_minus - 2*p_plus - |bits|`` added to each state-space
    degree), and the edge maps, densified.  Built from ``state_space``,
    ``induced_matrix`` and ``resolution_edge_movie`` alone, apart from
    the package's own walk in ``cube.differential_blocks``, and in its
    order: vertices by weight, then crossing."""
    cube = sorted(resolutions(d.n_crossings), key=sum)
    q_degrees = {
        bits: tuple(
            q + 3 * d.negative_count - 2 * d.positive_count - sum(bits)
            for q in state_space(d.flatten(bits)).degrees
        )
        for bits in cube
    }
    return q_degrees, {
        (bits, c): dense(
            induced_matrix(resolution_edge_movie(d, bits, c)),
            len(q_degrees[bits[:c] + (1,) + bits[c + 1 :]]),
        )
        for bits in cube
        for c in range(d.n_crossings)
        if bits[c] == 0
    }


def braid_pd(word) -> str:
    """The PD code of the closure of a braid word: letter ``i`` is the
    generator sigma_i, ``-i`` its inverse, on ``max |i| + 1`` strands.

    The strands start with labels ``1..s`` at positions ``1..s``.  Each
    letter takes the labels ``a, b`` at positions ``i, i + 1`` and two
    fresh labels ``n, n + 1``, writes ``X(a,b,n+1,n)`` for sigma_i and
    ``X(b,n+1,n,a)`` for its inverse, and puts ``n, n + 1`` at positions
    ``i, i + 1``.  The labels left at positions ``1..s`` are then renamed
    to ``1..s``, which closes the braid.  A word whose letters skip a
    generator ``i`` closes to the split union of the strands on either
    side of it.  A strand that no letter touches would be a split
    unknot, which a PD code cannot carry, so such a word raises
    ``ValueError``.
    """
    strands = max(abs(x) for x in word) + 1
    if {abs(x) + k for x in word for k in (0, 1)} != set(range(1, strands + 1)):
        raise ValueError(f"a strand of {word} is not touched")
    pos = list(range(1, strands + 1))
    crossings = []
    n = strands + 1
    for x in word:
        i = abs(x) - 1
        a, b = pos[i], pos[i + 1]
        crossings.append((a, b, n + 1, n) if x > 0 else (b, n + 1, n, a))
        pos[i], pos[i + 1] = n, n + 1
        n += 2
    rename = {label: k for k, label in enumerate(pos, 1)}
    return " ".join(
        "X({})".format(",".join(str(rename.get(a, a)) for a in x))
        for x in crossings
    )
