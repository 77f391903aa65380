"""State spaces of closed webs and the maps cobordism movies induce.

Every closed web carries a free graded abelian group - its state space -
spanned by "preparation" movies from the empty web.  The basis follows
the web's reduction tree: a free loop contributes a birth carrying zero,
one or two dots (degrees -2, 0, +2); a bounded two-edge face contributes
the plain and dotted lifts through that face (degrees -1, +1); a bounded
four-edge face contributes the reflected split branches of both
rewirings (degree 0).

A state space depends on its web only up to relabeling, so it is
computed once per relabeling class (``StateSpace``), on the class's
canonical web (``Web.canonical``), and kept in ``memo.SPACES`` by that web;
every web of the class is served that space.  A preparation is read
only through the closed-foam pairing, so the space keeps each one as
its half foam (``foam.HalfFoam``) and its degree, not as a movie.
Sub-webs met while reducing are themselves looked up by class.

The closed-surface evaluation pairs two preparations to an integer: it
glues their half foams along the shared web, instead of replaying the
closed movie of one followed by the reflection of the other.  Pairings
are made in batches (``foam.pair_halves``): one call per pairing block,
and one per pushed degree of an induced matrix, evaluates one closed
foam per distinct glued label vector, not one per pair.  A preparation
is a sub-class element followed by one movie, so its half is that
element's half, renamed onto the sub-web by the inverse of the sub-web's
canonical relabeling and extended through the movie
(``foam.extend_halves``), which sweeps the movie once per shape.  The
pairing has degree zero, so it vanishes unless the two degrees cancel
and the Gram matrix is block anti-diagonal by degree: for each degree
``d`` only the square block between the basis elements of degree ``d``
and those of degree ``-d`` is nonzero.  The pairing is symmetric, so
only the blocks of ``d <= 0`` are paired.  Each is unimodular, and is
inverted exactly once per class and then dropped: the Gram matrix is
never assembled, and only the inverses are kept, sparse, as the
nonzero entries of each of their columns.  The matrix induced by
any movie between webs is then obtained by pairing the movie's action
on the source basis against the degree-matched target basis elements
and multiplying by the inverse block through the nonzero pairings
only; a pushed element is only its half, extended the same way.  The
matrix is sparse too (the nonzero entries of each column), and it is
computed once per class of movies and kept in ``memo.INDUCED``; its
key is read off the movie's moves renamed into canonical labels, so a
cached matrix is found without building a movie (see
``induced_matrix``).  On a miss the movie and its slices are relabeled
so that it ends on its end web's canonical web, with no move run
again, and the source halves are extended through the relabeled
movie.  Each block is inverted by the package's one sparse integer
row reduction (``algebra.row_reduce``), which carries an identity
through the same row operations, so the whole path stays in integer
arithmetic and never densifies a block.  A singular or
non-unimodular block is a hard error, never rounded away.
"""

from __future__ import annotations

from math import prod
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from . import memo
from .algebra import row_reduce
from .foam import (
    Birth,
    Death,
    Dot,
    FoamMovie,
    HalfFoam,
    _relabel_move,
    apply_death,
    digon_movies,
    extend_halves,
    half_foam,
    identity_movie,
    new_ids,
    pair_halves,
    square_split_movies,
)
from .web import DigonFace, Empty, FreeLoop, SquareFace, Web, find_reduction

#: A sparse integer matrix: the ``(row, value)`` pairs of each column's
#: nonzero entries, rows increasing.
SparseColumns = Tuple[Tuple[Tuple[int, int], ...], ...]


class StateSpaceError(Exception):
    """Raised when state-space linear algebra loses exactness: a
    singular or non-unimodular pairing, or an induced matrix that fails
    degree homogeneity."""


# ==========================================================================
# state spaces
# ==========================================================================


def _degree_index(degrees: Sequence[int]) -> Dict[int, Tuple[int, ...]]:
    """The basis indices of each degree, in increasing order."""
    index: Dict[int, List[int]] = {}
    for i, d in enumerate(degrees):
        index.setdefault(d, []).append(i)
    return {d: tuple(ix) for d, ix in index.items()}


def _inverse_blocks(
    index: Dict[int, Tuple[int, ...]], blocks: Dict[int, Sequence[Sequence[int]]]
) -> Dict[int, SparseColumns]:
    """The exact inverses of the pairing blocks, sparse.  ``index[d]``
    lists the basis indices of degree ``d``; for each ``d <= 0`` in it,
    ``blocks[d]`` pairs those (rows) with the basis elements of degree
    ``-d`` (columns).  A degree whose count differs from that of its
    opposite, or a block that is singular or has determinant other than
    ±1, raises.  Each block is inverted once, by sparse integer row
    reduction (``algebra.row_reduce``) carrying an identity; the pairing
    is symmetric, so the block of ``d > 0`` is the transpose of that of
    ``-d``, and so is its inverse.  ``inverse[d]`` has one column per
    pairing coordinate ``t`` (the pairing with the ``t``-th basis
    element of degree ``d``) listing its nonzero entries, each row named
    by its basis index, one of degree ``-d``."""
    for d, rows in index.items():
        cols = index.get(-d, ())
        if len(cols) != len(rows):
            raise StateSpaceError(
                f"pairing matrix is singular: {len(rows)} basis elements of "
                f"degree {d} against {len(cols)} of degree {-d}"
            )
    out: Dict[int, SparseColumns] = {}
    for d, block in blocks.items():
        rows, cols = index[d], index[-d]
        reduced = [{c: x for c, x in enumerate(row) if x} for row in block]
        ops: List[Dict[int, int]] = [{r: 1} for r in range(len(block))]
        pivots = row_reduce(reduced, ops)
        if len(pivots) < len(block):
            raise StateSpaceError("pairing matrix is singular")
        # the pivots multiply to the determinant up to sign; unit pivots
        # leave each row r the signed unit vector at its pivot column c,
        # so row c of the inverse is that sign times ``ops[r]``
        det = prod(abs(reduced[r][c]) for r, c in pivots)
        if det != 1:
            raise StateSpaceError(f"pairing matrix has determinant ±{det}, not ±1")
        inv = [
            {t: reduced[r][c] * x for t, x in ops[r].items()}
            for r, c in sorted(pivots, key=lambda rc: rc[1])
        ]
        # inv[k] holds the entries (t, x) of row k, k counting ``cols``
        # and t counting ``rows``
        by_column: List[List[Tuple[int, int]]] = [[] for _ in rows]
        for k, row in zip(cols, inv):
            for t, x in row.items():
                by_column[t].append((k, x))
        out[d] = tuple(map(tuple, by_column))
        if d:
            out[-d] = tuple(
                tuple((rows[t], x) for t, x in sorted(row.items())) for row in inv
            )
    return out


class StateSpace(NamedTuple):
    """The graded state space of one relabeling class of closed webs, on
    the class's canonical web (``Web.canonical``): the half foam and the
    degree of each preparation, and the inverses of the pairing blocks.
    A preparation is read only through its half, so no movie is kept,
    and the pairing only through those inverses, so no Gram matrix is
    kept.

    ``index[d]`` lists the basis indices of degree ``d``; ``inverse[d]``
    is the exact inverse of the block pairing ``index[d]`` (rows) with
    ``index[-d]`` (columns), the only nonzero block in those rows, kept
    only sparse: for each pairing coordinate ``t`` (the basis element
    ``index[d][t]``), the nonzero entries ``(k, value)`` of its column,
    ``k`` in ``index[-d]``.  Together they solve ``G @ X = R`` for the
    Gram matrix ``G``: ``X[k]`` is the sum of ``value * R[index[d][t]]``
    over the entries ``(k, value)`` of every column ``t``.  Each block
    is inverted exactly by sparse integer elimination
    (``_inverse_blocks``).

    Nothing compares or hashes a state space (its dict fields would make
    ``hash`` raise): ``memo.SPACES`` stores each under its web's key."""

    halves: Tuple[HalfFoam, ...]
    degrees: Tuple[int, ...]
    index: Dict[int, Tuple[int, ...]]
    inverse: Dict[int, SparseColumns]

    @property
    def dim(self) -> int:
        return len(self.degrees)


def _extended(mapping: Dict[int, int], ids: Iterable[int], step: int) -> Dict[int, int]:
    """``mapping`` extended to ``ids``: each id it leaves out, in the
    given order, goes to the next id past all of its values, counting up
    for ``step`` 1 (darts) and down for ``step`` -1 (loops)."""
    out = dict(mapping)
    edge = max((step * v for v in out.values()), default=0)
    for x in ids:
        if x not in out:
            edge += 1
            out[x] = step * edge
    return out


def _extended_basis(
    sub_web: Web, *thens: FoamMovie
) -> Tuple[List[HalfFoam], List[int]]:
    """The halves and degrees of each basis element of ``sub_web``
    followed by each of ``thens``: the class halves, renamed onto
    ``sub_web``, are extended through each movie, so no preparation is
    swept from the empty web."""
    sub = state_space(sub_web)
    _, dart_map, loop_map = sub_web.canonical()
    to_darts = {c: d for d, c in dart_map.items()}
    to_loops = {c: l for l, c in loop_map.items()}
    grown = [extend_halves(sub.halves, then, to_darts, to_loops) for then in thens]
    halves = [h for hs in zip(*grown) for h in hs]
    degrees = [d + then.degree() for d in sub.degrees for then in thens]
    return halves, degrees


def _preparations(web: Web) -> Tuple[List[HalfFoam], List[int]]:
    reduction = find_reduction(web)
    if isinstance(reduction, Empty):
        return [half_foam(identity_movie(web))], [0]
    if isinstance(reduction, FreeLoop):
        lid = reduction.loop_id
        birth = Birth(lid, web.parent[lid], web.loop_ccw[lid])
        smaller = apply_death(web, Death(lid))
        grow = [(birth,) + (Dot(lid),) * dots for dots in range(3)]
        # the birth undoes the death, so every later slice is ``web``
        movies = [FoamMovie(smaller, m, [smaller] + [web] * len(m)) for m in grow]
        return _extended_basis(smaller, *movies)
    if isinstance(reduction, DigonFace):
        lift_plain, lift_dotted, _, _ = digon_movies(web, reduction.face)
        return _extended_basis(lift_plain.start, lift_plain, lift_dotted)
    if isinstance(reduction, SquareFace):
        halves, degrees = [], []
        for branch in square_split_movies(web, reduction.face):
            more, shifted = _extended_basis(branch.end, branch.reflect())
            halves += more
            degrees += shifted
        return halves, degrees
    raise StateSpaceError(f"unhandled reduction {reduction!r}")


def _class_space(web: Web) -> StateSpace:
    """The state space of a canonical web, computed from scratch."""
    halves, degrees = _preparations(web)
    index = _degree_index(degrees)
    blocks = {
        d: pair_halves(
            [halves[j] for j in rows], [halves[k] for k in index.get(-d, ())]
        )
        for d, rows in index.items()
        if d <= 0
    }
    return StateSpace(
        halves=tuple(halves),
        degrees=tuple(degrees),
        index=index,
        inverse=_inverse_blocks(index, blocks),
    )


def state_space(web: Web) -> StateSpace:
    """The state space of a closed web: that of its relabeling class,
    computed once, on the class's canonical web; see ``StateSpace``."""
    canonical = web.canonical()[0]
    key = canonical.exact_key()
    space = memo.SPACES.get(key)
    if space is None:
        space = memo.SPACES[key] = _class_space(canonical)
    return space


def _renamed_moves(
    movie: FoamMovie, darts: Dict[int, int], loops: Dict[int, int]
) -> tuple:
    """The moves of ``movie`` with darts renamed by ``darts`` and loops
    by ``loops``, ids absent from a map kept; each move's regions and
    component keys are read in the slice it starts from."""
    dmap = lambda d: darts.get(d, d)
    lmap = lambda l: loops.get(l, l)
    return tuple(
        _relabel_move(mv, w, dmap, lmap) for mv, w in zip(movie.moves, movie.states())
    )


def induced_matrix(movie: FoamMovie) -> SparseColumns:
    """The integer matrix of the movie's action, from the preparation
    basis of its start web to that of its end web, sparse.  Homogeneous
    of the movie's degree; columns index the source basis, rows the
    target basis.

    The matrix is computed once per key: the start web's canonical
    web, the moves renamed into its canonical labels (the ids the moves
    create numbered on past them, in the order the moves create them),
    and the relative relabeling of the renamed end web onto its own
    canonical web.  The last part keeps apart movies whose end bases
    differ by an automorphism of the end web.  The key is read off the
    movie's moves and slices, so a hit builds no movie and renames no
    web.  On a miss the movie is renamed onto labels that send its end
    web to its canonical web, its slices renamed with it, so no move is
    run again, and the source halves are extended through it
    (``_class_matrix``)."""
    canonical, dart_map, loop_map = movie.start.canonical()
    created = [new_ids(mv) for mv in movie.moves]
    to_darts = _extended(dart_map, (d for darts, _ in created for d in darts), 1)
    to_loops = _extended(loop_map, (l for _, loops in created for l in loops), -1)
    _, end_darts, end_loops = movie.end.canonical()
    rel_darts = {to_darts[d]: c for d, c in end_darts.items()}
    rel_loops = {to_loops[l]: c for l, c in end_loops.items()}
    key = (
        canonical.exact_key(),
        _renamed_moves(movie, to_darts, to_loops),
        tuple(sorted(rel_darts.items())),
        tuple(sorted(rel_loops.items())),
    )
    out = memo.INDUCED.get(key)
    if out is None:
        # every id on some slice of the movie, its start web's included,
        # renamed so that the end web's ids go to its canonical ones
        states = movie.states()
        darts = sorted({d for w in states for d in w.sigma})
        loops = sorted({l for w in states for l in w.loop_ccw}, reverse=True)
        darts = _extended(end_darts, darts, 1)
        loops = _extended(end_loops, loops, -1)
        slices = [w.relabeled(darts, loops) for w in states]
        run = FoamMovie(slices[0], _renamed_moves(movie, darts, loops), slices)
        out = memo.INDUCED[key] = _class_matrix(
            run,
            state_space(movie.start),
            state_space(movie.end),
            {c: darts[d] for d, c in dart_map.items()},
            {c: loops[l] for l, c in loop_map.items()},
        )
    return out


def _class_matrix(
    run: FoamMovie,
    src: StateSpace,
    dst: StateSpace,
    start_darts: Dict[int, int],
    start_loops: Dict[int, int],
) -> SparseColumns:
    """The matrix of ``run``, a movie from a relabeling of the canonical
    web of ``src`` to the canonical web of ``dst``, computed from
    scratch: each source basis element is pushed through the movie,
    paired against the degree-matched target basis and multiplied by
    the inverse Gram block, through its nonzero pairings only.  A pushed
    element is only its half: the source half, renamed onto the run's
    start web by ``start_darts`` and ``start_loops``, extended through
    the run.  Every nonzero entry is checked to have the degree the
    movie gives it."""
    shift = run.degree()
    # the pushed element has degree e, so it pairs only with the target
    # basis of degree -e, and its image lies in degree e
    pushed = [j for j, d in enumerate(src.degrees) if -(d + shift) in dst.index]
    halves = [src.halves[j] for j in pushed]
    halves = extend_halves(halves, run, start_darts, start_loops)
    by_degree: Dict[int, list] = {}
    for j, half in zip(pushed, halves):
        by_degree.setdefault(src.degrees[j] + shift, []).append((j, half))
    columns: List[Tuple[Tuple[int, int], ...]] = [()] * src.dim
    for e, group in by_degree.items():
        targets = [dst.halves[k] for k in dst.index[-e]]
        inverse = dst.inverse[-e]
        block = pair_halves([half for _, half in group], targets)
        for (j, _), rhs in zip(group, block):
            col: Dict[int, int] = {}
            for x, entries in zip(rhs, inverse):
                if x:
                    for k, v in entries:
                        col[k] = col.get(k, 0) + x * v
            columns[j] = tuple(sorted((k, v) for k, v in col.items() if v))
    for j, col in enumerate(columns):
        for k, x in col:
            if dst.degrees[k] != src.degrees[j] + shift:
                raise StateSpaceError(
                    f"induced matrix entry ({k}, {j}) breaks degree "
                    f"homogeneity: {dst.degrees[k]} != {src.degrees[j]} + {shift}"
                )
    return tuple(columns)
