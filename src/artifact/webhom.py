"""State spaces of closed webs and the maps cobordism movies induce.

Every closed web carries a free graded abelian group - its state space -
with an explicit basis of "preparation" movies from the empty web.  The
basis follows the web's reduction tree: a free loop contributes a birth
carrying zero, one or two dots (degrees -2, 0, +2); a bounded two-edge
face contributes the plain and dotted lifts through that face (degrees
-1, +1); a bounded four-edge face contributes the reflected split
branches of both rewirings (degree 0).

A state space depends on its web only up to relabeling, so it is
computed once per relabeling class (``ClassSpace``), on the class's
canonical web (``Web.canonical``), and kept in ``_SPACES`` by that web.
The basis of any other web of the class is the class basis renamed by
the inverse of the web's canonical relabeling (``FoamMovie.relabeled``),
element by element, so it shares the class's degrees, Gram matrix and
inverse blocks.  Sub-webs met while reducing are themselves looked up
by class.

The closed-surface evaluation pairs two preparations to an integer: it
glues their half foams along the shared web, instead of replaying the
closed movie of one followed by the reflection of the other.  Pairings
are made in batches (``foam.pair_halves``): one call per Gram block,
and one per pushed degree of an induced matrix, evaluates one closed
foam per distinct glued label vector, not one per pair.  A preparation
is a sub-class element followed by one movie, so its half is that
element's half, renamed onto the sub-web and extended through the movie
(``foam.extend_halves``), which sweeps the movie once per shape.  The pairing has degree zero, so it vanishes unless the two
degrees cancel and the Gram matrix is block anti-diagonal by degree:
for each degree ``d`` only the square block between the basis elements
of degree ``d`` and those of degree ``-d`` is nonzero.  Each such block
is unimodular and is inverted exactly once per class.  The matrix
induced by any movie between webs is then obtained by pairing the
movie's action on the source basis against the degree-matched target
basis elements and multiplying by the inverse block: an integer
product; a pushed element is only its half, extended the same way.  The
matrix too is computed once per class of movies and kept in
``_INDUCED``; see ``induced_matrix`` for the key.  The blocks are
inverted through their Smith normal form (``algebra.smith_form``), so
the whole path stays in integer arithmetic.  A singular or
non-unimodular block is a hard error, never rounded away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from operator import mul
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .algebra import smith_form
from .foam import (
    Birth,
    Death,
    Dot,
    FoamMovie,
    apply_move,
    digon_movies,
    extend_halves,
    identity_movie,
    new_ids,
    pair_halves,
    square_split_movies,
)
from .web import DigonFace, Empty, FreeLoop, SquareFace, Web, find_reduction

IntMatrix = Tuple[Tuple[int, ...], ...]

#: Reduction trace nodes: ("empty",), ("loop", loop_id, sub),
#: ("digon", face, sub), ("square", face, sub_first, sub_second).
Trace = tuple


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
    degrees: Sequence[int], gram: Sequence[Sequence[int]]
) -> Dict[int, IntMatrix]:
    """For each degree ``d``, the exact inverse of the Gram block whose
    rows are the basis elements of degree ``d`` and whose columns are
    those of degree ``-d``.  A block that is not square, is singular or
    has determinant other than ±1 raises.  The Gram matrix is symmetric,
    so the block of ``-d`` is the transpose of that of ``d``, and so is
    its inverse.  Each block is inverted through its Smith normal form
    (``algebra.smith_form``)."""
    index = _degree_index(degrees)
    out: Dict[int, IntMatrix] = {}
    for d, rows in index.items():
        cols = index.get(-d, ())
        if len(cols) != len(rows):
            raise StateSpaceError(
                f"pairing matrix is singular: {len(rows)} basis elements of "
                f"degree {d} against {len(cols)} of degree {-d}"
            )
        if -d in out:
            out[d] = tuple(zip(*out[-d]))
            continue
        block = [[gram[r][c] for c in cols] for r in rows]
        # p @ block @ q is diagonal; unimodular means that diagonal is
        # the identity, and then the inverse is q @ p
        diag, p, q = smith_form(block)
        if len(diag) < len(rows):
            raise StateSpaceError("pairing matrix is singular")
        if diag[-1] != 1:
            raise StateSpaceError(
                f"pairing matrix has determinant ±{prod(diag)}, not ±1"
            )
        out[d] = tuple(tuple(sum(map(mul, row, col)) for col in zip(*p)) for row in q)
    return out


@dataclass(frozen=True)
class ClassSpace:
    """The state space of one relabeling class of webs, on the class's
    canonical web (``Web.canonical``): the preparation basis, basis
    degrees, reduction trace and pairing matrix.

    ``index[d]`` lists the basis indices of degree ``d``; ``inverse[d]``
    is the exact inverse of the Gram block ``gram[index[d]][index[-d]]``,
    the only nonzero block in those rows.  Together they solve
    ``gram @ X = R`` as ``X[index[-d]] = inverse[d] @ R[index[d]]``.
    The trace names each reduction site in the canonical labels of the
    class it reduces.  ``loops`` are the loop ids some basis movie uses,
    the web's own and those it births and zips away, so that a
    relabeling can send the latter clear of the web.  (Basis movies
    never delete a dart, so their darts are the web's.)"""

    web: Web
    basis: Tuple[FoamMovie, ...]
    degrees: Tuple[int, ...]
    trace: Trace
    gram: IntMatrix
    index: Dict[int, Tuple[int, ...]] = field(compare=False, repr=False)
    inverse: Dict[int, IntMatrix] = field(compare=False, repr=False)
    loops: FrozenSet[int] = field(compare=False, repr=False)


class StateSpace:
    """The graded state space of a closed web: the space of its
    relabeling class, with the class basis moved onto the web.

    Degrees, trace, Gram matrix and inverse blocks are the class's.
    The basis is the class basis renamed, element by element and in the
    same order, by the inverse of the web's canonical relabeling; it is
    built on first use."""

    __slots__ = ("web", "space", "_basis")

    def __init__(self, web: Web, space: ClassSpace) -> None:
        self.web = web
        self.space = space
        self._basis: Optional[Tuple[FoamMovie, ...]] = None

    def renaming(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """The dart and loop maps that move the class basis onto this
        web; loops the web lacks go past its own."""
        _, dart_map, loop_map = self.web.canonical()
        to_loops = _extended(
            {c: l for l, c in loop_map.items()},
            sorted(self.space.loops, reverse=True),
            -1,
        )
        return {c: d for d, c in dart_map.items()}, to_loops

    @property
    def basis(self) -> Tuple[FoamMovie, ...]:
        if self._basis is None:
            to_darts, to_loops = self.renaming()
            memo: dict = {}
            self._basis = tuple(
                b.relabeled(to_darts, to_loops, memo) for b in self.space.basis
            )
        return self._basis

    @property
    def degrees(self) -> Tuple[int, ...]:
        return self.space.degrees

    @property
    def trace(self) -> Trace:
        return self.space.trace

    @property
    def gram(self) -> IntMatrix:
        return self.space.gram

    @property
    def index(self) -> Dict[int, Tuple[int, ...]]:
        return self.space.index

    @property
    def inverse(self) -> Dict[int, IntMatrix]:
        return self.space.inverse

    @property
    def dim(self) -> int:
        return len(self.space.degrees)


#: One state space per relabeling class, by canonical web.
_SPACES: Dict[str, ClassSpace] = {}
#: One induced matrix per class of movies; see ``induced_matrix``.
_INDUCED: Dict[tuple, IntMatrix] = {}


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


def _movie_ids(movies: Iterable[FoamMovie]) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """Every dart and every loop id on some slice of the movies."""
    darts: set = set()
    loops: set = set()
    seen: set = set()
    for m in movies:
        for w in m.states():
            if id(w) not in seen:
                seen.add(id(w))
                darts.update(w.sigma)
                loops.update(w.loop_ccw)
    return frozenset(darts), frozenset(loops)


def _extended_basis(sub: StateSpace, *thens: FoamMovie) -> List[FoamMovie]:
    """Each basis element of ``sub`` followed by each of ``thens``, with
    its half extended from the class basis element's, renamed onto the
    web of ``sub``: no preparation is swept from the empty web."""
    grown = []
    halves, maps = [b.half() for b in sub.space.basis], sub.renaming()
    for then in thens:
        extended = extend_halves(halves, then, *maps)
        grown.append([b.compose(then, h) for b, h in zip(sub.basis, extended)])
    return [m for ms in zip(*grown) for m in ms]


def _preparations(web: Web) -> Tuple[Tuple[FoamMovie, ...], Trace]:
    reduction = find_reduction(web)
    if isinstance(reduction, Empty):
        return (identity_movie(web),), ("empty",)
    if isinstance(reduction, FreeLoop):
        lid = reduction.loop_id
        region = web.parent[lid]
        ccw = web.loop_ccw[lid]
        smaller, _ = apply_move(web, Death(lid))
        sub = state_space(smaller)
        grow = [(Birth(lid, region, ccw),) + (Dot(lid),) * dots for dots in range(3)]
        out = _extended_basis(sub, *(FoamMovie(smaller, moves) for moves in grow))
        return tuple(out), ("loop", lid, sub.trace)
    if isinstance(reduction, DigonFace):
        face = reduction.face
        lift_plain, lift_dotted, _, _ = digon_movies(web, face)
        sub = state_space(lift_plain.start)
        out = _extended_basis(sub, lift_plain, lift_dotted)
        return tuple(out), ("digon", face, sub.trace)
    if isinstance(reduction, SquareFace):
        face = reduction.face
        first, second = square_split_movies(web, face)
        traces = []
        out = []
        for branch in (first, second):
            sub = state_space(branch.end)
            traces.append(sub.trace)
            out.extend(_extended_basis(sub, branch.reflect()))
        return tuple(out), ("square", face, traces[0], traces[1])
    raise StateSpaceError(f"unhandled reduction {reduction!r}")


def pair_movies(u: FoamMovie, v: FoamMovie) -> int:
    """The closed evaluation of u glued to the reflection of v.  Both
    movies must start at the empty web and end at the same web; end webs
    that differ raise ``MalformedMovie``.  The value vanishes unless the
    degrees cancel.  It is the one-by-one case of ``foam.pair_halves``
    on the two movies' halves; a class basis movie's half is extended,
    any other swept once."""
    if u.degree() + v.degree() != 0:
        return 0
    return pair_halves([u.half()], [v.half()])[0][0]


def _class_space(web: Web) -> ClassSpace:
    """The state space of a canonical web, computed from scratch."""
    basis, trace = _preparations(web)
    degrees = tuple(b.degree() for b in basis)
    index = _degree_index(degrees)
    n = len(basis)
    halves = [b.half() for b in basis]
    gram_rows = [[0] * n for _ in range(n)]
    for d, rows in index.items():
        if d > 0:
            continue
        cols = index.get(-d, ())
        block = pair_halves([halves[j] for j in rows], [halves[k] for k in cols])
        for j, values in zip(rows, block):
            for k, val in zip(cols, values):
                gram_rows[j][k] = gram_rows[k][j] = val
    gram = tuple(map(tuple, gram_rows))
    return ClassSpace(
        web=web,
        basis=basis,
        degrees=degrees,
        trace=trace,
        gram=gram,
        index=index,
        inverse=_inverse_blocks(degrees, gram),
        loops=_movie_ids(basis)[1],
    )


def _class_of(web: Web) -> ClassSpace:
    canonical = web.canonical()[0]
    key = canonical.exact_key()
    space = _SPACES.get(key)
    if space is None:
        space = _SPACES[key] = _class_space(canonical)
    return space


def state_space(web: Web) -> StateSpace:
    """The state space of a closed web; see ``StateSpace``."""
    return StateSpace(web, _class_of(web))


def induced_matrix(movie: FoamMovie) -> IntMatrix:
    """The integer matrix of the movie's action, from the preparation
    basis of its start web to that of its end web.  Homogeneous of the
    movie's degree; columns index the source basis.

    The matrix is computed once per key: the start web's canonical
    web, the movie carried into its canonical labels (the ids the moves
    create numbered on past them, in the order the moves create them),
    and the relative relabeling of the carried end web onto its own
    canonical web.  The last part keeps apart movies whose end bases
    differ by an automorphism of the end web."""
    canonical, dart_map, loop_map = movie.start.canonical()
    created = [new_ids(mv) for mv in movie.moves]
    to_darts = _extended(dart_map, (d for darts, _ in created for d in darts), 1)
    to_loops = _extended(loop_map, (l for _, loops in created for l in loops), -1)
    carried = movie.relabeled(to_darts, to_loops)
    _, end_darts, end_loops = movie.end.canonical()
    rel_darts = {to_darts[d]: c for d, c in end_darts.items()}
    rel_loops = {to_loops[l]: c for l, c in end_loops.items()}
    key = (
        canonical.exact_key(),
        carried.moves,
        tuple(sorted(rel_darts.items())),
        tuple(sorted(rel_loops.items())),
    )
    out = _INDUCED.get(key)
    if out is None:
        out = _INDUCED[key] = _class_matrix(
            carried, _class_of(movie.start), _class_of(movie.end), rel_darts, rel_loops
        )
    return out


def _class_matrix(
    movie: FoamMovie,
    src: ClassSpace,
    dst: ClassSpace,
    rel_darts: Dict[int, int],
    rel_loops: Dict[int, int],
) -> IntMatrix:
    """The matrix of ``movie``, which starts at the canonical web of
    ``src``, computed from scratch: each source basis element is pushed
    through the movie, renamed by the relative relabeling onto the
    canonical web of ``dst``, paired against the degree-matched target
    basis and multiplied by the inverse Gram block.  A pushed element is
    only its half, extended through the renamed movie."""
    # the pushed elements use the ids of the source basis and of the movie
    darts, loops = _movie_ids((movie,))
    to_darts = _extended(rel_darts, sorted(darts), 1)
    to_loops = _extended(rel_loops, sorted(src.loops | loops, reverse=True), -1)
    shift = movie.degree()
    # the pushed element has degree e, so it pairs only with the target
    # basis of degree -e, and its image lies in degree e
    pushed = [j for j, d in enumerate(src.degrees) if -(d + shift) in dst.index]
    carried = movie.relabeled(to_darts, to_loops)
    halves = [src.basis[j].half() for j in pushed]
    halves = extend_halves(halves, carried, to_darts, to_loops)
    by_degree: Dict[int, list] = {}
    for j, half in zip(pushed, halves):
        by_degree.setdefault(src.degrees[j] + shift, []).append((j, half))
    cols = [[0] * len(dst.basis) for _ in src.basis]
    for e, group in by_degree.items():
        targets = [dst.basis[k].half() for k in dst.index[-e]]
        block = pair_halves([half for _, half in group], targets)
        for (j, _), rhs in zip(group, block):
            for k, inv_row in zip(dst.index[e], dst.inverse[-e]):
                cols[j][k] = sum(map(mul, inv_row, rhs))
    out = tuple(tuple(col[k] for col in cols) for k in range(len(dst.basis)))
    for k, row in enumerate(out):
        for j, x in enumerate(row):
            if x and dst.degrees[k] != src.degrees[j] + shift:
                raise StateSpaceError(
                    f"induced matrix entry ({k}, {j}) breaks degree "
                    f"homogeneity: {dst.degrees[k]} != {src.degrees[j]} + {shift}"
                )
    return out
