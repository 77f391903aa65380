"""Movie presentations of dotted singular cobordisms between webs.

A cobordism between webs is presented as a *movie*: a start web followed
by elementary moves.  Each move transforms the web slice and sweeps a
piece of surface:

* ``Birth`` / ``Death``        -- a circle appears in / disappears from a
  region (a disk cap on the swept surface);
* ``Dot(site)``                -- marks a dot on the sheet swept by an
  edge or free loop;
* ``Zip``                      -- two strand sites merge along a seam,
  creating two trivalent vertices joined by a new edge (a "fin" sheet
  attached along a new singular arc);
* ``Unzip``                    -- the inverse: the fin collapses, its two
  vertices annihilate, and the four arm strands fuse in pairs.

The pipeline needs nothing else: collapsing a two-edge face is an unzip
of one of its edges followed by the death of the circle its other edge
closes into (``cap_movies``), and a four-edge face splits by two unzips
and a death (``square_split_movies``).  The code that builds a movie
runs these two surgeries (``apply_unzip``, ``apply_death``) and hands it
its slices (``FoamMovie``); a birth or a dot changes no strand, and a
zip is an unzip read backwards (``inverse_move``), in a reflection or on
a positive cube edge, whose slices are known.  A sweep adds each move's
surface from the slice before it (``FoamState.track``): no surgery.

Vertices of the web slice are the endpoints of singular arcs in progress.
``Zip`` creates a vertex pair (one arc); ``Unzip`` annihilates a vertex
pair, joining arc ends.  When an arc's two ends turn out to belong to
the same arc, a singular circle closes; exactly three sheet strips run
along it.  A closed movie (empty web to empty web) therefore
determines:

* its facets (maximal sheets): each with an Euler characteristic built
  up move by move, a dot count, and boundary slots on singular circles;
* its singular circles: each a cyclic triple of facets.

That data is a ``PreFoam``; ``evaluate`` turns it into an exact integer
using the three-sheet circle rule and the closed-surface values of the
algebra module.  Only the twice-dotted sphere and the undotted torus
have nonzero values, so the weight each facet must receive from its
circles is forced, and a value is a sign, a product of -1s and 3s, and
a signed count of the colourings of the circles that meet those needs,
memoized by circles and needs across all foams.

*Half foams.*  A movie from the empty web to a web ``W`` has a
``HalfFoam`` (``half_foam``, one sweep): its swept end state, reduced
and split into a shape and labels; ``extend_halves`` extends halves
through one more movie, sweeping it once per shape from a seeded
state.  The shape (``HalfShape``) is the facet count,
the facet of every dart and loop of ``W``, the circles already closed,
and at every vertex of ``W`` the open seam arc ending there with its
three strips.  The labels are each facet's twice Euler characteristic
(less one per edge of ``W`` on it) and its dots.  Two halves on one
web glue into the closed foam of the first followed by the reflection
of the second, without replaying either movie.  Everything that reads
no label - one union-find over facets per dart and loop, one over seam
arcs per vertex, each cycle of arcs a singular circle, the seam checks
and the canonical numbering of the result - is a *glue plan*, built
once per pair of shapes and kept in ``memo.GLUE_PLANS`` under the two
shapes' small ids (``_intern_shape``, given once when a half is
built), so finding a plan hashes no shape.

A closed foam's value depends only on its plan and its summed labels,
and the pairings of a Gram block or an induced matrix repeat few of
them: ``pair_halves`` evaluates every pair of two lists of halves
through their plans, and each plan keeps the value of every summed
label vector it has made.  A half's labels go through a plan packed
into one int, one 16-bit field per label, so a pair is one int
addition and one lookup; only a sum the plan has not met is read as
labels, and its value comes straight from them (``_glued_value``),
with no ``PreFoam``, through the same forced-weight core as
``evaluate``.  The plans, the shape ids and the colouring counts are
tables of ``memo``, which ``memo.clear`` empties.

Grading: a movie has a degree (birth/death -2, dot +2, zip/unzip +1);
a closed movie of nonzero degree always evaluates to zero.
"""

from __future__ import annotations

import itertools
import struct
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from . import memo
from .algebra import VALUE_EQUALITY, closed_surface_value, theta_symbol
from .web import Region, Web, _component_split, _face_orbits


class MoveError(Exception):
    """Raised when a move cannot be applied to the current web slice."""


class MalformedMovie(Exception):
    """Raised when a movie's global surface bookkeeping is inconsistent."""


# ==========================================================================
# moves
# ==========================================================================


class Birth(NamedTuple):
    """A free loop appears in ``region``."""

    loop_id: int
    region: Region
    ccw: bool

    __eq__, __ne__, __hash__ = VALUE_EQUALITY


class Death(NamedTuple):
    """A free loop with empty interior disappears."""

    loop_id: int

    __eq__, __ne__, __hash__ = VALUE_EQUALITY


class Dot(NamedTuple):
    """A dot on the sheet swept by an edge (``site`` = any of its darts)
    or by a free loop (``site`` = its negative id)."""

    site: int

    __eq__, __ne__, __hash__ = VALUE_EQUALITY


class Zip(NamedTuple):
    """Merge two strand sites across ``region`` along a new seam.

    A site is a dart (a point on that dart's edge, approached from the
    side whose face walk contains the dart) or a negative loop id.
    Exactly one site must be *aligned* with the region's boundary walk
    (edge site: the dart is a tail; loop site: the loop's orientation
    runs with the walk).  ``labels`` fixes the six new darts
    ``(m1, m2, in_plus, out_plus, in_minus, out_minus)``: the seam edge
    runs m2 -> m1 into the new sink vertex, the aligned site is cut into
    a piece ending at ``in_plus`` (into the sink) and one starting at
    ``out_plus`` (out of the source); the anti-aligned site likewise
    with ``in_minus`` / ``out_minus``.

    When the two sites lie on one face walk, that face splits in two;
    ``children_to_sink`` lists the nested items landing in the sink-side
    part, and ``ceiling_side`` ('sink' or 'source') says which part
    keeps the surrounding region when the split walk was a component's
    outer face (or when both sites are free loops).  When both sites lie
    on the *same edge* (site_b = the head partner of site_a),
    ``middle`` ('aligned_first' or 'anti_first') orders the two cut
    points along the edge's flow.

    Every zip is made by ``inverse_move`` from an unzip (or renamed from
    one) and runs only in a movie given its slices: the package does no
    zip surgery.  Its tracking reads the sites, their alignment and the
    labels; the other fields pin the surgery the slices stand for, and
    are written by ``--dump-foams`` and keyed on by ``induced_matrix``.
    """

    site_a: int
    site_b: int
    region: Region
    labels: tuple[int, int, int, int, int, int]
    children_to_sink: frozenset = frozenset()
    ceiling_side: Optional[str] = None
    middle: Optional[str] = None

    __eq__, __ne__, __hash__ = VALUE_EQUALITY


class Unzip(NamedTuple):
    """Collapse the fin along the seam edge containing dart ``seam``.

    The seam's two vertices annihilate and the four arm strands fuse in
    pairs.  A fusing pair whose arms already share an edge closes into a
    free loop; ``loop_id_aligned`` / ``loop_id_anti`` fix the ids of
    loops formed from the aligned-side pair and the anti-side pair."""

    seam: int
    loop_id_aligned: Optional[int] = None
    loop_id_anti: Optional[int] = None

    __eq__, __ne__, __hash__ = VALUE_EQUALITY


Move = Birth | Death | Dot | Zip | Unzip

_MOVE_DEGREE = {
    Birth: -2,
    Death: -2,
    Dot: 2,
    Zip: 1,
    Unzip: 1,
}


def move_degree(move: Move) -> int:
    return _MOVE_DEGREE[type(move)]


# ==========================================================================
# small helpers
# ==========================================================================


def _fresh_loop_id(web: Web, taken: Iterable[int] = ()) -> int:
    used = set(web.loop_ccw) | set(taken)
    lid = -1
    while lid in used:
        lid -= 1
    return lid


def _site_aligned(web: Web, site: int, region: Region) -> bool:
    """Whether the site runs with the boundary walk of ``region``."""
    if site < 0:
        return web.loop_ccw[site] == (region == ("inside", site))
    return site in web.out_darts


def _carry_faces(old_web: Web, new_face_of: Mapping[int, int]) -> dict[int, int]:
    """Old face key -> new face key, via the smallest surviving dart."""
    out: dict[int, int] = {}
    for f, orbit in old_web.faces().items():
        survivors = [d for d in orbit if d in new_face_of]
        if survivors:
            out[f] = new_face_of[min(survivors)]
    return out


def _make_renamer(
    carry: Mapping[int, int],
    override: Mapping[Region, Region],
    new_comp_of: Mapping[int, int],
    outer_face: Mapping[int, int],
    parent: Mapping[int, Region],
):
    """Region names inside move code are old-web names, ('inside', l),
    or the internal marker ('newface', key) for a face already expressed
    in the new web's keys.  Build the normalizing translator."""

    def rename(r: Region) -> Region:
        r = override.get(r, r)
        if r is None:
            return None
        kind, val = r
        if kind == "inside":
            return r
        if kind == "face":
            if val not in carry:
                raise MalformedMovie(f"region ('face', {val}) vanished in a move")
            val = carry[val]
        comp = new_comp_of[val]
        if val == outer_face.get(comp):
            # the walk is a component's outer face: the region is really
            # the one surrounding that component
            return rename(parent[comp])
        return ("face", val)

    return rename


# ==========================================================================
# move application: web surgery
# ==========================================================================


def apply_death(web: Web, mv: Death) -> Web:
    """The web after the death ``mv`` of a free loop that holds nothing."""
    lid = mv.loop_id
    if lid not in web.loop_ccw:
        raise MoveError(f"death: loop {lid} does not exist")
    if web.children_of(("inside", lid)):
        raise MoveError(f"death: loop {lid} has a nonempty interior")
    loop_ccw = dict(web.loop_ccw)
    del loop_ccw[lid]
    parent = dict(web.parent)
    del parent[lid]
    return Web(web.sigma, web.alpha, web.out_darts, loop_ccw, parent, web.outer_face)


def _unzip_arms(web: Web, seam: int) -> tuple[int, int, int, int, int, int]:
    """Resolve the seam edge: (m1, m2, p, q, r, s) with m1 the dart at
    the sink vertex, p = sigma(m1), q = sigma^2(m1), r = sigma(m2),
    s = sigma^2(m2)."""
    if seam not in web.sigma:
        raise MoveError(f"unzip: dart {seam} does not exist")
    d, a = seam, web.alpha[seam]
    m1, m2 = (a, d) if d in web.out_darts else (d, a)
    p = web.sigma[m1]
    q = web.sigma[p]
    r = web.sigma[m2]
    s = web.sigma[r]
    return m1, m2, p, q, r, s


def _unzip_new_loop_ids(
    web: Web, mv: Unzip, closes_aligned: bool, closes_anti: bool
) -> tuple[Optional[int], Optional[int]]:
    """The ids of the loops the unzip closes (``None`` for a side that
    does not close); each must be a fresh negative id."""
    lid_a = mv.loop_id_aligned if closes_aligned else None
    lid_b = mv.loop_id_anti if closes_anti else None
    if closes_aligned and (lid_a is None or lid_a >= 0 or lid_a in web.loop_ccw):
        raise MoveError(f"unzip: loop id {lid_a} is not a fresh negative id")
    if closes_anti and (
        lid_b is None or lid_b >= 0 or lid_b in web.loop_ccw or lid_b == lid_a
    ):
        raise MoveError(f"unzip: loop id {lid_b} is not a fresh negative id")
    return lid_a, lid_b


def apply_unzip(web: Web, mv: Unzip) -> Web:
    """The web after the unzip ``mv`` (see ``Unzip``)."""
    m1, m2, p, q, r, s = _unzip_arms(web, mv.seam)
    deleted = {m1, m2, p, q, r, s}
    if len(deleted) != 6:
        raise MoveError("unzip: seam vertices are degenerate")

    faces = web.faces()
    fl_aligned = web.face_of(m2)  # flank between seam and the aligned arms
    fl_anti = web.face_of(m1)  # flank between seam and the anti arms
    f_sink = web.face_of(p)  # pocket at the sink end
    f_source = web.face_of(r)  # pocket at the source end
    c_old = web.component_of(m1)
    c_parent = web.parent[c_old]
    old_outer = web.outer_face[c_old]

    sigma = {d: v for d, v in web.sigma.items() if d not in deleted}
    alpha = {d: v for d, v in web.alpha.items() if d not in deleted}
    out = {d for d in web.out_darts if d not in deleted}
    loop_ccw = dict(web.loop_ccw)

    closes_aligned = web.alpha[q] == r
    closes_anti = web.alpha[p] == s
    wires = {q: r, r: q, p: s, s: p}

    def exit_dart(arm: int) -> int:
        """The surviving dart the strand through this arm fuses onto."""
        cur = arm
        while True:
            out_d = web.alpha[wires[cur]]
            if out_d not in deleted:
                return out_d
            cur = out_d

    for y in list(sigma):
        a = web.alpha[y]
        if a in deleted:
            alpha[y] = exit_dart(a)

    lid_a, lid_b = _unzip_new_loop_ids(web, mv, closes_aligned, closes_anti)
    new_loops: list[tuple[int, int]] = []  # (loop id, flank face)

    def loop_ccw_flag(pair: tuple[int, int], flank: int) -> bool:
        tail = pair[0] if pair[0] in web.out_darts else pair[1]
        in_flank = tail in faces[flank]
        # a flank that was the outer face becomes the loop's exterior,
        # reversing the reading
        return in_flank if flank != old_outer else not in_flank

    if closes_aligned:
        loop_ccw[lid_a] = loop_ccw_flag((q, r), fl_aligned)
        new_loops.append((lid_a, fl_aligned))
    if closes_anti:
        loop_ccw[lid_b] = loop_ccw_flag((p, s), fl_anti)
        new_loops.append((lid_b, fl_anti))

    new_faces = _face_orbits(sigma, alpha) if sigma else {}
    new_face_of = {d: f for f, orbit in new_faces.items() for d in orbit}
    new_comps = _component_split(sigma, alpha) if sigma else {}
    new_comp_of = {d: c for c, comp in new_comps.items() for d in comp}
    carry = _carry_faces(web, new_face_of)

    parent: dict[int, Region] = {}
    outer_face: dict[int, int] = {}
    for c, f in web.outer_face.items():
        if c != c_old:
            parent[c] = web.parent[c]
            outer_face[c] = carry[f]
    for l in web.loop_ccw:
        parent[l] = web.parent[l]

    override: dict[Region, Region] = {}
    comp_darts_old = web.components()[c_old] - deleted
    my_parts = sorted({new_comp_of[d] for d in comp_darts_old})
    split = f_sink == f_source

    if not split:
        if len(my_parts) != 1 or new_loops:
            raise MalformedMovie("unzip: unexpected component split")
        c_new = my_parts[0]
        parent[c_new] = c_parent
        survivors = [d for d in faces[f_sink] if d in new_face_of] + [
            d for d in faces[f_source] if d in new_face_of
        ]
        merged = new_face_of[min(survivors)]
        if old_outer in (f_sink, f_source):
            outer_face[c_new] = merged
            override[("face", f_sink)] = c_parent
            override[("face", f_source)] = c_parent
        else:
            outer_face[c_new] = carry[old_outer]
            override[("face", f_sink)] = ("newface", merged)
            override[("face", f_source)] = ("newface", merged)
    else:
        # the pockets coincide: the walk F separates the aligned side
        # from the anti side and the component splits in two parts
        parts_info: list[tuple[str, int]] = []
        if closes_aligned:
            parts_info.append(("loop", lid_a))
        else:
            parts_info.append(("comp", new_comp_of[exit_dart(q)]))
        if closes_anti:
            parts_info.append(("loop", lid_b))
        else:
            parts_info.append(("comp", new_comp_of[exit_dart(p)]))
        flank_of = {0: fl_aligned, 1: fl_anti}

        def f_walk_face(part: int) -> int:
            survivors = [
                d
                for d in faces[f_sink]
                if d in new_face_of and new_comp_of[d] == part
            ]
            if not survivors:
                raise MalformedMovie("unzip: a split part lost its walk along F")
            return new_face_of[min(survivors)]

        if f_sink == old_outer:
            for kind, ident in parts_info:
                parent[ident] = c_parent
                if kind == "comp":
                    outer_face[ident] = f_walk_face(ident)
            override[("face", f_sink)] = c_parent
        else:
            outer_idx: Optional[int] = None
            for idx, (kind, ident) in enumerate(parts_info):
                if kind == "comp" and any(
                    new_comp_of.get(d) == ident
                    for d in faces[old_outer]
                    if d in new_face_of
                ):
                    outer_idx = idx
            if outer_idx is None:
                for idx, (kind, ident) in enumerate(parts_info):
                    if kind == "loop" and flank_of[idx] == old_outer:
                        outer_idx = idx
            if outer_idx is None:
                raise MalformedMovie("unzip: cannot locate the outer part")
            okind, oid = parts_info[outer_idx]
            ikind, iid = parts_info[1 - outer_idx]
            parent[oid] = c_parent
            if okind == "comp":
                outer_face[oid] = carry[old_outer]
                inner_region: Region = ("newface", f_walk_face(oid))
            else:
                inner_region = ("inside", oid)
            override[("face", f_sink)] = inner_region
            parent[iid] = inner_region
            if ikind == "comp":
                outer_face[iid] = f_walk_face(iid)

    # flank faces around forming loops become those loops' interiors
    for lid, flank in new_loops:
        if flank != old_outer:
            override[("face", flank)] = ("inside", lid)

    rename = _make_renamer(carry, override, new_comp_of, outer_face, parent)
    final_parent = {item: rename(r) for item, r in parent.items()}
    return Web(sigma, alpha, out, loop_ccw, final_parent, outer_face)


# ==========================================================================
# inverse moves (time reversal)
# ==========================================================================


def inverse_move(move: Move, before: Web, after: Web) -> Move:
    """The move undoing ``move``, given the web slices before and after."""
    if isinstance(move, Birth):
        return Death(move.loop_id)
    if isinstance(move, Death):
        return Birth(
            move.loop_id, before.parent[move.loop_id], before.loop_ccw[move.loop_id]
        )
    if isinstance(move, Dot):
        return Dot(move.site)
    if isinstance(move, Zip):
        al_a = _site_aligned(before, move.site_a, move.region)
        s_plus, s_minus = (
            (move.site_a, move.site_b) if al_a else (move.site_b, move.site_a)
        )
        return Unzip(
            seam=move.labels[0],
            loop_id_aligned=s_plus if s_plus < 0 else None,
            loop_id_anti=s_minus if s_minus < 0 else None,
        )
    if isinstance(move, Unzip):
        m1, m2, p, q, r, s = _unzip_arms(before, move.seam)
        closes_aligned = before.alpha[q] == r
        closes_anti = before.alpha[p] == s
        lid_a, lid_b = _unzip_new_loop_ids(before, move, closes_aligned, closes_anti)
        deleted = {m1, m2, p, q, r, s}
        wires = {q: r, r: q, p: s, s: p}

        def exit_from(arm: int) -> int:
            e = before.alpha[arm]
            while e in deleted:
                e = before.alpha[wires[e]]
            return e

        site_plus = lid_a if closes_aligned else exit_from(q)
        site_minus = lid_b if closes_anti else exit_from(s)
        region = _seam_region_after_unzip(after, site_plus, site_minus)
        cts: frozenset = frozenset()
        ceiling: Optional[str] = None
        if before.face_of(p) != before.face_of(r):
            # the zip splits a face: route the nested items and the
            # surrounding region to the sink or the source pocket
            sink_region_before = before.region_of_face(before.face_of(p))
            c_old = before.component_of(m1)
            cts = frozenset(
                item
                for item, reg in before.parent.items()
                if reg == sink_region_before and item != c_old
            )
            old_outer = before.outer_face[c_old]
            if before.face_of(p) == old_outer:
                ceiling = "sink"
            elif before.face_of(r) == old_outer:
                ceiling = "source"
        if before.alpha[r] == p:
            middle: Optional[str] = "aligned_first"
        elif before.alpha[s] == q:
            middle = "anti_first"
        else:
            middle = None
        return Zip(
            site_a=site_plus,
            site_b=site_minus,
            region=region,
            labels=(m1, m2, q, r, p, s),
            children_to_sink=cts,
            ceiling_side=ceiling,
            middle=middle,
        )
    raise MoveError(f"cannot invert move {move!r}")


def _seam_region_after_unzip(after: Web, site_plus: int, site_minus: int) -> Region:
    """The region, read in the unzipped web, across which re-zipping the
    seam acts."""
    if site_plus > 0:
        return after.region_of_face(after.face_of(site_plus))
    if site_minus > 0:
        return after.region_of_face(after.face_of(site_minus))
    # both re-zip sites are loops
    if after.parent[site_minus] == ("inside", site_plus):
        return ("inside", site_plus)
    if after.parent[site_plus] == ("inside", site_minus):
        return ("inside", site_minus)
    return after.parent[site_plus]


# ==========================================================================
# the movie
# ==========================================================================


class FoamMovie:
    """A start web and a sequence of moves; the presented cobordism goes
    from the start web to the final web.

    ``slices`` are the web slices from the start web to the final web,
    one more than the moves, from the code that builds the movie: it ran
    ``apply_unzip`` and ``apply_death`` or knew them (a reflection, a
    composition, a cube edge), so a movie never runs a move."""

    __slots__ = ("start", "moves", "_states")

    def __init__(
        self, start: Web, moves: Sequence[Move], slices: Sequence[Web]
    ) -> None:
        self.start = start
        self.moves = tuple(moves)
        if len(slices) != len(self.moves) + 1 or slices[0] is not start:
            raise MalformedMovie(
                "a movie's slices run from its start web, one per move after it"
            )
        self._states = list(slices)

    def states(self) -> list[Web]:
        """All web slices, from the start web to the final web."""
        return self._states

    @property
    def end(self) -> Web:
        return self.states()[-1]

    def degree(self) -> int:
        """The sum of the move degrees."""
        return sum(move_degree(m) for m in self.moves)

    def compose(self, then: FoamMovie) -> FoamMovie:
        """This movie followed by ``then`` (ends must match exactly)."""
        if self.end != then.start:
            raise MalformedMovie("movies do not compose: end and start webs differ")
        return FoamMovie(
            self.start, self.moves + then.moves, self.states() + then.states()[1:]
        )

    def reflect(self) -> "FoamMovie":
        """The time-reversed movie, with each move exactly inverted; its
        slices are this movie's reversed, so no move of it is run."""
        states = self.states()
        inv = [
            inverse_move(mv, states[i], states[i + 1])
            for i, mv in enumerate(self.moves)
        ]
        return FoamMovie(self.end, tuple(reversed(inv)), states[::-1])

    def __repr__(self) -> str:
        return f"<FoamMovie {len(self.moves)} moves>"

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        import hashlib  # here, not at import: it loads OpenSSL

        return {
            "start": self.start.to_json_dict(),
            "moves": [move_to_json(m) for m in self.moves],
            "frame_checksums": [
                hashlib.md5(w.exact_key().encode()).hexdigest() for w in self.states()
            ],
        }


def new_ids(move: Move) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The darts and the loop ids a move creates, in field order."""
    if isinstance(move, Zip):
        return move.labels, ()
    if isinstance(move, Birth):
        return (), (move.loop_id,)
    if isinstance(move, Unzip):
        return (), tuple(
            l for l in (move.loop_id_aligned, move.loop_id_anti) if l is not None
        )
    return (), ()


def _relabel_move(move: Move, before: Web, dmap, lmap) -> Move:
    """``move`` with darts renamed by ``dmap`` and loops by ``lmap``;
    its regions and component keys are read in ``before``, the slice
    it starts from."""

    def site(x: int) -> int:
        return lmap(x) if x < 0 else dmap(x)

    if isinstance(move, Birth):
        return Birth(
            lmap(move.loop_id), before.relabel_region(move.region, dmap, lmap), move.ccw
        )
    if isinstance(move, Death):
        return Death(lmap(move.loop_id))
    if isinstance(move, Dot):
        return Dot(site(move.site))
    if isinstance(move, Zip):
        return Zip(
            site_a=site(move.site_a),
            site_b=site(move.site_b),
            region=before.relabel_region(move.region, dmap, lmap),
            labels=tuple(dmap(d) for d in move.labels),
            children_to_sink=frozenset(
                before.relabel_item(k, dmap, lmap) for k in move.children_to_sink
            ),
            ceiling_side=move.ceiling_side,
            middle=move.middle,
        )
    if isinstance(move, Unzip):
        return Unzip(
            dmap(move.seam),
            None if move.loop_id_aligned is None else lmap(move.loop_id_aligned),
            None if move.loop_id_anti is None else lmap(move.loop_id_anti),
        )
    raise MoveError(f"cannot relabel move {move!r}")


def move_to_json(m: Move) -> dict:
    d: dict = {"type": type(m).__name__}
    for name in m._fields:
        v = getattr(m, name)
        if name == "region":
            v = None if v is None else [v[0], v[1]]
        elif isinstance(v, frozenset):
            v = sorted(v)
        elif isinstance(v, tuple):
            v = list(v)
        d[name] = v
    return d


# ==========================================================================
# global surface bookkeeping
# ==========================================================================


class _DSU:
    """Union-find over ints; each class's root is its least member."""

    __slots__ = ("parent",)

    def __init__(self, n: int = 0) -> None:
        self.parent: dict[int, int] = {x: x for x in range(n)}

    def make(self) -> int:
        n = len(self.parent)
        self.parent[n] = n
        return n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return ra


class PreFoam(NamedTuple):
    """The evaluation-relevant shadow of a closed movie: facets with
    their (genus, dots), and singular circles as cyclic facet triples."""

    facets: tuple[tuple[int, int], ...]
    circles: tuple[tuple[int, int, int], ...]


class FoamState:
    """Sweeps a movie, accumulating facet classes (Euler characteristic
    and dots), seam arcs with their boundary strips, and closed singular
    circles.

    The sheet class of each strand of the current slice is keyed by the
    strand's signed site, as in ``Dot.site``: a dart by itself, a free
    loop by its negative id."""

    def __init__(self) -> None:
        self.facets = _DSU()
        self.chi: dict[int, int] = {}
        self.dots: dict[int, int] = {}
        self.class_of: dict[int, int] = {}
        self.strips = _DSU()
        self.strip_facet: dict[int, int] = {}
        self.strip_at: dict[tuple[int, int], int] = {}  # (vertex token, dart)
        self.vertex_of_dart: dict[int, int] = {}
        self.vertex_sink: dict[int, bool] = {}
        self.arcs = _DSU()
        self.arc_of_vertex: dict[int, int] = {}
        self.circles: list[tuple[int, int, int]] = []
        self._next_vertex = 0

    def _node(self, site: int) -> int:
        if site not in self.class_of:
            raise MalformedMovie(f"no sheet class bound to site {site}")
        return self.class_of[site]

    def _root(self, site: int) -> int:
        return self.facets.find(self._node(site))

    def track(self, web: Web, mv: Move) -> None:
        """Add the surface ``mv`` sweeps from the slice ``web`` before it.

        Only that slice is read, so a movie whose slices are given sweeps
        with no surgery."""
        if isinstance(mv, Birth):
            self._new_disc(mv.loop_id)
        elif isinstance(mv, Death):
            self.chi[self._root(mv.loop_id)] += 1
            del self.class_of[mv.loop_id]
        elif isinstance(mv, Dot):
            self.dots[self._root(mv.site)] += 1
        elif isinstance(mv, Zip):
            al_a = _site_aligned(web, mv.site_a, mv.region)
            s_plus, s_minus = (mv.site_a, mv.site_b) if al_a else (mv.site_b, mv.site_a)
            m1, m2, in_p, out_p, in_m, out_m = mv.labels
            cls = self.class_of
            cls[m2] = self._new_disc(m1)
            cls[in_p] = cls[out_p] = self._node(s_plus)
            cls[in_m] = cls[out_m] = self._node(s_minus)
            # a loop site is cut open into the new edges
            for l in (s_plus, s_minus):
                if l < 0:
                    cls.pop(l, None)
            seam = ((in_p, out_p), (in_m, out_m), (m1, m2))
            self._seam_create((m1, in_m, in_p), (m2, out_p, out_m), seam)
        elif isinstance(mv, Unzip):
            m1, m2, p, q, r, s = _unzip_arms(web, mv.seam)
            lid_a, lid_b = _unzip_new_loop_ids(
                web, mv, web.alpha[q] == r, web.alpha[p] == s
            )
            if lid_a is not None:
                self.class_of[lid_a] = self._node(q)
            if lid_b is not None:
                self.class_of[lid_b] = self._node(p)
            self._fuse(q, r)
            self._fuse(p, s)
            self._seam_join((m1, p, q), (m2, r, s), ((m1, m2), (p, s), (q, r)))
            for d in (m1, m2, p, q, r, s):
                self.class_of.pop(d, None)
        else:
            raise MoveError(f"cannot track move {mv!r}")

    def _new_disc(self, site: int) -> int:
        """A new facet class, a disc so far, bound to ``site``."""
        node = self.facets.make()
        self.chi[node] = 1
        self.dots[node] = 0
        self.class_of[site] = node
        return node

    def _fuse(self, a: int, b: int) -> None:
        """Join the sheets of sites ``a`` and ``b`` across the saddle the
        move sweeps, which lowers their Euler characteristic by one."""
        ra, rb = self._root(a), self._root(b)
        if ra != rb:
            keep = self.facets.union(ra, rb)
            drop = rb if keep == ra else ra
            self.chi[keep] += self.chi.pop(drop)
            self.dots[keep] += self.dots.pop(drop)
        self.chi[self.facets.find(ra)] -= 1

    # -- seams -------------------------------------------------------------

    def _new_vertex(self, cycle: tuple[int, int, int], sink: bool) -> int:
        token = self._next_vertex
        self._next_vertex += 1
        self.vertex_sink[token] = sink
        for d in cycle:
            self.vertex_of_dart[d] = token
            strip = self.strips.make()
            self.strip_facet[strip] = self._node(d)
            self.strip_at[(token, d)] = strip
        return token

    def _union_strips(self, s1: int, s2: int) -> None:
        r1, r2 = self.strips.find(s1), self.strips.find(s2)
        f1 = self.facets.find(self.strip_facet[r1])
        f2 = self.facets.find(self.strip_facet[r2])
        if f1 != f2:
            raise MalformedMovie(
                "seam strips on different sheets were glued; the movie is "
                "geometrically inconsistent"
            )
        r = self.strips.union(r1, r2)
        self.strip_facet[r] = self.strip_facet[r1]

    def _seam_create(
        self,
        sink_cycle: tuple[int, int, int],
        source_cycle: tuple[int, int, int],
        pairing: Iterable[tuple[int, int]],
    ) -> None:
        v1 = self._new_vertex(sink_cycle, sink=True)
        v2 = self._new_vertex(source_cycle, sink=False)
        arc = self.arcs.make()
        self.arc_of_vertex[v1] = arc
        self.arc_of_vertex[v2] = arc
        for d1, d2 in pairing:
            self._union_strips(self.strip_at[(v1, d1)], self.strip_at[(v2, d2)])

    def _seam_join(
        self,
        sink_cycle: tuple[int, int, int],
        source_cycle: tuple[int, int, int],
        pairing: Iterable[tuple[int, int]],
    ) -> None:
        v1 = self.vertex_of_dart.get(sink_cycle[0])
        v2 = self.vertex_of_dart.get(source_cycle[0])
        if v1 is None or v2 is None:
            raise MalformedMovie("seam join at darts that are not seam endpoints")
        if not self.vertex_sink[v1] or self.vertex_sink[v2]:
            raise MalformedMovie("seam join must pair a sink with a source endpoint")
        for d1, d2 in pairing:
            self._union_strips(self.strip_at[(v1, d1)], self.strip_at[(v2, d2)])
        a1 = self.arcs.find(self.arc_of_vertex[v1])
        a2 = self.arcs.find(self.arc_of_vertex[v2])
        if a1 == a2:
            self._close_circle(v1, sink_cycle)
        else:
            self.arcs.union(a1, a2)
        for token, cycle in ((v1, sink_cycle), (v2, source_cycle)):
            for d in cycle:
                self.vertex_of_dart.pop(d, None)
                self.strip_at.pop((token, d), None)
            self.arc_of_vertex.pop(token, None)
            self.vertex_sink.pop(token, None)

    def _close_circle(self, v_sink: int, cycle: tuple[int, int, int]) -> None:
        """Read in the joining move's ``cycle``, as a seeded sweep can."""
        order = _sink_reading(cycle)
        strips = [self.strips.find(self.strip_at[(v_sink, d)]) for d in order]
        if len(set(strips)) != 3:
            raise MalformedMovie(
                "a singular circle closed with fewer than three distinct strips"
            )
        self.circles.append(tuple(self.strip_facet[s] for s in strips))

def _sink_reading(cycle: tuple[int, int, int]) -> tuple[int, int, int]:
    """The darts of a sink vertex in the order its three strips are read
    into a singular circle.

    Around a seam endpoint the three sheet strips are read in the
    vertex's counterclockwise dart order at source vertices and in the
    reversed (clockwise) order at sink vertices.  This global convention
    fixes the cyclic orientation of every closed singular circle; it is
    pinned by the two-edge-face identity tests."""
    return (cycle[2], cycle[1], cycle[0])


def _sweep(movie: FoamMovie, state: Optional[FoamState] = None) -> FoamState:
    """Track a movie's moves into ``state``, seeded at its start web, or
    into a fresh state for a movie from the empty web."""
    if state is None:
        state = FoamState()
    for web, mv in zip(movie.states(), movie.moves):
        state.track(web, mv)
    return state


def _canonical_numbering(
    roots: Iterable[int], circles: Sequence[tuple[int, int, int]]
) -> tuple[dict[int, int], tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """The canonical numbering of a closed foam's facets, which reads no
    facet label.  ``roots`` are the facets' int keys and ``circles`` the
    singular circles as key triples.  Facets are numbered by first
    appearance in the circles, then in increasing key order.  Returns
    the number of each key, the boundary-slot count of each numbered
    facet, and the circles in those numbers, each rotated to its
    smallest form and all sorted."""
    index: dict[int, int] = {}
    for tri in circles:
        for key in tri:
            if key not in index:
                index[key] = len(index)
    for key in sorted(roots):
        if key not in index:
            index[key] = len(index)
    slots = [0] * len(index)
    out = []
    for x, y, z in circles:
        x, y, z = index[x], index[y], index[z]
        slots[x] += 1
        slots[y] += 1
        slots[z] += 1
        out.append(min((x, y, z), (y, z, x), (z, x, y)))
    return index, tuple(slots), tuple(sorted(out))


def _facet_genera(
    chi: Sequence[int], dots: Sequence[int], slots: Sequence[int]
) -> tuple[tuple[int, int], ...]:
    """The ``(genus, dots)`` of each numbered facet of a closed foam from
    its Euler characteristic, dots and boundary slots.  A facet that is
    not a closed orientable sheet raises."""
    out = []
    for c, d, s in zip(chi, dots, slots):
        double_genus = 2 - c - s
        if double_genus % 2 or double_genus < 0:
            raise MalformedMovie(
                f"facet with Euler characteristic {c} and "
                f"{s} boundary slots is not a closed orientable sheet"
            )
        out.append((double_genus // 2, d))
    return tuple(out)


# ==========================================================================
# half foams and gluing
# ==========================================================================


class HalfShape(NamedTuple):
    """The combinatorial shape of a half foam: everything gluing reads
    except the facets' labels.

    Facets are numbered ``0 .. size-1``.  ``keys`` is the facet of each
    dart, then of each loop, of the end web in increasing order.
    ``circles`` are the singular circles already closed, as facet
    triples.  The other fields run over the vertices of the end web in
    ``web.vertices()`` order: ``arcs`` is the open seam arc ending at
    each, ``sinks`` whether it is a sink, and ``strips`` its three
    strips, in ``_sink_reading`` order at a sink and in rotation order
    at a source, three entries per vertex.  ``strip_facets[s]`` is the
    facet of strip ``s``.  Arcs and strips are numbered by first
    appearance."""

    size: int
    keys: tuple[int, ...]
    circles: tuple[tuple[int, int, int], ...]
    arcs: tuple[int, ...]
    sinks: tuple[bool, ...]
    strips: tuple[int, ...]
    strip_facets: tuple[int, ...]


class HalfFoam(NamedTuple):
    """The boundary summary of a movie from the empty web to ``web``:
    what gluing it to the reflection of another such movie needs.

    It is split into a ``shape`` (a ``HalfShape``: facet count, the
    facet of each end-web dart and loop, closed circles, open seam arcs
    and strips) and the facets' labels: ``facets[i]`` is ``(2 chi - e,
    dots)``, where ``chi`` is the Euler characteristic of facet ``i``
    swept so far and ``e`` the number of edges of ``web`` on it, so that
    the two halves of a closed foam add up to twice its Euler
    characteristic.  Many halves share a shape and differ only in their
    labels, so gluing is planned once per pair of shapes (``_plan_of``),
    found by ``shape_id`` (``_intern_shape(shape)``)."""

    web: Web
    shape: HalfShape
    shape_id: int
    facets: tuple[tuple[int, int], ...]


def half_foam(movie: FoamMovie) -> HalfFoam:
    """Sweep the movie once and reduce its end state to a ``HalfFoam``."""
    if not movie.start.is_empty():
        raise MalformedMovie("a half foam must start at the empty web")
    return _reduce(_sweep(movie), movie.end)[0]


def _reduce(state: FoamState, web: Web) -> tuple[HalfFoam, Callable[[int], int]]:
    """The ``HalfFoam`` of a swept state that ends at ``web``, and the
    facet number of each facet node of the state."""
    find = state.facets.find
    roots = sorted(state.chi)
    index = {r: i for i, r in enumerate(roots)}

    def facet_of(node: int) -> int:
        return index[find(node)]

    keys = tuple(facet_of(state._node(x)) for x in web.darts + web.loops)
    dart_facet = dict(zip(web.darts, keys))
    twice_chi = [2 * state.chi[r] for r in roots]
    for t in web.out_darts:
        f = dart_facet[t]
        if f != dart_facet[web.alpha[t]]:
            raise MalformedMovie(f"the edge of dart {t} lies on two sheets")
        twice_chi[f] -= 1

    if len(state.arc_of_vertex) * 3 != len(web.sigma):
        raise MalformedMovie("the movie ends with seam endpoints off its end web")
    arc_ids: dict[int, int] = {}
    strip_ids: dict[int, int] = {}
    arcs, sinks, strips, strip_facets = [], [], [], []
    for cycle in web.vertices():
        token = state.vertex_of_dart.get(cycle[0])
        if token is None or any(state.vertex_of_dart.get(d) != token for d in cycle):
            raise MalformedMovie(f"vertex {cycle} of the end web is not a seam endpoint")
        sink = state.vertex_sink[token]
        if sink == (cycle[0] in web.out_darts):
            raise MalformedMovie(f"seam endpoint {cycle} disagrees with the web's orientation")
        arc = state.arcs.find(state.arc_of_vertex[token])
        arcs.append(arc_ids.setdefault(arc, len(arc_ids)))
        sinks.append(sink)
        for d in _sink_reading(cycle) if sink else cycle:
            s = state.strips.find(state.strip_at[(token, d)])
            if s not in strip_ids:
                strip_ids[s] = len(strip_ids)
                strip_facets.append(facet_of(state.strip_facet[s]))
            strips.append(strip_ids[s])

    shape = HalfShape(
        size=len(roots),
        keys=keys,
        circles=tuple(tuple(facet_of(n) for n in tri) for tri in state.circles),
        arcs=tuple(arcs),
        sinks=tuple(sinks),
        strips=tuple(strips),
        strip_facets=tuple(strip_facets),
    )
    labels = tuple(zip(twice_chi, (state.dots[r] for r in roots)))
    return HalfFoam(web, shape, _intern_shape(shape), labels), facet_of


def _seeded_state(
    half: HalfFoam, dart_map: Mapping[int, int], loop_map: Mapping[int, int]
) -> FoamState:
    """A sweep state at the end of ``half`` with every label zero and the
    darts and loops of its web renamed by the maps: facet ``i`` of the
    shape is facet node ``i``, and each strip and open seam arc a node."""
    shape, web = half.shape, half.web
    n = len(web.sigma)
    if len(shape.keys) != n + len(web.loop_ccw) or 3 * len(shape.sinks) != n:
        raise MalformedMovie("the half's shape does not fit its web")
    state = FoamState()
    for node in range(shape.size):
        state.facets.make()
        state.chi[node] = state.dots[node] = 0
    sites = [dart_map.get(d, d) for d in web.darts]
    sites += [loop_map.get(l, l) for l in web.loops]
    state.class_of = dict(zip(sites, shape.keys))
    for f in shape.strip_facets:
        state.strip_facet[state.strips.make()] = f
    state.arcs.parent = {a: a for a in shape.arcs}
    for token, cycle in enumerate(web.vertices()):
        state.vertex_sink[token] = sink = shape.sinks[token]
        state.arc_of_vertex[token] = shape.arcs[token]
        reading = _sink_reading(cycle) if sink else cycle
        for d, s in zip(reading, shape.strips[3 * token : 3 * token + 3]):
            state.vertex_of_dart[dart_map.get(d, d)] = token
            state.strip_at[(token, dart_map.get(d, d))] = s
    state._next_vertex = len(shape.sinks)
    state.circles = list(shape.circles)
    return state


def extend_halves(
    halves: Iterable[HalfFoam],
    movie: FoamMovie,
    dart_map: Mapping[int, int],
    loop_map: Mapping[int, int],
) -> list[HalfFoam]:
    """The half of each movie whose half is given, renamed by the maps
    and followed by ``movie``, with no sweep from the empty web.

    Labels only add up along a sweep, so ``movie`` is swept once per
    shape from a seeded state, giving the extension of an all-zero half
    and the new facet of each old one.  An old label ``2 chi - e`` left
    out the old web's ``e`` edges on the facet, now inner curves, so the
    zero half counts them back in.  A renamed web other than the movie's
    start, and every check of a plan's sweep, raise ``MalformedMovie``
    for each half of the failing shape: plans live for one call."""
    plans: dict[int, tuple[Web, HalfFoam, tuple[int, ...]]] = {}
    out = []
    for half in halves:
        plan = plans.get(half.shape_id)
        if plan is None:
            renamed = half.web.relabeled(dart_map, loop_map)
            if renamed != movie.start:
                raise MalformedMovie("a half extends only through a movie from its web")
            state = _sweep(movie, _seeded_state(half, dart_map, loop_map))
            base, facet_of = _reduce(state, movie.end)
            facet_map = tuple(map(facet_of, range(half.shape.size)))
            twice_chi = [c for c, _ in base.facets]
            dart_facet = dict(zip(half.web.darts, half.shape.keys))
            for t in half.web.out_darts:
                twice_chi[facet_map[dart_facet[t]]] += 1
            dots = [d for _, d in base.facets]
            base = base._replace(facets=tuple(zip(twice_chi, dots)))
            plan = plans[half.shape_id] = (half.web, base, facet_map)
        web, base, facet_map = plan
        if half.web is not web and half.web != web:
            raise MalformedMovie("a half extends only through a movie from its web")
        twice_chi = [c for c, _ in base.facets]
        dots = [d for _, d in base.facets]
        for f, (c, d) in zip(facet_map, half.facets):
            twice_chi[f] += c
            dots[f] += d
        out.append(base._replace(facets=tuple(zip(twice_chi, dots))))
    return out


def _intern_shape(shape: HalfShape) -> int:
    """The id of ``shape``: equal shapes get one id until
    ``memo.clear()``, and an id is never given to another shape, even
    after a clear."""
    sid = memo.SHAPE_IDS.get(shape)
    if sid is None:
        sid = memo.SHAPE_IDS[shape] = next(memo.SHAPE_COUNTER)
    return sid


class _GluePlan(NamedTuple):
    """How two half shapes glue, whatever their labels: the output facet
    of each input facet (those of the first half, then of the second),
    the boundary-slot count of each output facet, the canonical
    singular circles, how to pack a projected label vector (its
    ``struct`` packer, and the top bit of every field), and the value
    of every glued label vector met so far, keyed by its packed form
    (see ``_project``)."""

    facet_map: tuple[int, ...]
    slots: tuple[int, ...]
    circles: tuple[tuple[int, int, int], ...]
    pack: Callable[..., bytes]
    top_bits: int
    values: dict[int, int]


def _glue_plan(a: HalfShape, b: HalfShape) -> _GluePlan:
    """Every step of gluing two half foams that reads no facet label.

    The facets of both halves are joined along every dart and loop of
    the web, their strips and open seam arcs at every vertex; each
    resulting cycle of arcs is one singular circle, read at its first
    sink vertex.  Mismatched seam endpoints, a strip glued off its
    sheet, a circle with fewer than three distinct strips and a seam
    cycle without a sink raise ``MalformedMovie``."""
    if a.sinks != b.sinks:
        raise MalformedMovie("half foams do not glue: seam endpoints disagree")

    def classes(n: int, pairs: Iterable[tuple[int, int]], shift: int) -> list[int]:
        # the least member of the class of each of 0 .. n-1, x ~ y + shift
        dsu = _DSU(n)
        for x, y in pairs:
            dsu.union(x, y + shift)
        return [dsu.find(x) for x in range(n)]

    nf = a.size
    facet = classes(nf + b.size, set(zip(a.keys, b.keys)), nf)
    ns = len(a.strip_facets)
    strip_facet = [facet[f] for f in a.strip_facets]
    strip_facet += [facet[nf + f] for f in b.strip_facets]
    if [strip_facet[s] for s in a.strips] != [strip_facet[ns + s] for s in b.strips]:
        raise MalformedMovie(
            "seam strips on different sheets were glued; the foam is "
            "geometrically inconsistent"
        )
    strip = classes(len(strip_facet), zip(a.strips, b.strips), ns)
    nv = len(a.arcs)
    arc = classes(2 * nv, zip(a.arcs, b.arcs), nv)

    circles = [(facet[x], facet[y], facet[z]) for x, y, z in a.circles]
    circles += [(facet[nf + x], facet[nf + y], facet[nf + z]) for x, y, z in b.circles]
    read: set[int] = set()
    for i, sink in enumerate(a.sinks):
        if sink and arc[a.arcs[i]] not in read:
            read.add(arc[a.arcs[i]])
            x, y, z = a.strips[3 * i : 3 * i + 3]
            if len({strip[x], strip[y], strip[z]}) != 3:
                raise MalformedMovie(
                    "a singular circle closed with fewer than three distinct strips"
                )
            circles.append((strip_facet[x], strip_facet[y], strip_facet[z]))
    if len(read) != len({arc[x] for x in a.arcs}):
        raise MalformedMovie("half foams do not glue: a seam cycle has no sink")

    index, slots, out = _canonical_numbering(set(facet), circles)
    fields = 2 * len(slots)
    pack = struct.Struct(f"<{fields}H").pack
    top_bits = int.from_bytes(b"\0\x80" * fields, "little")
    return _GluePlan(tuple(index[r] for r in facet), slots, out, pack, top_bits, {})


def _check_webs(a: HalfFoam, b: HalfFoam) -> None:
    """Raise ``MalformedMovie`` unless the two halves end at one web."""
    if a.web is not b.web and a.web != b.web:
        raise MalformedMovie("half foams do not glue: their end webs differ")


def _plan_of(a: HalfFoam, b: HalfFoam) -> _GluePlan:
    """The glue plan of the two halves' shapes, built on first use and
    kept in ``memo.GLUE_PLANS`` by shape ids; a plan whose build raises
    is not kept."""
    key = (a.shape_id, b.shape_id)
    plan = memo.GLUE_PLANS.get(key)
    if plan is None:
        plan = memo.GLUE_PLANS[key] = _glue_plan(a.shape, b.shape)
    return plan


#: A projected label ``v`` must satisfy ``|v| < _LABEL_BOUND``.  It is
#: packed as ``v + _LABEL_BOUND``, one unsigned 16-bit field whose top
#: bit is clear (``_project``), so two such fields add up to less than
#: ``2 ** 16``: the sum of two packed projections has one field per
#: entry and no carry between them, and one packed sum is one summed
#: label vector.
_LABEL_BOUND = 1 << 14


def _project(
    plan: _GluePlan, facets: Sequence[tuple[int, int]], offset: int
) -> tuple[int, tuple[int, ...]]:
    """One half's labels added through the plan, as input facets
    ``offset, offset + 1, ...``: entry ``2 f`` is the twice Euler
    characteristic and entry ``2 f + 1`` the dots it gives output facet
    ``f``.  A closed foam's labels are the sum of its two halves'.

    Returned twice, each entry plus ``_LABEL_BOUND``: packed into one
    int, entry ``k`` in bits ``16 k`` to ``16 k + 15``, so that two
    halves sum by one int addition, and as a tuple, which only a sum
    whose value is not yet known reads.  An entry of size
    ``_LABEL_BOUND`` or more could make packed sums collide, and raises
    ``MalformedMovie``: as a field it is below zero, which does not
    pack, ``2 ** 15`` or more, which sets a top bit, or zero."""
    out = [_LABEL_BOUND] * (2 * len(plan.slots))
    for f, (c, d) in zip(plan.facet_map[offset:], facets):
        out[2 * f] += c
        out[2 * f + 1] += d
    try:
        packed = int.from_bytes(plan.pack(*out), "little")
    except struct.error:
        packed = None
    if packed is None or packed & plan.top_bits or 0 in out:
        v = next(v for v in out if not 0 < v < 2 * _LABEL_BOUND) - _LABEL_BOUND
        raise MalformedMovie(
            f"a half's projected label {v} is out of range: labels must be "
            f"less than {_LABEL_BOUND} in size"
        )
    return packed, tuple(out)


def _glued_value(plan: _GluePlan, labels: Sequence[int]) -> int:
    """The value of the closed foam a glue plan makes of the summed
    labels of two halves (``_project``), read straight off the labels:
    a facet of odd Euler characteristic, then one that is not a closed
    orientable sheet, raises ``MalformedMovie``; then the facets' genera
    and dots go to the forced-weight evaluation (``_forced_value``)."""
    twice_chi = labels[::2]
    for c in twice_chi:
        if c % 2:
            raise MalformedMovie(f"glued facet has odd Euler characteristic {c}/2")
    chi = [c // 2 for c in twice_chi]
    facets = _facet_genera(chi, labels[1::2], plan.slots)
    return _forced_value(facets, plan.slots, plan.circles)


def pair_halves(
    lefts: Sequence[HalfFoam], rights: Sequence[HalfFoam]
) -> list[list[int]]:
    """The value of the closed foam made of ``a`` followed by the
    reflection of ``b``, glued along their shared end web, for every
    ``a`` in ``lefts`` (the rows) and every ``b`` in ``rights`` (the
    columns).

    A closed foam's value depends only on its glue plan and its summed
    labels, so within a call each half's labels are projected through
    each plan it meets once (``_project``), and a pair only adds its two
    packed projections and looks the sum up in the plan's value table.
    Only a sum the table lacks adds the two label tuples, and its value
    is read straight off them (``_glued_value``), with no ``PreFoam``; a
    sum whose checks raise is never stored and raises for every pair
    that makes it.  End webs are compared first, once per pair of web
    objects, and a pair of shapes that does not glue raises when its
    plan is built."""
    right_webs = {id(b.web): b for b in rights}
    for a in {id(a.web): a for a in lefts}.values():
        for b in right_webs.values():
            _check_webs(a, b)
    right_seen: list[dict[int, tuple[int, tuple[int, ...]]]] = [{} for _ in rights]
    out = []
    for a in lefts:
        planned: dict[int, tuple[_GluePlan, tuple[int, tuple[int, ...]]]] = {}
        row = []
        for b, seen in zip(rights, right_seen):
            hit = planned.get(b.shape_id)
            if hit is None:
                plan = _plan_of(a, b)
                hit = planned[b.shape_id] = (plan, _project(plan, a.facets, 0))
            plan, (x, x_labels) = hit
            y = seen.get(a.shape_id)
            if y is None:
                y = seen[a.shape_id] = _project(plan, b.facets, a.shape.size)
            key = x + y[0]
            value = plan.values.get(key)
            if value is None:
                labels = [p + q - 2 * _LABEL_BOUND for p, q in zip(x_labels, y[1])]
                value = plan.values[key] = _glued_value(plan, labels)
            row.append(value)
        out.append(row)
    return out


# ==========================================================================
# evaluation
# ==========================================================================

#: Each way a circle gives the weights (0, 1, 2) to its three sheets, as
#: the complementary weights 2 - w the sheets receive, with its sign.
_SIGNED_SHARES = tuple(
    (theta_symbol(*perm), tuple(2 - w for w in perm))
    for perm in itertools.permutations(range(3))
)


#: The weight a facet must receive from its circles, and its value then,
#: for each (genus, dots) that can have a nonzero value: only the
#: twice-dotted sphere and the undotted torus do.
_FORCED = {
    (g, d): (n, closed_surface_value(g, d + n))
    for g, d, n in ((0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 0))
}


def evaluate(prefoam: PreFoam) -> int:
    """Exact integer value of a closed dotted singular surface.

    The value sums over every way of giving the weights (0, 1, 2) to the
    three sheets around each singular circle, cyclic orders counting +1
    and reversed ones -1, with a global sign -1 per circle: each facet
    contributes its closed-surface value at its dots plus the
    complementary weight 2 - w of each of its boundary slots.  Since
    only the twice-dotted sphere and the undotted torus are nonzero, the
    weight a facet must receive is forced (this is the colouring-sum
    form of foam evaluation; Robert--Wagner, arXiv 1702.04140, give it
    for sl(N)):

    * a facet *needs* 2 - d on a sphere with d <= 2 dots and 0 on an
      undotted torus, and multiplies in the value it then has, -1 or 3
      (``_FORCED``); any other facet, or a facet without slots that
      needs more than 0, makes the value 0;
    * each circle gives out 3 in all, so a total need other than 3 per
      circle makes the value 0;
    * what is left is ``N(circles, need)``, the signed number of ways to
      meet every need exactly (``_count_colourings``), kept in one memo
      for all foams, ``memo.COLOURINGS``.

    Everything after counting each facet's boundary slots is
    ``_forced_value``, which ``pair_halves`` also reaches, from the
    summed labels of two halves.
    """
    facets, circles = prefoam
    slots = [0] * len(facets)
    for tri in circles:
        for f in tri:
            slots[f] += 1
    return _forced_value(facets, slots, circles)


def _forced_value(
    facets: Sequence[tuple[int, int]],
    slots: Sequence[int],
    circles: tuple[tuple[int, int, int], ...],
) -> int:
    """The forced-weight core of ``evaluate``: the value of the closed
    foam with these ``(genus, dots)`` facets, boundary-slot counts and
    singular circles.  ``pair_halves`` reaches it from the summed labels
    of two halves, ``evaluate`` from a ``PreFoam``."""
    value = -1 if len(circles) % 2 else 1
    need = []
    for facet, s in zip(facets, slots):
        forced = _FORCED.get(facet)
        if forced is None or (forced[0] and not s):
            return 0
        value *= forced[1]
        need.append(forced[0])
    if sum(need) != 3 * len(circles):
        return 0
    while need and not slots[len(need) - 1]:
        need.pop()
    key = (circles, tuple(need))
    count = memo.COLOURINGS.get(key)
    if count is None:
        count = memo.COLOURINGS[key] = _count_colourings(circles, key[1])
    return value * count


def _count_colourings(
    circles: Sequence[tuple[int, int, int]], need: tuple[int, ...]
) -> int:
    """The signed number of ways to give each circle's three sheets the
    complementary weights (2, 1, 0) in some order, signed by that
    order's ``_SIGNED_SHARES`` sign, so that facet ``f`` receives
    exactly ``need[f]`` in all.

    A recursion over the circles in order, memoized on the needs still
    open; a branch dies as soon as a facet has received more than its
    need or can no longer reach it with two per slot left."""
    left = [0] * len(need)
    caps = []
    for x, y, z in reversed(circles):
        caps.append((2 * left[x], 2 * left[y], 2 * left[z]))
        left[x] += 1
        left[y] += 1
        left[z] += 1
    caps.reverse()
    last = len(circles)
    seen: dict[tuple[int, tuple[int, ...]], int] = {}

    def rec(idx: int, rem: tuple[int, ...]) -> int:
        if idx == last:
            return 1
        key = (idx, rem)
        hit = seen.get(key)
        if hit is not None:
            return hit
        x, y, z = circles[idx]
        cx, cy, cz = caps[idx]
        total = 0
        for sign, (a, b, c) in _SIGNED_SHARES:
            r = list(rem)
            r[x] -= a
            r[y] -= b
            r[z] -= c
            if 0 <= r[x] <= cx and 0 <= r[y] <= cy and 0 <= r[z] <= cz:
                total += sign * rec(idx + 1, tuple(r))
        seen[key] = total
        return total

    return rec(0, need)


# ==========================================================================
# standard small cobordisms
# ==========================================================================


def identity_movie(web: Web) -> FoamMovie:
    return FoamMovie(web, (), (web,))


def dot_movie(web: Web, site: int) -> FoamMovie:
    return FoamMovie(web, (Dot(site),), (web, web))


def _projected_face(web: Web, face: int, sides: str, name: str) -> tuple[int, ...]:
    """The dart orbit of ``face``, checked to exist, have ``sides``
    sides, be bounded and hold nothing; otherwise ``MoveError``."""
    orbit = web.faces().get(face)
    if orbit is None:
        raise MoveError(f"{name}: no face with key {face}")
    if len(orbit) != {"two": 2, "four": 4}[sides]:
        raise MoveError(f"{name}: face {face} is not {sides}-sided")
    if face == web.outer_face[web.component_of(orbit[0])]:
        raise MoveError(f"{name}: the face must be bounded")
    if web.children_of(("face", face)):
        raise MoveError(f"{name}: the face must have an empty interior")
    return orbit


def cap_movies(web: Web, face: int) -> tuple[FoamMovie, FoamMovie]:
    """The two projections collapsing the bounded, empty two-edge face
    ``face``: (dotted cap, degree +1; plain cap, degree -1).

    Both unzip the face's edge at ``d_a``, the face's dart at its sink
    vertex (the inner "chord" sheet).  The face's other edge (the outer
    "bulge", dart ``sigma(d_a)``) then closes into a circle around the
    emptied face, and that circle dies.  The two external strands fuse;
    when they are one edge (a theta-like web) they close into a free
    loop with the web's first fresh loop id (``_fresh_loop_id``) and
    the bulge circle takes the next one, otherwise the bulge circle
    takes the first.  The unzip and the death run once, and both movies
    are given the slices they make.

    The dotted cap puts its dot on the bulge sheet, before the unzip,
    while the dotted lift of ``digon_movies`` marks the chord sheet.
    With the cyclic order of ``_sink_reading`` only this choice makes
    "plain lift then dotted cap" induce plus the identity; the
    two-edge-face identity tests pin it.  A face that is missing, not
    two-sided, a component's outer face or not empty raises
    ``MoveError`` (``_projected_face``)."""
    orbit = _projected_face(web, face, "two", "cap")
    d_a = orbit[0] if orbit[0] not in web.out_darts else orbit[1]
    bulge = web.sigma[d_a]
    lid = _fresh_loop_id(web)
    outer = None
    # the external darts at the sink and at the source share an edge
    if web.alpha[web.sigma[bulge]] == web.sigma[web.alpha[d_a]]:
        outer, lid = lid, _fresh_loop_id(web, (lid,))
    cap = (Unzip(d_a, loop_id_aligned=outer, loop_id_anti=lid), Death(lid))
    unzipped = apply_unzip(web, cap[0])
    slices = (web, unzipped, apply_death(unzipped, cap[1]))
    dotted = FoamMovie(web, (Dot(bulge),) + cap, (web,) + slices)
    return dotted, FoamMovie(web, cap, slices)


def digon_movies(
    web: Web, face: int
) -> tuple[FoamMovie, FoamMovie, FoamMovie, FoamMovie]:
    """The four canonical movies around the two-edge face ``face`` of
    ``web``: ``(lift_plain, lift_dotted, drop_dotted, drop_plain)``.

    The two drops collapse the face onto the reduced web (they are
    exactly ``cap_movies``: unzip the chord edge at the face's sink-side
    dart, then the death of the bulge circle).  The plain lift is the
    reflection of the plain drop: the birth of the bulge circle, then
    the zip that restores the chord edge.  The dotted lift adds one dot
    on the chord sheet, at the face's sink-side dart, *opposite* the
    bulge sheet the dotted drop marks, so that the four satisfy the
    two-edge-face identities (plain lift then dotted drop = identity,
    and so on)."""
    drop_dotted, drop_plain = cap_movies(web, face)
    p, q = web.faces()[face]
    d_a = p if p not in web.out_darts else q
    lift_plain = drop_plain.reflect()
    lift_dotted = lift_plain.compose(dot_movie(web, d_a))
    return lift_plain, lift_dotted, drop_dotted, drop_plain


def square_split_movies(web: Web, face: int) -> tuple[FoamMovie, FoamMovie]:
    """The two degree-zero projections unzipping a four-edge face.

    Each branch unzips one opposite pair of the face's edges; the face's
    other edge pair, fused by the first unzip, closes into a circle at
    the second unzip and is capped off.  Any further circles the
    rewiring closes belong to the reduced web and survive.  The branch
    whose pair contains the face's smallest dart comes first.  Each
    branch is given the slices of its two unzips and its death; a face
    ``_projected_face`` refuses raises ``MoveError`` before any surgery.
    """
    orbit = _projected_face(web, face, "four", "square")

    def branch(first: int) -> FoamMovie:
        moves: list[Move] = []
        slices = [web]
        seams = sorted((orbit[first], orbit[first + 2]))
        middle = None
        for seam in seams:
            lid = _fresh_loop_id(slices[-1])
            mv = Unzip(seam, loop_id_aligned=lid, loop_id_anti=lid - 1)
            slices.append(apply_unzip(slices[-1], mv))
            moves.append(mv)
            if seam == seams[1]:
                # the face lies left of its orbit darts, so its side of
                # this seam is the aligned flank exactly when the orbit
                # dart points out of the source vertex
                middle = lid if seam in web.out_darts else lid - 1
        if middle not in slices[-1].loop_ccw:
            raise MalformedMovie(
                f"second unzip of face {face} did not close the middle circle"
            )
        moves.append(Death(middle))
        slices.append(apply_death(slices[-1], moves[-1]))
        return FoamMovie(web, moves, slices)

    return branch(0), branch(1)
