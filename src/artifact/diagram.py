"""Oriented link diagrams: PD codes, crossing signs, flattenings.

A diagram is a list of crossings, each recorded as a 4-tuple of arc
labels listed counterclockwise starting from the incoming under-strand.
Arc orientations come from one walk per link component: the walk enters
a crossing at slot ``s``, leaves it at slot ``s + 2`` and follows the
arc to its other end.  It runs with the orientation exactly when it
enters its under passes at slot 0.  A component that never passes under
takes its direction from the optional hints (the slot at which the
over-strand enters a crossing), and without one its lowest-numbered
crossing's over-strand enters at the second tuple position.  A crossing
is positive when a quarter turn counterclockwise carries the
under-strand's direction to the over-strand's direction, negative
otherwise; equivalently, the over-strand of a positive crossing enters
at the second tuple position and that of a negative crossing at the
fourth.

A flattening replaces every crossing with one of its two local pictures:

* the oriented smoothing -- two disjoint arcs following the strand
  orientations; or
* the bridge picture -- two trivalent vertices (a sink collecting the
  two inflow ports, a source emitting the two outflow ports) joined by
  a bridge edge oriented source-vertex to sink-vertex.

A positive crossing smooths under choice 0 and bridges under choice 1;
a negative crossing the other way around.  The resulting closed web has
deterministic labels: crossing ``c`` owns port darts ``4c+1..4c+4`` (one
per tuple slot) and bridge darts ``4n+2c+1`` (sink end) and ``4n+2c+2``
(source end); a strand between two bridged crossings keeps exactly its
two end-port darts; a strand that closes up becomes a free loop whose id
is minus the smallest port dart it passes.

Every flattening is built from the one that bridges every crossing, by
unzipping the bridge of each smoothed crossing in turn: the flattening
at a choice vector is the unzip of its last smoothed crossing's bridge
in the flattening that bridges that crossing.  So the nesting, outer
faces and loop winding flags of a flattening come from the same
``Unzip`` surgery as the cube edges, and equal inputs always produce
identical webs.  Each flattening is built once per diagram and choice
vector and kept in ``memo.FLATTENINGS``.  A diagram builds its
all-bridged flattening when it is made, as its planarity check: bridging
a crossing adds one vertex and one edge but no face, so each piece of
that web has the Euler characteristic of the PD graph's piece, and
``Web`` rejects any piece whose characteristic is not 2.

``resolution_edge_movie`` returns, for any choice vector and any
crossing sitting at choice 0, the one-move cobordism that carries the
choice-0 flattening to the choice-1 flattening with exactly matching
labels.  Both signs start from the unzip of the crossing's bridge in the
flattening that bridges it: a negative crossing's edge is that
``Unzip``, and a positive crossing's edge is its inverse, a ``Zip``.
Either way the unzip is run once, as a check that it carries the
flattening that bridges the crossing to the one that smooths it, and
the movie is given the two cached flattenings as its slices: no zip is
ever run by surgery.
"""

from __future__ import annotations

import itertools
import re
from typing import NamedTuple, Optional, Sequence

from . import memo
from .algebra import VALUE_EQUALITY
from .foam import (
    FoamMovie,
    MalformedMovie,
    Unzip,
    _unzip_arms,
    apply_unzip,
    inverse_move,
)
from .web import MalformedWeb, Web, _component_split


class MalformedDiagram(Exception):
    """Raised when PD data cannot describe an oriented planar diagram."""


# --------------------------------------------------------------------------
# crossing-local geometry
#
# Tuple slots sit at the four compass points of a small disk around the
# crossing: slot 0 = incoming under-strand (south), and slots 1, 2, 3
# continue counterclockwise (east, north, west).  The under-strand runs
# south to north.  For a positive crossing the over-strand runs east to
# west, for a negative one west to east.
# --------------------------------------------------------------------------

#: Slots where the strands flow into the disk, per sign.
_IN_SLOTS = {1: (0, 1), -1: (0, 3)}

#: Oriented smoothing inside the disk: entry slot -> exit slot.  The two
#: arcs of a positive smoothing hug the southwest and northeast corners;
#: those of a negative smoothing hug the southeast and northwest corners.
_SMOOTH_EXIT = {1: {0: 3, 1: 2}, -1: {0: 1, 3: 2}}


def _port(c: int, s: int) -> int:
    """Dart label of crossing ``c``'s port at slot ``s``."""

    return 4 * c + s + 1


def _bridge_darts(n: int, c: int) -> tuple[int, int]:
    """(sink-end, source-end) dart labels of crossing ``c``'s bridge."""

    return 4 * n + 2 * c + 1, 4 * n + 2 * c + 2


def _bridge_tables(sign: int, a: tuple[int, int, int, int], m1: int, m2: int):
    """Counterclockwise (sink, source) vertex cycles of the bridge
    picture of a crossing with the given sign.

    ``a`` lists the four port darts by slot.  The cycles are fixed by
    the disk geometry: the sink vertex sits between the two inflow ports
    and also carries the bridge's sink end ``m1``; the source vertex
    sits between the two outflow ports and carries the source end
    ``m2``.  The source cycle's darts are the outflow darts.
    """

    a0, a1, a2, a3 = a
    if sign == 1:
        return (a0, a1, m1), (a2, a3, m2)
    return (m1, a3, a0), (a1, a2, m2)


# --------------------------------------------------------------------------
# the diagram type
# --------------------------------------------------------------------------


class LinkDiagram(NamedTuple):
    """An oriented link diagram: validated crossing tuples with their
    signs, plus a number of crossing-free unknotted circles drawn side
    by side next to the crossing part.

    Build instances through :func:`parse_pd`, :meth:`from_crossings` or
    :func:`diagram_from_json`; the constructor itself does not validate.
    """

    crossings: tuple[tuple[int, int, int, int], ...]
    signs: tuple[int, ...]
    free_loops: int = 0

    __eq__, __ne__, __hash__ = VALUE_EQUALITY

    # -- construction ------------------------------------------------------

    @classmethod
    def from_crossings(
        cls,
        crossings: Sequence[Sequence[int]],
        over_in: Optional[Sequence[Optional[int]]] = None,
        free_loops: int = 0,
    ) -> "LinkDiagram":
        """Validate crossing tuples, derive signs and check planarity.

        ``over_in`` optionally pins, per crossing, the slot (1 or 3) at
        which the over-strand enters; ``None`` entries leave the choice
        to the component walk (:func:`_derive_signs`).  ``free_loops``
        adds that many crossing-free circles next to the diagram.  The
        PD data is planar when the flattening that bridges every
        crossing is a valid ``Web``; that flattening is kept in
        ``memo.FLATTENINGS``, and every other one is built from it.
        """

        xs = _check_tuples(crossings)
        if (
            not isinstance(free_loops, int)
            or isinstance(free_loops, bool)
            or free_loops < 0
        ):
            raise MalformedDiagram("free_loops must be a non-negative integer")
        signs = _derive_signs(xs, _occurrences(xs), over_in)
        d = cls(crossings=xs, signs=signs, free_loops=free_loops)
        try:
            _flatten_state(d, tuple(int(s == 1) for s in signs))
        except MalformedWeb as exc:
            raise MalformedDiagram(f"non-planar PD data: {exc}") from exc
        return d

    # -- basic data --------------------------------------------------------

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @property
    def positive_count(self) -> int:
        return sum(1 for s in self.signs if s == 1)

    @property
    def negative_count(self) -> int:
        return sum(1 for s in self.signs if s == -1)

    def mirror(self) -> "LinkDiagram":
        """The diagram with every crossing's over- and under-strand
        exchanged; all signs flip.  Each old under-strand is pinned as
        the new over-strand (``over_in``), so a component that passes
        only under keeps its orientation."""

        flipped = []
        for x, sign in zip(self.crossings, self.signs):
            a, b, c, d = x
            flipped.append((b, c, d, a) if sign == 1 else ((d, a, b, c)))
        over_in = [3 if s == 1 else 1 for s in self.signs]
        return LinkDiagram.from_crossings(flipped, over_in, self.free_loops)

    # -- flattenings -------------------------------------------------------

    def flatten(self, resolution) -> Web:
        """The closed web obtained by resolving every crossing according
        to ``resolution``, a vector with one 0 or 1 per crossing."""

        bits = self._bits_of(resolution)
        return _flatten_state(self, bits).web

    def _bits_of(self, resolution) -> tuple[int, ...]:
        bits = tuple(resolution)
        if len(bits) != self.n_crossings or any(b not in (0, 1) for b in bits):
            raise MalformedDiagram(
                f"resolution must assign 0 or 1 to each of the "
                f"{self.n_crossings} crossings, got {bits!r}"
            )
        return bits

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        data: dict = {"crossings": [list(x) for x in self.crossings]}
        over = []
        for x, sign in zip(self.crossings, self.signs):
            over.append(1 if sign == 1 else 3)
        if over:
            data["over_in"] = over
        if self.free_loops:
            data["free_loops"] = self.free_loops
        return data


# --------------------------------------------------------------------------
# parsing and validation
# --------------------------------------------------------------------------

_PD_TUPLE = re.compile(
    r"[Xx]\s*[(\[]\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*[)\]]"
)
_PD_FILLER = re.compile(r"^[\s,;]*$")


def parse_pd(text: str) -> LinkDiagram:
    """Parse PD-code text such as ``"X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"``.

    Tuples may use parentheses or brackets and any whitespace/comma
    separation.  An empty string gives the empty diagram.
    """

    if not isinstance(text, str):
        raise MalformedDiagram("PD code must be a string")
    crossings = [tuple(int(g) for g in m.groups()) for m in _PD_TUPLE.finditer(text)]
    leftover = _PD_TUPLE.sub("", text)
    if not _PD_FILLER.match(leftover):
        raise MalformedDiagram(
            f"unrecognized PD text {leftover.strip().split()[0]!r}: crossings "
            f"must be 4-tuples like X(1,4,2,5)"
        )
    return LinkDiagram.from_crossings(crossings)


def diagram_from_json(data) -> LinkDiagram:
    """Build a diagram from its JSON form: either a bare list of
    crossing 4-tuples, or an object with keys ``crossings`` and the
    optional ``over_in`` (entries 1, 3 or null) and ``free_loops``."""

    if isinstance(data, dict):
        unknown = set(data) - {"crossings", "over_in", "free_loops"}
        if unknown:
            raise MalformedDiagram(f"unknown diagram keys {sorted(unknown)!r}")
        crossings = data.get("crossings", [])
        over_in = data.get("over_in")
        free_loops = data.get("free_loops", 0)
    elif isinstance(data, (list, tuple)):
        crossings, over_in, free_loops = data, None, 0
    else:
        raise MalformedDiagram(
            "diagram JSON must be a list of 4-tuples or an object"
        )
    return LinkDiagram.from_crossings(crossings, over_in=over_in, free_loops=free_loops)


def _check_tuples(crossings) -> tuple[tuple[int, int, int, int], ...]:
    if not isinstance(crossings, (list, tuple)):
        raise MalformedDiagram(f"crossings must be a list, got {crossings!r}")
    xs = []
    for x in crossings:
        if not isinstance(x, (list, tuple)):
            raise MalformedDiagram(
                f"crossing {x!r} must be a sequence of 4 arc labels"
            )
        t = tuple(x)
        if len(t) != 4:
            raise MalformedDiagram(
                f"crossing {t!r} must have exactly 4 arc labels"
            )
        for lab in t:
            if not isinstance(lab, int) or isinstance(lab, bool) or lab <= 0:
                raise MalformedDiagram(
                    f"arc labels must be positive integers, got {lab!r}"
                )
        xs.append(t)
    return tuple(xs)


def _occurrences(xs) -> dict[int, tuple[tuple[int, int], tuple[int, int]]]:
    """Map each arc label to its two (crossing, slot) occurrences."""

    where: dict[int, list[tuple[int, int]]] = {}
    for c, x in enumerate(xs):
        for s, lab in enumerate(x):
            where.setdefault(lab, []).append((c, s))
    bad = {lab: len(o) for lab, o in where.items() if len(o) != 2}
    if bad:
        lab = min(bad)
        raise MalformedDiagram(
            f"arc label {lab} occurs {bad[lab]} time(s); every label must "
            f"occur exactly twice"
        )
    return {lab: (o[0], o[1]) for lab, o in where.items()}


def _arc_other(xs, occ, c: int, s: int) -> tuple[int, int]:
    """The other occurrence of the arc present at slot ``s`` of ``c``."""

    o1, o2 = occ[xs[c][s]]
    return o2 if o1 == (c, s) else o1


def _derive_signs(xs, occ, over_in) -> tuple[int, ...]:
    """Derive crossing signs by walking each link component once.

    The walk enters a crossing at slot ``s`` and leaves at ``s + 2``;
    a component runs with it when its under passes are entered at slot
    0, against it when at slot 2, and is inconsistent when both occur.
    No walk passes one strand both ways, as no arc joins a slot to itself.
    A component with no under pass follows its lowest hinted crossing,
    else enters its lowest-numbered crossing at slot 1.  A crossing is
    positive when its over-strand enters at slot 1.
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
    hints = over_in or [None] * n
    entry: dict[tuple[int, int], int] = {}
    for start in itertools.product(range(n), (0, 1)):
        if start in entry:
            continue
        walk = [start]
        c, s = _arc_other(xs, occ, start[0], start[1] + 2)
        while (c, s) != start:
            walk.append((c, s))
            c, s = _arc_other(xs, occ, c, (s + 2) % 4)
        under = {s for c, s in walk if s % 2 == 0}
        if len(under) == 2:
            raise MalformedDiagram(
                f"inconsistent orientation: the component through crossing "
                f"{start[0]} enters its under passes both ways"
            )
        if under:
            (turn,) = under
        else:
            c, s = min(((c, s) for c, s in walk if hints[c]), default=min(walk))
            turn = 0 if s == (hints[c] or 1) else 2
        for c, s in walk:
            s = (s + turn) % 4
            if s % 2 and hints[c] not in (None, s):
                raise MalformedDiagram(
                    f"orientation hint for crossing {c} conflicts with the "
                    f"arcs"
                )
            entry[c, s % 2] = s
    return tuple(1 if entry[c, 1] == 1 else -1 for c in range(n))


# --------------------------------------------------------------------------
# flattenings
# --------------------------------------------------------------------------


def resolutions(n: int) -> list[tuple[int, ...]]:
    """Every choice vector over ``n`` crossings, in mask order: entry
    ``k`` of the vector for ``mask`` is bit ``k`` of ``mask``."""
    return [tuple((mask >> k) & 1 for k in range(n)) for mask in range(1 << n)]


class _FlatState(NamedTuple):
    """A flattened web, and the id of the free loop through each
    smoothed crossing's inflow port, keyed ``(crossing, slot)``."""

    web: Web
    loop_at: dict[tuple[int, int], int]


def _bridged_web(d: LinkDiagram) -> Web:
    """The flattening that bridges every crossing, with the diagram's
    free loops side by side.

    Every piece of the diagram is one component in the root region.  A
    piece's smallest dart is the slot-0 port of its smallest crossing,
    so that dart keys both the component and the face through it, and
    that face is the component's outer face."""

    n = d.n_crossings
    sigma: dict[int, int] = {}
    alpha: dict[int, int] = {}
    out_darts: set[int] = set()
    for c, sign in enumerate(d.signs):
        m1, m2 = _bridge_darts(n, c)
        sink, source = _bridge_tables(sign, tuple(_port(c, s) for s in range(4)), m1, m2)
        for cyc in (sink, source):
            for i, dart in enumerate(cyc):
                sigma[dart] = cyc[(i + 1) % 3]
        alpha[m1], alpha[m2] = m2, m1
        out_darts.update(source)
    for (c1, s1), (c2, s2) in _occurrences(d.crossings).values():
        alpha[_port(c1, s1)], alpha[_port(c2, s2)] = _port(c2, s2), _port(c1, s1)
    pieces = _component_split(sigma, alpha)
    loop_ccw = {-(6 * n + j + 1): True for j in range(d.free_loops)}
    return Web(sigma, alpha, out_darts, loop_ccw, None, {k: k for k in pieces})


def _smoothed_loops(d: LinkDiagram, smoothed: set[int]) -> dict[tuple[int, int], int]:
    """The id of the free loop through each smoothed crossing's inflow
    port, keyed ``(crossing, slot)``: minus the smallest port dart the
    loop passes.  Strands that reach a bridged crossing are not loops."""

    xs = d.crossings
    occ = _occurrences(xs)
    loop_at: dict[tuple[int, int], int] = {}
    seen: set[tuple[int, int]] = set()
    for c in smoothed:
        for s in _IN_SLOTS[d.signs[c]]:
            route: list[tuple[int, int]] = []
            ports: list[int] = []
            cur = (c, s)
            while cur[0] in smoothed and cur not in seen:
                seen.add(cur)
                route.append(cur)
                cc, ss = cur
                exit_slot = _SMOOTH_EXIT[d.signs[cc]][ss]
                ports.extend([_port(cc, ss), _port(cc, exit_slot)])
                cur = _arc_other(xs, occ, cc, exit_slot)
            if route and cur == (c, s):
                loop_at.update(dict.fromkeys(route, -min(ports)))
    return loop_at


def _flatten_state(d: LinkDiagram, bits: tuple[int, ...]) -> _FlatState:
    """The flattening at ``bits``: the all-bridged web when no crossing
    is smoothed, else the unzip of the last smoothed crossing's bridge
    in the cached flattening that bridges it.  Kept in
    ``memo.FLATTENINGS`` by ``(d, bits)``."""

    state = memo.FLATTENINGS.get((d, bits))
    if state is None:
        smoothed = [c for c, b in enumerate(bits) if (b == 1) != (d.signs[c] == 1)]
        loop_at = _smoothed_loops(d, set(smoothed))
        if smoothed:
            c = smoothed[-1]
            bridged = _flatten_state(d, bits[:c] + (1 - bits[c],) + bits[c + 1 :])
            unzip = _bridge_unzip(c, bridged.web, loop_at, d.n_crossings)
            web = apply_unzip(bridged.web, unzip)
        else:
            web = _bridged_web(d)
        state = memo.FLATTENINGS[d, bits] = _FlatState(web, loop_at)
    return state


# --------------------------------------------------------------------------
# resolution-edge moves
# --------------------------------------------------------------------------


def _bridge_unzip(
    crossing: int, web: Web, loop_at: dict[tuple[int, int], int], n: int
) -> Unzip:
    """The ``Unzip`` of ``crossing``'s bridge dart ``m1`` in ``web``, a
    flattening that bridges it.  An arm pair whose two darts already
    share an edge closes into a free loop; its id is the one ``loop_at``
    (the loop ids of the flattening that smooths the crossing) gives the
    pair's inflow port."""

    m1, _ = _bridge_darts(n, crossing)
    _, _, p, q, r, s = _unzip_arms(web, m1)

    def closing_loop(inflow: int, outflow: int) -> Optional[int]:
        if web.alpha[inflow] != outflow:
            return None
        return loop_at[(crossing, (inflow - 1) % 4)]

    return Unzip(
        seam=m1,
        loop_id_aligned=closing_loop(q, r),
        loop_id_anti=closing_loop(p, s),
    )


def resolution_edge_movie(d: LinkDiagram, bits, crossing: int) -> FoamMovie:
    """The one-move cobordism from ``d.flatten(bits)`` to the flattening
    with ``crossing`` switched from choice 0 to choice 1, with exactly
    matching labels.

    Both edges of a crossing are built from the unzip of its bridge
    (:func:`_bridge_unzip`) in the flattening that bridges it.  A
    negative crossing smooths under the switch, so its edge is that
    unzip, run on the source flattening, which must give the target
    flattening.  A positive crossing bridges under the switch, so its
    edge is the inverse of the unzip: a ``Zip`` whose new vertices and
    bridge reuse the target's port and bridge darts.  Its unzip is run
    on the target flattening, which must give the source flattening,
    and the ``Zip`` must invert back to that unzip.  The flattening that
    smooths ``crossing`` was itself built by a last unzip at another
    crossing whenever ``crossing`` is not its last smoothed one, so
    either check also sees that unzips at different crossings commute.
    The movie's slices are the two cached flattenings, so the target's
    canonical form is computed once for all the edges that reach it."""

    bits = d._bits_of(bits)
    n = d.n_crossings
    if not 0 <= crossing < n:
        raise MalformedDiagram(f"no crossing {crossing} in a {n}-crossing diagram")
    if bits[crossing] != 0:
        raise MalformedDiagram(
            f"crossing {crossing} already sits at choice 1 in {bits!r}"
        )
    target = tuple(1 if i == crossing else b for i, b in enumerate(bits))
    source_state = _flatten_state(d, bits)
    target_state = _flatten_state(d, target)
    if d.signs[crossing] == 1:
        unzip = _bridge_unzip(crossing, target_state.web, source_state.loop_at, n)
        move = inverse_move(unzip, target_state.web, source_state.web)
        exact = (
            apply_unzip(target_state.web, unzip) == source_state.web
            and inverse_move(move, source_state.web, target_state.web) == unzip
        )
    else:
        move = _bridge_unzip(crossing, source_state.web, target_state.loop_at, n)
        exact = apply_unzip(source_state.web, move) == target_state.web
    if not exact:
        raise MalformedMovie(
            f"internal: resolution move at crossing {crossing} of {bits!r} "
            f"failed to reproduce the target flattening"
        )
    return FoamMovie(source_state.web, (move,), (source_state.web, target_state.web))
