"""Closed trivalent plane graphs ("webs") and their Laurent bracket.

A web is a disjoint union of closed oriented trivalent plane graphs and
verticeless circles ("free loops"), with nesting data recording which
region of the plane each connected piece sits in.  It is stored as an
oriented combinatorial map:

* darts -- positive ints, one per edge end (half-edge);
* ``sigma`` -- permutation sending each dart to the next dart
  counterclockwise around its vertex; every cycle has length exactly 3;
* ``alpha`` -- fixed-point-free involution pairing the two darts of each
  edge;
* ``out_darts`` -- the tail darts.  Each edge has exactly one tail, and
  the three darts at a vertex are either all tails (source vertex) or all
  heads (sink vertex).  This forces the graph to be bipartite and
  bridge-free;
* free loops -- one negative id each, with a flag telling whether the
  loop runs counterclockwise in the plane;
* nesting -- each component or loop records its parent region.

Faces are the orbits of the walk ``phi(d) = sigma^-1(alpha(d))``; a face
walk keeps the region it bounds on its left.  A face orbit is keyed by
its smallest dart.  Every dart component designates one *outer* face (the
walk that bounds the component from outside); all its other faces are
bounded.  Regions are written in the normal form

* ``None`` -- the unbounded root region,
* ``("face", f)`` -- the bounded face with key ``f``,
* ``("inside", loop_id)`` -- the open disk inside a free loop,

and the parent assignment forms a forest rooted at ``None``.

``Web(...)`` checks its input in time linear in its size.  The maps are
checked before faces and components are derived, since a face walk on
maps that are not a trivalent map need not end; the Euler
characteristics, the outer faces and the nesting come after, and any
failure raises ``MalformedWeb``.  Two webs are equal when their six maps
are; ``exact_key`` serializes the same maps into the string that keys
the state-space and edge-map memos and the web dumps.

``Web.relabeled`` renames darts and loop ids.  ``Web.canonical`` gives
the canonical web of a web's relabeling class and the maps onto it: two
webs are relabelings of one another exactly when their canonical webs
are equal.  It is built on the breadth-first component key that also
keys the bracket memo, ``memo.BRACKETS``.

The bracket of a web is the Laurent polynomial fixed by: empty web
``1``; disjoint circle ``[3]``; collapsing a two-edge (digon) face
``[2]``; a four-edge (square) face splits as the sum of its two planar
reconnections.  ``kuperberg_bracket`` evaluates it by recursion on those
local moves; ``link_bracket`` combines it over all binary resolutions of
a link diagram.
"""

from __future__ import annotations

import itertools
import json
from typing import Callable, Iterable, Mapping, NamedTuple, Optional

from . import memo
from .algebra import VALUE_EQUALITY, LaurentPoly, quantum_integer

Region = Optional[tuple[str, int]]


class MalformedWeb(Exception):
    """Raised when data does not describe a valid closed plane web.
    ``component`` is the key of the component found not planar, if any."""

    component = None


# --------------------------------------------------------------------------
# generic combinatorial-map helpers (also used by the bracket recursion)
# --------------------------------------------------------------------------


def _face_orbits(sigma: Mapping[int, int], alpha: Mapping[int, int]) -> dict[int, tuple[int, ...]]:
    """Orbits of ``phi(d) = sigma^-1(alpha(d))``, keyed by smallest dart.

    Each orbit tuple starts at its smallest dart and follows ``phi``.
    """
    sigma_inv = {v: k for k, v in sigma.items()}
    seen: set[int] = set()
    orbits: dict[int, tuple[int, ...]] = {}
    for start in sorted(sigma):
        if start in seen:
            continue
        walk = [start]
        seen.add(start)
        d = sigma_inv[alpha[start]]
        while d != start:
            walk.append(d)
            seen.add(d)
            d = sigma_inv[alpha[d]]
        orbits[start] = tuple(walk)
    return orbits


def _component_split(sigma: Mapping[int, int], alpha: Mapping[int, int]) -> dict[int, frozenset[int]]:
    """Connected components of the dart set under sigma and alpha,
    keyed by smallest dart."""
    seen: set[int] = set()
    comps: dict[int, frozenset[int]] = {}
    for start in sorted(sigma):
        if start in seen:
            continue
        # the darts below ``start`` are all seen, so it is the smallest
        seen.add(start)
        comp = [start]
        for d in comp:
            for nb in (sigma[d], alpha[d]):
                if nb not in seen:
                    seen.add(nb)
                    comp.append(nb)
        comps[start] = frozenset(comp)
    return comps


# --------------------------------------------------------------------------
# the Web class
# --------------------------------------------------------------------------


class Web:
    """A closed oriented trivalent plane graph with free loops and nesting.

    Instances validate on construction, maps checked before faces and
    components are derived (a ``relabeled`` copy of a valid web is
    valid by construction), and should be treated as immutable;
    operations that change a web build a new instance.
    """

    __slots__ = (
        "sigma",
        "alpha",
        "out_darts",
        "loop_ccw",
        "parent",
        "outer_face",
        "_faces",
        "_face_of",
        "_comps",
        "_comp_of",
        "_key",
        "_canon",
    )

    def __init__(
        self,
        sigma: Mapping[int, int] = (),
        alpha: Mapping[int, int] = (),
        out_darts: Iterable[int] = (),
        loop_ccw: Mapping[int, bool] = (),
        parent: Optional[Mapping[int, Region]] = None,
        outer_face: Optional[Mapping[int, int]] = None,
    ) -> None:
        try:
            self._store(sigma, alpha, out_darts, loop_ccw)
            self._check_maps()
            self._derive(parent, outer_face)
            self._check_embedding()
        except TypeError as exc:
            # an unhashable dart, loop id or face (a list, say) fails at
            # the first set or dict it meets
            raise MalformedWeb(f"web maps must hold ints: {exc}") from exc

    def _store(
        self,
        sigma: Mapping[int, int],
        alpha: Mapping[int, int],
        out_darts: Iterable[int],
        loop_ccw: Mapping[int, bool],
    ) -> None:
        self.sigma = dict(sigma)
        self.alpha = dict(alpha)
        self.out_darts = frozenset(out_darts)
        self.loop_ccw = dict(loop_ccw)
        self._key: Optional[str] = None
        self._canon: Optional[tuple[Web, dict[int, int], dict[int, int]]] = None

    def _derive(
        self,
        parent: Optional[Mapping[int, Region]],
        outer_face: Optional[Mapping[int, int]],
    ) -> None:
        """Walk the faces and components of the stored maps, which must
        already be a trivalent map: on other maps a face walk need not
        end."""
        self._faces = _face_orbits(self.sigma, self.alpha) if self.sigma else {}
        self._face_of = {d: f for f, orbit in self._faces.items() for d in orbit}
        self._comps = _component_split(self.sigma, self.alpha) if self.sigma else {}
        self._comp_of = {d: c for c, comp in self._comps.items() for d in comp}
        self.outer_face = dict(outer_face) if outer_face is not None else {}
        if parent is not None:
            self.parent = dict(parent)
        else:
            # default: everything side by side in the root region
            self.parent = {c: None for c in self._comps}
            self.parent.update({l: None for l in self.loop_ccw})

    # -- inspection --------------------------------------------------------

    @property
    def darts(self) -> tuple[int, ...]:
        return tuple(sorted(self.sigma))

    @property
    def loops(self) -> tuple[int, ...]:
        return tuple(sorted(self.loop_ccw))

    def is_empty(self) -> bool:
        return not self.sigma and not self.loop_ccw

    def faces(self) -> dict[int, tuple[int, ...]]:
        """Face orbits keyed by smallest dart (includes outer faces)."""
        return dict(self._faces)

    def face_of(self, dart: int) -> int:
        return self._face_of[dart]

    def components(self) -> dict[int, frozenset[int]]:
        return dict(self._comps)

    def component_of(self, dart: int) -> int:
        return self._comp_of[dart]

    def vertex_of(self, dart: int) -> tuple[int, int, int]:
        """The sigma cycle through ``dart``, rotated to start at its
        smallest dart."""
        a = dart
        b = self.sigma[a]
        c = self.sigma[b]
        m = min(a, b, c)
        while a != m:
            a, b, c = b, c, a
        return (a, b, c)

    def vertices(self) -> tuple[tuple[int, int, int], ...]:
        seen: set[int] = set()
        out: list[tuple[int, int, int]] = []
        for d in sorted(self.sigma):
            if d not in seen:
                v = self.vertex_of(d)
                seen.update(v)
                out.append(v)
        return tuple(out)

    # -- regions -----------------------------------------------------------

    def region_of_face(self, face: int) -> Region:
        """Normal form of the region a face walk bounds: the parent region
        of the component when the face is its outer face, else the face
        itself."""
        comp = self._comp_of[face]
        if face == self.outer_face[comp]:
            return self.parent[comp]
        return ("face", face)

    def has_region(self, region: object) -> bool:
        """Whether ``region`` names a region of this web in the normal
        form: ``None``, a bounded face or the inside of a loop."""
        if region is None:
            return True
        if not isinstance(region, tuple) or len(region) != 2:
            return False
        kind, key = region
        if not isinstance(key, int):
            return False
        if kind == "face":
            return key in self._faces and self.outer_face[self._comp_of[key]] != key
        return kind == "inside" and key in self.loop_ccw

    def children_of(self, region: Region) -> tuple[int, ...]:
        """Component ids and loop ids whose parent is ``region``."""
        return tuple(sorted(k for k, r in self.parent.items() if r == region))

    # -- validation --------------------------------------------------------

    def _check_maps(self) -> None:
        """The checks on the stored maps alone, run before any face or
        component is walked: the darts are positive ints, sigma permutes
        them in cycles of length 3, alpha is a fixed-point-free
        involution, every vertex is a source or a sink, every edge has
        one tail and joins two vertices, and loop ids are negative ints."""
        sigma, alpha, out = self.sigma, self.alpha, self.out_darts
        darts = set(sigma)
        if set(alpha) != darts:
            raise MalformedWeb("sigma and alpha must act on the same darts")
        for d in darts:
            if not isinstance(d, int) or d <= 0:
                raise MalformedWeb(f"darts must be positive ints, got {d!r}")
        # sigma has as many values as darts
        if set(sigma.values()) != darts:
            raise MalformedWeb("sigma is not a permutation")
        for d in darts:
            a = alpha[d]
            if a == d or a not in darts or alpha[a] != d:
                raise MalformedWeb(f"alpha is not a fixed-point-free involution at {d}")
        for d in darts:
            s = sigma[d]
            t = sigma[s]
            if sigma[t] != d or s == d or t == d:
                raise MalformedWeb(f"sigma cycle through {d} does not have length 3")
        if not out <= darts:
            raise MalformedWeb("out_darts must be a subset of the darts")
        for d in darts:
            s = sigma[d]
            tail = d in out
            if tail != (s in out):
                raise MalformedWeb(
                    f"vertex of {d} mixes tail and head darts (must be a source or a sink)"
                )
            a = alpha[d]
            if tail == (a in out):
                raise MalformedWeb(f"edge of {d} needs exactly one tail dart")
            if a == s or a == sigma[s]:
                raise MalformedWeb(f"edge of {d} joins a vertex to itself")
        for l in self.loop_ccw:
            if not isinstance(l, int) or l >= 0:
                raise MalformedWeb(f"loop ids must be negative ints, got {l!r}")

    def _check_embedding(self) -> None:
        """The checks on the derived faces and components: each component
        is planar, names one of its faces as its outer face, and the
        parent regions form a forest rooted at ``None``."""
        comps, comp_of = self._comps, self._comp_of
        # V - E + F = 2, where a component of n darts has n/3 vertices
        # and n/2 edges
        chi = {c: len(comp) // 3 - len(comp) // 2 for c, comp in comps.items()}
        for f in self._faces:
            chi[comp_of[f]] += 1
        for c, x in chi.items():
            if x != 2:
                exc = MalformedWeb(
                    f"component {c} has Euler characteristic {x}, not 2: "
                    "the rotation system is not planar"
                )
                exc.component = c
                raise exc
        if self.outer_face.keys() != comps.keys():
            raise MalformedWeb("outer_face must assign exactly one face per component")
        for c, f in self.outer_face.items():
            if f not in self._faces or comp_of[f] != c:
                raise MalformedWeb(f"outer face {f} is not a face of component {c}")
        parent = self.parent
        if parent.keys() != comps.keys() | self.loop_ccw.keys():
            raise MalformedWeb(
                "parent must assign a region to every component and loop"
            )
        for k, r in parent.items():
            if not self.has_region(r):
                raise MalformedWeb(f"parent region {r!r} of {k} does not exist")
        # an item is rooted once the walk up from it has reached None
        rooted: set[int] = set()
        for k in parent:
            path = {k}
            cur = parent[k]
            while cur is not None:
                owner = comp_of[cur[1]] if cur[0] == "face" else cur[1]
                if owner in rooted:
                    break
                if owner in path:
                    raise MalformedWeb(f"nesting of {k} is cyclic")
                path.add(owner)
                cur = parent[owner]
            rooted |= path

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Web):
            return NotImplemented
        return (
            self.sigma == other.sigma
            and self.alpha == other.alpha
            and self.out_darts == other.out_darts
            and self.loop_ccw == other.loop_ccw
            and self.parent == other.parent
            and self.outer_face == other.outer_face
        )

    def __hash__(self) -> int:
        return hash(self.exact_key())

    def __repr__(self) -> str:
        nv = len(self.sigma) // 3
        return f"<Web {nv} vertices, {len(self.loop_ccw)} loops>"

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "rotations": [list(v) for v in self.vertices()],
            "pairings": sorted([d, self.alpha[d]] for d in self.out_darts),
            "orientations": sorted(self.out_darts),
            "loops": [
                {"id": l, "ccw": self.loop_ccw[l]} for l in sorted(self.loop_ccw)
            ],
            "nesting": {
                str(k): None if r is None else [r[0], r[1]]
                for k, r in sorted(self.parent.items())
            },
            "outer_faces": {str(c): f for c, f in sorted(self.outer_face.items())},
        }

    def exact_key(self) -> str:
        """Deterministic serialization of the web, usable as a cache key."""
        if self._key is None:
            self._key = json.dumps(
                self.to_json_dict(), sort_keys=True, separators=(",", ":")
            )
        return self._key

    # -- relabeling --------------------------------------------------------

    def relabeled(
        self, dart_map: Mapping[int, int], loop_map: Mapping[int, int]
    ) -> "Web":
        """A copy with darts and loop ids renamed by the given bijections.

        Ids absent from a map are kept; maps that send two ids to one,
        a dart to a non-positive id or a loop to a non-negative one raise
        ``MalformedWeb``.  Face keys, component keys and nesting
        references are recomputed consistently.  A one-to-one renaming
        of a valid web is valid, so the copy skips the checks.
        """
        dmap: Callable[[int], int] = lambda d: dart_map.get(d, d)
        lmap: Callable[[int], int] = lambda l: loop_map.get(l, l)
        new_sigma = {dmap(d): dmap(s) for d, s in self.sigma.items()}
        new_alpha = {dmap(d): dmap(a) for d, a in self.alpha.items()}
        new_out = {dmap(d) for d in self.out_darts}
        new_loop_ccw = {lmap(l): c for l, c in self.loop_ccw.items()}
        if len(new_sigma) != len(self.sigma) or len(new_loop_ccw) != len(self.loop_ccw):
            raise MalformedWeb("a relabeling must not send two ids to one")
        if any(d <= 0 for d in new_sigma) or any(l >= 0 for l in new_loop_ccw):
            raise MalformedWeb("a relabeling must keep darts positive and loop ids negative")
        new_parent = {
            self.relabel_item(k, dmap, lmap): self.relabel_region(r, dmap, lmap)
            for k, r in self.parent.items()
        }
        new_outer = {
            self.relabel_item(c, dmap, lmap): min(dmap(d) for d in self._faces[f])
            for c, f in self.outer_face.items()
        }
        out = Web.__new__(Web)
        out._store(new_sigma, new_alpha, new_out, new_loop_ccw)
        out._derive(new_parent, new_outer)
        return out

    def relabel_item(
        self, item: int, dmap: Callable[[int], int], lmap: Callable[[int], int]
    ) -> int:
        """The key, after renaming darts by ``dmap`` and loops by
        ``lmap``, of a component (its smallest dart) or a loop of this
        web."""
        if item < 0:
            return lmap(item)
        return min(dmap(d) for d in self._comps[item])

    def relabel_region(
        self, region: Region, dmap: Callable[[int], int], lmap: Callable[[int], int]
    ) -> Region:
        """The name, after renaming darts by ``dmap`` and loops by
        ``lmap``, of a region of this web: a face is keyed anew by the
        smallest renamed dart of its walk."""
        if region is None:
            return None
        if region[0] == "face":
            return ("face", min(dmap(d) for d in self._faces[region[1]]))
        return ("inside", lmap(region[1]))

    def canonical(self) -> tuple["Web", dict[int, int], dict[int, int]]:
        """The canonical web of this web's relabeling class, with the
        dart map and the loop map that ``relabeled`` takes onto it.

        Two webs have equal canonical webs exactly when one is a
        relabeling of the other: the form covers every component, outer
        face, loop orientation and the nesting of components and loops
        in regions.  Computed once per web."""
        if self._canon is None:
            self._canon = _canonical_form(self)
        return self._canon


# --------------------------------------------------------------------------
# reduction-site search (used by the graded-basis construction)
# --------------------------------------------------------------------------


class Empty(NamedTuple):
    """The web has no darts and no loops."""

    __eq__, __ne__, __hash__ = VALUE_EQUALITY


class FreeLoop(NamedTuple):
    """A free loop whose interior region is empty."""

    loop_id: int

    __eq__, __ne__, __hash__ = VALUE_EQUALITY


class DigonFace(NamedTuple):
    """A bounded two-edge face with nothing nested inside it."""

    face: int

    __eq__, __ne__, __hash__ = VALUE_EQUALITY


class SquareFace(NamedTuple):
    """A bounded four-edge face with nothing nested inside it."""

    face: int

    __eq__, __ne__, __hash__ = VALUE_EQUALITY


Reduction = Empty | FreeLoop | DigonFace | SquareFace


def find_reduction(web: Web) -> Reduction:
    """Locate a deterministic simplification site in a nonempty web.

    Preference order: the empty web; the smallest-id free loop with empty
    interior; the smallest-key bounded two-edge face with empty interior;
    then the smallest-key bounded four-edge face with empty interior.
    Every valid web admits one of these (an innermost component always
    carries a bounded face with fewer than six sides).
    """
    if web.is_empty():
        return Empty()
    loop_sites = [
        l for l in web.loops if not web.children_of(("inside", l))
    ]
    if loop_sites:
        return FreeLoop(min(loop_sites))
    digons: list[int] = []
    squares: list[int] = []
    for f, orbit in sorted(web.faces().items()):
        comp = web.component_of(f)
        if f == web.outer_face[comp]:
            continue
        if web.children_of(("face", f)):
            continue
        if len(orbit) == 2:
            digons.append(f)
        elif len(orbit) == 4:
            squares.append(f)
    if digons:
        return DigonFace(min(digons))
    if squares:
        return SquareFace(min(squares))
    raise MalformedWeb("no reduction site found; the web is not a valid closed web")


# --------------------------------------------------------------------------
# the bracket
# --------------------------------------------------------------------------

def _component_bfs(
    sigma: Mapping[int, int],
    alpha: Mapping[int, int],
    out: frozenset[int] | set[int],
    darts: Iterable[int],
) -> tuple[tuple, list[list[int]]]:
    """Relabeling-invariant key of one connected dart component, with
    every dart order that attains it.

    For each possible start dart, darts are renamed in breadth-first
    discovery order (children visited sigma first, then alpha) and the
    structure serialized; the smallest serialization wins.  A dart's
    entry is final once the dart is visited, so each start is compared
    with the best one entry by entry, and dropped at the first entry that
    is larger.  Starts that tie with it differ by an automorphism of the
    component's map; their discovery orders are returned too, so that
    the full canonical form (``Web.canonical``) can break the tie by
    outer face and nesting.
    """
    best: Optional[list[tuple[int, int, bool]]] = None
    orders: list[list[int]] = []
    # a start's first entry is (1, 2, start in out), so only head darts
    # can attain the smallest serialization
    for start in sorted(d for d in darts if d not in out):
        label = {start: 0}
        order = [start]
        key: list[tuple[int, int, bool]] = []
        # whether the key so far equals the best key's prefix
        tied = best is not None
        # the loop visits the darts that it appends to ``order``
        for d in order:
            s = sigma[d]
            a = alpha[d]
            if s not in label:
                label[s] = len(order)
                order.append(s)
            if a not in label:
                label[a] = len(order)
                order.append(a)
            entry = (label[s], label[a], d in out)
            if tied:
                rival = best[len(key)]
                if entry != rival:
                    if entry > rival:
                        break
                    tied = False
            key.append(entry)
        else:
            if tied:
                orders.append(order)
            else:
                best = key
                orders = [order]
    if best is None:
        raise MalformedWeb("a dart component has no head dart")
    return tuple(best), orders


def _canonical_form(web: "Web") -> tuple["Web", dict[int, int], dict[int, int]]:
    """The canonical web of ``web`` and the dart and loop maps onto it.

    Every nested item gets a code: a free loop its orientation and the
    sorted codes of what it encloses; a dart component its
    ``_component_bfs`` key, then - minimized over the tied discovery
    orders - the position of its outer face, negated so that the bounded
    faces come first, and, per bounded face that holds something, the
    face's position and the sorted codes of what it holds.  A face's
    position is the least discovery index of its darts.
    Two webs are relabelings of one another exactly when the sorted codes
    of their top-level items agree.  Items are then numbered in code
    order, depth first: the darts of a component count up in its chosen
    discovery order after those already placed, and loops count down
    from -1."""
    faces = web._faces
    children: dict[Region, list[int]] = {}
    for item, region in sorted(web.parent.items()):
        children.setdefault(region, []).append(item)
    faces_of: dict[int, list[int]] = {}
    for f in faces:
        faces_of.setdefault(web._comp_of[f], []).append(f)
    codes: dict[int, tuple] = {}
    chosen: dict[int, list[int]] = {}

    def code(item: int) -> tuple:
        if item not in codes:
            codes[item] = item_code(item)
        return codes[item]

    def kid_codes(region: Region) -> tuple:
        return tuple(sorted(code(k) for k in children.get(region, ())))

    def item_code(item: int) -> tuple:
        if item < 0:
            return ("loop", web.loop_ccw[item], kid_codes(("inside", item)))
        key, orders = _component_bfs(
            web.sigma, web.alpha, web.out_darts, web._comps[item]
        )
        outer = faces[web.outer_face[item]]
        # parents name bounded faces only
        held = [
            (faces[f], kid_codes(("face", f)))
            for f in faces_of[item]
            if ("face", f) in children
        ]
        best: Optional[tuple] = None
        for order in orders:
            label = {d: i for i, d in enumerate(order)}
            tail = (
                -min(label[d] for d in outer),
                tuple(sorted((min(label[d] for d in walk), kids) for walk, kids in held)),
            )
            if best is None or tail < best:
                best = tail
                chosen[item] = order
        return ("comp", key, best)

    dart_map: dict[int, int] = {}
    loop_map: dict[int, int] = {}

    def place(region: Region) -> None:
        for item in sorted(children.get(region, ()), key=code):
            if item < 0:
                loop_map[item] = -1 - len(loop_map)
                place(("inside", item))
                continue
            base = len(dart_map) + 1
            for i, d in enumerate(chosen[item]):
                dart_map[d] = base + i
            held = [f for f in faces_of[item] if ("face", f) in children]
            held.sort(key=lambda f: min(dart_map[d] for d in faces[f]))
            for f in held:
                place(("face", f))

    place(None)
    return web.relabeled(dart_map, loop_map), dart_map, loop_map


def _rewire(
    sigma: dict[int, int],
    alpha: dict[int, int],
    out: set[int],
    deleted: set[int],
    wires: dict[int, int],
) -> tuple[dict[int, int], dict[int, int], set[int], int]:
    """Delete the darts in ``deleted`` and reconnect the edges that cross
    its boundary according to ``wires`` (a symmetric pairing of some
    deleted darts).

    Strands are traced through the deleted zone: entering along an edge
    whose far dart is wired, hop the wire, and continue until leaving the
    zone.  Wire-and-edge cycles wholly inside the zone become free loops;
    the number of such loops is returned.
    """
    for a, b in wires.items():
        if a not in deleted or b not in deleted:
            raise MalformedWeb("wires must pair deleted darts")
    new_sigma = {d: s for d, s in sigma.items() if d not in deleted}
    new_alpha: dict[int, int] = {}
    visited: set[int] = set()
    for y in new_sigma:
        a = alpha[y]
        if a not in deleted:
            new_alpha[y] = a
            continue
        cur = a
        while True:
            if cur not in wires:
                raise MalformedWeb(f"strand enters deleted zone at unwired dart {cur}")
            visited.add(cur)
            nxt = wires[cur]
            visited.add(nxt)
            out_dart = alpha[nxt]
            if out_dart in deleted:
                cur = out_dart
            else:
                break
        new_alpha[y] = out_dart
    new_out = {d for d in out if d not in deleted}
    for y, z in new_alpha.items():
        if (y in new_out) == (z in new_out):
            raise MalformedWeb(f"rewired edge ({y},{z}) does not have exactly one tail")
    loops = 0
    remaining = set(wires) - visited
    while remaining:
        loops += 1
        start = next(iter(remaining))
        cur = start
        while True:
            remaining.discard(cur)
            nxt = wires[cur]
            remaining.discard(nxt)
            cur = alpha[nxt]
            if cur == start:
                break
            if cur not in wires:
                raise MalformedWeb("closed chain leaves the deleted zone")
    return new_sigma, new_alpha, new_out, loops


def _vertex_darts(sigma: Mapping[int, int], d: int) -> tuple[int, int, int]:
    return (d, sigma[d], sigma[sigma[d]])


def _reduce_digon(
    sigma: dict[int, int], alpha: dict[int, int], out: set[int], orbit: tuple[int, ...]
) -> tuple[dict[int, int], dict[int, int], set[int], int]:
    """Collapse a two-edge face: delete its two vertices and splice the two
    external edges together."""
    d1, d2 = orbit
    deleted = set(_vertex_darts(sigma, d1)) | set(_vertex_darts(sigma, d2))
    x1 = sigma[sigma[d1]]
    x2 = sigma[sigma[d2]]
    wires = {x1: x2, x2: x1}
    return _rewire(sigma, alpha, out, deleted, wires)


def _reduce_square(
    sigma: dict[int, int],
    alpha: dict[int, int],
    out: set[int],
    orbit: tuple[int, ...],
    second: bool,
) -> tuple[dict[int, int], dict[int, int], set[int], int]:
    """Replace a four-edge face by one of its two planar reconnections.

    The four external strands leave the face at consecutive corners; the
    first reconnection joins them around corners (1,2) and (3,4), the
    second around (2,3) and (4,1).
    """
    d1, d2, d3, d4 = orbit
    deleted: set[int] = set()
    for d in orbit:
        deleted |= set(_vertex_darts(sigma, d))
    x = [sigma[sigma[d]] for d in orbit]
    if second:
        pairs = [(x[1], x[2]), (x[3], x[0])]
    else:
        pairs = [(x[0], x[1]), (x[2], x[3])]
    wires: dict[int, int] = {}
    for a, b in pairs:
        wires[a] = b
        wires[b] = a
    return _rewire(sigma, alpha, out, deleted, wires)


def _bracket_of_state(
    sigma: dict[int, int], alpha: dict[int, int], out: set[int], nloops: int
) -> LaurentPoly:
    total = quantum_integer(3) ** nloops
    if sigma:
        for darts in _component_split(sigma, alpha).values():
            sub_sigma = {d: sigma[d] for d in darts}
            sub_alpha = {d: alpha[d] for d in darts}
            sub_out = {d for d in darts if d in out}
            total = total * _bracket_component(sub_sigma, sub_alpha, sub_out)
    return total


def _bracket_component(
    sigma: dict[int, int], alpha: dict[int, int], out: set[int]
) -> LaurentPoly:
    """Bracket of one connected dart component, by face reduction.

    Any two-edge or four-edge face may be used (on the sphere the choice
    does not matter); the smallest face key is taken for determinism.
    The result is kept in ``memo.BRACKETS`` by the component's key.
    """
    key = _component_bfs(sigma, alpha, out, sigma.keys())[0]
    cached = memo.BRACKETS.get(key)
    if cached is not None:
        return cached
    faces = _face_orbits(sigma, alpha)
    digon = None
    square = None
    for f in sorted(faces):
        n = len(faces[f])
        if n == 2 and digon is None:
            digon = faces[f]
            break
        if n == 4 and square is None:
            square = faces[f]
    if digon is not None:
        s, a, o, nl = _reduce_digon(sigma, alpha, out, digon)
        result = quantum_integer(2) * _bracket_of_state(s, a, o, nl)
    elif square is not None:
        s1, a1, o1, nl1 = _reduce_square(sigma, alpha, out, square, second=False)
        s2, a2, o2, nl2 = _reduce_square(sigma, alpha, out, square, second=True)
        result = _bracket_of_state(s1, a1, o1, nl1) + _bracket_of_state(
            s2, a2, o2, nl2
        )
    else:
        raise MalformedWeb(
            "component admits no two- or four-edge face; not a valid closed web"
        )
    memo.BRACKETS[key] = result
    return result


def kuperberg_bracket(web: Web) -> LaurentPoly:
    """The bracket of a closed web: a Laurent polynomial in ``q`` with
    nonnegative integer coefficients."""
    return _bracket_of_state(
        dict(web.sigma), dict(web.alpha), set(web.out_darts), len(web.loop_ccw)
    )


# --------------------------------------------------------------------------
# the link invariant as a resolution sum
# --------------------------------------------------------------------------


def crossing_weight(sign: int, bit: int) -> LaurentPoly:
    """Laurent weight of resolving one crossing of the given sign with the
    given binary choice (0 = parallel smoothing for positive crossings).

    Positive crossing: ``q^-2`` for 0, ``-q^-3`` for 1.
    Negative crossing: ``-q^3`` for 0, ``q^2`` for 1.
    """
    if sign == 1:
        return LaurentPoly.monomial(-2) if bit == 0 else LaurentPoly.monomial(-3, -1)
    if sign == -1:
        return LaurentPoly.monomial(3, -1) if bit == 0 else LaurentPoly.monomial(2)
    raise ValueError(f"crossing sign must be +1 or -1, got {sign}")


def link_bracket(diagram) -> LaurentPoly:
    """The quantum invariant of an oriented link diagram.

    Sums, over all binary resolutions ``J`` of the crossings, the product
    of per-crossing weights times the bracket of the flattened web
    ``diagram.flatten(J)``.  The result is invariant under the three
    Reidemeister moves.
    """
    signs = diagram.signs
    total = LaurentPoly.zero()
    for bits in itertools.product((0, 1), repeat=len(signs)):
        weight = LaurentPoly.one()
        for s, b in zip(signs, bits):
            weight = weight * crossing_weight(s, b)
        total = total + weight * kuperberg_bracket(diagram.flatten(bits))
    return total
