"""Tests for the web structure: validation, faces, regions, reduction
search, serialization, and the bracket recursion."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import memo
from artifact import web as web_module
from artifact.algebra import LaurentPoly, quantum_integer
from artifact.diagram import parse_pd, resolutions
from artifact.web import (
    DigonFace,
    Empty,
    FreeLoop,
    MalformedWeb,
    SquareFace,
    Web,
    _component_bfs,
    _reduce_digon,
    crossing_weight,
    find_reduction,
    kuperberg_bracket,
    link_bracket,
)
from .helpers import (
    at_one,
    CUBE_EDGES,
    cube_web,
    digon_chain_web,
    fixture_webs,
    nested_loops_web,
    theta_web,
    theta_with_loop_inside,
    web_from_json_dict,
)
from .oracles import (
    component_bfs_unpruned,
    count_edge_3_colorings,
    poly_items,
    poly_mirror,
    regions,
    validate_by_walks,
)
from .test_diagram import KNOT_6_1, TORUS_5_1


def _flattenings(pd: str) -> list[Web]:
    d = parse_pd(pd)
    return [d.flatten(bits) for bits in resolutions(d.n_crossings)]


#: The corpus flattenings, the 5_1 flattenings and the selftest's webs.
VALIDATED_WEBS = (
    [web for _label, web in fixture_webs()]
    + _flattenings(TORUS_5_1)
    + [theta_web(), digon_chain_web(), cube_web(), theta_with_loop_inside(), nested_loops_web()]
)

#: The corpus, 5_1 and 6_1 flattenings.
BFS_WEBS = (
    [web for _label, web in fixture_webs()]
    + _flattenings(TORUS_5_1)
    + _flattenings(KNOT_6_1)
)

# --------------------------------------------------------------------------
# structure
# --------------------------------------------------------------------------


def test_theta_faces():
    w = theta_web()
    assert w.faces() == {1: (1, 4), 2: (2, 5), 3: (3, 6)}
    assert w.face_of(4) == 1
    assert w.vertices() == ((1, 3, 5), (2, 6, 4))
    assert w.components() == {1: frozenset({1, 2, 3, 4, 5, 6})}


def test_theta_regions():
    w = theta_web()
    assert w.region_of_face(2) is None, "the outer face bounds the parent region"
    assert w.region_of_face(1) == ("face", 1)
    assert regions(w) == (None, ("face", 1), ("face", 3))
    assert all(w.has_region(r) for r in regions(w))
    for r in (("face", 2), ("face", 7), ("inside", -1), ["face", 1], ("face", [1])):
        assert not w.has_region(r)
    assert w.children_of(None) == (1,)
    assert w.children_of(("face", 1)) == ()


def test_cube_web_structure():
    w = cube_web()
    assert len(w.vertices()) == 8
    assert len(w.out_darts) == 12
    faces = w.faces()
    assert len(faces) == 6
    assert all(len(orbit) == 4 for orbit in faces.values())


def test_edge_of_orientation():
    w = theta_web()
    assert 2 in w.out_darts and 1 not in w.out_darts


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------


def test_validate_rejects_two_valent_vertex():
    with pytest.raises(MalformedWeb):
        Web(sigma={1: 2, 2: 1}, alpha={1: 2, 2: 1}, out_darts={1}, outer_face={1: 1})


def test_validate_rejects_mixed_orientation_vertex():
    base = theta_web()
    with pytest.raises(MalformedWeb):
        Web(
            sigma=base.sigma,
            alpha=base.alpha,
            out_darts={2, 4, 5},
            parent={1: None},
            outer_face={1: 2},
        )


def test_validate_rejects_nonplanar_rotation_system():
    # reversing one vertex's rotation turns the theta embedding into a
    # one-faced torus map
    with pytest.raises(MalformedWeb):
        Web(
            sigma={1: 3, 3: 5, 5: 1, 4: 6, 6: 2, 2: 4},
            alpha={1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5},
            out_darts={2, 4, 6},
            parent={1: None},
            outer_face={1: 1},
        )


def test_validate_rejects_missing_outer_face():
    base = theta_web()
    with pytest.raises(MalformedWeb):
        Web(
            sigma=base.sigma,
            alpha=base.alpha,
            out_darts=base.out_darts,
            parent={1: None},
            outer_face={},
        )


def test_validate_rejects_outer_face_as_parent_region():
    base = theta_web()
    with pytest.raises(MalformedWeb):
        Web(
            sigma=base.sigma,
            alpha=base.alpha,
            out_darts=base.out_darts,
            loop_ccw={-1: True},
            parent={1: None, -1: ("face", 2)},
            outer_face={1: 2},
        )


def test_validate_rejects_cyclic_nesting():
    with pytest.raises(MalformedWeb):
        Web(
            loop_ccw={-1: True, -2: True},
            parent={-1: ("inside", -2), -2: ("inside", -1)},
        )


def test_validate_rejects_positive_loop_id():
    with pytest.raises(MalformedWeb):
        Web(loop_ccw={1: True}, parent={1: None})


def _maps(web: Web) -> dict:
    """The six maps of ``web``, as fresh mutable copies."""
    return dict(
        sigma=dict(web.sigma),
        alpha=dict(web.alpha),
        out_darts=set(web.out_darts),
        loop_ccw=dict(web.loop_ccw),
        parent=dict(web.parent),
        outer_face=dict(web.outer_face),
    )


_THETA = _maps(theta_with_loop_inside())

#: Maps that are checked before any face or component is walked: a walk
#: on the first would not end, and the others would fail with a KeyError
#: or a TypeError instead of ``MalformedWeb``.
MALFORMED_MAPS = {
    "alpha not an involution": (
        {**_THETA, "alpha": {1: 4, 4: 2, 2: 5, 5: 2, 3: 6, 6: 3}},
        "alpha is not a fixed-point-free involution at 1",
    ),
    "sigma value outside the darts": (
        {**_THETA, "sigma": {**_THETA["sigma"], 5: 7}},
        "sigma is not a permutation",
    ),
    "alpha value outside the darts": (
        {**_THETA, "alpha": {**_THETA["alpha"], 5: 9}},
        "alpha is not a fixed-point-free involution at 5",
    ),
    "list-valued parent region": (
        {**_THETA, "parent": {1: None, -1: ["face", 1]}},
        r"parent region \['face', 1\] of -1 does not exist",
    ),
    "list-valued face key": (
        {**_THETA, "parent": {1: None, -1: ("face", [1])}},
        r"parent region \('face', \[1\]\) of -1 does not exist",
    ),
}


@pytest.mark.parametrize("case", MALFORMED_MAPS.values(), ids=MALFORMED_MAPS)
def test_validate_checks_maps_before_walking_faces(case):
    maps, message = case
    with pytest.raises(MalformedWeb, match=message):
        Web(**maps)


#: Maps holding a list where an int belongs: each would fail a set or
#: dict lookup with a ``TypeError``.
UNHASHABLE_MAPS = {
    "list-valued sigma image": {**_THETA, "sigma": {**_THETA["sigma"], 5: [1]}},
    "list-valued alpha image": {**_THETA, "alpha": {**_THETA["alpha"], 5: [6]}},
    "list-valued out dart": {**_THETA, "out_darts": [*_THETA["out_darts"], [2]]},
    "list-valued outer face": {**_THETA, "outer_face": {1: [2]}},
}


@pytest.mark.parametrize("maps", UNHASHABLE_MAPS.values(), ids=UNHASHABLE_MAPS)
def test_unhashable_map_values_raise_malformed_web(maps):
    with pytest.raises(MalformedWeb, match="unhashable type: 'list'"):
        Web(**maps)


@st.composite
def mutated_maps(draw):
    """The maps of a valid web of ``VALIDATED_WEBS`` after one random
    mutation, which may leave them valid."""
    web = draw(st.sampled_from(VALIDATED_WEBS))
    maps = _maps(web)
    darts = web.darts
    two_darts = st.lists(st.sampled_from(darts), min_size=2, max_size=2, unique=True)
    kinds = ["re-parent"]
    if darts:
        kinds += ["swap sigma", "flip out", "re-pair alpha", "move outer"]
    kind = draw(st.sampled_from(kinds))
    if kind == "swap sigma":
        a, b = draw(two_darts)
        sigma = maps["sigma"]
        sigma[a], sigma[b] = sigma[b], sigma[a]
    elif kind == "flip out":
        maps["out_darts"] ^= {draw(st.sampled_from(darts))}
    elif kind == "re-pair alpha":
        # both ends re-paired keep alpha an involution; one end does not
        a, b = draw(two_darts)
        alpha = maps["alpha"]
        pa, pb = alpha[a], alpha[b]
        alpha[a] = b
        if draw(st.booleans()) and b != pa:
            alpha[b], alpha[pa], alpha[pb] = a, pb, pa
    elif kind == "re-parent":
        item = draw(st.sampled_from(sorted(maps["parent"])))
        # every face, outer ones included, every loop, and two that do
        # not exist
        targets = [None, ("face", max(darts, default=0) + 1)]
        targets += [("inside", l) for l in (*web.loops, min(web.loops, default=0) - 1)]
        targets += [("face", f) for f in web.faces()]
        maps["parent"][item] = draw(st.sampled_from(targets))
    else:
        comp = draw(st.sampled_from(sorted(maps["outer_face"])))
        # any dart: a face key of this or another component, or none
        maps["outer_face"][comp] = draw(st.sampled_from(darts))
    return maps


def _outcome(check, maps: dict):
    """``None`` if ``check(**maps)`` returns, else its ``MalformedWeb``
    message."""
    try:
        check(**maps)
    except MalformedWeb as e:
        return str(e)
    return None


@settings(max_examples=400, deadline=None)
@given(mutated_maps())
def test_validate_agrees_with_walk_oracle(maps):
    assert _outcome(Web, maps) == _outcome(validate_by_walks, maps)


def test_validate_rejects_edge_joining_a_vertex_to_itself():
    # darts 1 and 3 of the mixed vertex (1, 2, 3) form an edge; dart 1,
    # checked first, agrees in orientation with dart 2
    maps = dict(
        sigma={1: 2, 2: 3, 3: 1, 4: 5, 5: 6, 6: 4},
        alpha={1: 3, 3: 1, 2: 5, 5: 2, 4: 6, 6: 4},
        out_darts={1, 2, 4},
    )
    assert _outcome(Web, maps) == "edge of 1 joins a vertex to itself"
    assert _outcome(validate_by_walks, maps) == _outcome(Web, maps)


def test_validate_accepts_the_webs_the_oracle_accepts():
    for web in VALIDATED_WEBS:
        maps = _maps(web)
        assert _outcome(validate_by_walks, maps) is None
        assert Web(**maps) == web


# --------------------------------------------------------------------------
# reduction search
# --------------------------------------------------------------------------


def test_find_reduction_empty():
    assert find_reduction(Web()) == Empty()


def test_find_reduction_free_loop():
    assert find_reduction(Web(loop_ccw={-5: False})) == FreeLoop(-5)


def test_find_reduction_prefers_innermost_loop():
    assert find_reduction(nested_loops_web()) == FreeLoop(-2)


def test_find_reduction_theta_digon():
    assert find_reduction(theta_web()) == DigonFace(1)


def test_find_reduction_skips_occupied_face():
    # the loop sits inside face 1; the loop is reduced first
    assert find_reduction(theta_with_loop_inside()) == FreeLoop(-1)


def test_find_reduction_cube_square():
    assert find_reduction(cube_web()) == SquareFace(2)


# --------------------------------------------------------------------------
# bracket
# --------------------------------------------------------------------------


def test_bracket_empty_web_is_one():
    assert kuperberg_bracket(Web()) == LaurentPoly.one()


def test_bracket_single_loop():
    assert kuperberg_bracket(Web(loop_ccw={-1: True})) == quantum_integer(3)
    assert str(kuperberg_bracket(Web(loop_ccw={-1: True}))) == "q^-2 + 1 + q^2"


def test_bracket_two_loops():
    w = Web(loop_ccw={-1: True, -2: False})
    assert kuperberg_bracket(w) == quantum_integer(3) ** 2


def test_bracket_theta():
    expected = quantum_integer(2) * quantum_integer(3)
    assert kuperberg_bracket(theta_web()) == expected
    assert str(expected) == "q^-3 + 2*q^-1 + 2*q + q^3"


def test_bracket_theta_with_nested_loop():
    got = kuperberg_bracket(theta_with_loop_inside())
    assert got == quantum_integer(2) * quantum_integer(3) ** 2


def test_bracket_ignores_labels():
    w = theta_web().relabeled(dart_map={d: d + 40 for d in range(1, 7)})
    assert kuperberg_bracket(w) == kuperberg_bracket(theta_web())


def test_bracket_cube_web():
    memo.clear()
    p = kuperberg_bracket(cube_web())
    assert p == poly_mirror(p), f"cube web bracket {p} should be palindromic"
    assert all(c > 0 for _, c in poly_items(p)), "bracket coefficients must be positive"
    colorings = count_edge_3_colorings(CUBE_EDGES)
    assert at_one(p) == colorings, (
        f"bracket at q=1 gives {at_one(p)}, "
        f"but the cube graph has {colorings} proper 3-edge-colorings"
    )
    # recomputing (now partly memoized) must give the same answer
    assert kuperberg_bracket(cube_web()) == p


def test_digon_reduction_of_theta_leaves_one_loop():
    w = theta_web()
    sigma, alpha, out, nloops = _reduce_digon(
        dict(w.sigma), dict(w.alpha), set(w.out_darts), w.faces()[1]
    )
    assert sigma == {} and alpha == {} and out == set()
    assert nloops == 1


def test_pruned_component_bfs_matches_unpruned(monkeypatch):
    for web in BFS_WEBS:
        for comp in web.components().values():
            args = (web.sigma, web.alpha, web.out_darts, comp)
            assert _component_bfs(*args) == component_bfs_unpruned(*args)
    # every sub-component that the bracket recursion meets
    met = []

    def recorded(*args):
        met.append(args)
        return component_bfs(*args)

    component_bfs = web_module._component_bfs
    monkeypatch.setattr(web_module, "_component_bfs", recorded)
    memo.clear()
    for web in BFS_WEBS:
        kuperberg_bracket(web)
    assert len(met) > len(BFS_WEBS)
    for args in met:
        assert component_bfs(*args) == component_bfs_unpruned(*args)


def test_canonical_component_key_is_label_invariant():
    w1 = theta_web()
    w2 = w1.relabeled(dart_map={1: 9, 2: 14, 3: 21, 4: 3, 5: 77, 6: 50})
    k1, _ = _component_bfs(w1.sigma, w1.alpha, w1.out_darts, w1.darts)
    k2, _ = _component_bfs(w2.sigma, w2.alpha, w2.out_darts, w2.darts)
    assert k1 == k2
    kc, _ = _component_bfs(
        cube_web().sigma, cube_web().alpha, cube_web().out_darts, cube_web().darts
    )
    assert kc != k1


# --------------------------------------------------------------------------
# serialization and relabeling
# --------------------------------------------------------------------------


def test_json_roundtrip():
    """The written web form (``--dump-webs``) determines the web."""
    for w in (Web(), theta_web(), theta_with_loop_inside(), nested_loops_web(), cube_web()):
        back = web_from_json_dict(json.loads(w.exact_key()))
        assert back == w
        assert back.exact_key() == w.exact_key()


def test_relabeled_loops_and_regions():
    w = theta_with_loop_inside().relabeled(
        dart_map={d: d + 10 for d in range(1, 7)}, loop_map={-1: -9}
    )
    assert w.loops == (-9,)
    assert w.parent[-9] == ("face", 11)
    assert w.outer_face == {11: 12}


def test_relabeled_rejects_maps_that_merge_ids():
    with pytest.raises(MalformedWeb, match="two ids to one"):
        theta_web().relabeled(dart_map={1: 2})
    with pytest.raises(MalformedWeb, match="two ids to one"):
        nested_loops_web().relabeled(loop_map={-1: -2})
    with pytest.raises(MalformedWeb, match="positive"):
        theta_web().relabeled(dart_map={1: -7})


# --------------------------------------------------------------------------
# the canonical form
# --------------------------------------------------------------------------

#: Every corpus flattening and the hand-built webs, loops and nesting included.
CANONICAL_WEBS = [web for _label, web in fixture_webs()] + [
    Web(),
    theta_web(),
    theta_with_loop_inside(),
    nested_loops_web(),
    digon_chain_web(),
    cube_web(),
]


def _with_loop(web: Web, region, ccw: bool) -> Web:
    """``web`` with one more free loop in ``region``."""
    lid = min(web.loops, default=0) - 1
    return Web(
        web.sigma,
        web.alpha,
        web.out_darts,
        {**web.loop_ccw, lid: ccw},
        {**web.parent, lid: region},
        web.outer_face,
    )


@st.composite
def relabelings(draw):
    """A web of ``CANONICAL_WEBS`` and random dart and loop bijections
    onto fresh ids."""
    web = draw(st.sampled_from(CANONICAL_WEBS))
    darts = draw(st.permutations(range(1, 2 * len(web.sigma) + 2)))
    loops = draw(st.permutations(range(-2 * len(web.loop_ccw) - 1, 0)))
    return (
        web,
        dict(zip(web.darts, darts)),
        dict(zip(web.loops, loops)),
    )


@settings(max_examples=60, deadline=None)
@given(relabelings())
def test_canonical_form_is_relabeling_invariant(case):
    web, dart_map, loop_map = case
    moved = web.relabeled(dart_map, loop_map)
    canonical, _, _ = web.canonical()
    again, to_darts, to_loops = moved.canonical()
    assert again == canonical
    assert again.exact_key() == canonical.exact_key()
    assert moved.relabeled(to_darts, to_loops) == again
    assert again.canonical()[0] == again


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_form_tells_nesting_and_orientation_apart(data):
    web = data.draw(st.sampled_from(CANONICAL_WEBS))
    region = data.draw(st.sampled_from(regions(web)[1:] or [None]))
    ccw = data.draw(st.booleans())
    here = _with_loop(web, region, ccw)

    def key(w: Web) -> str:
        return w.canonical()[0].exact_key()

    # one loop's orientation
    assert key(here) != key(_with_loop(web, region, not ccw))
    # one loop's nesting: a bounded region against the unbounded one
    if region is not None:
        assert key(here) != key(_with_loop(web, None, ccw))


def test_canonical_form_tells_nested_loops_from_side_by_side():
    side_by_side = Web(loop_ccw={-1: True, -2: False})
    assert nested_loops_web().canonical()[0] != side_by_side.canonical()[0]
    inside, outside = theta_with_loop_inside(), _with_loop(theta_web(), None, True)
    assert inside.canonical()[0] != outside.canonical()[0]
    # the loop in the theta web's other bounded face: no symmetry of the
    # oriented theta web fixes its outer face, so this is another web
    other = _with_loop(theta_web(), ("face", 3), True)
    assert theta_web().region_of_face(3) == ("face", 3)
    assert other.canonical()[0] != inside.canonical()[0]


# --------------------------------------------------------------------------
# resolution weights and the link bracket on a fake one-crossing diagram
# --------------------------------------------------------------------------


def test_crossing_weight_table():
    assert crossing_weight(1, 0) == LaurentPoly.monomial(-2)
    assert crossing_weight(1, 1) == LaurentPoly.monomial(-3, -1)
    assert crossing_weight(-1, 0) == LaurentPoly.monomial(3, -1)
    assert crossing_weight(-1, 1) == LaurentPoly.monomial(2)


class _FakeKink:
    """One-crossing unknot: one resolution is two circles, the other is
    the theta web."""

    def __init__(self, sign: int):
        self.sign = sign
        self.signs = (sign,)

    def flatten(self, bits):
        two_loops = Web(loop_ccw={-1: True, -2: True})
        if self.sign == 1:
            return two_loops if bits[0] == 0 else theta_web()
        return theta_web() if bits[0] == 0 else two_loops


def test_link_bracket_positive_kink_is_unknot_value():
    assert link_bracket(_FakeKink(1)) == quantum_integer(3)


def test_link_bracket_negative_kink_is_unknot_value():
    assert link_bracket(_FakeKink(-1)) == quantum_integer(3)
