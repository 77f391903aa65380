"""Tests for movie moves, move inversion, the facet/circle shadow, and
the exact evaluation of closed dotted singular surfaces."""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import foam, memo
from artifact.algebra import quantum_integer, theta_symbol
from artifact.foam import (
    Birth,
    Death,
    Dot,
    FoamMovie,
    HalfFoam,
    MalformedMovie,
    MoveError,
    PreFoam,
    Unzip,
    Zip,
    _intern_shape,
    apply_death,
    apply_unzip,
    cap_movies,
    digon_movies,
    dot_movie,
    evaluate,
    extend_halves,
    half_foam,
    identity_movie,
    inverse_move,
    move_degree,
    pair_halves,
    square_split_movies,
)
from artifact.web import Web, kuperberg_bracket
from .helpers import (
    cube_web,
    digon_chain_web,
    movie_from_json_dict,
    nested_loops_web,
    theta_web,
    theta_with_loop_inside,
)
from .oracles import (
    apply_birth,
    apply_zip,
    evaluate_bruteforce,
    evaluate_by_circles,
    evaluate_closed,
    extract_prefoam,
    flag_theta,
    glue,
    relabeled_movie,
    run_movie,
)

# --------------------------------------------------------------------------
# degree bookkeeping
# --------------------------------------------------------------------------


def test_move_degrees():
    assert move_degree(Birth(-1, None, True)) == -2
    assert move_degree(Death(-1)) == -2
    assert move_degree(Dot(1)) == 2
    assert move_degree(Zip(1, 2, None, (3, 4, 5, 6, 7, 8))) == 1
    assert move_degree(Unzip(1)) == 1


# --------------------------------------------------------------------------
# closed surfaces swept by loops
# --------------------------------------------------------------------------


def sphere_movie(dots: int) -> FoamMovie:
    moves = [Birth(-1, None, True)] + [Dot(-1)] * dots + [Death(-1)]
    return run_movie(Web(), moves)


def test_sphere_values():
    for dots, expected in [(0, 0), (1, 0), (2, -1), (3, 0), (4, 0)]:
        m = sphere_movie(dots)
        assert m.degree() == 2 * dots - 4
        pre = extract_prefoam(m)
        assert pre == PreFoam(((0, dots),), ())
        assert evaluate(pre) == expected
        assert evaluate_bruteforce(pre) == expected


def test_torus_value():
    # the torus is 3 undotted and 0 with one or two dots
    for dots, expected in [(0, 3), (1, 0), (2, 0)]:
        pre = PreFoam(((1, dots),), ())
        assert evaluate(pre) == expected
        assert evaluate_bruteforce(pre) == expected


def test_genus_two_vanishes():
    pre = PreFoam(((2, 0),), ())
    assert evaluate(pre) == 0
    assert evaluate_bruteforce(pre) == 0


def test_two_spheres_multiply():
    moves = (
        [Birth(-1, None, True), Birth(-2, None, True)]
        + [Dot(-1)] * 2
        + [Dot(-2)] * 2
        + [Death(-1), Death(-2)]
    )
    m = run_movie(Web(), moves)
    pre = extract_prefoam(m)
    assert pre == PreFoam(((0, 2), (0, 2)), ())
    assert evaluate(pre) == 1  # (-1) * (-1)
    assert evaluate_bruteforce(pre) == 1


# --------------------------------------------------------------------------
# the bubble sphere: zip a bubble onto a loop, then cap it off
# --------------------------------------------------------------------------


def bubble_movie(a: int, b: int, c: int, outside: bool = False) -> FoamMovie:
    """Dots: ``a`` on the main sheet, ``b`` on the bulge, ``c`` on the
    chord.  A counterclockwise main loop is born, then a bulge loop
    inside it (or beside it, turning the other way, when ``outside``);
    the two are zipped along the chord edge ``2 -> 1``.  The cap unzips
    the chord, the bulge circle dies, then the main loop."""
    region = None if outside else ("inside", -1)
    moves: list = [
        Birth(-1, None, True),
        Birth(-2, region, not outside),
        Zip(-1, -2, region, (1, 2, 3, 4, 5, 6)),
    ]
    # the zip cuts the loop aligned with the region's walk at darts 3/4
    # and the other at 5/6; the main loop is the aligned one from inside
    aligned, anti = (-2, -1) if outside else (-1, -2)
    main, bulge = (3, 5) if aligned == -1 else (5, 3)
    moves += [Dot(main)] * a + [Dot(bulge)] * b + [Dot(1)] * c
    moves += [Unzip(1, loop_id_aligned=aligned, loop_id_anti=anti)]
    moves += [Death(-2), Death(-1)]
    return run_movie(Web(), moves)


def test_bubble_movie_states():
    m = bubble_movie(0, 0, 0)
    states = m.states()
    w = states[3]  # after the zip
    assert w.faces() == {1: (1, 6), 2: (2, 3), 4: (4, 5)}
    assert w.outer_face == {1: 2}
    assert w.parent == {1: None}
    assert kuperberg_bracket(w) == quantum_integer(2) * quantum_integer(3)
    # the unzip gives both loops back, nested as they were born
    assert states[4] == states[2]
    after_cap = states[5]
    assert after_cap.loop_ccw == {-1: True}
    assert after_cap.parent == {-1: None}
    assert m.end.is_empty()


def test_bubble_sphere_table():
    for a, b, c in itertools.product(range(4), repeat=3):
        m = bubble_movie(a, b, c)
        assert m.degree() == 2 * (a + b + c) - 6
        pre = extract_prefoam(m)
        got = evaluate(pre)
        assert got == evaluate_bruteforce(pre)
        assert got == theta_symbol(a, b, c)
        assert got == flag_theta(a, b, c)


def test_bubble_prefoam_order():
    # facet order around the singular circle: main sheet, bulge, chord
    pre = extract_prefoam(bubble_movie(2, 1, 0))
    assert pre == PreFoam(((0, 2), (0, 1), (0, 0)), ((0, 1, 2),))


def test_bubble_outside_is_reversed():
    # zipping the bubble on from outside the loop reverses the circle's
    # cyclic order
    for a, b, c in itertools.product(range(3), repeat=3):
        got = evaluate_closed(bubble_movie(a, b, c, outside=True))
        assert got == theta_symbol(b, a, c)
        assert got == flag_theta(b, a, c)


def test_bubble_reflect_same_value():
    for a, b, c in [(0, 1, 2), (2, 1, 0), (1, 1, 1), (0, 2, 1)]:
        m = bubble_movie(a, b, c)
        r = m.reflect()
        assert r.end.is_empty() and r.start.is_empty()
        assert evaluate_closed(r) == evaluate_closed(m)


def test_disjoint_union_multiplies():
    m1 = bubble_movie(0, 1, 2)
    assert evaluate_closed(m1.compose(bubble_movie(0, 1, 2))) == 1
    assert evaluate_closed(m1.compose(bubble_movie(2, 1, 0))) == -1
    assert evaluate_closed(m1.compose(sphere_movie(2))) == -1
    assert evaluate_closed(m1.compose(sphere_movie(1))) == 0


# --------------------------------------------------------------------------
# the lens: zip two loops into a fin, unzip, kill
# --------------------------------------------------------------------------


def lens_movie(a: int, b: int, c: int) -> FoamMovie:
    """Two loops zipped and unzipped; dots: ``a`` on the
    counterclockwise loop, ``b`` on the clockwise one, ``c`` on the fin."""
    moves: list = [Birth(-1, None, True), Birth(-2, None, False)]
    moves += [Dot(-1)] * a + [Dot(-2)] * b
    moves += [Zip(-1, -2, None, (1, 2, 3, 4, 5, 6))]
    moves += [Dot(1)] * c
    moves += [Unzip(1, loop_id_aligned=-2, loop_id_anti=-1), Death(-1), Death(-2)]
    return run_movie(Web(), moves)


def test_lens_zip_web_structure():
    m = lens_movie(0, 0, 0)
    states = m.states()
    w = states[3]  # after the zip
    assert w.loop_ccw == {}
    assert sorted(len(orbit) for orbit in w.faces().values()) == [2, 2, 2]
    assert w.outer_face == {1: 4}
    assert w.parent == {1: None}
    assert kuperberg_bracket(w) == quantum_integer(2) * quantum_integer(3)
    # the unzip restores both loops with their original ids and turning
    assert states[4] == states[2]
    assert m.end.is_empty()


def test_lens_table():
    for a, b, c in itertools.product(range(3), repeat=3):
        m = lens_movie(a, b, c)
        pre = extract_prefoam(m)
        got = evaluate(pre)
        assert got == evaluate_bruteforce(pre)
        assert got == theta_symbol(b, a, c)
        assert got == flag_theta(b, a, c)


def test_lens_reflect_roundtrip():
    m = lens_movie(1, 1, 1)
    r = m.reflect()
    assert [w.exact_key() for w in r.states()] == [
        w.exact_key() for w in reversed(m.states())
    ]
    assert evaluate_closed(r) == evaluate_closed(m)
    rr = r.reflect()
    assert [w.exact_key() for w in rr.states()] == [
        w.exact_key() for w in m.states()
    ]


# --------------------------------------------------------------------------
# half foams: sweep once, glue along the shared web
# --------------------------------------------------------------------------


def lens_half(a: int, b: int, c: int) -> FoamMovie:
    """The lens movie up to its fin: the empty web to a theta web with
    dots ``a`` and ``b`` on the two loop sheets and ``c`` on the fin."""
    moves: list = [Birth(-1, None, True), Birth(-2, None, False)]
    moves += [Dot(-1)] * a + [Dot(-2)] * b
    moves += [Zip(-1, -2, None, (1, 2, 3, 4, 5, 6))]
    moves += [Dot(1)] * c
    return run_movie(Web(), moves)


def _closed_samples() -> list[FoamMovie]:
    return [
        sphere_movie(2),
        bubble_movie(1, 0, 2),
        lens_movie(0, 1, 2),
        lens_half(2, 0, 1).compose(lens_half(0, 1, 0).reflect()),
    ]


def test_glue_with_the_empty_half_is_extract_prefoam():
    empty = half_foam(identity_movie(Web()))
    for m in _closed_samples():
        assert glue(half_foam(m), empty) == extract_prefoam(m)
        assert glue(empty, half_foam(m)) == extract_prefoam(m)


def test_half_is_swept_once_and_cached():
    m = lens_half(1, 0, 0)
    h = half_foam(m)
    assert h.web == m.end
    assert len(h.shape.arcs) == len(h.shape.sinks) == 2
    assert len(h.shape.strips) == 6
    assert h.shape.size == len(h.facets)
    assert list(h.shape.sinks) == [
        v[0] not in m.end.out_darts for v in m.end.vertices()
    ]


def test_glued_lens_matches_replay_and_theta_table():
    for a, b, c in itertools.product(range(3), repeat=3):
        u = lens_half(a, b, c)
        v = lens_half(0, 0, 0)
        pre = glue(half_foam(u), half_foam(v))
        assert evaluate(pre) == evaluate_closed(u.compose(v.reflect()))
        assert evaluate(pre) == theta_symbol(b, a, c)
        # dots move freely between the halves
        w = lens_half(0, b, 0)
        pre = glue(half_foam(lens_half(a, 0, c)), half_foam(w))
        assert evaluate(pre) == theta_symbol(b, a, c)


def test_glue_rejects_different_end_webs():
    ccw = run_movie(Web(), (Birth(-1, None, True),))
    cw = run_movie(Web(), (Birth(-1, None, False),))
    with pytest.raises(MalformedMovie):
        glue(half_foam(ccw), half_foam(cw))
    with pytest.raises(MalformedMovie):
        glue(half_foam(lens_half(0, 0, 0)), half_foam(ccw))


def test_half_requires_the_empty_start():
    with pytest.raises(MalformedMovie):
        half_foam(identity_movie(theta_web()))


def _reshaped(h: HalfFoam, **fields) -> HalfFoam:
    """``h`` with the given fields of its shape replaced (and the new
    shape's id)."""
    shape = h.shape._replace(**fields)
    return h._replace(shape=shape, shape_id=_intern_shape(shape))


def _relabelled(
    h: HalfFoam, facet: int, twice_chi_shift: int, dots_shift: int = 0
) -> HalfFoam:
    """``h`` with ``twice_chi_shift`` added to the first label of one
    facet and ``dots_shift`` to its second."""
    facets = list(h.facets)
    twice_chi, dots = facets[facet]
    facets[facet] = (twice_chi + twice_chi_shift, dots + dots_shift)
    return h._replace(facets=tuple(facets))


def test_glue_rejects_malformed_seams():
    h = half_foam(lens_half(0, 0, 0))
    sinks, s = h.shape.sinks, h.shape.strips
    # seam endpoints that disagree about which end is the sink
    flipped = _reshaped(h, sinks=(not sinks[0],) + sinks[1:])
    with pytest.raises(MalformedMovie, match="disagree"):
        glue(h, flipped)
    # a strip glued onto another sheet
    off_sheet = _reshaped(h, strips=(s[1], s[0]) + s[2:])
    with pytest.raises(MalformedMovie, match="different sheets"):
        glue(h, off_sheet)
    # all strips on one sheet, twisted at one end: the circle closes with
    # a single strip
    one_sheet = _reshaped(h, strip_facets=(0, 0, 0))
    twisted = _reshaped(one_sheet, strips=s[:3] + (s[4], s[5], s[3]))
    with pytest.raises(MalformedMovie, match="three distinct strips"):
        glue(one_sheet, twisted)
    # a seam cycle without a sink vertex to read its circle at
    sinkless = _reshaped(h, sinks=(False, False))
    with pytest.raises(MalformedMovie, match="no sink"):
        glue(sinkless, sinkless)


def test_glue_rejects_odd_euler_characteristic():
    h = half_foam(lens_half(0, 0, 0))
    odd = _relabelled(h, 0, 1)
    with pytest.raises(MalformedMovie, match="odd Euler characteristic"):
        glue(h, odd)


def test_glue_plan_does_not_skip_label_checks():
    h = half_foam(lens_half(0, 0, 0))
    assert evaluate(glue(h, h)) == theta_symbol(0, 0, 0)
    assert (h.shape_id, h.shape_id) in memo.GLUE_PLANS
    # same shapes as the glue above, so these reuse its plan
    with pytest.raises(MalformedMovie, match="odd Euler characteristic"):
        glue(h, _relabelled(h, 0, 1))
    # two more units of Euler characteristic make a sheet of genus -1
    with pytest.raises(MalformedMovie, match="closed orientable sheet"):
        glue(h, _relabelled(h, 0, 4))
    with pytest.raises(MalformedMovie, match="closed orientable sheet"):
        glue(_relabelled(h, 0, 4), h)
    assert glue(h, h) == glue(h, h)


def test_malformed_shape_raises_on_every_call():
    h = half_foam(lens_half(0, 0, 0))
    sinks = h.shape.sinks
    flipped = _reshaped(h, sinks=(not sinks[0],) + sinks[1:])
    sinkless = _reshaped(h, sinks=(False, False))
    for _ in range(3):
        with pytest.raises(MalformedMovie, match="disagree"):
            glue(h, flipped)
        with pytest.raises(MalformedMovie, match="no sink"):
            glue(sinkless, sinkless)
    assert (h.shape_id, flipped.shape_id) not in memo.GLUE_PLANS
    assert (sinkless.shape_id, sinkless.shape_id) not in memo.GLUE_PLANS


def test_clear_empties_glue_plans_and_shape_ids():
    h = half_foam(lens_half(1, 0, 2))
    before = glue(h, h)
    assert (h.shape_id, h.shape_id) in memo.GLUE_PLANS
    memo.clear()
    assert not memo.GLUE_PLANS
    assert not memo.SHAPE_IDS
    assert glue(h, h) == before
    assert (h.shape_id, h.shape_id) in memo.GLUE_PLANS


def test_clear_empties_colouring_counts():
    pre = glue(half_foam(lens_half(1, 0, 2)), half_foam(lens_half(0, 0, 0)))
    value = evaluate(pre)
    assert value == theta_symbol(0, 1, 2)
    assert memo.COLOURINGS
    memo.clear()
    assert not memo.COLOURINGS
    assert evaluate(pre) == value
    # one circle structure with one need per sheet
    assert len(memo.COLOURINGS) == 1


def _glue_unplanned(a: HalfFoam, b: HalfFoam):
    """``glue(a, b)`` through a freshly built plan: every memo table is
    emptied first."""
    memo.clear()
    return glue(a, b)


def test_shape_ids_are_equal_for_equal_shapes():
    a, b = half_foam(lens_half(1, 0, 2)), half_foam(lens_half(0, 2, 0))
    assert a.shape == b.shape and a.shape_id == b.shape_id
    loop = half_foam(run_movie(Web(), (Birth(-1, None, True),)))
    assert loop.shape != a.shape and loop.shape_id != a.shape_id


def test_half_cached_before_a_clear_never_finds_another_shapes_plan():
    memo.clear()
    old = half_foam(lens_half(1, 0, 2))
    assert glue(old, old) == _glue_unplanned(old, old)
    memo.clear()
    # the first shape interned after the clear: a restarted counter
    # would give it the id ``old`` still carries
    new = half_foam(run_movie(Web(), (Birth(-1, None, True),)))
    assert new.shape != old.shape and new.shape_id != old.shape_id
    assert glue(old, old) == _glue_unplanned(old, old)
    assert glue(new, new) == _glue_unplanned(new, new)
    assert glue(old, old) == _glue_unplanned(old, old)


# --------------------------------------------------------------------------
# the batched pairing kernel
# --------------------------------------------------------------------------


def _loop_halves() -> list[HalfFoam]:
    births = [(Birth(-1, None, True),) + (Dot(-1),) * k for k in range(3)]
    return [half_foam(run_movie(Web(), moves)) for moves in births]


def _lens_halves() -> list[HalfFoam]:
    return [half_foam(lens_half(*dots)) for dots in itertools.product(range(3), repeat=3)]


def test_pair_halves_is_evaluate_of_glue_on_every_pair():
    for halves in (_loop_halves(), _lens_halves()):
        expected = [[evaluate(glue(a, b)) for b in halves] for a in halves]
        assert pair_halves(halves, halves) == expected
        # a second call is served by the plans' value tables
        assert pair_halves(halves, halves) == expected
        assert pair_halves(halves[:1], halves) == expected[:1]
        assert pair_halves(halves, []) == [[] for _ in halves]
        assert pair_halves([], halves) == []


def test_pair_halves_stores_one_value_per_glued_label_vector():
    memo.clear()
    halves = _lens_halves()
    pair_halves(halves, halves)
    h = halves[0]
    assert all(x.shape_id == h.shape_id for x in halves)
    assert list(memo.GLUE_PLANS) == [(h.shape_id, h.shape_id)]
    # 729 pairs of one shape, whose glued foams differ only in the dots
    # on their three sheets: 0 to 4 on each
    assert len(memo.GLUE_PLANS[(h.shape_id, h.shape_id)].values) == 5**3


def test_pair_halves_label_faults_raise_on_every_call_and_are_never_stored():
    # a miss makes the foam's facets from the summed labels, with the
    # label checks of the gluing oracle and its messages
    h = half_foam(lens_half(0, 0, 0))
    assert pair_halves([h], [h]) == [[theta_symbol(0, 0, 0)]]
    plan = memo.GLUE_PLANS[(h.shape_id, h.shape_id)]
    warm, counts = dict(plan.values), dict(memo.COLOURINGS)
    odd, negative_genus = _relabelled(h, 0, 1), _relabelled(h, 0, 4)
    faults = [
        ("odd Euler characteristic", [h], [h, odd], (h, odd)),
        ("odd Euler characteristic", [odd], [h], (odd, h)),
        ("closed orientable sheet", [h, negative_genus], [h], (negative_genus, h)),
        ("closed orientable sheet", [h], [negative_genus], (h, negative_genus)),
    ]
    for _ in range(3):
        for match, lefts, rights, pair in faults:
            with pytest.raises(MalformedMovie, match=match) as paired:
                pair_halves(lefts, rights)
            with pytest.raises(MalformedMovie) as glued:
                glue(*pair)
            assert str(paired.value) == str(glued.value)
        assert plan.values == warm
        assert memo.COLOURINGS == counts
    assert pair_halves([h], [h]) == [[theta_symbol(0, 0, 0)]]


def test_pair_halves_rejects_labels_outside_the_packed_range():
    # a pair adds two packed projections, one 16-bit field per label; two
    # unchecked fields of 2 ** 15 or more would carry into the next field
    # and find the stored value of another foam, so a label of size
    # ``_LABEL_BOUND`` or more raises on every call and is never stored
    memo.clear()
    h = half_foam(lens_half(0, 0, 0))
    bound = foam._LABEL_BOUND
    twice_chi, dots = h.facets[0]

    def at(new_twice_chi: int, new_dots: int) -> HalfFoam:
        return _relabelled(h, 0, new_twice_chi - twice_chi, new_dots - dots)

    dotted = at(twice_chi, dots + 1)
    expected = [[evaluate(glue(h, h)), evaluate(glue(h, dotted))]]
    assert pair_halves([h], [h, dotted]) == expected
    plan = memo.GLUE_PLANS[(h.shape_id, h.shape_id)]
    warm = dict(plan.values)
    # unchecked, this pair's sum would carry one into the dots field of
    # facet 0, whose dots it lowers by one: the packed sum of (h, h)
    carry_left = at(twice_chi + (1 << 15), dots)
    carry_right = at(twice_chi + (1 << 15), dots - 1)
    faults = [
        at(twice_chi + (1 << 16), dots),
        at(twice_chi - (1 << 16), dots),
        at(twice_chi, bound),
        at(twice_chi, -bound),
        at(bound, dots),
        at(-bound, dots),
    ]
    for _ in range(2):
        for half in faults:
            with pytest.raises(MalformedMovie, match="out of range"):
                pair_halves([h], [half])
            with pytest.raises(MalformedMovie, match="out of range"):
                pair_halves([half], [h, dotted])
        with pytest.raises(MalformedMovie, match="out of range"):
            pair_halves([carry_left], [carry_right])
        assert plan.values == warm
    # labels just inside the range pair as the gluing oracle glues them:
    # to the same value, or to the same error
    def outcome(evaluation):
        try:
            return evaluation()
        except MalformedMovie as exc:
            return str(exc)

    inside = [at(twice_chi, bound - 1), at(twice_chi, 1 - bound)]
    inside += [at(bound - 1, dots), at(1 - bound, dots), at(bound - 2, dots)]
    for half in inside:
        assert outcome(lambda: pair_halves([h], [half])[0][0]) == outcome(
            lambda: evaluate(glue(h, half))
        )
    assert pair_halves([h], [h, dotted]) == expected


def test_pair_halves_seam_faults_raise_on_every_call():
    h = half_foam(lens_half(0, 0, 0))
    sinks = h.shape.sinks
    flipped = _reshaped(h, sinks=(not sinks[0],) + sinks[1:])
    for _ in range(3):
        with pytest.raises(MalformedMovie, match="disagree"):
            pair_halves([h], [h, flipped])
    assert (h.shape_id, flipped.shape_id) not in memo.GLUE_PLANS


def test_pair_halves_rejects_different_end_webs():
    ccw = half_foam(run_movie(Web(), (Birth(-1, None, True), Dot(-1), Dot(-1))))
    plain = half_foam(run_movie(Web(), (Birth(-1, None, True),)))
    cw = half_foam(run_movie(Web(), (Birth(-1, None, False),)))
    # equal end webs held by different objects pair
    assert plain.web is not ccw.web
    assert pair_halves([plain], [ccw]) == [[evaluate(glue(plain, ccw))]]
    for _ in range(2):
        with pytest.raises(MalformedMovie, match="end webs differ"):
            pair_halves([ccw], [cw])
        with pytest.raises(MalformedMovie, match="end webs differ"):
            pair_halves([plain], [ccw, cw])
        with pytest.raises(MalformedMovie, match="end webs differ"):
            pair_halves([half_foam(lens_half(0, 0, 0))], [plain])


# --------------------------------------------------------------------------
# extending halves: one seeded sweep per shape
# --------------------------------------------------------------------------


def _counted_sweeps(monkeypatch) -> list:
    """Count every sweep, from the empty web or seeded, made from now on."""
    calls = []
    real = foam._sweep

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(foam, "_sweep", counted)
    return calls


def _same_half(a: HalfFoam, b: HalfFoam) -> bool:
    return (a.shape, a.facets, a.web.exact_key()) == (
        b.shape,
        b.facets,
        b.web.exact_key(),
    )


def test_extended_halves_equal_swept_halves(monkeypatch):
    prefixes = [lens_half(a, b, c) for a, b, c in itertools.product(range(3), repeat=3)]
    halves = [half_foam(p) for p in prefixes]
    theta = lens_half(0, 0, 0)
    darts = {d: d + 10 for d in theta.end.sigma}
    loops = {-1: -5, -2: -6}
    movies = [
        relabeled_movie(dot_movie(theta.end, 1), darts, loops),
        relabeled_movie(dot_movie(theta.end, 4), darts, loops),
        # the fin unzips: its seam arc closes into a circle through the
        # seeded vertices, and both loops die
        relabeled_movie(theta.reflect(), darts, loops),
        relabeled_movie(lens_half(1, 2, 1).reflect(), darts, loops),
    ]
    sweeps = _counted_sweeps(monkeypatch)
    for movie in movies:
        extended = extend_halves(halves, movie, darts, loops)
        for p, x in zip(prefixes, extended):
            swept = half_foam(relabeled_movie(p, darts, loops).compose(movie))
            assert _same_half(x, swept)
    # one seeded sweep per movie (the lens halves share one shape), then
    # one sweep from the empty web per composed movie above
    assert len(sweeps) == len(movies) * (1 + len(prefixes))


def test_extension_rejects_a_movie_from_another_web():
    h = half_foam(lens_half(0, 0, 0))
    loop = run_movie(Web(), (Birth(-1, None, True),))
    with pytest.raises(MalformedMovie, match="from its web"):
        extend_halves([h], dot_movie(loop.end, -1), {}, {})
    # a renaming that does not carry the half's web onto the movie's start
    with pytest.raises(MalformedMovie, match="from its web"):
        extend_halves([h], dot_movie(h.web, 1), {1: 11}, {})
    # a second half of the first one's shape, on another web
    other = half_foam(run_movie(Web(), (Birth(-2, None, True),)))
    assert other.shape_id == half_foam(loop).shape_id
    with pytest.raises(MalformedMovie, match="from its web"):
        extend_halves([half_foam(loop), other], dot_movie(loop.end, -1), {}, {})


def test_extension_plan_faults_raise_for_every_half(monkeypatch):
    a, b = half_foam(lens_half(0, 0, 0)), half_foam(lens_half(1, 2, 0))
    sinks, s = a.shape.sinks, a.shape.strips
    flipped = [_reshaped(h, sinks=(not sinks[0],) + sinks[1:]) for h in (a, b)]
    off_sheet = [_reshaped(h, strips=(s[1], s[0]) + s[2:]) for h in (a, b)]
    unfit = [_reshaped(h, keys=h.shape.keys[1:]) for h in (a, b)]
    cases = [
        (flipped, dot_movie(a.web, 1), "disagrees"),
        (off_sheet, lens_half(0, 0, 0).reflect(), "different sheets"),
        (unfit, dot_movie(a.web, 1), "does not fit"),
    ]
    sweeps = _counted_sweeps(monkeypatch)
    for halves, movie, message in cases:
        assert halves[0].shape_id == halves[1].shape_id
        for h in halves:
            with pytest.raises(MalformedMovie, match=message):
                extend_halves([h], movie, {}, {})
    # every failing call planned anew: no failed plan was kept
    assert len(sweeps) == 4


# --------------------------------------------------------------------------
# unzipping the three-edge web: nesting and turning of the new loops
# --------------------------------------------------------------------------


def test_unzip_center_edge_splits_side_by_side():
    w = theta_web()
    after = apply_unzip(w, Unzip(3, loop_id_aligned=-10, loop_id_anti=-11))
    assert after.sigma == {}
    assert after.loop_ccw == {-10: False, -11: True}
    assert after.parent == {-10: None, -11: None}


def test_unzip_top_edge_splits_nested():
    w = theta_web()
    after = apply_unzip(w, Unzip(1, loop_id_aligned=-20, loop_id_anti=-21))
    assert after.loop_ccw == {-20: True, -21: True}
    assert after.parent == {-20: None, -21: ("inside", -20)}


def test_unzip_interior_items_follow_faces():
    w = theta_with_loop_inside()  # free loop -1 in the face (1, 4)
    after = apply_unzip(w, Unzip(3, loop_id_aligned=-10, loop_id_anti=-11))
    assert after.parent[-1] == ("inside", -10)
    after2 = apply_unzip(w, Unzip(1, loop_id_aligned=-20, loop_id_anti=-21))
    assert after2.parent[-1] == ("inside", -21)


def test_unzip_reflect_restores_theta():
    w = theta_web()
    for seam in (1, 3, 5):
        m = run_movie(w, (Unzip(seam, loop_id_aligned=-10, loop_id_anti=-11),))
        r = m.reflect()
        assert r.end == w


def test_zip_self_parallel_rejected():
    # two side-by-side loops turning the same way run anti-parallel at
    # the gap between them and cannot be zipped
    w = Web(
        loop_ccw={-1: True, -2: True},
        parent={-1: None, -2: None},
    )
    with pytest.raises(MoveError):
        apply_zip(w, Zip(-1, -2, None, (1, 2, 3, 4, 5, 6)))
    # nested loops of opposite turning likewise
    with pytest.raises(MoveError):
        apply_zip(
            nested_loops_web(), Zip(-1, -2, ("inside", -1), (1, 2, 3, 4, 5, 6))
        )


def test_zip_nested_same_turning():
    w = Web(
        loop_ccw={-1: True, -2: True},
        parent={-1: None, -2: ("inside", -1)},
    )
    after = apply_zip(w, Zip(-1, -2, ("inside", -1), (1, 2, 3, 4, 5, 6)))
    assert after.loop_ccw == {}
    assert len(after.faces()) == 3
    m = run_movie(w, (Zip(-1, -2, ("inside", -1), (1, 2, 3, 4, 5, 6)),))
    assert m.reflect().end == w


def test_zip_loop_to_edge():
    w = theta_with_loop_inside()
    mv = Zip(-1, 4, ("face", 1), (11, 12, 13, 14, 15, 16))
    after = apply_zip(w, mv)
    assert after.loop_ccw == {}
    assert len(after.sigma) == 12
    assert len(after.faces()) == 4
    assert run_movie(w, (mv,)).reflect().end == w


# --------------------------------------------------------------------------
# cups and caps on two-edge faces
# --------------------------------------------------------------------------


def test_cup_movies_on_edge():
    # the lifts through a digon whose external strands are two edges: a
    # bubble is born beside an edge and zipped onto it
    w = digon_chain_web()
    for face in (2, 8):
        plain, dotted, _, _ = digon_movies(w, face)
        assert [type(m) for m in plain.moves] == [Birth, Zip]
        assert plain.degree() == -1
        assert dotted.degree() == 1
        assert plain.end == dotted.end == w
        assert len(plain.start.sigma) == 6
        assert kuperberg_bracket(w) == quantum_integer(2) * kuperberg_bracket(
            plain.start
        )
        assert plain.reflect().end == plain.start
        assert dotted.reflect().end == plain.start


def test_cap_movies_on_theta():
    w = theta_web()
    # capping the upper face leaves the bottom circle, turning ccw
    dotted, plain = cap_movies(w, 1)
    assert plain.degree() == -1
    assert dotted.degree() == 1
    assert plain.end.loop_ccw == {-1: True}
    assert plain.reflect().end == w
    assert dotted.reflect().end == w
    # capping the lower face leaves the top circle, turning clockwise
    _, plain2 = cap_movies(w, 3)
    assert plain2.end.loop_ccw == {-1: False}
    assert plain2.reflect().end == w


def test_bracket_digon_relation_via_cap():
    w = theta_web()
    _, plain = cap_movies(w, 1)
    assert kuperberg_bracket(w) == quantum_integer(2) * kuperberg_bracket(plain.end)


# --------------------------------------------------------------------------
# square faces: the two unzip branches
# --------------------------------------------------------------------------


def _bounded_square_faces(w: Web) -> list[int]:
    outer = set(w.outer_face.values())
    return [
        f for f, orbit in w.faces().items() if len(orbit) == 4 and f not in outer
    ]


def test_square_split_movies_on_cube():
    w = cube_web()
    faces = _bounded_square_faces(w)
    assert faces
    for f in faces:
        first, second = square_split_movies(w, f)
        for br in (first, second):
            assert br.degree() == 0
            assert br.start == w
            assert len(br.moves) == 3
        assert kuperberg_bracket(w) == kuperberg_bracket(
            first.end
        ) + kuperberg_bracket(second.end)


def test_square_split_reflect_roundtrip():
    w = cube_web()
    f = _bounded_square_faces(w)[0]
    for br in square_split_movies(w, f):
        r = br.reflect()
        assert r.start == br.end
        assert r.end == w


def test_unzip_merges_on_cube():
    w = cube_web()
    for tail in sorted(w.out_darts):
        after = apply_unzip(w, Unzip(tail))
        assert len(after.sigma) == 18
        assert len(after.out_darts) == 9
        assert len(after.faces()) == 5
        m = run_movie(w, (Unzip(tail),))
        assert m.reflect().end == w


# --------------------------------------------------------------------------
# the fin: zip two loops, then collapse a digon
# --------------------------------------------------------------------------


def test_fin_collapse_table():
    # zip two loops and collapse either flank digon containing the seam:
    # the surviving loop carries the fused sheet; closing everything up
    # sweeps the same three-sheet sphere as the bubble route
    def via_fin(a: int, b: int, c: int, face: int) -> int:
        moves: list = [Birth(-1, None, True), Birth(-2, None, False)]
        moves += [Dot(-1)] * a + [Dot(-2)] * b
        moves += [Zip(-1, -2, None, (1, 2, 3, 4, 5, 6))]
        moves += [Dot(1)] * c
        fin = run_movie(Web(), moves)
        cap = cap_movies(fin.end, face)[1]
        assert [type(m) for m in cap.moves] == [Unzip, Death]
        (survivor,) = cap.end.loop_ccw
        moves += [*cap.moves, Death(survivor)]
        return evaluate_closed(run_movie(Web(), moves))

    for face in (1, 2):
        for a, b, c in itertools.product(range(3), repeat=3):
            assert via_fin(a, b, c, face) == theta_symbol(b, a, c)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def _sample_movies() -> list[FoamMovie]:
    w = cube_web()
    return [
        bubble_movie(1, 1, 1),
        lens_movie(0, 1, 2),
        cap_movies(theta_web(), 1)[0],
        square_split_movies(w, _bounded_square_faces(w)[0])[0],
        run_movie(
            theta_with_loop_inside(),
            (Zip(-1, 4, ("face", 1), (11, 12, 13, 14, 15, 16)),),
        ),
    ]


def test_movie_json_roundtrip():
    """The written movie form (``--dump-foams``) determines the movie."""
    for m in _sample_movies():
        m2 = movie_from_json_dict(json.loads(json.dumps(m.to_json_dict())))
        assert (m2.start, m2.moves) == (m.start, m.moves)
        assert m2.end == m.end


# --------------------------------------------------------------------------
# validation errors
# --------------------------------------------------------------------------


def test_birth_validation():
    w = Web(loop_ccw={-1: True}, parent={-1: None})
    with pytest.raises(MoveError):
        apply_birth(w, Birth(-1, None, True))  # id taken
    with pytest.raises(MoveError):
        apply_birth(w, Birth(2, None, True))  # not negative
    with pytest.raises(MoveError):
        apply_birth(w, Birth(-2, ("face", 9), True))  # no such region


def test_death_validation():
    w = nested_loops_web()
    with pytest.raises(MoveError):
        apply_death(w, Death(-1))  # interior not empty
    after = apply_death(w, Death(-2))
    assert after.loop_ccw == {-1: True}
    with pytest.raises(MoveError):
        apply_death(w, Death(-9))


def test_dot_validation():
    # a dot changes no slice, so it is checked where the sheet it marks
    # is looked up: a site the slice lacks has none
    theta = half_foam(lens_half(0, 0, 0))
    for site in (7, -1):
        with pytest.raises(MalformedMovie, match="no sheet class"):
            extend_halves([theta], dot_movie(theta.web, site), {}, {})


def test_zip_validation():
    w = theta_with_loop_inside()
    fresh = (11, 12, 13, 14, 15, 16)
    with pytest.raises(MoveError):
        apply_zip(w, Zip(-1, -1, ("face", 1), fresh))  # sites not distinct
    with pytest.raises(MoveError):
        apply_zip(w, Zip(-1, 2, ("face", 1), fresh))  # site 2 not on that face
    with pytest.raises(MoveError):
        apply_zip(w, Zip(-1, 1, ("face", 1), fresh))  # both sites anti-aligned
    with pytest.raises(MoveError):
        apply_zip(w, Zip(-1, 4, ("face", 3), fresh))  # region not shared
    with pytest.raises(MoveError):  # labels collide with existing darts
        apply_zip(w, Zip(-1, 4, ("face", 1), (1, 12, 13, 14, 15, 16)))


def test_a_zip_without_slices_raises():
    # no movie runs a move: a zip is the inverse of an unzip, and every
    # movie is handed its slices by the code that builds it
    w = theta_with_loop_inside()
    mv = Zip(-1, 4, ("face", 1), (11, 12, 13, 14, 15, 16))
    with pytest.raises(TypeError):
        FoamMovie(w, (mv,))
    after = apply_zip(w, mv)
    assert FoamMovie(w, (mv,), (w, after)).end is after


def test_given_slices_must_fit_the_movie():
    w = theta_with_loop_inside()
    mv = Zip(-1, 4, ("face", 1), (11, 12, 13, 14, 15, 16))
    after = apply_zip(w, mv)
    with pytest.raises(MalformedMovie, match="slices"):
        FoamMovie(w, (mv,), (w,))
    with pytest.raises(MalformedMovie, match="slices"):
        FoamMovie(w, (mv,), (theta_with_loop_inside(), after))


def test_a_sweep_rejects_a_site_its_slices_lack():
    # the given slices have no loop -2, so the dot has no sheet to mark
    w0 = Web()
    w1 = apply_birth(w0, Birth(-1, None, True))
    m = FoamMovie(w0, (Birth(-1, None, True), Dot(-2)), (w0, w1, w1))
    with pytest.raises(MalformedMovie, match="no sheet class"):
        foam._sweep(m)


def test_a_sweep_rejects_an_unzip_over_reversed_edges():
    # the slice before the lens's unzip, with every edge reversed, puts
    # the unzip's sink dart at the seam's source endpoint
    m = lens_movie(0, 0, 0)
    states = m.states()
    k = next(i for i, mv in enumerate(m.moves) if isinstance(mv, Unzip))
    w = states[k]
    flipped = Web(
        w.sigma,
        w.alpha,
        [w.alpha[d] for d in w.out_darts],
        w.loop_ccw,
        w.parent,
        w.outer_face,
    )
    sweep = FoamMovie(m.start, m.moves[: k + 1], [*states[:k], flipped, states[k + 1]])
    with pytest.raises(MalformedMovie, match="sink with a source"):
        foam._sweep(sweep)


def test_unzip_validation():
    with pytest.raises(MoveError):
        apply_unzip(theta_web(), Unzip(9))
    with pytest.raises(MoveError):
        apply_unzip(theta_web(), Unzip(1, loop_id_aligned=-1, loop_id_anti=-1))
    with pytest.raises(MoveError):  # both sides close, and neither has an id
        apply_unzip(theta_web(), Unzip(1))


def test_cup_validation():
    # the lifts (cups) of ``digon_movies`` reflect the caps, so they
    # refuse the same faces
    with pytest.raises(MoveError):
        digon_movies(theta_with_loop_inside(), 1)
    with pytest.raises(MoveError):
        digon_movies(theta_web(), 2)
    with pytest.raises(MoveError):
        digon_movies(cube_web(), 1)
    with pytest.raises(MoveError):
        digon_movies(theta_web(), 9)


def test_cap_validation():
    with pytest.raises(MoveError):
        cap_movies(theta_with_loop_inside(), 1)  # face has an interior item
    with pytest.raises(MoveError):
        cap_movies(theta_web(), 2)  # outer face
    with pytest.raises(MoveError):
        cap_movies(cube_web(), 1)  # not two-sided
    with pytest.raises(MoveError):
        cap_movies(theta_web(), 9)  # no such face


def test_square_split_validation():
    with pytest.raises(MoveError):
        square_split_movies(theta_web(), 1)


def _cube_with_loop_in_face_2() -> Web:
    w = cube_web()
    parent = {2: None, -1: ("face", 2)}
    return Web(w.sigma, w.alpha, w.out_darts, {-1: True}, parent, w.outer_face)


@pytest.mark.parametrize("name", ["cap", "square"])
def test_projections_check_their_face_before_any_surgery(monkeypatch, name):
    # both projections refuse the same faults, with the same messages,
    # before they unzip anything
    project, sides, web, wrong, inside = {
        "cap": (cap_movies, "two", theta_web(), cube_web(), theta_with_loop_inside()),
        "square": (
            square_split_movies,
            "four",
            cube_web(),
            theta_web(),
            _cube_with_loop_in_face_2(),
        ),
    }[name]
    surgeries = []
    for surgery in ("apply_unzip", "apply_death"):
        monkeypatch.setattr(foam, surgery, lambda *a, s=surgery: surgeries.append(s))
    cases = [
        (web, 99, "no face with key 99"),
        (wrong, min(wrong.faces()), f"face {min(wrong.faces())} is not {sides}-sided"),
        (web, web.outer_face[min(web.outer_face)], "the face must be bounded"),
        (
            inside,
            next(f for f in sorted(inside.faces()) if inside.children_of(("face", f))),
            "the face must have an empty interior",
        ),
    ]
    for w, face, message in cases:
        with pytest.raises(MoveError, match=f"^{name}: {message}$"):
            project(w, face)
    assert surgeries == []


def test_compose_mismatch():
    with pytest.raises(MalformedMovie):
        sphere_movie(0).compose(identity_movie(theta_web()))


def test_extract_requires_closed():
    with pytest.raises(MalformedMovie):
        extract_prefoam(identity_movie(theta_web()))
    with pytest.raises(MalformedMovie):
        extract_prefoam(run_movie(Web(), (Birth(-1, None, True),)))


# --------------------------------------------------------------------------
# direct evaluation cross-checks on synthetic shadows
# --------------------------------------------------------------------------


def test_evaluate_matches_bruteforce_synthetic():
    cases = [
        PreFoam(((0, 0), (0, 1), (0, 2)), ((0, 1, 2),)),
        PreFoam(((0, 0), (0, 0), (0, 0)), ((0, 1, 2), (0, 1, 2))),
        PreFoam(((0, 1), (0, 1), (0, 1)), ((0, 1, 2), (0, 1, 2))),
        PreFoam(((0, 0), (0, 0), (0, 1), (0, 2)), ((0, 1, 2), (0, 1, 3))),
        PreFoam(((0, 2), (0, 0), (0, 0), (0, 0)), ((0, 1, 2), (2, 1, 3))),
        PreFoam(((1, 0), (0, 0), (0, 2)), ((1, 2, 1),)),
        PreFoam(((0, 0),), ((0, 0, 0),)),
        PreFoam(((0, 1), (0, 1)), ((0, 1, 0),)),
        PreFoam(((0, 0), (0, 0)), ((0, 1, 0), (1, 0, 1))),
    ]
    for pre in cases:
        assert evaluate(pre) == evaluate_bruteforce(pre), pre


@st.composite
def prefoams(draw) -> PreFoam:
    """A closed foam's shadow: 1 to 8 facets of genus 0 to 2 with 0 to 3
    dots, and 0 to 4 singular circles, each any triple of facets, one
    facet repeated within it included; facets on no circle have no
    slots.  So that many values are nonzero, half the draws colour the
    circles one by one, giving no facet more than two where a circle
    can, and make each facet given at most two a sphere with the dots
    that complete that to two, or leave a torus given nothing
    undotted."""
    n = draw(st.integers(1, 8))
    any_triple = st.tuples(*[st.integers(0, n - 1)] * 3)
    if n >= 3:
        distinct = st.permutations(range(n)).map(lambda p: tuple(p[:3]))
        any_triple = distinct | any_triple
    circles = tuple(draw(st.lists(any_triple, max_size=4)))
    genera = draw(st.lists(st.sampled_from((0, 0, 0, 1, 2)), min_size=n, max_size=n))
    dots = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    if draw(st.booleans()):
        received = [0] * n
        for tri in circles:
            options = []
            for weights in itertools.permutations((0, 1, 2)):
                after = list(received)
                for f, w in zip(tri, weights):
                    after[f] += 2 - w
                if max(after) <= 2:
                    options.append(after)
            received = draw(st.sampled_from(options)) if options else received
        for f, (g, r) in enumerate(zip(genera, received)):
            if g == 1 and r == 0:
                dots[f] = 0
            elif r <= 2:
                genera[f], dots[f] = 0, 2 - r
    return PreFoam(tuple(zip(genera, dots)), circles)


@settings(max_examples=400, deadline=None)
@given(prefoams(), st.data())
def test_evaluate_matches_the_circle_recursion_on_random_foams(pre, data):
    value = evaluate(pre)
    assert value == evaluate_by_circles(pre)
    if len(pre.circles) <= 2:
        assert value == evaluate_bruteforce(pre)
    # a second call is served by the colouring memo
    assert evaluate(pre) == value
    if pre.circles:
        # reversing one circle's orientation reverses every colouring's
        # cyclic order
        i = data.draw(st.integers(0, len(pre.circles) - 1))
        x, y, z = pre.circles[i]
        flipped = pre.circles[:i] + ((x, z, y),) + pre.circles[i + 1 :]
        assert evaluate(PreFoam(pre.facets, flipped)) == -value


def test_random_foams_reach_nonzero_values():
    # the property above says little if the drawn values were all zero;
    # derandomized, so that the counts are the same on every run
    circles_of_nonzero = []

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(prefoams())
    def collect(pre):
        if evaluate(pre):
            circles_of_nonzero.append(len(pre.circles))

    collect()
    assert len(circles_of_nonzero) >= 40
    assert sum(1 for c in circles_of_nonzero if c >= 2) >= 3


def test_evaluation_cache_stable():
    pre = PreFoam(((0, 0), (0, 1), (0, 2)), ((0, 1, 2),))
    v1 = evaluate(pre)
    v2 = evaluate(pre)
    assert v1 == v2 == evaluate_bruteforce(pre)


# --------------------------------------------------------------------------
# inverse moves, one by one
# --------------------------------------------------------------------------


def test_inverse_move_pairs():
    w0 = Web()
    mv = Birth(-1, None, True)
    w1 = apply_birth(w0, mv)
    assert inverse_move(mv, w0, w1) == Death(-1)
    assert inverse_move(Death(-1), w1, w0) == Birth(-1, None, True)
    assert inverse_move(Dot(-1), w1, w1) == Dot(-1)

    th = theta_web()
    mv2 = Unzip(3, loop_id_aligned=-10, loop_id_anti=-11)
    w2 = apply_unzip(th, mv2)
    back = inverse_move(mv2, th, w2)
    assert isinstance(back, Zip)
    assert apply_zip(w2, back) == th
    assert inverse_move(back, w2, th) == Unzip(
        3, loop_id_aligned=-10, loop_id_anti=-11
    )


def test_inverse_of_a_splitting_unzip_routes_nothing():
    # these unzips split the web in two, so the zip that undoes them
    # joins two parts and splits no face: it routes no nested item to
    # the sink pocket and names no ceiling side
    w = theta_with_loop_inside()
    for seam in (3, 5):
        mv = Unzip(seam, loop_id_aligned=-20, loop_id_anti=-21)
        after = apply_unzip(w, mv)
        back = inverse_move(mv, w, after)
        assert back.children_to_sink == frozenset()
        assert back.ceiling_side is None
        assert apply_zip(after, back) == w
