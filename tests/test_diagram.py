"""PD parsing, sign derivation, flattenings, and resolution-edge moves."""

import itertools
import random

import pytest

from artifact import diagram, memo
from artifact.algebra import quantum_integer
from artifact.diagram import (
    LinkDiagram,
    MalformedDiagram,
    diagram_from_json,
    parse_pd,
    resolution_edge_movie,
    resolutions,
)
from artifact.corpus import fixture_diagrams
from artifact.foam import MalformedMovie, Unzip, Zip
from artifact.web import Web, kuperberg_bracket, link_bracket

from .helpers import at_one, braid_pd, component_count
from .oracles import (
    face_walk_planarity,
    parity_signs,
    poly_mirror,
    region_flatten,
    run_movie,
)

TREFOIL_R = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
HOPF_POS = "X(1,2,3,4) X(4,3,2,1)"
FIG8 = "X(7,5,1,2) X(2,3,4,8) X(3,1,5,6) X(6,7,8,4)"
# Two closures related by sliding a strand across a crossing: 3-crossing
# diagrams of the same two-component link, all crossings positive.
R3_SIDE_A = "X(6,5,1,2) X(4,2,3,4) X(3,1,5,6)"
R3_SIDE_B = "X(6,5,1,2) X(1,4,4,3) X(2,3,5,6)"
KINK_POS = "X(1,2,2,1)"
KINK_NEG = "X(1,1,2,2)"
POKE = "X(2,3,3,4) X(1,1,2,4)"  # unknot with one strand poked under another
S_CURL = "X(1,2,2,3) X(3,1,4,4)"  # unknot with a +1 and a -1 curl
DOUBLE_KINK = "X(1,2,2,3) X(3,4,4,1)"  # unknot with two +1 curls
UNLINK2_R2 = "X(1,2,3,4) X(3,2,1,4)"  # two circles crossing in a push-through
TWO_KINKS_APART = "X(1,2,2,1) X(3,4,4,3)"  # split pair of curled circles
TORUS_5_1 = "X(1,6,2,7) X(3,8,4,9) X(5,10,6,1) X(7,2,8,3) X(9,4,10,5)"
KNOT_6_1 = "X(1,7,2,6) X(3,10,4,11) X(5,3,6,2) X(7,1,8,12) X(9,4,10,5) X(11,9,12,8)"
TORUS_7_1 = (
    "X(1,8,2,9) X(3,10,4,11) X(5,12,6,13) X(7,14,8,1) X(9,2,10,3) "
    "X(11,4,12,5) X(13,6,14,7)"
)

ALL_PDS = [
    KINK_POS,
    KINK_NEG,
    POKE,
    S_CURL,
    DOUBLE_KINK,
    UNLINK2_R2,
    TWO_KINKS_APART,
    HOPF_POS,
    TREFOIL_R,
    R3_SIDE_A,
    R3_SIDE_B,
    FIG8,
]


def all_bits(n):
    return itertools.product((0, 1), repeat=n)


# --------------------------------------------------------------------------
# parsing and signs
# --------------------------------------------------------------------------


def test_trefoil_parses_with_three_positive_crossings():
    d = parse_pd(TREFOIL_R)
    assert d.n_crossings == 3
    assert d.signs == (1, 1, 1)
    assert sum(d.signs) == 3
    assert d.positive_count == 3 and d.negative_count == 0
    assert component_count(d) == 1


def test_trefoil_mirror_has_all_negative_crossings():
    d = parse_pd(TREFOIL_R)
    m = d.mirror()
    assert m.signs == (-1, -1, -1)
    assert sum(m.signs) == -3
    assert m.mirror().crossings == d.crossings


def test_mirror_of_every_fixture_negates_every_sign_and_mirrors_back():
    # a component that passes only under (as in both push-throughs)
    # keeps its orientation in the mirror
    for name, d in fixture_diagrams().items():
        m = d.mirror()
        assert m.signs == tuple(-s for s in d.signs), name
        assert m.mirror() == d, name


def test_bracket_and_whitespace_tuple_syntax():
    a = parse_pd("X[1,4,2,5]  X[3,6,4,1],X[5,2,6,3]")
    assert a == parse_pd(TREFOIL_R)


def test_empty_pd_gives_empty_diagram():
    d = parse_pd("")
    assert d.n_crossings == 0
    assert component_count(d) == 0
    assert d.flatten(()) == Web()
    assert link_bracket(d) == quantum_integer(3) ** 0


def test_kink_signs():
    assert parse_pd(KINK_POS).signs == (1,)
    assert parse_pd(KINK_NEG).signs == (-1,)


def test_hopf_signs_and_components():
    d = parse_pd(HOPF_POS)
    assert d.signs == (1, 1)
    assert component_count(d) == 2


def test_figure_eight_signs():
    d = parse_pd(FIG8)
    assert d.signs == (1, -1, 1, -1)
    assert sum(d.signs) == 0
    assert component_count(d) == 1


def test_r3_pair_signs_and_components():
    a, b = parse_pd(R3_SIDE_A), parse_pd(R3_SIDE_B)
    assert a.signs == (1, 1, 1) and b.signs == (1, 1, 1)
    assert component_count(a) == 2 and component_count(b) == 2


def test_push_through_circles_default_orientation():
    d = parse_pd(UNLINK2_R2)
    assert d.signs == (1, -1)
    assert component_count(d) == 2


def test_orientation_hint_flips_free_component():
    hinted = diagram_from_json(
        {"crossings": [[1, 2, 3, 4], [3, 2, 1, 4]], "over_in": [3, None]}
    )
    assert hinted.signs == (-1, 1)


def test_split_diagram_parses():
    d = parse_pd(TWO_KINKS_APART)
    assert d.signs == (1, 1)
    assert component_count(d) == 2


# --------------------------------------------------------------------------
# rejected inputs
# --------------------------------------------------------------------------


def test_junk_text_is_rejected():
    with pytest.raises(MalformedDiagram, match="unrecognized"):
        parse_pd("X(1,2,3) nonsense")
    with pytest.raises(MalformedDiagram, match="unrecognized"):
        parse_pd("X(1,2,3,4,5) X(1,2,3,4)")
    with pytest.raises(MalformedDiagram):
        parse_pd(123)  # type: ignore[arg-type]


def test_wrong_arity_tuple_is_rejected():
    with pytest.raises(MalformedDiagram, match="exactly 4"):
        LinkDiagram.from_crossings([(1, 2, 3)])
    with pytest.raises(MalformedDiagram, match="positive integers"):
        LinkDiagram.from_crossings([(0, 1, 1, 0)])


def test_unmatched_arc_labels_are_rejected():
    with pytest.raises(MalformedDiagram, match="occurs 1 time"):
        parse_pd("X(1,2,3,4)")
    with pytest.raises(MalformedDiagram, match="occurs 3 time"):
        parse_pd("X(1,2,2,1) X(1,3,4,5)")


def test_inconsistent_orientation_is_rejected():
    # both ends of arc 1 enter at the incoming-under slot
    with pytest.raises(MalformedDiagram, match="orientation"):
        parse_pd("X(1,2,3,4) X(1,4,3,2)")
    # a curled pair wired so one arc would need two outflow ends
    with pytest.raises(MalformedDiagram, match="orientation"):
        parse_pd("X(1,2,2,3) X(4,1,3,4)")


def test_nonplanar_pd_is_rejected():
    # the error names the lowest crossing of the non-planar piece; in the
    # second case a trefoil sits next to the non-planar curl, crossing 3
    for pd, crossing in (
        ("X(1,2,1,2)", 0),
        ("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3) X(7,8,7,8)", 3),
    ):
        with pytest.raises(
            MalformedDiagram, match=f"non-planar PD data at crossing {crossing}:"
        ):
            parse_pd(pd)


def test_bad_hints_and_free_loops_are_rejected():
    with pytest.raises(MalformedDiagram, match="over_in"):
        LinkDiagram.from_crossings([(1, 2, 2, 1)], over_in=[1, 3])
    with pytest.raises(MalformedDiagram, match="over_in"):
        LinkDiagram.from_crossings([(1, 2, 2, 1)], over_in=[2])
    with pytest.raises(MalformedDiagram, match="conflicts"):
        LinkDiagram.from_crossings([(1, 2, 2, 1)], over_in=[3])
    with pytest.raises(MalformedDiagram, match="free_loops"):
        LinkDiagram.from_crossings([], free_loops=-1)


def _outcome(build):
    """What ``build()`` returns, or ``None`` when it raises
    ``MalformedDiagram``."""
    try:
        return build()
    except MalformedDiagram:
        return None


def _package_signs(xs, over_in=None):
    return _outcome(lambda: LinkDiagram.from_crossings(xs, over_in).signs)


def _oracle_signs(xs, over_in=None):
    return _outcome(lambda: parity_signs(xs, diagram._occurrences(xs), over_in))


def test_component_walk_orients_like_the_parity_oracle():
    # Braid closures, as given and with every crossing tuple rotated by
    # one or three slots (which keeps planarity but mostly breaks the
    # orientation), with no hints and with random partial hints.
    rng = random.Random(31)
    words = accepted = rejected = 0
    while words < 1000:
        strands = rng.randint(2, 4)
        letters = [k * i for i in range(1, strands) for k in (1, -1)]
        word = [rng.choice(letters) for _ in range(rng.randint(1, 9))]
        try:
            text = braid_pd(word)
        except ValueError:
            continue
        words += 1
        xs = parse_pd(text).crossings
        for turn in (0, 1, 3):
            ys = [x[turn:] + x[:turn] for x in xs]
            hint_draws = [[rng.choice((None, 1, 3)) for _ in ys] for _ in range(3)]
            for over_in in [None, *hint_draws]:
                signs = _oracle_signs(ys, over_in)
                assert _package_signs(ys, over_in) == signs, (ys, over_in)
                accepted += signs is not None
                rejected += signs is None
    memo.clear()
    assert accepted > 1000 and rejected > 1000


def test_bridged_web_rejects_what_the_face_walk_rejects():
    # random label pairings that orient: the bridged flattening is a
    # valid web exactly when the PD graph's faces make every piece a
    # sphere
    rng = random.Random(31)
    planar = nonplanar = 0
    while planar + nonplanar < 5000:
        n = rng.randint(1, 5)
        labels = [lab for lab in range(1, 2 * n + 1) for _ in (0, 1)]
        rng.shuffle(labels)
        xs = [tuple(labels[4 * c : 4 * c + 4]) for c in range(n)]
        signs = _oracle_signs(xs)
        if signs is None:
            continue
        try:
            face_walk_planarity(xs, diagram._occurrences(xs))
        except MalformedDiagram:
            signs = None
        assert _package_signs(xs) == signs, xs
        planar += signs is not None
        nonplanar += signs is None
    memo.clear()
    assert planar > 1000 and nonplanar > 1000


def test_bad_resolution_vectors_are_rejected():
    d = parse_pd(KINK_POS)
    with pytest.raises(MalformedDiagram):
        d.flatten((0, 1))
    with pytest.raises(MalformedDiagram):
        d.flatten((2,))


# --------------------------------------------------------------------------
# flattenings
# --------------------------------------------------------------------------


def test_positive_kink_smoothing_is_two_circles():
    d = parse_pd(KINK_POS)
    expected = Web({}, {}, frozenset(), {-1: True, -2: False},
                   {-1: None, -2: None}, {})
    assert d.flatten((0,)) == expected


def test_positive_kink_bridge_is_a_theta_web():
    d = parse_pd(KINK_POS)
    w = d.flatten((1,))
    assert w == Web(
        sigma={1: 2, 2: 5, 5: 1, 3: 4, 4: 6, 6: 3},
        alpha={5: 6, 6: 5, 2: 3, 3: 2, 1: 4, 4: 1},
        out_darts=frozenset({3, 4, 6}),
        loop_ccw={},
        parent={1: None},
        outer_face={1: 1},
    )
    assert kuperberg_bracket(w) == quantum_integer(2) * quantum_integer(3)


def test_negative_kink_bridge_web():
    d = parse_pd(KINK_NEG)
    w = d.flatten((0,))
    assert w == Web(
        sigma={5: 4, 4: 1, 1: 5, 2: 3, 3: 6, 6: 2},
        alpha={5: 6, 6: 5, 1: 2, 2: 1, 3: 4, 4: 3},
        out_darts=frozenset({2, 3, 6}),
        loop_ccw={},
        parent={1: None},
        outer_face={1: 1},
    )


def test_negative_kink_smoothing_is_two_nested_circles():
    d = parse_pd(KINK_NEG)
    expected = Web({}, {}, frozenset(), {-1: True, -3: True},
                   {-1: None, -3: ("inside", -1)}, {})
    assert d.flatten((1,)) == expected


def test_split_kinks_flatten_side_by_side():
    d = parse_pd(TWO_KINKS_APART)
    w = d.flatten((0, 0))
    assert w.loop_ccw == {-1: True, -2: False, -5: True, -6: False}
    assert w.parent == {-1: None, -2: None, -5: None, -6: None}
    w2 = d.flatten((1, 1))
    assert set(w2.components()) == {1, 5}
    assert w2.parent == {1: None, 5: None}
    assert w2.outer_face == {1: 1, 5: 5}


def test_every_flattening_of_every_fixture_is_a_valid_web():
    for pd in ALL_PDS:
        d = parse_pd(pd)
        assert d.positive_count + d.negative_count == d.n_crossings
        for bits in all_bits(d.n_crossings):
            w = d.flatten(bits)  # Web construction runs full validation
            assert set(w.loops) == set(w.loop_ccw)


def test_flatten_results_are_cached_by_value():
    memo.clear()
    a = parse_pd(KINK_POS).flatten((1,))
    b = parse_pd(KINK_POS).flatten((1,))
    assert a is b


def test_free_loops_add_split_circles():
    d = LinkDiagram.from_crossings([], free_loops=2)
    assert component_count(d) == 2
    w = d.flatten(())
    assert w.loop_ccw == {-1: True, -2: True}
    assert w.parent == {-1: None, -2: None}
    assert link_bracket(d) == quantum_integer(3) ** 2


# --------------------------------------------------------------------------
# bracket values through flattenings
# --------------------------------------------------------------------------


def test_curled_unknots_normalize_to_the_round_unknot_value():
    three = quantum_integer(3)
    for pd in (KINK_POS, KINK_NEG, POKE, S_CURL, DOUBLE_KINK):
        assert link_bracket(parse_pd(pd)) == three, pd


def test_push_through_circles_equal_the_split_pair():
    assert link_bracket(parse_pd(UNLINK2_R2)) == quantum_integer(3) ** 2
    assert link_bracket(parse_pd(TWO_KINKS_APART)) == quantum_integer(3) ** 2


def test_strand_slide_leaves_the_bracket_alone():
    a = link_bracket(parse_pd(R3_SIDE_A))
    b = link_bracket(parse_pd(R3_SIDE_B))
    assert a == b
    assert a != quantum_integer(3) ** 2  # genuinely linked components


def test_mirror_inverts_the_bracket_variable():
    for pd in (TREFOIL_R, HOPF_POS, FIG8):
        d = parse_pd(pd)
        assert link_bracket(d.mirror()) == poly_mirror(link_bracket(d))


def test_figure_eight_bracket_is_palindromic():
    v = link_bracket(parse_pd(FIG8))
    assert v == poly_mirror(v)


def test_bracket_at_one_counts_three_per_component():
    for pd in ALL_PDS:
        d = parse_pd(pd)
        assert at_one(link_bracket(d)) == 3 ** component_count(d), pd


# --------------------------------------------------------------------------
# resolution-edge moves
# --------------------------------------------------------------------------


def test_positive_kink_edge_is_a_zip_with_pinned_labels():
    d = parse_pd(KINK_POS)
    movie = resolution_edge_movie(d, (0,), 0)
    (mv,) = movie.moves
    assert isinstance(mv, Zip)
    assert mv.labels == (5, 6, 2, 3, 1, 4)
    assert mv.site_a == -2 and mv.site_b == -1
    assert mv.region is None
    assert movie.states()[-1] == d.flatten((1,))


def test_negative_kink_edge_is_an_unzip_closing_two_loops():
    d = parse_pd(KINK_NEG)
    movie = resolution_edge_movie(d, (0,), 0)
    (mv,) = movie.moves
    assert isinstance(mv, Unzip)
    assert mv.seam == 5
    assert mv.loop_id_aligned == -1 and mv.loop_id_anti == -3
    assert movie.states()[-1] == d.flatten((1,))


def test_every_fixture_edge_reproduces_its_target_flattening():
    # 5_1, 6_1 and 7_1 add every edge of larger cubes; 6_1 mixes signs
    assert set(parse_pd(KNOT_6_1).signs) == {1, -1}
    for pd in ALL_PDS + [TORUS_5_1, KNOT_6_1, TORUS_7_1]:
        d = parse_pd(pd)
        n = d.n_crossings
        for bits in all_bits(n):
            for c in range(n):
                if bits[c] == 1:
                    continue
                target = tuple(1 if i == c else b for i, b in enumerate(bits))
                movie = resolution_edge_movie(d, bits, c)
                # the end is the cached flattening itself, so its
                # canonical form is computed once for every edge into it
                assert movie.end is d.flatten(target), (pd, bits, c)
                assert movie.states()[-1] is d.flatten(target), (pd, bits, c)
                sign = d.signs[c]
                mv = movie.moves[0]
                assert isinstance(mv, Zip if sign == 1 else Unzip)


def test_positive_edges_match_the_zip_oracle():
    # a positive crossing's edge is a zip given the two cached
    # flattenings as its slices; zip surgery from the source flattening
    # must reach the target flattening exactly
    checked = 0
    for d in list(fixture_diagrams().values()) + [parse_pd(TORUS_5_1)]:
        for bits in resolutions(d.n_crossings):
            for c in range(d.n_crossings):
                if bits[c] == 0 and d.signs[c] == 1:
                    movie = resolution_edge_movie(d, bits, c)
                    rerun = run_movie(movie.start, movie.moves)
                    assert rerun.states() == movie.states(), (bits, c)
                    checked += 1
    assert checked > 180


def _relabeled(d, rng, free_loops):
    """``d`` with its crossings reordered and its arcs renamed at random,
    and ``free_loops`` crossing-free circles."""
    order = list(range(d.n_crossings))
    rng.shuffle(order)
    labels = sorted({lab for x in d.crossings for lab in x})
    rename = dict(zip(labels, rng.sample(range(1, 10 * len(labels) + 2), len(labels))))
    return LinkDiagram.from_crossings(
        [tuple(rename[lab] for lab in d.crossings[c]) for c in order],
        over_in=[1 if d.signs[c] == 1 else 3 for c in order],
        free_loops=free_loops,
    )


def test_every_flattening_matches_the_region_atom_reference():
    # the corpus, 5_1, 6_1 and 7_1, their mirrors, and four relabelings
    # of each (one with two free loops): the unzipped webs and loop ids
    # equal those derived from region atoms
    rng = random.Random(13)
    diagrams = []
    for d in list(fixture_diagrams().values()) + [
        parse_pd(pd) for pd in (TORUS_5_1, KNOT_6_1, TORUS_7_1)
    ]:
        for base in (d, d.mirror()):
            diagrams.append(base)
            for k in range(4):
                diagrams.append(_relabeled(base, rng, 2 if k == 0 else base.free_loops))
    count = 0
    for d in diagrams:
        for bits in resolutions(d.n_crossings):
            web, loop_at = region_flatten(d, bits)
            state = diagram._flatten_state(d, bits)
            assert state.web.exact_key() == web.exact_key(), (d, bits)
            assert state.loop_at == loop_at, (d, bits)
            count += 1
    assert len(diagrams) == 210 and count == 3420


def _swapped_loop_ids(monkeypatch):
    """Patch the bridge unzip to swap the ids of the loops it closes."""
    real = diagram._bridge_unzip

    def swapped(*args):
        mv = real(*args)
        return Unzip(mv.seam, mv.loop_id_anti, mv.loop_id_aligned)

    monkeypatch.setattr(diagram, "_bridge_unzip", swapped)


def test_edge_movie_rejects_an_unzip_that_misses_its_flattening(monkeypatch):
    # swapping the two loop ids of the bridge unzip ends the negative
    # edge, and starts the reflected positive edge, at the wrong web; the
    # true flattenings are built first, since the patched unzip would
    # also build the target
    for pd in (KINK_POS, KINK_NEG):
        for bits in ((0,), (1,)):
            parse_pd(pd).flatten(bits)
    _swapped_loop_ids(monkeypatch)
    for pd in (KINK_POS, KINK_NEG):
        with pytest.raises(MalformedMovie, match="target flattening"):
            resolution_edge_movie(parse_pd(pd), (0,), 0)


def test_a_swapped_unzip_flattens_away_from_the_reference(monkeypatch):
    _swapped_loop_ids(monkeypatch)
    memo.clear()
    try:
        # each kink's smoothing closes two loops in one unzip
        for pd, smoothing in ((KINK_POS, (0,)), (KINK_NEG, (1,))):
            d = parse_pd(pd)
            web, loop_at = region_flatten(d, smoothing)
            assert d.flatten(smoothing).exact_key() != web.exact_key()
    finally:
        memo.clear()


def test_edge_move_argument_errors():
    d = parse_pd(KINK_POS)
    with pytest.raises(MalformedDiagram, match="no crossing"):
        resolution_edge_movie(d, (0,), 1)
    with pytest.raises(MalformedDiagram, match="choice 1"):
        resolution_edge_movie(d, (1,), 0)


# --------------------------------------------------------------------------
# JSON form
# --------------------------------------------------------------------------


def test_json_roundtrip():
    for pd in (TREFOIL_R, UNLINK2_R2, KINK_NEG):
        d = parse_pd(pd)
        assert diagram_from_json(d.to_json_dict()) == d
    loops = LinkDiagram.from_crossings([], free_loops=3)
    assert diagram_from_json(loops.to_json_dict()) == loops


def test_json_accepts_bare_crossing_lists():
    d = diagram_from_json([[1, 2, 2, 1]])
    assert d == parse_pd(KINK_POS)


def test_json_rejects_unknown_keys():
    with pytest.raises(MalformedDiagram, match="unknown"):
        diagram_from_json({"crossings": [], "spin": 7})
    with pytest.raises(MalformedDiagram):
        diagram_from_json("X(1,2,2,1)")


@pytest.mark.parametrize(
    "data, match",
    [
        ({"crossings": 5}, "crossings must be a list"),
        ({"crossings": None}, "crossings must be a list"),
        ({"crossings": [5]}, "must be a sequence"),
        ({"crossings": ["1221"]}, "must be a sequence"),
        ([5], "must be a sequence"),
        ({"crossings": [], "free_loops": True}, "free_loops"),
        ({"crossings": [[1, 2, 2, 1]], "over_in": [True]}, "over_in entries"),
        ({"crossings": [[1, 2, 2, 1]], "over_in": 1}, "over_in must be a list"),
    ],
)
def test_json_rejects_malformed_values(data, match):
    with pytest.raises(MalformedDiagram, match=match):
        diagram_from_json(data)
