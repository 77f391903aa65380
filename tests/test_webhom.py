"""State spaces of webs: preparation bases, pairings, induced matrices,
the two-edge-face and four-edge-face identity suites, and the edge-ring
relations."""

import collections
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.algebra import LaurentPoly, quantum_integer
from artifact.corpus import fixture_diagrams
from artifact import cube, foam, memo, webhom
from artifact.cube import differential_blocks
from artifact.diagram import parse_pd, resolution_edge_movie, resolutions
from artifact.foam import (
    Birth,
    Death,
    Dot,
    FoamMovie,
    MalformedMovie,
    apply_death,
    digon_movies,
    dot_movie,
    half_foam,
    identity_movie,
    square_split_movies,
)
from artifact.web import (
    DigonFace,
    Empty,
    FreeLoop,
    Web,
    find_reduction,
    kuperberg_bracket,
)
from artifact.selftest import (
    check_edge_ring,
    run_selftest,
    edge_dot_action,
    edge_sites,
    identity_matrix,
    mat_add,
    mat_mul,
    mat_neg,
    mat_power,
    mat_sub,
    vertex_symmetric_actions,
    zero_matrix,
)
from artifact.webhom import (
    StateSpaceError,
    _degree_index,
    _inverse_blocks,
    induced_matrix,
    state_space,
)

from .helpers import (
    cube_web,
    dense,
    digon_chain_web,
    fixture_webs,
    graded_dimension,
    nested_loops_web,
    theta_web,
    theta_with_loop_inside,
)
from .oracles import (
    FrobeniusElement,
    class_basis,
    evaluate_by_circles,
    evaluate_closed,
    fraction_solve,
    glue,
    glued_prefoam,
    gram,
    label_basis,
    pair_movies,
    relabeled_movie,
    run_movie,
    scratch_matrix,
    served_basis,
)


def circle_web(ccw: bool = True) -> Web:
    return Web(loop_ccw={-1: ccw})


def two_loops_side_by_side() -> Web:
    return Web(loop_ccw={-1: True, -2: True}, parent={-1: None, -2: None})


def _hand_webs():
    return [
        Web(),
        circle_web(),
        circle_web(ccw=False),
        nested_loops_web(),
        two_loops_side_by_side(),
        theta_web(),
        theta_with_loop_inside(),
        digon_chain_web(),
        cube_web(),
    ]


def _all_webs():
    return _hand_webs() + [web for _label, web in fixture_webs()]


# --------------------------------------------------------------------------
# integer matrix helpers
# --------------------------------------------------------------------------


def test_matrix_helpers():
    a = ((1, 2), (3, 4))
    b = ((0, 1), (1, 0))
    assert mat_mul(a, b) == ((2, 1), (4, 3))
    assert mat_add(a, b) == ((1, 3), (4, 4))
    assert mat_sub(a, a) == zero_matrix(2, 2)
    assert mat_neg(b) == ((0, -1), (-1, 0))
    assert mat_mul(identity_matrix(2), a) == a
    assert mat_power(b, 2) == identity_matrix(2)
    assert mat_power(a, 0) == identity_matrix(2)
    with pytest.raises(ValueError):
        mat_mul(a, ((1, 2, 3),))


def _rows(m):
    return tuple(tuple(row) for row in m)


def _sliced_inverse_blocks(degrees, matrix):
    """``_inverse_blocks`` of the Gram matrix ``matrix`` on a basis of
    the given degrees, fed the blocks the package pairs: for each degree
    ``d <= 0``, the rows of degree ``d`` against the columns of degree
    ``-d``."""
    index = _degree_index(degrees)
    blocks = {
        d: [[matrix[r][c] for c in index.get(-d, ())] for r in rows]
        for d, rows in index.items()
        if d <= 0
    }
    return _inverse_blocks(index, blocks)


def _inverse(matrix):
    """The served inverse of a square ``matrix``, densified: its only block
    when every basis element has degree 0."""
    return dense(_sliced_inverse_blocks((0,) * len(matrix), matrix)[0], len(matrix))


def _solve(matrix, rhs):
    """``matrix @ X = rhs`` through the served inverse."""
    return mat_mul(_inverse(matrix), _rows(rhs))


def test_solve_unimodular_rejects_bad_pairings():
    with pytest.raises(StateSpaceError, match="singular"):
        _solve(((1, 1), (1, 1)), ((1,), (0,)))
    with pytest.raises(StateSpaceError, match="determinant"):
        _solve(((2,),), ((2,),))
    assert _solve(((0, -1), (-1, 0)), ((3,), (5,))) == ((-5,), (-3,))
    # unimodular with no unit entry, so no unit pivot to start from
    assert _solve(((2, 3), (3, 5)), ((1,), (0,))) == ((5,), (-3,))
    no_unit = ((2, 3), (3, 5))
    assert _inverse(no_unit) == fraction_solve(no_unit, identity_matrix(2))


def _random_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A product of elementary integer row operations and sign flips."""
    m = [list(row) for row in identity_matrix(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    for i in range(n):
        if rng.random() < 0.5:
            m[i] = [-x for x in m[i]]
    return m


def test_integer_solve_matches_fraction_oracle():
    rng = random.Random(20260304)
    for n in range(1, 13):
        for _ in range(4):
            matrix = _random_unimodular(rng, n)
            cols = rng.randint(1, 4)
            rhs = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(n)]
            x = _solve(matrix, rhs)
            assert x == fraction_solve(matrix, rhs)
            assert mat_mul(_rows(matrix), x) == _rows(rhs)
            inverse = _inverse(matrix)
            assert inverse == fraction_solve(matrix, identity_matrix(n))


def test_integer_solve_rejects_singular_and_non_unimodular():
    rng = random.Random(20260305)
    for n in range(1, 9):
        for middle, match in ((0, "singular"), (2, "determinant"), (3, "determinant")):
            for sign in (1, -1):
                k = rng.randrange(n)
                diag = [
                    [(sign * middle if i == k else 1) if i == j else 0 for j in range(n)]
                    for i in range(n)
                ]
                left, right = _random_unimodular(rng, n), _random_unimodular(rng, n)
                matrix = mat_mul(mat_mul(_rows(left), _rows(diag)), right)
                rhs = identity_matrix(n)
                with pytest.raises(StateSpaceError, match=match):
                    _solve(matrix, rhs)
                with pytest.raises(ArithmeticError, match=match):
                    fraction_solve(matrix, rhs)


def test_inverse_blocks_reject_bad_pairings():
    # two basis elements of degree 1 against one of degree -1
    with pytest.raises(StateSpaceError, match="singular"):
        _sliced_inverse_blocks((1, 1, -1), ((0, 0, 1), (0, 0, 1), (1, 1, 0)))
    with pytest.raises(StateSpaceError, match="singular"):
        _sliced_inverse_blocks((2,), ((0,),))
    with pytest.raises(StateSpaceError, match="determinant"):
        _sliced_inverse_blocks((-1, 0, 1), ((0, 0, 1), (0, 2, 0), (1, 0, 0)))
    # each pairing coordinate's nonzero entries, rows by basis index
    assert _sliced_inverse_blocks((-1, 0, 1), ((0, 0, 1), (0, -1, 0), (1, 0, 0))) == {
        -1: (((2, 1),),),
        0: (((1, -1),),),
        1: (((0, 1),),),
    }


@st.composite
def _scrambled_blocks(draw, middle=st.just(1)):
    """A square integer block ``L @ D @ R`` and the entry ``m`` of ``D``
    that is not 1: ``D`` is the identity but for one diagonal entry
    drawn from ``middle``, and ``L`` and ``R`` are products of drawn
    elementary operations (add a multiple of one row to another, negate
    a row) with their rows shuffled, so the block's determinant is
    ``±m``, and it is seldom symmetric."""
    n = draw(st.integers(min_value=1, max_value=7))

    def unimodular():
        m = [list(row) for row in identity_matrix(n)]
        steps = st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3)
        )
        for i, j, c in draw(st.lists(steps, max_size=4 * n)):
            if i == j:
                m[i] = [-x for x in m[i]]
            else:
                m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        return [m[k] for k in draw(st.permutations(range(n)))]

    k = draw(st.integers(0, n - 1))
    d = [[int(i == j) for j in range(n)] for i in range(n)]
    d[k][k] = m = draw(middle)
    return [list(row) for row in mat_mul(mat_mul(unimodular(), d), unimodular())], m


def _paired_gram(block):
    """A Gram matrix whose degree-1 elements pair with its degree -1 ones
    by ``block`` (and the transpose the other way), and its degrees."""
    n = len(block)
    zero = [0] * n
    top = [zero + list(row) for row in block]
    bottom = [list(col) + zero for col in zip(*block)]
    return (1,) * n + (-1,) * n, tuple(map(tuple, top + bottom))


@settings(max_examples=80, deadline=None)
@given(_scrambled_blocks())
def test_inverse_blocks_invert_random_unimodular_blocks(drawn):
    block, _ = drawn
    n = len(block)
    degrees, matrix = _paired_gram(block)
    inverse = _sliced_inverse_blocks(degrees, matrix)
    # column t of inverse[1] has its entries on the degree -1 elements,
    # basis indices n .. 2n - 1
    inv = dense(inverse[1], 2 * n)[n:]
    assert mat_mul(block, inv) == mat_mul(inv, block) == identity_matrix(n)
    transposed = dense(inverse[-1], n)
    assert mat_mul(_rows(zip(*block)), transposed) == identity_matrix(n)
    # one block of degree 0, the same block on its own
    assert dense(_sliced_inverse_blocks((0,) * n, block)[0], n) == inv


@settings(max_examples=60, deadline=None)
@given(_scrambled_blocks(middle=st.sampled_from((0, 2, -2, 3, 6))))
def test_inverse_blocks_reject_random_singular_and_non_unimodular_blocks(drawn):
    block, m = drawn
    match = "singular" if m == 0 else f"determinant ±{abs(m)}, not ±1"
    for degrees, matrix in (((0,) * len(block), block), _paired_gram(block)):
        with pytest.raises(StateSpaceError, match=match):
            _sliced_inverse_blocks(degrees, matrix)


def test_inverse_blocks_invert_a_block_with_no_unit_entry():
    block = ((2, 3), (3, 5))
    assert _sliced_inverse_blocks((0, 0), block) == {
        0: (((0, 5), (1, -3)), ((0, -3), (1, 2)))
    }
    degrees, matrix = _paired_gram(block)
    inverse = _sliced_inverse_blocks(degrees, matrix)
    assert dense(inverse[1], 4)[2:] == ((5, -3), (-3, 2))


# --------------------------------------------------------------------------
# preparation bases of the smallest webs
# --------------------------------------------------------------------------


def test_empty_web_space():
    sp = state_space(Web())
    assert sp.dim == 1
    assert sp.degrees == (0,)
    assert gram(sp) == ((1,),)
    assert find_reduction(Web()) == Empty()
    assert served_basis(Web())[0].moves == ()


def test_circle_space():
    sp = state_space(circle_web())
    assert sp.dim == 3
    assert sp.degrees == (-2, 0, 2)
    assert gram(sp) == ((0, 0, -1), (0, -1, 0), (-1, 0, 0))
    # the class's canonical web reduces at its loop, to the empty web
    canonical = circle_web().canonical()[0]
    assert find_reduction(canonical) == FreeLoop(-1)
    assert find_reduction(apply_death(canonical, Death(-1))) == Empty()
    assert graded_dimension(state_space(circle_web())) == quantum_integer(3)


def test_circle_space_clockwise():
    sp = state_space(circle_web(ccw=False))
    assert sp.dim == 3
    assert sp.degrees == (-2, 0, 2)
    assert gram(sp) == ((0, 0, -1), (0, -1, 0), (-1, 0, 0))


def test_theta_space():
    sp = state_space(theta_web())
    assert sp.dim == 6
    assert sp.degrees == (-3, -1, -1, 1, 1, 3)
    # the class's canonical web reduces at its digon face 1, to a loop
    # whose class reduces at loop -1, to the empty web
    canonical = theta_web().canonical()[0]
    assert find_reduction(canonical) == DigonFace(1)
    loop = digon_movies(canonical, 1)[0].start.canonical()[0]
    assert find_reduction(loop) == FreeLoop(-1)
    assert find_reduction(apply_death(loop, Death(-1))) == Empty()
    expected = (
        LaurentPoly.monomial(3)
        + 2 * LaurentPoly.monomial(1)
        + 2 * LaurentPoly.monomial(-1)
        + LaurentPoly.monomial(-3)
    )
    assert graded_dimension(sp) == expected


def test_graded_dimension_matches_bracket():
    for w in _hand_webs():
        assert graded_dimension(state_space(w)) == kuperberg_bracket(w)


def test_disjoint_union_dimensions_multiply():
    three = quantum_integer(3)

    def graded(w):
        return graded_dimension(state_space(w))

    assert graded(two_loops_side_by_side()) == three * three
    assert graded(nested_loops_web()) == three * three
    assert graded(theta_with_loop_inside()) == three * graded(theta_web())


def test_basis_movies_end_at_their_web():
    for w in (theta_web(), digon_chain_web()):
        sp = state_space(w)
        basis = served_basis(w)
        assert len(basis) == sp.dim
        for b in basis:
            assert b.start.is_empty()
            assert b.end == w
            assert b.degree() in sp.degrees


# --------------------------------------------------------------------------
# the pairing
# --------------------------------------------------------------------------


def test_pairing_is_symmetric_and_degree_sparse():
    sp = state_space(theta_web())
    basis = served_basis(theta_web())
    paired = gram(sp)
    for j, k in itertools.combinations(range(sp.dim), 2):
        assert pair_movies(basis[j], basis[k]) == pair_movies(basis[k], basis[j])
        if sp.degrees[j] + sp.degrees[k] != 0:
            # the shortcut result agrees with the full evaluation
            direct = evaluate_closed(basis[j].compose(basis[k].reflect()))
            assert direct == 0
            assert paired[j][k] == 0


def _replayed(u: FoamMovie, v: FoamMovie) -> int:
    """The pairing by the independent route: replay the closed movie u
    followed by the reflection of v from the empty web."""
    return evaluate_closed(u.compose(v.reflect()))


def test_glued_pairings_match_the_replayed_closed_movies():
    checked = 0
    for label, w in fixture_webs():
        sp, basis = state_space(w), served_basis(w)
        for j in range(sp.dim):
            for k in sp.index.get(-sp.degrees[j], ()):
                u, v = basis[j], basis[k]
                assert pair_movies(u, v) == _replayed(u, v), (label, j, k)
                checked += 1
    assert checked > 10000


def test_glued_pushed_pairings_match_the_replayed_closed_movies():
    checked = 0
    for d in fixture_diagrams().values():
        n = d.n_crossings
        for bits in resolutions(n):
            for c in range(n):
                if bits[c]:
                    continue
                movie = resolution_edge_movie(d, bits, c)
                dst, targets = state_space(movie.end), served_basis(movie.end)
                for u in served_basis(movie.start):
                    pushed = u.compose(movie)
                    for k in dst.index.get(-pushed.degree(), ()):
                        v = targets[k]
                        assert pair_movies(pushed, v) == _replayed(pushed, v)
                        checked += 1
    assert checked > 1000


def test_pairing_rejects_different_end_webs():
    ccw = run_movie(Web(), (Birth(-1, None, True), Dot(-1), Dot(-1)))
    cw = run_movie(Web(), (Birth(-1, None, False),))
    assert ccw.degree() + cw.degree() == 0
    with pytest.raises(MalformedMovie):
        pair_movies(ccw, cw)


def test_gram_matrices_are_unimodular():
    # state_space itself raises when a Gram determinant is not ±1; building
    # these spaces is the check.
    for w in (theta_web(), digon_chain_web(), cube_web()):
        sp = state_space(w)
        paired = gram(sp)
        assert len(paired) == sp.dim
        assert paired == tuple(zip(*paired))


def test_inverse_blocks_invert_the_gram_blocks():
    for w in _all_webs():
        sp = state_space(w)
        paired = gram(sp)
        assert sorted(sp.inverse) == sorted(sp.index)
        assert sorted(i for ix in sp.index.values() for i in ix) == list(range(sp.dim))
        for d, sparse in sp.inverse.items():
            rows, cols = sp.index[d], sp.index[-d]
            assert len(sparse) == len(rows)
            assert all(k in cols and x for col in sparse for k, x in col)
            # the inverse block: rows of degree -d, columns by pairing
            # coordinate
            inv = dense(sparse, sp.dim)
            inv = tuple(inv[k] for k in cols)
            block = tuple(tuple(paired[r][c] for c in cols) for r in rows)
            assert mat_mul(inv, block) == identity_matrix(len(cols))
            assert mat_mul(block, inv) == identity_matrix(len(rows))


# --------------------------------------------------------------------------
# induced matrices
# --------------------------------------------------------------------------


def _induced(movie: FoamMovie) -> tuple:
    """``induced_matrix`` of the movie, densified."""
    return dense(induced_matrix(movie), state_space(movie.end).dim)



def test_identity_movie_induces_identity():
    for w in (circle_web(), theta_web(), digon_chain_web()):
        n = state_space(w).dim
        assert _induced(identity_movie(w)) == identity_matrix(n)


def test_dot_action_on_circle_is_multiplication():
    x = edge_dot_action(circle_web(), -1)
    cols = []
    for j in range(3):
        product = FrobeniusElement.basis(1) * FrobeniusElement.basis(j)
        cols.append(product.coefficients)
    expected = tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))
    assert x == expected
    assert x == ((0, 0, 0), (1, 0, 0), (0, 1, 0))
    assert mat_power(x, 2) != zero_matrix(3, 3)
    assert mat_power(x, 3) == zero_matrix(3, 3)


def test_dot_action_independent_of_dart_choice():
    w = theta_web()
    for tail, head in ((2, 1), (4, 3), (6, 5)):
        assert edge_dot_action(w, tail) == edge_dot_action(w, head)


def test_induced_matrices_are_degree_homogeneous():
    w = theta_web()
    sp = state_space(w)
    x = edge_dot_action(w, 2)
    for k in range(sp.dim):
        for j in range(sp.dim):
            if x[k][j]:
                assert sp.degrees[k] == sp.degrees[j] + 2


def _assert_solves_gram_system(movie: FoamMovie) -> None:
    """gram(end) @ induced_matrix(movie) equals the pairing of the
    movie's action on the source basis against the target basis,
    computed entry by entry."""
    pushed = [u.compose(movie) for u in served_basis(movie.start)]
    rhs = tuple(
        tuple(pair_movies(p, v) for p in pushed) for v in served_basis(movie.end)
    )
    assert mat_mul(gram(state_space(movie.end)), _induced(movie)) == rhs


def test_induced_matrices_solve_the_gram_system_on_cube_edges():
    checked = 0
    for d in fixture_diagrams().values():
        n = d.n_crossings
        for bits in resolutions(n):
            for c in range(n):
                if bits[c] == 0:
                    _assert_solves_gram_system(resolution_edge_movie(d, bits, c))
                    checked += 1
    assert checked > 100


def test_dot_actions_solve_the_gram_system():
    for w in _all_webs():
        for site in edge_sites(w):
            _assert_solves_gram_system(dot_movie(w, site))


def test_functoriality_of_induced_matrices():
    c = circle_web()
    one_dot = dot_movie(c, -1)
    two_dots = one_dot.compose(dot_movie(c, -1))
    assert _induced(two_dots) == mat_mul(
        _induced(one_dot), _induced(one_dot)
    )

    w = theta_web()
    lift_plain, lift_dotted, drop_dotted, drop_plain = digon_movies(w, 1)
    for a, b in [
        (lift_plain, drop_dotted),
        (lift_dotted, drop_plain),
        (drop_plain, lift_dotted),
        (lift_plain, dot_movie(w, 2)),
    ]:
        assert _induced(a.compose(b)) == mat_mul(
            _induced(b), _induced(a)
        )


# --------------------------------------------------------------------------
# the five two-edge-face identities
# --------------------------------------------------------------------------


DIGON_SITES = [
    (theta_web, 1),
    (theta_web, 3),
    (digon_chain_web, 2),
    (digon_chain_web, 8),
]


def _assert_digon_identities(w: Web, face: int) -> None:
    lift_plain, lift_dotted, drop_dotted, drop_plain = digon_movies(w, face)
    reduced = lift_plain.start
    n = state_space(reduced).dim
    eye = identity_matrix(n)
    zero = zero_matrix(n, n)
    # composites written movie-first: "lift then drop"
    assert _induced(lift_plain.compose(drop_dotted)) == eye
    assert mat_neg(_induced(lift_dotted.compose(drop_plain))) == eye
    assert _induced(lift_dotted.compose(drop_dotted)) == zero
    assert _induced(lift_plain.compose(drop_plain)) == zero
    big = identity_matrix(state_space(w).dim)
    neck = mat_sub(
        _induced(drop_dotted.compose(lift_plain)),
        _induced(drop_plain.compose(lift_dotted)),
    )
    assert neck == big


@pytest.mark.parametrize("make_web,face", DIGON_SITES)
def test_digon_identities(make_web, face):
    _assert_digon_identities(make_web(), face)


def test_digon_identities_on_every_corpus_digon():
    # every bounded, empty two-edge face of every flattening of the
    # corpus diagrams, capped with the fresh loop id the basis uses
    sites = 0
    for label, w in fixture_webs():
        outer = set(w.outer_face.values())
        for face, orbit in sorted(w.faces().items()):
            if len(orbit) != 2 or face in outer or w.children_of(("face", face)):
                continue
            _assert_digon_identities(w, face)
            sites += 1
    assert sites > len(DIGON_SITES)


def test_digon_lift_degrees():
    w = theta_web()
    lift_plain, lift_dotted, drop_dotted, drop_plain = digon_movies(w, 1)
    assert lift_plain.degree() == -1
    assert lift_dotted.degree() == 1
    assert drop_dotted.degree() == 1
    assert drop_plain.degree() == -1


# --------------------------------------------------------------------------
# the five four-edge-face identities
# --------------------------------------------------------------------------


def _bounded_square_faces(w: Web) -> list[int]:
    outer = set(w.outer_face.values())
    return sorted(
        f for f, orbit in w.faces().items() if len(orbit) == 4 and f not in outer
    )


SQUARE_SITES = [(digon_chain_web, 3)] + [
    (cube_web, f) for f in _bounded_square_faces(cube_web())
]


@pytest.mark.parametrize("make_web,face", SQUARE_SITES)
def test_square_identities(make_web, face):
    w = make_web()
    split_first, split_second = square_split_movies(w, face)
    join_first, join_second = split_first.reflect(), split_second.reflect()
    n1 = state_space(split_first.end).dim
    n2 = state_space(split_second.end).dim
    assert _induced(join_first.compose(split_first)) == mat_neg(
        identity_matrix(n1)
    )
    assert _induced(join_second.compose(split_second)) == mat_neg(
        identity_matrix(n2)
    )
    assert _induced(join_first.compose(split_second)) == zero_matrix(n2, n1)
    assert _induced(join_second.compose(split_first)) == zero_matrix(n1, n2)
    total = mat_add(
        _induced(split_first.compose(join_first)),
        _induced(split_second.compose(join_second)),
    )
    assert total == mat_neg(identity_matrix(state_space(w).dim))


def test_square_joins_and_negated_splits_are_mutually_inverse():
    w = digon_chain_web()
    split_first, split_second = square_split_movies(w, 3)
    join_first, join_second = split_first.reflect(), split_second.reflect()
    n = state_space(w).dim
    n1 = state_space(split_first.end).dim
    joins = tuple(
        ja + jb
        for ja, jb in zip(_induced(join_first), _induced(join_second))
    )
    # stacked negated splits, one block per reduced web
    splits = tuple(mat_neg(_induced(split_first))) + tuple(
        mat_neg(_induced(split_second))
    )
    assert mat_mul(joins, splits) == identity_matrix(n)
    assert mat_mul(splits, joins) == identity_matrix(n1 + state_space(split_second.end).dim)


# --------------------------------------------------------------------------
# edge-ring relations
# --------------------------------------------------------------------------


def test_vertex_orbits_on_theta():
    assert theta_web().vertices() == ((1, 3, 5), (2, 6, 4))


def test_vertex_symmetric_actions_vanish():
    for w in (theta_web(), digon_chain_web()):
        n = state_space(w).dim
        zero = zero_matrix(n, n)
        for orbit in w.vertices():
            xs = (edge_dot_action(w, d) for d in orbit)
            e1, e2, e3 = vertex_symmetric_actions(*xs)
            assert e1 == zero
            assert e2 == zero
            assert e3 == zero


def test_check_edge_ring_passes():
    check_edge_ring(circle_web())
    check_edge_ring(theta_web())
    check_edge_ring(digon_chain_web())
    check_edge_ring(theta_with_loop_inside())


# --------------------------------------------------------------------------
# one state space and one induced matrix per relabeling class
# --------------------------------------------------------------------------

TORUS_5_1 = "X(1,6,2,7) X(3,8,4,9) X(5,10,6,1) X(7,2,8,3) X(9,4,10,5)"


def _cube_edges(d):
    for bits in resolutions(d.n_crossings):
        for c in range(d.n_crossings):
            if bits[c] == 0:
                yield bits, c, resolution_edge_movie(d, bits, c)


def test_served_gram_matrices_match_the_moved_bases():
    for w in _all_webs():
        sp, basis = state_space(w), served_basis(w)
        assert all(b.start.is_empty() and b.end == w for b in basis)
        assert tuple(b.degree() for b in basis) == sp.degrees
        paired, identity = scratch_matrix(identity_movie(w), basis, basis)
        assert paired == gram(sp)
        assert identity == identity_matrix(sp.dim)


def _check_served_edges(diagrams) -> int:
    """Compare every cube edge's served matrix with the one computed
    from scratch on the moved bases of its ends."""
    checked = 0
    for d in diagrams:
        for bits, c, movie in _cube_edges(d):
            paired, matrix = scratch_matrix(
                movie, served_basis(movie.start), served_basis(movie.end)
            )
            assert paired == gram(state_space(movie.end)), (bits, c)
            assert _induced(movie) == matrix, (bits, c)
            checked += 1
    return checked


def test_served_corpus_edge_matrices_match_the_moved_bases():
    assert _check_served_edges(fixture_diagrams().values()) > 100


def test_served_torus_edge_matrices_match_the_moved_bases():
    # 5_1's rotation symmetry makes 80 edges share 15 matrices, and its
    # two-loop resolution has automorphisms the key must keep apart
    assert _check_served_edges([parse_pd(TORUS_5_1)]) == 80


def test_label_keyed_reference_agrees_up_to_a_unimodular_change_of_basis():
    changes = {}

    def change(web: Web):
        """The served basis written in the label-keyed one."""
        key = web.exact_key()
        if key not in changes:
            served, label = served_basis(web), label_basis(web)
            _, to_label = scratch_matrix(identity_movie(web), served, label)
            _, to_served = scratch_matrix(identity_movie(web), label, served)
            assert mat_mul(to_label, to_served) == identity_matrix(len(served))
            changes[key] = to_label
        return changes[key]

    checked = 0
    for d in fixture_diagrams().values():
        for bits, c, movie in _cube_edges(d):
            _, by_label = scratch_matrix(
                movie, label_basis(movie.start), label_basis(movie.end)
            )
            assert mat_mul(by_label, change(movie.start)) == mat_mul(
                change(movie.end), _induced(movie)
            ), (bits, c)
            checked += 1
    assert checked > 100


def test_cold_torus_build_computes_one_space_and_one_matrix_per_class(monkeypatch):
    memo.clear()
    counts = {"_class_space": 0, "_class_matrix": 0}
    for name in counts:
        real = getattr(webhom, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(webhom, name, counted)
    edges = []
    induced = cube.induced_matrix
    monkeypatch.setattr(
        cube, "induced_matrix", lambda movie: edges.append(movie) or induced(movie)
    )
    differential_blocks(parse_pd(TORUS_5_1))
    assert len(edges) == 80
    # 63 webs (32 flattenings and their reductions) and 80 edges
    assert counts["_class_space"] <= 15
    assert counts["_class_matrix"] <= 20


def test_warm_induced_matrices_rename_no_web(monkeypatch):
    edges = [movie for _, _, movie in _cube_edges(parse_pd(TORUS_5_1))]
    first = [induced_matrix(movie) for movie in edges]
    renamed = []
    real = Web.relabeled

    def counted(self, *args, **kwargs):
        renamed.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Web, "relabeled", counted)
    assert [induced_matrix(movie) for movie in edges] == first
    assert len(edges) == 80
    # a hit reads its key off the movie's moves and slices: it builds no
    # movie and renames no web
    assert renamed == []


# --------------------------------------------------------------------------
# halves by extension
# --------------------------------------------------------------------------


def _recorded_extensions(monkeypatch) -> list:
    """Record every ``extend_halves`` call of ``webhom`` from now on, as
    (halves, movie, dart map, loop map, extended halves)."""
    calls = []
    real = webhom.extend_halves

    def recorded(halves, movie, darts, loops):
        halves = list(halves)
        out = real(halves, movie, darts, loops)
        calls.append((halves, movie, darts, loops, out))
        return out

    monkeypatch.setattr(webhom, "extend_halves", recorded)
    return calls


def _check_extensions(calls) -> int:
    """Each extended half equals the sweep, from the empty web, of its
    prefix renamed by the call's maps and followed by the call's movie.
    Every extended prefix is a class basis element, on its class's
    canonical web; the loop ids it births and zips away go past the
    values of the call's loop map."""
    prefix = {
        id(h): b
        for space in memo.SPACES.values()
        for h, b in zip(space.halves, class_basis(space.halves[0].web))
    }
    checked = 0
    for halves, movie, darts, loops, out in calls:
        assert len(out) == len(halves)
        for h, x in zip(halves, out):
            b = prefix[id(h)]
            born = sorted({l for w in b.states() for l in w.loop_ccw}, reverse=True)
            renamed = relabeled_movie(b, darts, webhom._extended(loops, born, -1))
            swept = half_foam(renamed.compose(movie))
            assert (x.shape, x.facets, x.web.exact_key()) == (
                swept.shape,
                swept.facets,
                swept.web.exact_key(),
            )
            checked += 1
    return checked


def test_extended_halves_equal_swept_halves_on_cube_edges(monkeypatch):
    memo.clear()
    calls = _recorded_extensions(monkeypatch)
    diagrams = list(fixture_diagrams().values()) + [parse_pd(TORUS_5_1)]
    edges = [movie for d in diagrams for _, _, movie in _cube_edges(d)]
    for movie in edges:
        induced_matrix(movie)
    # every class basis element and every pushed element was extended
    assert _check_extensions(calls) > 1000
    assert len(edges) > 180


#: The movie builders of the package, by the function that constructs
#: the movie (for a reflection or a composition, the function that
#: asked for it, then the method).
_BUILDERS = {
    "cap_movies": "cap",
    "digon_movies.reflect": "digon",
    "digon_movies.compose": "digon",
    "branch": "square",
    "_preparations": "free-loop",
    "dot_movie": "dot",
    "resolution_edge_movie": "edge",
}


def test_every_built_movie_matches_surgery_from_scratch(monkeypatch):
    # every movie is built with its slices, and no movie runs a move:
    # surgery from scratch, zips included, must give exactly the slices
    # each movie was given while the fixtures and 5_1 build their
    # complexes and the selftest runs
    memo.clear()
    built = []
    real = FoamMovie.__init__

    def recorded(self, *args):
        real(self, *args)
        caller = sys._getframe(1)
        while caller.f_code.co_name.startswith("<"):  # a comprehension
            caller = caller.f_back
        name = caller.f_code.co_name
        if name in ("reflect", "compose"):
            name = f"{caller.f_back.f_code.co_name}.{name}"
        built.append((self, _BUILDERS.get(name, "derived")))

    monkeypatch.setattr(FoamMovie, "__init__", recorded)
    for d in list(fixture_diagrams().values()) + [parse_pd(TORUS_5_1)]:
        differential_blocks(d)
    run_selftest()
    monkeypatch.undo()
    counts = collections.Counter(kind for _, kind in built)
    zips = 0
    for m, _ in built:
        assert run_movie(m.start, m.moves).states() == m.states()
        zips += sum(isinstance(mv, foam.Zip) for mv in m.moves)
    assert all(counts[kind] for kind in set(_BUILDERS.values())), counts
    assert zips > 40


def test_served_halves_are_the_halves_of_the_class_movies():
    webs = [w for _label, w in fixture_webs()]
    webs += [w for _, _, m in _cube_edges(parse_pd(TORUS_5_1)) for w in (m.start, m.end)]
    webs = {w.exact_key(): w for w in webs}
    checked = 0
    for w in webs.values():
        sp, basis = state_space(w), class_basis(w)
        assert len(basis) == sp.dim
        for h, b in zip(sp.halves, basis):
            swept = half_foam(b)
            assert (h.shape, h.facets, h.web.exact_key()) == (
                swept.shape,
                swept.facets,
                swept.web.exact_key(),
            )
            checked += 1
    assert checked > 1000


def _movies_in(x) -> bool:
    """Whether ``x`` is a ``FoamMovie`` or holds one in its tuples,
    lists and dicts."""
    if isinstance(x, FoamMovie):
        return True
    if isinstance(x, dict):
        return any(_movies_in(k) or _movies_in(v) for k, v in x.items())
    if isinstance(x, (tuple, list)):
        return any(map(_movies_in, x))
    return False


def test_cold_torus_state_spaces_hold_no_movies():
    memo.clear()
    differential_blocks(parse_pd(TORUS_5_1))
    assert memo.SPACES
    for space in memo.SPACES.values():
        for name in space._fields:
            assert not _movies_in(getattr(space, name)), name


def test_cold_torus_build_sweeps_once_per_half_shape(monkeypatch):
    memo.clear()
    sweeps = []
    real = foam._sweep

    def counted(*args):
        sweeps.append(args[0])
        return real(*args)

    monkeypatch.setattr(foam, "_sweep", counted)
    differential_blocks(parse_pd(TORUS_5_1))
    # one sweep per (half shape, movie) pair, seeded or from the empty
    # web; sweeping every half from the empty web takes 594
    assert len(sweeps) <= 40
    # 23 distinct half shapes; extending pushed halves through renamed
    # copies of the edge movies would add more
    assert len(memo.SHAPE_IDS) <= 25


# --------------------------------------------------------------------------
# pairings in batches per glue plan
# --------------------------------------------------------------------------


def test_batched_pairings_equal_glued_evaluations_on_cube_edges(monkeypatch):
    memo.clear()
    calls = []
    real = webhom.pair_halves

    def recorded(lefts, rights):
        out = real(lefts, rights)
        calls.append((lefts, rights, out))
        return out

    monkeypatch.setattr(webhom, "pair_halves", recorded)
    diagrams = list(fixture_diagrams().values()) + [parse_pd(TORUS_5_1)]
    edges = [movie for d in diagrams for _, _, movie in _cube_edges(d)]
    for movie in edges:
        induced_matrix(movie)
    # every Gram block of every class space built, and every pairing row
    # of every class matrix
    checked = 0
    for lefts, rights, out in calls:
        assert out == [[foam.evaluate(glue(a, b)) for b in rights] for a in lefts]
        checked += len(lefts) * len(rights)
    assert checked > 20000
    assert len(edges) > 180


KNOT_6_1 = "X(1,7,2,6) X(3,10,4,11) X(5,3,6,2) X(7,1,8,12) X(9,4,10,5) X(11,9,12,8)"


def test_every_glued_foam_evaluates_as_the_circle_recursion(monkeypatch):
    # every closed foam that a cold build of the corpus, 5_1 and 6_1
    # evaluates (each miss of a plan's value table, valued straight from
    # its summed labels), made into a foam by the oracle and checked
    # against the circle-recursion oracle; the colouring memo starts
    # empty
    memo.clear()
    glued = {}
    real = foam._glued_value

    def recorded(plan, labels):
        value = real(plan, labels)
        glued[glued_prefoam(plan, labels)] = value
        return value

    monkeypatch.setattr(foam, "_glued_value", recorded)
    diagrams = list(fixture_diagrams().values())
    diagrams += [parse_pd(TORUS_5_1), parse_pd(KNOT_6_1)]
    for d in diagrams:
        differential_blocks(d)
    for pre, value in glued.items():
        assert value == evaluate_by_circles(pre) == foam.evaluate(pre), pre
    # 29,213 distinct foams when this was written, many of several circles
    assert len(glued) > 25000
    assert max(len(pre.circles) for pre in glued) >= 4
    assert 0 < len(memo.COLOURINGS) < len(glued)


def test_cold_torus_build_evaluates_once_per_glued_label_vector(monkeypatch):
    memo.clear()
    misses = []
    real = foam._glued_value

    def counted(plan, labels):
        misses.append((id(plan), tuple(labels)))
        return real(plan, labels)

    monkeypatch.setattr(foam, "_glued_value", counted)
    differential_blocks(parse_pd(TORUS_5_1))
    # one glued foam per distinct (glue plan, label vector) pair; gluing
    # every pairing takes 7,094
    assert len(misses) <= 1000
    assert len(set(misses)) == len(misses)
