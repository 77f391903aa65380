"""Tests for the signed resolution cube and its integer homology."""

from fractions import Fraction

import hashlib
import json
import random
import re
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artifact import corpus, cube, memo
from artifact.algebra import LaurentPoly, quantum_integer
from artifact.cube import (
    BigradedHomology,
    ComplexError,
    block_homology,
    check_invariance,
    dense_rows,
    differential_blocks,
    eliminate_units,
    euler_characteristic,
    homology_json,
    link_homology,
    smith_diagonal,
)
from artifact.diagram import parse_pd
from artifact.web import Web, link_bracket
from artifact.webhom import state_space

from .helpers import at_one, braid_pd, cube_data, free_ranks
from .oracles import (
    cube_generators,
    d_squared_is_zero,
    dense_differential,
    per_block_homology,
    sparse_smith_diagonal,
    squares_anticommute,
)


# ==========================================================================
# Smith normal form
# ==========================================================================


def test_smith_of_identity():
    assert smith_diagonal([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]


def test_smith_of_zero_and_empty():
    assert smith_diagonal([[0, 0], [0, 0]]) == []
    assert smith_diagonal([]) == []
    assert smith_diagonal([[], []]) == []


def test_smith_known_small_cases():
    assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert smith_diagonal([[2, 4], [6, 8]]) == [2, 4]
    assert smith_diagonal([[1, 2], [3, 4]]) == [1, 2]
    assert smith_diagonal([[3]]) == [3]
    assert smith_diagonal([[0, 5]]) == [5]
    assert smith_diagonal([[6, 10, 15]]) == [1]
    assert smith_diagonal([[2, 0], [0, 2], [0, 0]]) == [2, 2]


def _rank_over_rationals(mat):
    rows = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


small_matrices = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_smith_rank_matches_rational_rank(mat):
    diag = smith_diagonal(mat)
    assert len(diag) == _rank_over_rationals(mat)


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_smith_entries_positive_and_divisor_chain(mat):
    diag = smith_diagonal(mat)
    assert all(x > 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_smith_first_entry_is_gcd_of_entries(mat):
    diag = smith_diagonal(mat)
    nonzero = [abs(x) for row in mat for x in row if x]
    if not nonzero:
        assert diag == []
    else:
        g = 0
        for x in nonzero:
            while x:
                g, x = x, g % x
        assert diag[0] == g


# ==========================================================================
# the per-matrix oracle: unit pivots first (``cube.eliminate_units``),
# then the dense remainder
# ==========================================================================


def _columns(mat, n_cols=None):
    """The sparse columns ``{row: value}`` of a dense matrix (``n_cols``
    is needed when it has no rows)."""
    if n_cols is None:
        n_cols = len(mat[0]) if mat else 0
    return [{r: row[c] for r, row in enumerate(mat) if row[c]} for c in range(n_cols)]


def _unimodular(rng, n):
    """A random n x n integer matrix of determinant +-1: a permutation
    with random signs, then random elementary row operations."""
    perm = list(range(n))
    rng.shuffle(perm)
    u = [[0] * n for _ in range(n)]
    for r in range(n):
        u[r][perm[r]] = rng.choice((1, -1))
    for _ in range(2 * n if n > 1 else 0):
        a, b = rng.sample(range(n), 2)
        f = rng.randint(-2, 2)
        u[a] = [x + f * y for x, y in zip(u[a], u[b])]
    return u


def _mul(a, b):
    cols = range(len(b[0]))
    return [[sum(x * b[t][c] for t, x in enumerate(row)) for c in cols] for row in a]


@pytest.mark.parametrize("seed", range(40))
def test_sparse_smith_matches_dense_on_planted_torsion(seed):
    rng = random.Random(seed)
    n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
    # a divisor chain with planted torsion, then possibly zeros
    chain, d = [], 1
    for _ in range(rng.randint(0, min(n_rows, n_cols))):
        d *= rng.choice((1, 1, 2, 3, 3))
        chain.append(d)
    diag = [[0] * n_cols for _ in range(n_rows)]
    for t, x in enumerate(chain):
        diag[t][t] = x
    mat = _mul(_mul(_unimodular(rng, n_rows), diag), _unimodular(rng, n_cols))
    cols = _columns(mat)
    before = [dict(c) for c in cols]
    assert sparse_smith_diagonal(cols) == smith_diagonal(mat) == chain
    assert cols == before


@pytest.mark.parametrize("seed", range(40))
def test_sparse_smith_matches_dense_on_random_matrices(seed):
    rng = random.Random(1000 + seed)
    n_rows, n_cols = rng.randint(1, 9), rng.randint(1, 9)
    entries = (0, 0, 0, 1, -1, 2, -2, 3, 6, 9)
    mat = [[rng.choice(entries) for _ in range(n_cols)] for _ in range(n_rows)]
    assert sparse_smith_diagonal(_columns(mat)) == smith_diagonal(mat)


def _recording_smith(monkeypatch):
    calls = []

    def record(mat):
        calls.append([list(row) for row in mat])
        return smith_diagonal(mat)

    monkeypatch.setattr(cube, "smith_diagonal", record)
    return calls


@pytest.mark.parametrize("seed", range(10))
def test_sparse_smith_without_units_is_the_dense_path(seed, monkeypatch):
    rng = random.Random(2000 + seed)
    n = rng.randint(1, 6)
    mat = [[2 * rng.randint(-4, 4) for _ in range(n + 1)] for _ in range(n)]
    mat[0][0] = 6
    calls = _recording_smith(monkeypatch)
    assert sparse_smith_diagonal(_columns(mat)) == smith_diagonal(mat)
    # one dense call, on every nonzero entry of the matrix
    assert len(calls) == 1
    assert _nonzero(calls[0]) == _nonzero(mat)


def _nonzero(mat):
    return sorted(x for row in mat for x in row if x)


def test_sparse_smith_known_small_cases(monkeypatch):
    calls = _recording_smith(monkeypatch)
    assert sparse_smith_diagonal(_columns([[2, 3], [4, 5]])) == [1, 2]
    assert calls == [[[2, 3], [4, 5]]]
    calls.clear()
    assert sparse_smith_diagonal(_columns([[1, 1], [1, -1]])) == [1, 2]
    assert calls == [[[-2]]]
    calls.clear()
    identity = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
    assert sparse_smith_diagonal(_columns(identity)) == [1, 1, 1]
    assert sparse_smith_diagonal([]) == []
    assert sparse_smith_diagonal([{}, {}]) == []
    assert calls == []


def test_eliminate_units_sweeps_again_for_a_unit_made_behind_it():
    # column 0 has no unit until column 1's pivot turns its 3 into a 1
    pivots, rest = eliminate_units({0: {0: 2, 1: 3}, 1: {0: 1, 1: 1}})
    assert len(pivots) == 2
    assert rest == {}


@st.composite
def sparse_matrices(draw):
    """A random integer matrix with entries 0, +-1, +-2, +-3 and 6."""
    n_rows = draw(st.integers(min_value=0, max_value=8))
    n_cols = draw(st.integers(min_value=1, max_value=8))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -3, 6))
    return [[draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_eliminate_units_contract(mat):
    cols = {c: col for c, col in enumerate(_columns(mat)) if col}
    pivots, rest = eliminate_units(cols)
    # the pivots pair distinct rows with distinct columns
    assert len(set(pivots.values())) == len(pivots)
    # no unit is left, nor any pivot's row or column
    assert not set(rest) & set(pivots)
    for row in rest.values():
        assert row
        assert all(v not in (0, 1, -1) for v in row.values())
        assert not set(row) & set(pivots.values())
    assert [1] * len(pivots) + smith_diagonal(dense_rows(rest)) == smith_diagonal(mat)


@pytest.mark.parametrize("name", sorted(corpus.fixture_diagrams()))
def test_sparse_blocks_match_dense_oracle(name):
    d = corpus.fixture_diagrams()[name]
    q_degrees, edge_maps = cube_data(d)
    dims, blocks = differential_blocks(d)
    assert sum(dims.values()) == sum(len(q) for q in q_degrees.values())
    for (i, j), cols in blocks.items():
        dense = dense_differential(q_degrees, edge_maps, i + d.negative_count, j)
        assert len(cols) == dims[(i, j)]
        assert len(dense) == dims.get((i + 1, j), 0)
        assert _columns(dense, len(cols)) == cols, (i, j)
        assert sparse_smith_diagonal(cols) == smith_diagonal(dense), (i, j)


# ==========================================================================
# homology by cancellation on the whole complex
# ==========================================================================

TORUS_5_1 = "X(1,6,2,7) X(3,8,4,9) X(5,10,6,1) X(7,2,8,3) X(9,4,10,5)"
KNOT_6_1 = "X(1,7,2,6) X(3,10,4,11) X(5,3,6,2) X(7,1,8,12) X(9,4,10,5) X(11,9,12,8)"
TORUS_7_1 = (
    "X(1,8,2,9) X(3,10,4,11) X(5,12,6,13) X(7,14,8,1) X(9,2,10,3) "
    "X(11,4,12,5) X(13,6,14,7)"
)


def _dense_block_smith(cols):
    """``smith_diagonal`` of a block given by sparse columns, over the
    rows they reach (a zero row changes no Smith diagonal)."""
    rows = sorted({r for col in cols for r in col})
    return smith_diagonal([[col.get(r, 0) for col in cols] for r in rows])


#: The fixtures and three larger knots, by name.
HOMOLOGY_DIAGRAMS = {
    **corpus.fixture_diagrams(),
    "5_1": parse_pd(TORUS_5_1),
    "6_1": parse_pd(KNOT_6_1),
    "7_1": parse_pd(TORUS_7_1),
}


@pytest.mark.parametrize("name", sorted(HOMOLOGY_DIAGRAMS))
def test_homology_matches_per_block_smith_references(name):
    # the walk over the whole complex against each block diagonalized on
    # its own, densely and through the per-matrix oracle
    dims, blocks = differential_blocks(HOMOLOGY_DIAGRAMS[name])
    table = block_homology(dims, blocks).entries
    assert table == per_block_homology(dims, blocks, _dense_block_smith)
    assert table == per_block_homology(dims, blocks)


def test_braid_pd_gives_the_torus_knot_and_the_small_knots():
    assert braid_pd([1, 2] * 5) == (
        "X(1,2,5,4) X(5,3,7,6) X(4,6,9,8) X(9,7,11,10) X(8,10,13,12) "
        "X(13,11,15,14) X(12,14,17,16) X(17,15,19,18) X(16,18,21,1) X(21,19,3,2)"
    )
    for word, d in [
        ([1, 1, 1], corpus.TREFOIL),
        ([-1, -1, -1], corpus.TREFOIL_MIRROR),
        ([1, -2, 1, -2], corpus.FIGURE_EIGHT),
    ]:
        assert link_bracket(parse_pd(braid_pd(word))) == link_bracket(d), word
    with pytest.raises(ValueError):
        braid_pd([2, 2])
    # a skipped generator splits the closure: two Hopf links side by side
    assert braid_pd([1, 1, 3, 3]) == (
        "X(1,2,6,5) X(5,6,2,1) X(3,4,10,9) X(9,10,4,3)"
    )


#: Braid words of at most six crossings, none of them a torus knot.
BRAID_WORDS = [
    [1, 1, -2, 1, -2],
    [1, 1, -2, 1, -2, -2],
    [1, 2, -1, 2, -3, -2],
    [1, -2, 3, -2, 1, 3],
]


@pytest.mark.parametrize("word", BRAID_WORDS, ids=str)
def test_braid_closure_homology_matches_per_block_smith(word):
    d = parse_pd(braid_pd(word))
    dims, blocks = differential_blocks(d)
    h = block_homology(dims, blocks)
    assert h.entries == per_block_homology(dims, blocks, _dense_block_smith)
    assert euler_characteristic(h.entries) == link_bracket(d)


def _invariant_factors(orders) -> tuple:
    """The invariant factors (a divisor chain, each > 1) of the sum of
    cyclic groups of the given orders."""
    by_prime: dict = {}
    for q in _prime_powers(orders):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        by_prime.setdefault(p, []).append(q)
    factors = []
    for powers in by_prime.values():
        for t, q in enumerate(sorted(powers, reverse=True)):
            if t == len(factors):
                factors.append(1)
            factors[t] *= q
    return tuple(sorted(factors))


def _change_of_basis(rng, n):
    """A random n x n unimodular matrix and its inverse, as dense rows:
    random sign flips and elementary row operations, the inverse taking
    the inverse column operations."""
    u = [[int(r == c) for c in range(n)] for r in range(n)]
    inv = [list(row) for row in u]
    for a in range(n):
        if rng.random() < 0.5:
            u[a] = [-x for x in u[a]]
            for row in inv:
                row[a] = -row[a]
    for _ in range(2 * n if n > 1 else 0):
        a, b = rng.sample(range(n), 2)
        f = rng.choice((-2, -1, 1, 2))
        u[a] = [x + f * y for x, y in zip(u[a], u[b])]
        for row in inv:
            row[b] -= f * row[a]
    return u, inv


@st.composite
def planted_complexes(draw):
    """A graded complex with planted homology, as ``(dims, blocks,
    table)``: over a few quantum degrees, pieces ``Z --n--> Z`` (n in
    +-1, 2, 3, 6) and free ``Z`` summands at scattered homological
    degrees, so that some degrees in between stay empty, then each chain
    group given a random unimodular change of basis."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    qs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True))
    dims, dense_d, planted = {}, {}, {}
    for j in qs:
        pieces = draw(
            st.lists(
                st.tuples(st.integers(-3, 3), st.sampled_from((0, 1, -1, 2, 3, 6))),
                min_size=1,
                max_size=10,
            )
        )
        gens: dict = {}  # i -> number of generators
        arrows = []  # (i, source generator, target generator, n)
        for i, n in pieces:
            src = gens.get(i, 0)
            gens[i] = src + 1
            if n:
                dst = gens.get(i + 1, 0)
                gens[i + 1] = dst + 1
                arrows.append((i, src, dst, n))
                if abs(n) > 1:
                    planted.setdefault((i + 1, j), [0, []])[1].append(abs(n))
            else:
                planted.setdefault((i, j), [0, []])[0] += 1
        for i, count in gens.items():
            dims[(i, j)] = count
            dense_d[(i, j)] = [[0] * count for _ in range(gens.get(i + 1, 0))]
        for i, src, dst, n in arrows:
            dense_d[(i, j)][dst][src] = n
    # d_i becomes U_{i+1} d_i U_i^{-1}
    change = {key: _change_of_basis(rng, n) for key, n in dims.items()}
    blocks = {}
    for (i, j), mat in dense_d.items():
        if mat:
            mat = _mul(_mul(change[(i + 1, j)][0], mat), change[(i, j)][1])
        blocks[(i, j)] = _columns(mat, dims[(i, j)])
    table = tuple(
        (i, j, free, _invariant_factors(orders))
        for (i, j), (free, orders) in sorted(planted.items())
        if free or orders
    )
    return dims, blocks, table


@settings(max_examples=200, deadline=None)
@given(planted_complexes())
def test_block_homology_recovers_planted_homology(complex_):
    dims, blocks, table = complex_
    before = {key: [dict(col) for col in cols] for key, cols in blocks.items()}
    assert block_homology(dims, blocks).entries == table
    assert blocks == before
    assert per_block_homology(dims, blocks) == table


def test_block_homology_drops_cancelled_generators(monkeypatch):
    # d_1 d_0 = 0 makes a cancelled generator's column of d_i (row of
    # d_{i-1}) a unit combination of the others, so keeping it would
    # change no table, only what reaches smith_diagonal
    calls = _recording_smith(monkeypatch)
    dims = {(0, 0): 1, (1, 0): 2, (2, 0): 1}
    # a -> b + c cancels b, whose column -2 of d_1 then drops out
    blocks = {(0, 0): [{0: 1, 1: 1}], (1, 0): [{0: -2}, {0: 2}], (2, 0): [{}]}
    assert block_homology(dims, blocks).entries == ((2, 0, 0, (2,)),)
    assert calls == [[[2]]]
    calls.clear()
    # b -> e cancels b, whose row of the remainder 2b + 2c drops out
    blocks = {(0, 0): [{0: 2, 1: 2}], (1, 0): [{0: 1}, {0: -1}], (2, 0): [{}]}
    assert block_homology(dims, blocks).entries == ((1, 0, 0, (2,)),)
    assert calls == [[[2]]]


def test_block_homology_rejects_a_negative_free_rank():
    # inconsistent input: a block with a column its generator count
    # leaves out, so one pivot takes more generators than there are
    dims = {(0, 0): 0, (1, 0): 1}
    blocks = {(0, 0): [{0: 1}], (1, 0): [{}]}
    with pytest.raises(ComplexError, match="negative free rank"):
        block_homology(dims, blocks)


def test_block_homology_rejects_d_squared_nonzero():
    dims = {(0, 0): 1, (1, 0): 1, (2, 0): 1}
    blocks = {(0, 0): [{0: 1}], (1, 0): [{0: 2}], (2, 0): [{}]}
    with pytest.raises(ComplexError, match="does not square to zero"):
        block_homology(dims, blocks)


# ==========================================================================
# cube structure
# ==========================================================================


def _graded_dimensions(d):
    """The graded dimension of each chain group of the cube of ``d``,
    read off the generator counts of ``differential_blocks``."""
    dims, _blocks = differential_blocks(d)
    out = {}
    for (i, j), n in dims.items():
        out[i] = out.get(i, LaurentPoly.zero()) + LaurentPoly.monomial(j, n)
    return out


def _shift(d, bits):
    """The quantum shift of the vertex ``bits`` of the cube of ``d``:
    each of its shifted quantum degrees less the degree of the same
    basis element of its flattening's state space."""
    degrees = state_space(d.flatten(bits)).degrees
    shifts = {q - e for q, e in zip(cube_data(d)[0][bits], degrees)}
    assert len(shifts) == 1
    return shifts.pop()


def _hom_range(d):
    """The lowest and highest homological degree of the cube of ``d``."""
    degrees = [i for i, _j in differential_blocks(d)[0]]
    return min(degrees), max(degrees)


def test_positive_kink_chain_groups():
    d = corpus.UNKNOT_KINK_POS
    assert (-d.negative_count, d.positive_count) == _hom_range(d) == (0, 1)
    graded = _graded_dimensions(d)
    assert at_one(graded[0]) == 9
    assert at_one(graded[1]) == 6
    assert _shift(d, (0,)) == -2
    assert _shift(d, (1,)) == -3
    q_degrees = cube_data(d)[0]
    assert sorted(q_degrees[(0,)]) == [-6, -4, -4, -2, -2, -2, 0, 0, 2]
    assert sorted(q_degrees[(1,)]) == [-6, -4, -4, -2, -2, 0]


def test_negative_kink_chain_groups():
    d = corpus.UNKNOT_KINK_NEG
    assert (-d.negative_count, d.positive_count) == _hom_range(d) == (-1, 0)
    graded = _graded_dimensions(d)
    assert at_one(graded[-1]) == 6
    assert at_one(graded[0]) == 9
    assert _shift(d, (0,)) == 3
    assert _shift(d, (1,)) == 2


def test_hom_ranges_follow_crossing_signs():
    for d, expected in (
        (corpus.TREFOIL, (0, 3)),
        (corpus.TREFOIL_MIRROR, (-3, 0)),
        (corpus.FIGURE_EIGHT, (-2, 2)),
    ):
        assert (-d.negative_count, d.positive_count) == _hom_range(d) == expected


def _block_sign(d, bits, c):
    """The sign that the edge ``(bits, c)`` of the cube of ``d`` carries
    in ``differential_blocks``: a block entry over its edge-map entry."""
    q_degrees, edge_maps = cube_data(d)
    mat = edge_maps[(bits, c)]
    r, k = next((r, k) for r, row in enumerate(mat) for k, x in enumerate(row) if x)
    q, weight = q_degrees[bits][k], sum(bits)
    col = cube_generators(q_degrees, weight, q).index((bits, k))
    target = bits[:c] + (1,) + bits[c + 1 :]
    row = cube_generators(q_degrees, weight + 1, q).index((target, r))
    _dims, blocks = differential_blocks(d)
    return blocks[(weight - d.negative_count, q)][col][row] // mat[r][k]


def test_edge_sign_counts_earlier_chosen_crossings():
    for d, bits, c, sign in (
        (corpus.TREFOIL, (0, 0, 0), 0, 1),
        (corpus.TREFOIL, (1, 0, 0), 1, -1),
        (corpus.TREFOIL, (1, 0, 1), 1, -1),
        (corpus.FIGURE_EIGHT, (0, 1, 0, 0), 2, -1),
        (corpus.FIGURE_EIGHT, (1, 1, 0, 0), 2, 1),
        (corpus.FIGURE_EIGHT, (1, 1, 0, 1), 2, 1),
    ):
        assert _block_sign(d, bits, c) == sign, (bits, c)


def test_generators_are_ordered_by_bits_then_index():
    # the blocks number generators as the dense oracle does, by bits then
    # basis index; the cube is walked in weight order instead
    d = corpus.HOPF
    q_degrees, edge_maps = cube_data(d)
    gens = cube_generators(q_degrees, 1)
    assert gens == sorted(gens)
    assert list(q_degrees) != sorted(q_degrees)
    _dims, blocks = differential_blocks(d)
    for (i, j), cols in blocks.items():
        dense = dense_differential(q_degrees, edge_maps, i + d.negative_count, j)
        assert _columns(dense, len(cols)) == cols, (i, j)


def test_graded_group_dimension_of_kink():
    two_circles = quantum_integer(3) * quantum_integer(3)
    theta = quantum_integer(2) * quantum_integer(3)
    graded = _graded_dimensions(corpus.UNKNOT_KINK_POS)
    assert graded[0] == two_circles * LaurentPoly.monomial(-2)
    assert graded[1] == theta * LaurentPoly.monomial(-3)


@pytest.mark.parametrize(
    "name",
    [
        "unknot-kink-positive",
        "unknot-kink-negative",
        "unknot-opposite-kinks",
        "unknot-double-kink",
        "unknot-curl-over",
        "push-through-parallel",
        "push-through-antiparallel",
        "slide-side-a",
        "slide-side-b",
        "hopf",
        "hopf-kinked",
        "trefoil",
    ],
)
def test_squares_anticommute_and_d_squared_zero(name):
    q_degrees, edge_maps = cube_data(corpus.fixture_diagrams()[name])
    assert squares_anticommute(edge_maps)
    assert d_squared_is_zero(q_degrees, edge_maps)


def test_chain_euler_equals_homology_euler():
    chain_euler = LaurentPoly.zero()
    for i, term in _graded_dimensions(corpus.TREFOIL).items():
        chain_euler = chain_euler + (term if i % 2 == 0 else -term)
    assert chain_euler == euler_characteristic(link_homology(corpus.TREFOIL).entries)


def _with_entry(mat, k, r, value):
    """A sparse matrix with the entry at row ``r`` of column ``k`` set to
    ``value`` (removed if 0)."""
    col = dict(mat[k])
    col[r] = value
    col = tuple(sorted((row, x) for row, x in col.items() if x))
    return mat[:k] + (col,) + mat[k + 1 :]


def _alter_edge(monkeypatch, d, bits, c, alter):
    """Make the cube walk of ``d`` read the matrix of the edge
    ``(bits, c)`` as ``alter`` of it: ``cube.induced_matrix`` is wrapped
    for the movie that runs between that edge's two cached flattenings."""
    start, end = d.flatten(bits), d.flatten(bits[:c] + (1,) + bits[c + 1 :])
    real = cube.induced_matrix

    def induced(movie):
        mat = real(movie)
        return alter(mat) if movie.start is start and movie.end is end else mat

    monkeypatch.setattr(cube, "induced_matrix", induced)


def test_broken_edge_map_fails_the_d_squared_check(monkeypatch):
    d = corpus.TREFOIL
    q_degrees, edge_maps = cube_data(d)
    for (bits, c), mat in sorted(edge_maps.items()):
        for k in range(len(mat[0])):
            for r, row in enumerate(mat):
                if not row[k]:
                    continue
                broken = [list(x) for x in mat]
                broken[r][k] = -row[k]
                if d_squared_is_zero(q_degrees, {**edge_maps, (bits, c): broken}):
                    continue
                _alter_edge(
                    monkeypatch,
                    d,
                    bits,
                    c,
                    lambda m, k=k, r=r, x=row[k]: _with_entry(m, k, r, -x),
                )
                with pytest.raises(ComplexError, match="does not square to zero"):
                    link_homology(d)
                return
    pytest.fail("no single negated entry breaks d*d = 0")


# ==========================================================================
# homology values
# ==========================================================================

UNKNOT_TABLE = ((0, -2, 1, ()), (0, 0, 1, ()), (0, 2, 1, ()))


@pytest.mark.parametrize(
    "diagram",
    [
        corpus.UNKNOT_0,
        corpus.UNKNOT_KINK_POS,
        corpus.UNKNOT_KINK_NEG,
        corpus.UNKNOT_OPPOSITE_KINKS,
        corpus.UNKNOT_DOUBLE_KINK,
        corpus.UNKNOT_CURL_OVER,
    ],
    ids=[
        "zero-crossings",
        "positive-kink",
        "negative-kink",
        "opposite-kinks",
        "double-kink",
        "curl-over",
    ],
)
def test_unknot_homology_is_three_free_summands(diagram):
    assert link_homology(diagram).entries == UNKNOT_TABLE


def test_empty_diagram_homology_is_one_group_at_origin():
    assert link_homology(parse_pd("")).entries == ((0, 0, 1, ()),)


def test_two_component_unlink_homology():
    h = link_homology(corpus.UNLINK_2)
    assert h.entries == (
        (0, -4, 1, ()),
        (0, -2, 2, ()),
        (0, 0, 3, ()),
        (0, 2, 2, ()),
        (0, 4, 1, ()),
    )


def test_hopf_homology_table():
    h = link_homology(corpus.HOPF)
    assert h.entries == (
        (0, -4, 1, ()),
        (0, -2, 1, ()),
        (0, 0, 1, ()),
        (2, -10, 1, ()),
        (2, -8, 2, ()),
        (2, -6, 2, ()),
        (2, -4, 1, ()),
    )
    assert not any(t for *_, t in h.entries)
    assert sum(r for _i, _j, r, _t in h.entries) == 9


def test_trefoil_homology_table_including_torsion():
    h = link_homology(corpus.TREFOIL)
    assert h.entries == (
        (0, -6, 1, ()),
        (0, -4, 1, ()),
        (0, -2, 1, ()),
        (2, -8, 1, ()),
        (2, -6, 1, ()),
        (3, -14, 1, ()),
        (3, -12, 1, ()),
        (3, -10, 0, (3,)),
    )
    assert any(t for *_, t in h.entries)
    assert h.torsion(3, -10) == (3,)
    assert h.rank(3, -10) == 0
    assert h.rank(0, -6) == 1
    assert sum(r for _i, _j, r, _t in h.entries) == 7


def _torsion(h) -> dict:
    """The nonzero torsion of a homology table, by bidegree."""
    return {(i, j): t for i, j, _r, t in h.entries if t}


def test_mirror_homology_transposes_free_ranks():
    diagrams = [*corpus.fixture_diagrams().values(), parse_pd(TORUS_5_1)]
    for d in diagrams:
        h = link_homology(d)
        hm = link_homology(d.mirror())
        assert {(-i, -j): r for (i, j), r in free_ranks(h).items()} == free_ranks(hm)
        # universal coefficients move torsion one homological degree up
        assert {(1 - i, -j): t for (i, j), t in _torsion(h).items()} == _torsion(hm)
    # the 3-torsion of 5_1 and of its mirror
    assert _torsion(link_homology(diagrams[-1].mirror())) == {
        (-2, 14): (3,),
        (-4, 18): (3,),
    }


def _prime_powers(orders) -> list:
    """The cyclic groups of prime-power order whose sum is the sum of
    cyclic groups of the given orders, as a sorted list of orders."""
    out = []
    for n in orders:
        p = 2
        while n > 1:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out)


def _kunneth(h1, h2) -> dict:
    """The homology of a split union over the integers from the tables
    of its parts, as ``(rank, prime-power torsion)`` by bidegree: the sum
    of ``H^{p,j1} ⊗ H^{q,j2}`` at ``(p + q, j1 + j2)`` and of
    ``Tor(H^{p,j1}, H^{q,j2})`` at ``(p + q - 1, j1 + j2)``."""
    ranks: dict = {}
    torsion: dict = {}
    for p, j1, r1, t1 in h1.entries:
        for q, j2, r2, t2 in h2.entries:
            at = (p + q, j1 + j2)
            ranks[at] = ranks.get(at, 0) + r1 * r2
            cross = [gcd(s, t) for s in t1 for t in t2]
            torsion.setdefault(at, []).extend(list(t1) * r2 + list(t2) * r1 + cross)
            torsion.setdefault((p + q - 1, j1 + j2), []).extend(cross)
    out = {}
    for at in ranks.keys() | torsion.keys():
        group = (ranks.get(at, 0), _prime_powers(torsion.get(at, ())))
        if group != (0, []):
            out[at] = group
    return out


def _split_union(pd1: str, pd2: str):
    """The split union of two PD codes: the second's labels shifted past
    the first's."""
    shift = max(int(x) for x in re.findall(r"\d+", pd1))
    shifted = re.sub(r"\d+", lambda m: str(int(m.group()) + shift), pd2)
    return parse_pd(f"{pd1} {shifted}")


@pytest.mark.parametrize(
    "first, second",
    [
        ("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)", "X(1,2,3,4) X(4,3,2,1)"),
        ("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)", "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"),
    ],
    ids=["trefoil-hopf", "trefoil-trefoil"],
)
def test_split_union_homology_satisfies_kunneth(first, second):
    h = link_homology(_split_union(first, second))
    table = {(i, j): (r, _prime_powers(t)) for i, j, r, t in h.entries}
    assert table == _kunneth(link_homology(parse_pd(first)), link_homology(parse_pd(second)))
    if first == second:
        # no tensor term has torsion here: it is Tor of the trefoil's
        # 3-torsion at (3, -10) with itself
        assert h.torsion(5, -20) == (3,)


def _digest(matrix) -> str:
    """The sha256 of a matrix written as compact JSON."""
    return hashlib.sha256(json.dumps(matrix, separators=(",", ":")).encode()).hexdigest()


def _torus_5_1_digests() -> dict[str, str]:
    """The digest of every edge matrix of 5_1, keyed "bits:crossing"."""
    return {
        "".join(map(str, bits)) + f":{c}": _digest(matrix)
        for (bits, c), matrix in cube_data(parse_pd(TORUS_5_1))[1].items()
    }


def _golden_torus_5_1_digests() -> dict[str, str]:
    golden = Path(__file__).parent / "golden" / "torus_5_1_edge_maps.json"
    return json.loads(golden.read_text(encoding="utf-8"))


def test_torus_knot_5_1_edge_maps_match_golden_digests():
    # every edge matrix of 5_1 against digests written from an earlier
    # build: the edge maps stay byte-identical
    digests = _torus_5_1_digests()
    assert len(digests) == 80
    assert digests == _golden_torus_5_1_digests()


def test_cold_torus_5_1_builds_match_golden_digests_across_a_clear():
    # two cold builds, the second after memo.clear() has emptied the
    # colouring memo the first filled
    expected = _golden_torus_5_1_digests()
    for _ in range(2):
        memo.clear()
        assert not memo.COLOURINGS
        assert _torus_5_1_digests() == expected
        assert memo.COLOURINGS


#: The size of each memo table after a cold 5_1 homology build, counted
#: when the tables moved into ``memo``; "plan values" sums the value
#: tables that the glue plans carry.
TORUS_5_1_MEMO_SIZES = {
    "SPACES": 9,
    "INDUCED": 15,
    "GLUE_PLANS": 23,
    "plan values": 883,
    "COLOURINGS": 422,
    "SHAPE_IDS": 23,
    "BRACKETS": 5,
    "FLATTENINGS": 32,
}


def _memo_sizes() -> dict[str, int]:
    """The size of each of the seven memo tables, and the plan values."""
    tables = [name for name in TORUS_5_1_MEMO_SIZES if name != "plan values"]
    sizes = {name: len(getattr(memo, name)) for name in tables}
    sizes["plan values"] = sum(len(plan.values) for plan in memo.GLUE_PLANS.values())
    return sizes


def test_clear_empties_every_memo_table_and_a_rebuild_refills_them():
    d = parse_pd(TORUS_5_1)
    memo.clear()
    homology_json(d)
    assert _memo_sizes() == TORUS_5_1_MEMO_SIZES
    memo.clear()
    assert _memo_sizes() == dict.fromkeys(TORUS_5_1_MEMO_SIZES, 0)
    homology_json(d)
    assert _torus_5_1_digests() == _golden_torus_5_1_digests()
    assert _memo_sizes() == TORUS_5_1_MEMO_SIZES


def test_cold_torus_5_1_serializes_only_the_memo_keys(monkeypatch):
    # the movie checks compare webs by their maps, so only the canonical
    # webs that key the state-space and edge-map memos are serialized;
    # comparing serializations there would serialize 121 webs
    serialized = []
    to_json_dict = Web.to_json_dict
    monkeypatch.setattr(
        Web, "to_json_dict", lambda web: serialized.append(web) or to_json_dict(web)
    )
    memo.clear()
    homology_json(parse_pd(TORUS_5_1))
    assert len({id(web) for web in serialized}) <= 40


def test_torus_knot_5_1_euler_and_torsion():
    d = parse_pd(TORUS_5_1)
    h = link_homology(d)
    assert euler_characteristic(h.entries) == link_bracket(d)
    assert {(i, j): t for i, j, _r, t in h.entries if t} == {
        (3, -14): (3,),
        (5, -18): (3,),
    }


def test_figure_eight_free_ranks_are_self_transpose():
    h = link_homology(corpus.FIGURE_EIGHT)
    ranks = free_ranks(h)
    assert {(-i, -j): r for (i, j), r in ranks.items()} == ranks
    assert h.rank(0, 0) == 1
    assert h.torsion(-1, 4) == (3,)
    assert h.torsion(2, -4) == (3,)


@pytest.mark.parametrize(
    "name",
    [
        "unknot-0",
        "unknot-kink-positive",
        "unknot-kink-negative",
        "unlink-2",
        "push-through-parallel",
        "push-through-antiparallel",
        "slide-side-a",
        "hopf",
        "hopf-kinked",
        "trefoil",
        "trefoil-mirror",
        "figure-eight",
    ],
)
def test_euler_characteristic_equals_bracket(name):
    d = corpus.fixture_diagrams()[name]
    assert euler_characteristic(link_homology(d).entries) == link_bracket(d)


def test_slide_sides_present_the_same_link_as_hopf():
    assert link_homology(corpus.SLIDE_SIDE_A).entries == link_homology(corpus.HOPF).entries


# ==========================================================================
# invariance under Markov moves of braid closures
# ==========================================================================

#: The most crossings a moved braid word may have.
MARKOV_CROSSINGS = 6

MARKOV_KINDS = ("rotate", "conjugate", "commute", "cancel", "braid", "stabilize")


def _from(at: int, count: int) -> list:
    """``0 .. count - 1``, starting at ``at`` and wrapping round."""
    return [(at + k) % count for k in range(count)]


def _markov_move(word: list, kind: str, at: int, sign: int) -> list:
    """``word`` after one Markov move, which changes the closure's
    diagram but not its link; ``word`` itself where the move finds no
    place or would pass ``MARKOV_CROSSINGS``.  ``at`` picks the place
    and the generator, ``sign`` the sign of a new letter.

    * ``rotate``: conjugation by the first ``at`` letters;
    * ``conjugate``: conjugation by a generator, ``x w x^-1``;
    * ``commute``: far commutation of neighbours ``s_i s_j``, ``|i - j| > 1``;
    * ``cancel``: insertion of ``s_i s_i^-1`` (Reidemeister II);
    * ``braid``: ``s_i s_j s_i -> s_j s_i s_j`` for ``|i - j| = 1``, all
      of one sign (Reidemeister III);
    * ``stabilize``: one more strand, crossed once by ``s_n^±1``
      (Reidemeister I), anywhere in the word: that is the stabilization
      of a rotated word, rotated back.
    """
    n, strands = len(word), max(map(abs, word)) + 1
    x = sign * (1 + at % (strands - 1))
    if kind == "rotate":
        return word[at % n :] + word[: at % n]
    if kind == "commute":
        for k in _from(at, n - 1):
            a, b = word[k], word[k + 1]
            if abs(abs(a) - abs(b)) > 1:
                return word[:k] + [b, a] + word[k + 2 :]
        return word
    if kind == "braid":
        for k in _from(at, n - 2) if n > 2 else []:
            a, b, c = word[k : k + 3]
            if a == c and abs(abs(a) - abs(b)) == 1 and (a > 0) == (b > 0):
                return word[:k] + [b, a, b] + word[k + 3 :]
        return word
    k = at % (n + 1)
    if kind == "conjugate":
        moved = [x] + word + [-x]
    elif kind == "cancel":
        moved = word[:k] + [x, -x] + word[k:]
    else:
        moved = word[:k] + [sign * strands] + word[k:]
    return moved if len(moved) <= MARKOV_CROSSINGS else word


_BRAID_HOMOLOGY: dict = {}


def _braid_homology(word: list) -> tuple:
    key = tuple(word)
    if key not in _BRAID_HOMOLOGY:
        _BRAID_HOMOLOGY[key] = link_homology(parse_pd(braid_pd(word))).entries
    return _BRAID_HOMOLOGY[key]


def test_markov_moves_change_the_word_as_stated():
    assert _markov_move([1, 2, 1, 2], "rotate", 1, 1) == [2, 1, 2, 1]
    assert _markov_move([1, 1, 2], "conjugate", 1, -1) == [-2, 1, 1, 2, 2]
    assert _markov_move([1, -2, 1, 3], "commute", 0, 1) == [1, -2, 3, 1]
    assert _markov_move([1, -2], "cancel", 1, 1) == [1, 2, -2, -2]
    assert _markov_move([1, 2, 1, -2], "braid", 1, 1) == [2, 1, 2, -2]
    assert _markov_move([-1, -2, -1], "braid", 0, 1) == [-2, -1, -2]
    assert _markov_move([1, -2, 1], "stabilize", 3, -1) == [1, -2, 1, -3]
    assert _markov_move([1, -2, 1], "stabilize", 1, 1) == [1, 3, -2, 1]
    # no place for the move, or too many crossings: the word is kept
    assert _markov_move([1, 2, -1], "braid", 0, 1) == [1, 2, -1]
    assert _markov_move([1, 2, 1], "commute", 0, 1) == [1, 2, 1]
    assert _markov_move([1, 2, 1, 2, 1], "cancel", 0, 1) == [1, 2, 1, 2, 1]


#: Three-strand words of two to four letters that touch both strand
#: gaps: an untouched strand is a split unknot, which a PD code cannot
#: carry.  Braid-relation triples are drawn as one piece, so that the
#: ``braid`` move finds a place.
_THREE_STRAND_WORDS = (
    st.lists(
        st.sampled_from(
            [[1], [-1], [2], [-2], [1, 2, 1], [2, 1, 2], [-1, -2, -1], [-2, -1, -2]]
        ),
        min_size=1,
        max_size=3,
    )
    .map(lambda pieces: [x for piece in pieces for x in piece])
    .filter(lambda w: 2 <= len(w) <= 4 and {abs(x) for x in w} == {1, 2})
)

_MARKOV_MOVES = st.lists(
    st.tuples(st.sampled_from(MARKOV_KINDS), st.integers(0, 5), st.sampled_from([1, -1])),
    min_size=1,
    max_size=3,
)


@settings(max_examples=30, deadline=None)
@given(word=_THREE_STRAND_WORDS, moves=_MARKOV_MOVES)
@example(word=[1, 2, 1, 2], moves=[("braid", 0, 1)])
@example(word=[1, -2, 1], moves=[("stabilize", 3, 1), ("commute", 2, 1)])
@example(word=[1, 1, 2], moves=[("conjugate", 1, -1)])
@example(word=[1, -2], moves=[("cancel", 1, 1), ("rotate", 3, 1)])
@example(word=[-1, -1, -2], moves=[("stabilize", 1, -1), ("rotate", 1, 1)])
def test_homology_is_invariant_under_markov_moves(word, moves):
    # Markov's theorem: closures of words related by these moves present
    # the same link, so their homology tables agree
    moved = word
    for kind, at, sign in moves:
        moved = _markov_move(moved, kind, at, sign)
    assert len(moved) <= MARKOV_CROSSINGS
    assert _braid_homology(moved) == _braid_homology(word), (word, moved)


@settings(max_examples=30, deadline=None)
@given(word=_THREE_STRAND_WORDS)
@example(word=[1, 1, 1, 2])
def test_mirror_braid_homology_transposes(word):
    # the closure of the word with every letter negated is the mirror
    # image: free ranks at (-i, -j), torsion moved one degree up
    h = BigradedHomology(_braid_homology(word))
    hm = BigradedHomology(_braid_homology([-x for x in word]))
    assert {(-i, -j): r for (i, j), r in free_ranks(h).items()} == free_ranks(hm)
    assert {(1 - i, -j): t for (i, j), t in _torsion(h).items()} == _torsion(hm)


#: A word on two or three strands that touches every strand, and a word
#: on two strands: the split union of their closures has at most five
#: strands, which keeps each table to about a second or less.
_SPLIT_PARTS = st.tuples(
    st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=4).filter(
        lambda w: {abs(x) for x in w} in ({1}, {1, 2})
    ),
    st.lists(st.sampled_from([1, -1]), min_size=1, max_size=3),
).filter(lambda ab: len(ab[0]) + len(ab[1]) <= MARKOV_CROSSINGS)


@settings(max_examples=6, deadline=None)
@given(parts=_SPLIT_PARTS)
@example(parts=([1, 1, 1], [-1, -1, -1]))
@example(parts=([1, -2, 1, -2], [-1]))
def test_split_braid_homology_satisfies_kunneth(parts):
    # the second word moved onto the strands past the first: the closure
    # is the split union of the two closures
    first, second = parts
    gap = max(map(abs, first))
    moved = [x + gap + 1 if x > 0 else x - gap - 1 for x in second]
    table = {
        (i, j): (r, _prime_powers(t)) for i, j, r, t in _braid_homology(first + moved)
    }
    assert table == _kunneth(
        BigradedHomology(_braid_homology(first)),
        BigradedHomology(_braid_homology(second)),
    )


# ==========================================================================
# invariance reports
# ==========================================================================


def test_invariance_report_passes_for_kink_pair():
    rep = check_invariance(corpus.UNKNOT_KINK_POS, corpus.UNKNOT_0)
    assert rep.passed
    assert rep.differences == ()
    assert rep.to_json_dict() == {"passed": True, "differences": []}


def test_invariance_report_fails_for_distinct_links():
    rep = check_invariance(corpus.TREFOIL, corpus.UNKNOT_0)
    assert not rep.passed
    assert rep.differences
    payload = rep.to_json_dict()
    assert payload["passed"] is False
    assert payload["differences"]
    first = payload["differences"][0]
    assert set(first) == {"i", "j", "first", "second"}


def test_all_corpus_invariance_pairs_have_small_diagrams():
    for name, d1, d2 in corpus.INVARIANCE_PAIRS:
        assert d1.n_crossings <= 4 and d2.n_crossings <= 4, name
    assert len(corpus.INVARIANCE_PAIRS) >= 10


# ==========================================================================
# JSON report
# ==========================================================================


def test_homology_json_shape_and_determinism():
    payload = homology_json(corpus.UNKNOT_KINK_POS)
    assert set(payload) == {"diagram", "bracket", "homology", "euler_check"}
    assert payload["euler_check"] is True
    assert payload["bracket"] == "q^-2 + 1 + q^2"
    assert payload["homology"] == [
        {"i": 0, "j": -2, "rank": 1, "torsion": []},
        {"i": 0, "j": 0, "rank": 1, "torsion": []},
        {"i": 0, "j": 2, "rank": 1, "torsion": []},
    ]
    again = homology_json(corpus.UNKNOT_KINK_POS)
    assert json.dumps(payload, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_homology_json_reports_torsion():
    payload = homology_json(corpus.TREFOIL)
    torsion_rows = [row for row in payload["homology"] if row["torsion"]]
    assert torsion_rows == [{"i": 3, "j": -10, "rank": 0, "torsion": [3]}]


# ==========================================================================
# degree bookkeeping is validated by the walk that builds the blocks
# ==========================================================================


def test_build_checks_degree_preservation():
    q_degrees, edge_maps = cube_data(corpus.UNKNOT_KINK_POS)
    for (bits, c), mat in edge_maps.items():
        src = q_degrees[bits]
        dst = q_degrees[tuple(1 if a == c else b for a, b in enumerate(bits))]
        for r, row in enumerate(mat):
            for k, entry in enumerate(row):
                if entry:
                    assert dst[r] == src[k]


def test_edge_map_entry_off_degree_fails_the_degree_check(monkeypatch):
    d = corpus.TREFOIL
    q_degrees, edge_maps = cube_data(d)
    for (bits, c), mat in sorted(edge_maps.items()):
        src = q_degrees[bits]
        dst = q_degrees[bits[:c] + (1,) + bits[c + 1 :]]
        for k in range(len(src)):
            for r, row in enumerate(mat):
                off = [r2 for r2, q in enumerate(dst) if q != src[k]]
                if not row[k] or not off:
                    continue
                # move the entry to a row of another shifted degree (that
                # row's entry is zero, as the map preserves degree)
                _alter_edge(
                    monkeypatch,
                    d,
                    bits,
                    c,
                    lambda m, k=k, r=r, r2=off[0], x=row[k]: _with_entry(
                        _with_entry(m, k, r, 0), k, r2, x
                    ),
                )
                with pytest.raises(ComplexError, match="does not preserve"):
                    link_homology(d)
                return
    pytest.fail("no edge-map entry can move to a row of another degree")


def test_homology_accessors_default_to_trivial():
    h = BigradedHomology(entries=((0, 0, 2, (5,)),))
    assert h.rank(0, 0) == 2
    assert h.rank(4, 4) == 0
    assert h.torsion(4, 4) == ()
    assert free_ranks(h) == {(0, 0): 2}
    assert euler_characteristic(h.entries) == LaurentPoly.monomial(0, 2)
