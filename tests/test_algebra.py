"""Tests for the exact algebra layer: Laurent polynomials, the rank-3
Frobenius algebra oracle, the three-sheet circle evaluation, the table
of closed surfaces, the sparse integer row reduction
(``algebra.row_reduce``), and the cube's Smith diagonal
(``cube.smith_diagonal``) against a dense oracle that keeps its
transforms."""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from artifact.algebra import (
    LaurentPoly,
    closed_surface_value,
    quantum_integer,
    row_reduce,
    theta_symbol,
)
from artifact.cube import smith_diagonal
from artifact.selftest import identity_matrix, mat_mul
from .helpers import at_one
from .oracles import (
    FrobeniusElement,
    comultiply,
    flag_theta,
    fraction_solve,
    handle_operator,
    poly_items,
    poly_mirror,
    smith_form_with_transforms,
    trace,
)

# --------------------------------------------------------------------------
# strategies
# --------------------------------------------------------------------------

small_int = st.integers(min_value=-9, max_value=9)
laurents = st.dictionaries(
    st.integers(min_value=-6, max_value=6), small_int, max_size=5
).map(LaurentPoly)
frobs = st.builds(FrobeniusElement, small_int, small_int, small_int)

# tensors over the Frobenius algebra, written as {(i, j): int}
Tensor = dict


def _tensor_add(t1: Tensor, t2: Tensor) -> Tensor:
    out = dict(t1)
    for k, c in t2.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


def _tensor_scale(t: Tensor, c: int) -> Tensor:
    return {k: v * c for k, v in t.items() if v * c}


def _tensor_mult_left(a: FrobeniusElement, t: Tensor) -> Tensor:
    """(a (x) 1) . t  with multiplication in each tensor factor."""
    out: Tensor = {}
    for (i, j), c in t.items():
        prod = a * FrobeniusElement.basis(i)
        for k, ck in enumerate(prod.coefficients):
            if ck:
                out = _tensor_add(out, {(k, j): c * ck})
    return out


def _tensor_mult_right(t: Tensor, b: FrobeniusElement) -> Tensor:
    """t . (1 (x) b)  with multiplication in each tensor factor."""
    out: Tensor = {}
    for (i, j), c in t.items():
        prod = FrobeniusElement.basis(j) * b
        for k, ck in enumerate(prod.coefficients):
            if ck:
                out = _tensor_add(out, {(i, k): c * ck})
    return out


# --------------------------------------------------------------------------
# LaurentPoly
# --------------------------------------------------------------------------


def test_laurent_zero_prints_as_zero():
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly({2: 1}) - LaurentPoly({2: 1})) == "0"


def test_laurent_text_form_golden():
    assert str(LaurentPoly.one()) == "1"
    assert str(LaurentPoly({1: 1})) == "q"
    assert str(LaurentPoly({-1: 1})) == "q^-1"
    assert str(LaurentPoly({-2: 1, 0: 1, 2: 1})) == "q^-2 + 1 + q^2"
    assert str(LaurentPoly({-3: 1, -1: 2, 1: 2, 3: 1})) == "q^-3 + 2*q^-1 + 2*q + q^3"
    assert str(LaurentPoly({-1: -1, 0: 3, 3: -2})) == "-q^-1 + 3 - 2*q^3"
    assert str(LaurentPoly({0: -4})) == "-4"


def test_laurent_monomial_and_accessors():
    p = LaurentPoly.monomial(-2, 5)
    assert dict(poly_items(p)).get(-2, 0) == 5
    assert dict(poly_items(p)).get(0, 0) == 0
    assert poly_items(p) == ((-2, 5),)
    assert poly_items(p * LaurentPoly.monomial(3)) == ((1, 5),)
    assert at_one(p) == 5


def test_laurent_cancellation_in_constructor():
    p = LaurentPoly([(1, 2), (1, -2), (0, 7)])
    assert p == LaurentPoly({0: 7})
    assert not LaurentPoly({3: 0})


@given(laurents, laurents, laurents)
def test_laurent_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly.zero() == a
    assert a * LaurentPoly.one() == a
    assert a - a == LaurentPoly.zero()


@given(laurents, laurents)
def test_laurent_mirror_is_multiplicative(a, b):
    assert poly_mirror(a * b) == poly_mirror(a) * poly_mirror(b)
    assert poly_mirror(poly_mirror(a)) == a


@given(laurents, st.integers(min_value=0, max_value=5))
def test_laurent_power_matches_repeated_product(a, n):
    expected = LaurentPoly.one()
    for _ in range(n):
        expected = expected * a
    assert a**n == expected


def test_quantum_integers():
    assert quantum_integer(0) == LaurentPoly.zero()
    assert quantum_integer(1) == LaurentPoly.one()
    assert quantum_integer(2) == LaurentPoly({1: 1, -1: 1})
    assert quantum_integer(3) == LaurentPoly({2: 1, 0: 1, -2: 1})
    assert str(quantum_integer(3)) == "q^-2 + 1 + q^2"
    # [2]*[3] = [4] + [2], and [2]^2 = [3] + [1]
    assert quantum_integer(2) * quantum_integer(3) == quantum_integer(
        4
    ) + quantum_integer(2)
    assert quantum_integer(2) ** 2 == quantum_integer(3) + quantum_integer(1)
    for n in range(7):
        q = quantum_integer(n)
        assert q == poly_mirror(q), f"[{n}] should be palindromic"
        assert at_one(q) == n


# --------------------------------------------------------------------------
# Frobenius algebra Z[X]/(X^3)
# --------------------------------------------------------------------------


def test_frobenius_multiplication_table():
    X = FrobeniusElement.basis
    assert X(0) * X(0) == X(0)
    assert X(0) * X(1) == X(1)
    assert X(1) * X(1) == X(2)
    assert X(1) * X(2) == FrobeniusElement.zero(), "X^3 must vanish"
    assert X(2) * X(2) == FrobeniusElement.zero(), "X^4 must vanish"


def test_frobenius_trace_values():
    assert trace(FrobeniusElement.one()) == 0
    assert trace(FrobeniusElement.basis(1)) == 0
    assert trace(FrobeniusElement.basis(2)) == -1
    assert trace(FrobeniusElement(4, -2, 7)) == -7


def test_frobenius_grading():
    # with X^i in degree 2i - 2, multiplication and comultiplication
    # raise the degree by 2 and the trace lives in degree 2
    deg = [-2, 0, 2]
    X = FrobeniusElement.basis
    for i, j in itertools.product(range(3), repeat=2):
        if i + j <= 2:
            assert X(i) * X(j) == X(i + j)
            assert deg[i + j] == deg[i] + deg[j] + 2
    for k in range(3):
        for i, j in comultiply(X(k)):
            assert deg[i] + deg[j] == deg[k] + 2
        assert (trace(X(k)) != 0) == (deg[k] == 2)


def test_comultiplication_on_basis():
    assert comultiply(FrobeniusElement.one()) == {
        (0, 2): -1,
        (1, 1): -1,
        (2, 0): -1,
    }
    assert comultiply(FrobeniusElement.basis(1)) == {(1, 2): -1, (2, 1): -1}
    assert comultiply(FrobeniusElement.basis(2)) == {(2, 2): -1}


@given(frobs, frobs, frobs)
def test_frobenius_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * FrobeniusElement.one() == a


@given(frobs, frobs)
def test_frobenius_compatibility(a, b):
    """comultiply(a*b) == (a (x) 1).comultiply(b) == comultiply(a).(1 (x) b)"""
    lhs = comultiply(a * b)
    via_left = _tensor_mult_left(a, comultiply(b))
    via_right = _tensor_mult_right(comultiply(a), b)
    assert lhs == via_left, f"left Frobenius compatibility fails for {a}, {b}"
    assert lhs == via_right, f"right Frobenius compatibility fails for {a}, {b}"


@given(frobs)
def test_counit_axiom(a):
    """(trace (x) id) comultiply(a) == a == (id (x) trace) comultiply(a)"""
    left = FrobeniusElement.zero()
    right = FrobeniusElement.zero()
    for (i, j), c in comultiply(a).items():
        left = left + c * trace(FrobeniusElement.basis(i)) * FrobeniusElement.basis(j)
        right = right + c * trace(FrobeniusElement.basis(j)) * FrobeniusElement.basis(i)
    assert left == a, f"(trace (x) id) of the coproduct of {a} is {left}"
    assert right == a, f"(id (x) trace) of the coproduct of {a} is {right}"


def test_coassociativity_on_basis():
    for k in range(3):
        a = FrobeniusElement.basis(k)
        lhs: dict[tuple[int, int, int], int] = {}
        rhs: dict[tuple[int, int, int], int] = {}
        for (i, j), c in comultiply(a).items():
            for (p, r), d in comultiply(FrobeniusElement.basis(i)).items():
                key = (p, r, j)
                if lhs.get(key, 0) + c * d:
                    lhs[key] = lhs.get(key, 0) + c * d
                elif key in lhs:
                    del lhs[key]
            for (p, r), d in comultiply(FrobeniusElement.basis(j)).items():
                key = (i, p, r)
                if rhs.get(key, 0) + c * d:
                    rhs[key] = rhs.get(key, 0) + c * d
                elif key in rhs:
                    del rhs[key]
        assert lhs == rhs, f"coassociativity fails on X^{k}"


def test_dual_basis_pairing():
    # X^i is dual to -X^(2-i)
    X = FrobeniusElement.basis
    pairs = [(X(i), -X(2 - i)) for i in range(3)]
    for i, (_, bi_hat) in enumerate(pairs):
        for j, (bj, _) in enumerate(pairs):
            expected = 1 if i == j else 0
            got = trace(bj * bi_hat)
            assert got == expected, f"pairing ({i},{j}) gave {got}"


@given(frobs)
def test_neck_cutting_identity(a):
    """Cutting an identity tube: a == sum over the coproduct of the unit of
    coefficient * trace(X^i * a) * X^j."""
    total = FrobeniusElement.zero()
    for (i, j), c in comultiply(FrobeniusElement.one()).items():
        total = total + c * trace(FrobeniusElement.basis(i) * a) * FrobeniusElement.basis(j)
    assert total == a, f"neck-cutting reconstruction of {a} gave {total}"


# --------------------------------------------------------------------------
# closed surfaces
# --------------------------------------------------------------------------


def test_handle_operator_values():
    assert handle_operator(FrobeniusElement.one()) == FrobeniusElement(0, 0, -3)
    assert handle_operator(FrobeniusElement.basis(1)) == FrobeniusElement.zero()
    assert handle_operator(FrobeniusElement.basis(2)) == FrobeniusElement.zero()


def test_closed_surface_value_table():
    expected_nonzero = {(0, 2): -1, (1, 0): 3}
    for genus in range(6):
        for dots in range(6):
            got = closed_surface_value(genus, dots)
            want = expected_nonzero.get((genus, dots), 0)
            assert got == want, f"genus {genus} with {dots} dots gave {got}, want {want}"
            a = FrobeniusElement.basis(dots) if dots < 3 else FrobeniusElement.zero()
            for _ in range(genus):
                a = handle_operator(a)
            assert got == trace(a), f"genus {genus} with {dots} dots"
    for genus, dots in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            closed_surface_value(genus, dots)


# --------------------------------------------------------------------------
# three-sheet circle evaluation vs the flag-variety oracle
# --------------------------------------------------------------------------


def test_theta_symbol_against_flag_oracle():
    for a, b, c in itertools.product(range(5), repeat=3):
        got = theta_symbol(a, b, c)
        want = flag_theta(a, b, c)
        assert got == want, f"theta({a},{b},{c}) = {got} but the oracle says {want}"


def test_theta_symbol_symmetries():
    for a, b, c in itertools.product(range(4), repeat=3):
        assert theta_symbol(a, b, c) == theta_symbol(b, c, a), "cyclic invariance"
        assert theta_symbol(a, b, c) == -theta_symbol(c, b, a), "reversal negates"


def test_theta_symbol_known_values():
    assert theta_symbol(0, 1, 2) == 1
    assert theta_symbol(2, 1, 0) == -1
    assert theta_symbol(1, 1, 1) == 0
    assert theta_symbol(0, 0, 0) == 0
    assert theta_symbol(0, 1, 3) == 0


# --------------------------------------------------------------------------
# Smith normal form; the oracle keeps its transforms
# --------------------------------------------------------------------------


def _check_smith_form(mat):
    diag, p, q = smith_form_with_transforms(mat)
    assert smith_diagonal(mat) == diag
    n_rows, n_cols = len(mat), len(mat[0]) if mat else 0
    assert len(p) == n_rows and len(q) == n_cols
    want = tuple(
        tuple(diag[i] if i == j and i < len(diag) else 0 for j in range(n_cols))
        for i in range(n_rows)
    )
    if n_rows and n_cols:
        assert mat_mul(mat_mul(p, mat), q) == want
    assert all(x > 0 for x in diag)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
    # both transforms are unimodular: the rational oracle inverts them
    for t in (p, q):
        if t:
            fraction_solve(t, identity_matrix(len(t)))
    return diag


def test_smith_form_transforms_on_small_matrices():
    assert _check_smith_form([[2, 0], [0, 3]]) == [1, 6]
    assert _check_smith_form([[2, 4], [6, 8]]) == [2, 4]
    assert _check_smith_form([[6, 10, 15]]) == [1]
    assert _check_smith_form([[2, 0], [0, 2], [0, 0]]) == [2, 2]
    assert _check_smith_form([[0, 0], [0, 0]]) == []
    assert _check_smith_form([[2, 3], [3, 5]]) == [1, 1]
    assert smith_form_with_transforms([]) == ([], [], [])
    assert smith_diagonal([]) == []


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda r: st.lists(
            st.lists(small_int, min_size=r, max_size=r), min_size=1, max_size=5
        )
    )
)
def test_smith_form_transforms_on_random_matrices(mat):
    _check_smith_form(mat)


# --------------------------------------------------------------------------
# sparse integer row reduction
# --------------------------------------------------------------------------


@st.composite
def kernel_matrices(draw):
    """Integer matrices of up to 6 x 6 with entries up to 30 in size;
    a drawn flag makes the last row a combination of the others, so
    singular matrices come up often."""
    n_cols = draw(st.integers(min_value=1, max_value=6))
    entry = st.integers(min_value=-30, max_value=30) | st.just(0)
    row = st.lists(entry, min_size=n_cols, max_size=n_cols)
    mat = draw(st.lists(row, min_size=1, max_size=6))
    if len(mat) > 1 and draw(st.booleans()):
        k = len(mat) - 1
        f = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        mat[-1] = [sum(a * row[c] for a, row in zip(f, mat)) for c in range(n_cols)]
    return mat


@st.composite
def unimodular_matrices(draw):
    """A product of elementary integer row operations and sign flips:
    ``(i, j, f)`` adds ``f`` times row ``j`` to row ``i``, or negates
    row ``i`` when ``i == j``."""
    n = draw(st.integers(min_value=1, max_value=6))
    mat = [list(row) for row in identity_matrix(n)]
    index = st.integers(min_value=0, max_value=n - 1)
    ops = st.tuples(index, index, st.integers(min_value=-3, max_value=3))
    for i, j, f in draw(st.lists(ops, max_size=4 * n)):
        if i == j:
            mat[i] = [-x for x in mat[i]]
        else:
            mat[i] = [x + f * y for x, y in zip(mat[i], mat[j])]
    return mat


def _check_row_reduce(mat):
    """Reduce ``mat`` tracking an identity and check what the kernel
    promises; return the reduced rows and the pivots."""
    n_rows, n_cols = len(mat), len(mat[0])
    rows = [{c: x for c, x in enumerate(row) if x} for row in mat]
    ops = [{r: 1} for r in range(n_rows)]
    pivots = row_reduce(rows, ops)
    transform = tuple(tuple(op.get(t, 0) for t in range(n_rows)) for op in ops)
    reduced = tuple(tuple(row.get(c, 0) for c in range(n_cols)) for row in rows)
    assert mat_mul(transform, mat) == reduced
    # the tracked rows are unimodular: the rational oracle inverts them
    fraction_solve(transform, identity_matrix(n_rows))
    assert len({c for _, c in pivots}) == len(pivots)
    pivoted = {r for r, _ in pivots}
    assert all(not row for r, row in enumerate(rows) if r not in pivoted)
    for k, (r, c) in enumerate(pivots):
        assert all(earlier not in rows[r] for _, earlier in pivots[:k])
        if abs(rows[r][c]) == 1:
            assert all(c not in row for s, row in enumerate(rows) if s != r)
    return rows, pivots


@settings(max_examples=200, deadline=None)
@given(kernel_matrices())
def test_row_reduce_tracks_its_operations_and_leaves_pivots_triangular(mat):
    _check_row_reduce(mat)


@settings(max_examples=100, deadline=None)
@given(unimodular_matrices())
def test_row_reduce_of_a_unimodular_matrix_has_only_unit_pivots(mat):
    rows, pivots = _check_row_reduce(mat)
    assert len(pivots) == len(mat)
    assert all(rows[r][c] in (1, -1) for r, c in pivots)


def test_row_reduce_known_cases():
    assert row_reduce([]) == []
    # Euclid steps end on the gcd 2 in the last row and empty the other
    rows = [{}, {0: 4, 1: 6}, {0: 6, 1: 9}]
    assert row_reduce(rows) == [(2, 0)]
    assert rows == [{}, {}, {0: 2, 1: 3}]
    # a non-unit pivot reduces the rows pivoted before it by floor division
    rows = [{0: 1, 1: 5}, {0: 3, 1: 1}]
    ops = [{0: 1}, {1: 1}]
    assert row_reduce(rows, ops) == [(0, 0), (1, 1)]
    assert rows == [{0: 1, 1: -9}, {1: -14}]
    assert ops == [{0: -2, 1: 1}, {0: -3, 1: 1}]
