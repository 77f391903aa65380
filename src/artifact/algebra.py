"""Exact integer algebra shared by every other module.

Contents
--------
``LaurentPoly``
    Immutable Laurent polynomials in one variable ``q`` with ``int``
    coefficients.  This is the value ring of the graph bracket and the
    home of graded dimensions.
``quantum_integer``
    The symmetric q-integer ``[n] = q^(n-1) + q^(n-3) + ... + q^(1-n)``.
``theta_symbol``
    Evaluation of the closed surface made of three disk sheets glued along
    one common circle, carrying ``a``, ``b``, ``c`` dots on the sheets in
    cyclic order.
``closed_surface_value``
    The table of closed connected orientable dotted surfaces by genus and
    dot count.
``VALUE_EQUALITY``
    Type-aware ``__eq__``, ``__ne__`` and ``__hash__`` for the package's
    ``NamedTuple`` value types.
``row_reduce``
    Sparse integer row reduction, the one exact elimination behind the
    Gram-block inverses and the Smith diagonals.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

# --------------------------------------------------------------------------
# Laurent polynomials
# --------------------------------------------------------------------------


class LaurentPoly:
    """Immutable Laurent polynomial in ``q`` with integer coefficients.

    Stored as a mapping ``exponent -> nonzero coefficient``.  Instances are
    value-like: hashable, comparable by mathematical equality, and support
    ``+``, ``-``, ``*`` (by another polynomial or by an ``int``), unary
    negation, and nonnegative integer powers.
    """

    __slots__ = ("_coeffs",)

    def __init__(
        self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()
    ) -> None:
        acc: dict[int, int] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for exp, c in items:
            if not isinstance(exp, int) or not isinstance(c, int):
                raise TypeError("exponents and coefficients must be ints")
            s = acc.get(exp, 0) + c
            if s:
                acc[exp] = s
            elif exp in acc:
                del acc[exp]
        self._coeffs = acc

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "LaurentPoly":
        """The single-term polynomial ``coefficient * q**exponent``."""
        return cls({exponent: coefficient})

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc = dict(self._coeffs)
        for e, c in other._coeffs.items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
        out = LaurentPoly()
        out._coeffs = acc
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self._coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                elif e in acc:
                    del acc[e]
        out = LaurentPoly()
        out._coeffs = acc
        return out

    def __rmul__(self, other: int) -> "LaurentPoly":
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._coeffs.items())))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- printing ----------------------------------------------------------

    @staticmethod
    def _term_text(exponent: int, magnitude: int) -> str:
        if exponent == 0:
            return str(magnitude)
        if exponent == 1:
            power = "q"
        else:
            power = f"q^{exponent}"
        if magnitude == 1:
            return power
        return f"{magnitude}*{power}"

    def __str__(self) -> str:
        """Canonical text form: terms in ascending exponent order.

        Examples: ``0``, ``q^-2 + 1 + q^2``, ``-q^-1 + 3 - 2*q^3``.
        A unit coefficient is omitted except on the constant term;
        exponent one prints as ``q``; negative terms join with `` - ``.
        """
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for exp, c in sorted(self._coeffs.items()):
            text = self._term_text(exp, abs(c))
            if not parts:
                parts.append(f"-{text}" if c < 0 else text)
            else:
                parts.append(f" - {text}" if c < 0 else f" + {text}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._coeffs.items()))!r})"


def quantum_integer(n: int) -> LaurentPoly:
    """The symmetric q-integer ``[n] = q^(n-1) + q^(n-3) + ... + q^(1-n)``.

    ``[0] = 0``, ``[1] = 1``, ``[2] = q + q^-1``, ``[3] = q^2 + 1 + q^-2``.
    Defined here for ``n >= 0``.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("quantum_integer is defined for nonnegative n")
    return LaurentPoly({n - 1 - 2 * k: 1 for k in range(n)})


#: The nonzero values of closed connected dotted surfaces, by
#: ``(genus, dots)``.
_SURFACE_VALUES = {(0, 2): -1, (1, 0): 3}


def closed_surface_value(genus: int, dots: int) -> int:
    """Exact value of a closed connected orientable surface with dots.

    The only nonzero values are the twice-dotted sphere (``-1``) and the
    undotted torus (``3``).  They are the trace of ``X**dots`` after
    ``genus`` handles in the Frobenius algebra ``Z[X]/(X^3)`` with
    ``trace(X^2) = -1`` and ``trace(1) = trace(X) = 0``, where a handle
    multiplies by ``-3*X^2`` (the tests recompute them that way).
    """
    if genus < 0 or dots < 0:
        raise ValueError("genus and dot count must be nonnegative")
    return _SURFACE_VALUES.get((genus, dots), 0)


# --------------------------------------------------------------------------
# The three-sheet circle evaluation
# --------------------------------------------------------------------------

_CYCLIC = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
_ANTICYCLIC = {(2, 1, 0), (1, 0, 2), (0, 2, 1)}


def theta_symbol(a: int, b: int, c: int) -> int:
    """Value of the closed surface made of three disks glued along a circle.

    The three disk sheets carry ``a``, ``b`` and ``c`` dots and are listed
    in cyclic order around the common circle.  The value is ``+1`` when
    ``(a, b, c)`` is a cyclic rotation of ``(0, 1, 2)``, ``-1`` when it is a
    cyclic rotation of ``(2, 1, 0)``, and ``0`` otherwise.  Equivalently it
    is the trace of ``x1^a x2^b x3^c`` in the integral cohomology of the
    full flag variety of C^3 (the tests recompute it that way).
    """
    if min(a, b, c) < 0:
        raise ValueError("dot counts must be nonnegative")
    t = (a, b, c)
    if t in _CYCLIC:
        return 1
    if t in _ANTICYCLIC:
        return -1
    return 0


# --------------------------------------------------------------------------
# Equality of value types
# --------------------------------------------------------------------------


def _same_type_eq(self: tuple, other: object) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


#: ``__eq__``, ``__ne__`` and ``__hash__`` of the package's ``NamedTuple``
#: value types, assigned in each class body.  A value equals only a value
#: of its own type, where a plain ``NamedTuple`` equals any tuple with the
#: same entries (``Death(-1) == Dot(-1)``).  ``object.__ne__`` negates that
#: ``__eq__``, where ``tuple.__ne__`` would ignore it.  Equal values hash
#: alike, by the tuple hash of their fields.
VALUE_EQUALITY = (_same_type_eq, object.__ne__, tuple.__hash__)


# --------------------------------------------------------------------------
# Sparse integer row reduction
# --------------------------------------------------------------------------


def row_reduce(
    rows: List[Dict[int, int]], *tracked: List[Dict[int, int]]
) -> List[Tuple[int, int]]:
    """Reduce the integer matrix whose rows are ``rows`` (each its
    nonzero entries ``{column: value}``, changed in place) by row
    operations only, and return the ``(row, column)`` of each pivot.

    Each step pivots on the entry of smallest size in the rows not yet
    pivoted.  Euclid steps clear the pivot's column in those rows, down
    to their gcd; then the pivot's column is reduced by floor division
    in every other row, which clears it exactly for a unit pivot.  Every
    row operation is also applied to each list in ``tracked``.  When the
    steps run out, every row left without a pivot is empty: the pivots
    count the rank, and each pivot row is zero in the columns of the
    pivots before it, so ``rows`` is triangular in pivot order."""
    parts = (rows,) + tracked

    def add_multiple(target: int, source: int, factor: int) -> None:
        # row ``target`` += factor * row ``source``, in every part
        for part in parts:
            into = part[target]
            for c, x in part[source].items():
                v = into.get(c, 0) + factor * x
                if v:
                    into[c] = v
                else:
                    del into[c]

    open_rows = list(range(len(rows)))
    pivots: List[Tuple[int, int]] = []
    while open_rows:
        best = None
        for r in open_rows:
            for c, x in rows[r].items():
                if best is None or abs(x) < best[0]:
                    best = (abs(x), r, c)
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, r, c = best
        while True:
            others = [s for s in open_rows if s != r and c in rows[s]]
            if not others:
                break
            for s in others:
                add_multiple(s, r, -(rows[s][c] // rows[r][c]))
            held = [s for s in others if c in rows[s]]
            if held:
                r = min(held, key=lambda s: abs(rows[s][c]))
        open_rows.remove(r)
        pivots.append((r, c))
        pivot = rows[r][c]
        for s, row in enumerate(rows):
            f = row.get(c, 0) // pivot
            if f and s != r:
                add_multiple(s, r, -f)
    return pivots
