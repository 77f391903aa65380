"""Exact integer algebra shared by every other module.

Contents
--------
``LaurentPoly``
    Immutable Laurent polynomials in one variable ``q`` with ``int``
    coefficients.  This is the value ring of the graph bracket and the
    home of graded dimensions.
``quantum_integer``
    The symmetric q-integer ``[n] = q^(n-1) + q^(n-3) + ... + q^(1-n)``.
``FrobeniusElement`` with ``*`` / ``comultiply`` / ``trace``
    The rank-3 graded Frobenius algebra ``Z[X]/(X^3)`` with counit
    ``trace(X^2) = -1``, ``trace(1) = trace(X) = 0``.  A dot on a surface
    sheet acts as multiplication by ``X``; the basis element ``X^i`` is
    graded in degree ``2*i - 2``.
``theta_symbol``
    Evaluation of the closed surface made of three disk sheets glued along
    one common circle, carrying ``a``, ``b``, ``c`` dots on the sheets in
    cyclic order.
``closed_surface_value``
    Evaluation of a closed connected orientable dotted surface of a given
    genus via the handle operator of the Frobenius algebra.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

from typing import Iterable, Mapping

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

    # -- inspection --------------------------------------------------------

    def coefficient(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def items(self) -> tuple[tuple[int, int], ...]:
        """Terms as ``(exponent, coefficient)`` pairs, ascending exponent."""
        return tuple(sorted(self._coeffs.items()))

    def is_zero(self) -> bool:
        return not self._coeffs

    def mirror(self) -> "LaurentPoly":
        """The image under ``q -> q**-1`` (all exponents negated)."""
        return LaurentPoly({-e: c for e, c in self._coeffs.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiplication by ``q**k``."""
        if not isinstance(k, int):
            raise TypeError("shift amount must be an int")
        return LaurentPoly({e + k: c for e, c in self._coeffs.items()})

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


# --------------------------------------------------------------------------
# The rank-3 Frobenius algebra Z[X]/(X^3)
# --------------------------------------------------------------------------


class FrobeniusElement:
    """An element ``c0 + c1*X + c2*X^2`` of ``Z[X]/(X^3)``.

    The grading puts ``X^i`` in degree ``2*i - 2``; the counit (``trace``)
    sends ``X^2`` to ``-1`` and ``1, X`` to ``0``.
    """

    __slots__ = ("_c",)

    def __init__(self, c0: int = 0, c1: int = 0, c2: int = 0) -> None:
        for c in (c0, c1, c2):
            if not isinstance(c, int):
                raise TypeError("coefficients must be ints")
        self._c = (c0, c1, c2)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "FrobeniusElement":
        return cls()

    @classmethod
    def one(cls) -> "FrobeniusElement":
        return cls(1, 0, 0)

    @classmethod
    def basis(cls, i: int) -> "FrobeniusElement":
        """``X**i``, which is zero for ``i >= 3``."""
        if not isinstance(i, int) or i < 0:
            raise ValueError("basis exponent must be a nonnegative int")
        if i >= 3:
            return cls()
        coeffs = [0, 0, 0]
        coeffs[i] = 1
        return cls(*coeffs)

    # -- inspection --------------------------------------------------------

    @property
    def coefficients(self) -> tuple[int, int, int]:
        return self._c

    def is_zero(self) -> bool:
        return self._c == (0, 0, 0)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "FrobeniusElement") -> "FrobeniusElement":
        if not isinstance(other, FrobeniusElement):
            return NotImplemented
        a, b = self._c, other._c
        return FrobeniusElement(a[0] + b[0], a[1] + b[1], a[2] + b[2])

    def __sub__(self, other: "FrobeniusElement") -> "FrobeniusElement":
        if not isinstance(other, FrobeniusElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "FrobeniusElement":
        a = self._c
        return FrobeniusElement(-a[0], -a[1], -a[2])

    def __mul__(self, other: "FrobeniusElement | int") -> "FrobeniusElement":
        if isinstance(other, int):
            a = self._c
            return FrobeniusElement(a[0] * other, a[1] * other, a[2] * other)
        if not isinstance(other, FrobeniusElement):
            return NotImplemented
        a, b = self._c, other._c
        out = [0, 0, 0]
        for i in range(3):
            for j in range(3):
                if i + j < 3:
                    out[i + j] += a[i] * b[j]
        return FrobeniusElement(*out)

    def __rmul__(self, other: int) -> "FrobeniusElement":
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrobeniusElement):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(self._c)

    def __repr__(self) -> str:
        return f"FrobeniusElement{self._c!r}"


def trace(a: FrobeniusElement) -> int:
    """The counit: coefficient of ``X^2``, negated."""
    return -a.coefficients[2]


def comultiply(a: FrobeniusElement) -> dict[tuple[int, int], int]:
    """Coproduct as a tensor written in the basis ``X^i (x) X^j``.

    Returns a mapping ``(i, j) -> coefficient`` with zero entries omitted.
    On basis elements:

    * ``1   -> -(1 (x) X^2) - (X (x) X) - (X^2 (x) 1)``
    * ``X   -> -(X (x) X^2) - (X^2 (x) X)``
    * ``X^2 -> -(X^2 (x) X^2)``

    This is the unique coproduct dual to the product under ``trace``:
    it satisfies ``comultiply(a*b) = (a (x) 1) . comultiply(b)``.
    """
    out: dict[tuple[int, int], int] = {}
    for k, ck in enumerate(a.coefficients):
        if not ck:
            continue
        # Coproduct of X^k: -sum of X^(k+i) (x) X^(2-i) over i with k+i <= 2.
        for i in range(0, 3 - k):
            key = (k + i, 2 - i)
            s = out.get(key, 0) - ck
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def handle_operator(a: FrobeniusElement) -> FrobeniusElement:
    """Multiplication composed with comultiplication (adds one handle).

    ``1 -> -3*X^2``, ``X -> 0``, ``X^2 -> 0``.
    """
    out = FrobeniusElement.zero()
    for (i, j), c in comultiply(a).items():
        out = out + c * (FrobeniusElement.basis(i) * FrobeniusElement.basis(j))
    return out


def closed_surface_value(genus: int, dots: int) -> int:
    """Exact value of a closed connected orientable surface with dots.

    Computed as ``trace(handle_operator**genus (X**dots))``.  The only
    nonzero values are the twice-dotted sphere (``-1``) and the undotted
    torus (``3``); genus at least two always gives ``0``.
    """
    if genus < 0 or dots < 0:
        raise ValueError("genus and dot count must be nonnegative")
    a = FrobeniusElement.basis(dots) if dots < 3 else FrobeniusElement.zero()
    for _ in range(genus):
        if a.is_zero():
            break
        a = handle_operator(a)
    return trace(a)


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
