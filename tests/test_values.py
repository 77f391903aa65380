"""Value types compare by type as well as by fields.

The package's small value types are ``NamedTuple`` classes that take
``__eq__``, ``__ne__`` and ``__hash__`` from ``algebra.VALUE_EQUALITY``.
A plain ``NamedTuple`` would equal any tuple with the same entries, so
``Death(-1) == Dot(-1)`` would hold and a ``Death`` key would find a
``Dot`` entry of ``memo.INDUCED``; and ``tuple.__ne__`` would ignore an
overridden ``__eq__``.  Moves are compared by the ``inverse_move``
self-check of ``resolution_edge_movie``, and reduction sites by the
tests of ``find_reduction``.
"""

import itertools

import pytest

from artifact.cube import BigradedHomology, InvarianceReport
from artifact.diagram import parse_pd
from artifact.foam import Birth, Death, Dot, Unzip, Zip
from artifact.selftest import SelfTestReport
from artifact.web import DigonFace, Empty, FreeLoop, SquareFace

MOVE_TYPES = (Birth, Death, Dot, Zip, Unzip)
REDUCTION_TYPES = (Empty, FreeLoop, DigonFace, SquareFace)


def _same_shape_pairs(types):
    """The pairs of distinct types whose values can hold equal field
    tuples: those with as many fields."""
    return [
        (a, b)
        for a, b in itertools.combinations(types, 2)
        if len(a._fields) == len(b._fields)
    ]


SAME_SHAPE = _same_shape_pairs(MOVE_TYPES) + _same_shape_pairs(REDUCTION_TYPES)


def test_the_same_shape_pairs_are_the_expected_ones():
    assert [(a.__name__, b.__name__) for a, b in SAME_SHAPE] == [
        ("Birth", "Unzip"),
        ("Death", "Dot"),
        ("FreeLoop", "DigonFace"),
        ("FreeLoop", "SquareFace"),
        ("DigonFace", "SquareFace"),
    ]


@pytest.mark.parametrize("first, second", SAME_SHAPE, ids=lambda t: t.__name__)
def test_values_of_distinct_types_with_equal_fields_differ(first, second):
    fields = tuple(range(-1, len(first._fields) - 1))
    a, b = first._make(fields), second._make(fields)
    assert tuple(a) == tuple(b)
    assert not a == b and not b == a
    assert a != b and b != a
    assert len({a: 1, b: 2}) == 2


@pytest.mark.parametrize(
    "value",
    [
        Birth(-3, (2, 5), True),
        Death(-1),
        Dot(4),
        Zip(1, 2, (3, 4), (5, 6, 7, 8, 9, 10)),
        Unzip(3, -1),
        Empty(),
        FreeLoop(-2),
        DigonFace(3),
        SquareFace(7),
        parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"),
        BigradedHomology(((0, 2, 1, ()),)),
        InvarianceReport(True, ()),
        SelfTestReport(3, ()),
    ],
    ids=lambda value: type(value).__name__,
)
def test_a_value_equals_its_copy_and_not_its_field_tuple(value):
    # ``Empty() != ()`` and a diagram against its plain fields among them
    plain = tuple(value)
    copy = type(value)._make(plain)
    assert value == copy and not value != copy
    assert hash(value) == hash(copy)
    assert {value: 1}[copy] == 1
    assert not value == plain and not plain == value
    assert value != plain and plain != value
    assert len({value: 1, plain: 2}) == 2

