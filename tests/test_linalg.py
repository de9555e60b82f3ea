from fractions import Fraction

import pytest
from hypothesis import given, strategies as hst

from nillab import linalg
from nillab.scalars import ExtScalar, SymbolContext

CTX = SymbolContext(("t",))

frac_vecs = hst.lists(
    hst.lists(hst.fractions(min_value=-20, max_value=20, max_denominator=10), min_size=4, max_size=4),
    min_size=1,
    max_size=5,
)


def test_echelon_basic():
    rows = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(3)]]
    ech = linalg.echelon(rows)
    assert ech == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_echelon_deterministic_and_reduced():
    t = CTX.symbol("t")
    rows = [[t, CTX.constant(1)], [CTX.constant(1), t]]
    e1 = linalg.echelon([list(r) for r in rows])
    e2 = linalg.echelon([list(r) for r in reversed(rows)])
    # the same span, but not the same rows: division-free elimination leaves
    # polynomial multiples ([t - t^3, 0] against [1 - t^2, 0]) that depend on row order
    assert all(linalg.in_span(a, v) for a, b in ((e1, e2), (e2, e1)) for v in b)
    assert linalg.echelon([list(r) for r in rows]) == e1
    # pivot entries normalized: lex-smallest monomial of each pivot has coeff 1
    piv = linalg.pivot_columns(e1)
    assert piv == [0, 1]


@given(frac_vecs)
def test_echelon_preserves_span(rows):
    ech = linalg.echelon([list(r) for r in rows])
    for r in rows:
        assert linalg.in_span(ech, r)
    # adjoining the echelon rows back does not grow the span, and the result
    # is the same echelon basis (determinism + span equality in one check)
    assert linalg.echelon([list(r) for r in rows] + [list(r) for r in ech]) == ech


@given(frac_vecs)
def test_reduce_vector_lands_outside_pivots(rows):
    ech = linalg.echelon([list(r) for r in rows])
    piv = linalg.pivot_columns(ech)
    v = [Fraction(3), Fraction(-1), Fraction(0), Fraction(7)]
    red = linalg.reduce_vector(ech, v)
    for p in piv:
        assert linalg.is_zero_scalar(red[p])
    diff = [a - b for a, b in zip(v, red)]
    assert linalg.in_span(ech, diff)


def test_nullspace_exact():
    rows = [[Fraction(1), Fraction(2), Fraction(0)]]
    ns = linalg.nullspace(rows)
    assert len(ns) == 2
    for v in ns:
        assert sum(r * x for r, x in zip(rows[0], v)) == 0


def test_nullspace_trivial():
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert linalg.nullspace(rows) == []


def test_primitive_integer_vector():
    v = [Fraction(1, 2), Fraction(-3, 4), Fraction(0)]
    assert linalg.primitive_integer_vector(v) == [2, -3, 0]
    assert linalg.primitive_integer_vector([Fraction(4), Fraction(6)]) == [2, 3]


def test_symbolic_spans():
    t = CTX.symbol("t")
    one = CTX.constant(1)
    rows = [[one, t]]
    assert linalg.in_span(rows, [t, t * t])
    assert not linalg.in_span(rows, [one, one])
    assert len(linalg.echelon([[one, t], [t, t * t]])) == 1


def test_symbol_free_entries_are_fractions():
    t = CTX.symbol("t")
    ech = linalg.echelon([[1, t], [2, 2 * t + 3]])  # t cancels from both rows
    assert ech == [[1, 0], [0, 1]]
    assert all(type(x) is Fraction for row in ech for x in row)
    rem = linalg.reduce_vector(linalg.echelon([[1, t]]), [t, t * t])
    assert rem == [0, 0] and all(type(x) is Fraction for x in rem)
    ns = linalg.nullspace([[Fraction(1), t]])
    assert ns == [[t, -1]]
    assert isinstance(ns[0][0], ExtScalar) and type(ns[0][1]) is Fraction
