from fractions import Fraction

import pytest
from hypothesis import given, strategies as hst

from nillab.scalars import (
    ContextMismatchError,
    ExtScalar,
    SymbolContext,
    UnboundSymbolError,
    evaluate_scalar,
    floor_scalar,
    parse_rat,
    rat_str,
    rational_slices,
    substitute_rational,
)

CTX = SymbolContext(("a", "b"))

rationals = hst.fractions(min_value=-1000, max_value=1000, max_denominator=50)


def scalars(ctx=CTX):
    expos = hst.tuples(hst.integers(0, 3), hst.integers(0, 3))
    return hst.dictionaries(expos, rationals, max_size=4).map(
        lambda terms: ExtScalar(ctx, {k: v for k, v in terms.items() if v})
    )


def test_rat_str_round_trip():
    for q in [Fraction(0), Fraction(3, 7), Fraction(-22, 4)]:
        assert parse_rat(rat_str(q)) == q


@pytest.mark.parametrize("monomial", [[1.5, 0], [-1, 0], [True, 0], ["1", 0]])
def test_records_refuse_non_polynomial_exponents(monomial):
    with pytest.raises(ValueError, match="nonnegative integers"):
        ExtScalar.from_records(CTX, [{"monomial": monomial, "coeff": "1"}])


def test_symbol_arithmetic():
    a, b = CTX.symbols()
    x = (a + b) * (a - b)
    y = a * a - b * b
    assert x == y
    assert not x.is_rational()
    assert isinstance(x - y, Fraction)
    assert x - y == 0


def test_constant_and_rational_detection():
    c = CTX.constant(Fraction(5, 3))
    assert isinstance(c, Fraction) and c == Fraction(5, 3)
    lifted = ExtScalar.lift(c, CTX)
    assert lifted.is_rational()
    assert lifted.as_rational() == Fraction(5, 3)
    a = CTX.symbol("a")
    with pytest.raises(ValueError):
        (a + c).as_rational()


def test_rational_scalar_hashes_like_its_fraction():
    half = Fraction(1, 2)
    lifted = [ExtScalar.lift(half), ExtScalar.lift(half, CTX)]
    assert len({*lifted, half}) == 1
    assert {half: "x"}[lifted[0]] == "x"
    assert {lifted[1]: "y"}[half] == "y"
    assert len({ExtScalar.lift(3), 3}) == 1
    assert len({ExtScalar.lift(0, CTX), Fraction(0)}) == 1


def test_division_by_rational_only():
    a = CTX.symbol("a")
    assert (a / 2) * 2 == a
    with pytest.raises(TypeError):
        a / a


def test_context_mismatch_rejected():
    other = SymbolContext(("t",))
    with pytest.raises(ContextMismatchError):
        CTX.symbol("a") + other.symbol("t")


def test_unbound_symbol_in_evaluate():
    a = CTX.symbol("a")
    with pytest.raises(UnboundSymbolError):
        a.evaluate({"b": 1.0})


@given(scalars(), scalars(), scalars())
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(scalars(), scalars())
def test_evaluate_is_homomorphism(x, y):
    asg = {"a": 0.37, "b": -1.21}
    assert abs(evaluate_scalar(x + y, asg) - (x.evaluate(asg) + y.evaluate(asg))) <= 1e-9
    assert abs(evaluate_scalar(x * y, asg) - (x.evaluate(asg) * y.evaluate(asg))) <= 1e-6


@given(scalars())
def test_records_round_trip(x):
    assert ExtScalar.from_records(CTX, x.to_records()) == x


def _exact_type(x):
    """Fraction when no monomial of x carries a symbol, ExtScalar otherwise."""
    symbolic = isinstance(x, ExtScalar) and any(any(expo) for expo in x.terms)
    return ExtScalar if symbolic else Fraction


@given(scalars(), scalars(), rationals.filter(bool))
def test_symbol_free_results_are_fractions(x, y, q):
    results = [
        x + y, x - y, x * y, -x, x - x, x / q, x ** 2, x + q, q - x, q * x,
        ExtScalar.from_records(CTX, x.to_records()),
        substitute_rational(x, {"b": q}),
        substitute_rational(x, {"a": q, "b": q}),
    ]
    for r in results:
        assert type(r) is _exact_type(r)


def test_rational_slices_span_input():
    a, b = CTX.symbols()
    v = [a + 1, b * 2, CTX.constant(3)]
    slices = rational_slices(v)
    # evaluating v at any assignment lands in the span of the slices
    import numpy as np

    S = np.array([[float(c) for c in s] for s in slices])
    for asg in [{"a": 0.1, "b": 0.9}, {"a": -2.0, "b": 0.3}, {"a": 1.7, "b": 1.7}]:
        target = np.array([evaluate_scalar(t, asg) for t in v])
        coef, res, _, _ = np.linalg.lstsq(S.T, target, rcond=None)
        assert np.max(np.abs(S.T @ coef - target)) <= 1e-9


def test_rational_slices_of_plain_rationals():
    assert rational_slices([Fraction(1, 2), Fraction(3)]) == [
        [Fraction(1, 2), Fraction(3)]
    ]


def test_substitute_rational_full_and_partial():
    a, b = CTX.symbols()
    x = a * b + a * 2 + 5
    full = substitute_rational(x, {"a": Fraction(1, 2), "b": Fraction(3)})
    assert full == Fraction(3, 2) + 1 + 5
    part = substitute_rational(x, {"b": Fraction(3)})
    assert isinstance(part, ExtScalar)
    assert part.context.names == ("a",)
    assert substitute_rational(part, {"a": Fraction(1, 2)}) == full


def test_floor_scalar():
    assert floor_scalar(Fraction(7, 2)) == 3
    assert floor_scalar(-0.5) == -1
    assert floor_scalar(ExtScalar.lift(Fraction(-1, 2))) == -1
    with pytest.raises(ValueError):
        floor_scalar(CTX.symbol("a"))
