"""Exact arithmetic over the rationals extended by formal transcendental symbols.

A :class:`SymbolContext` declares a fixed tuple of symbols that are treated as
algebraically independent over Q.  An :class:`ExtScalar` is a polynomial in
those symbols with Fraction coefficients; equality is coefficient-wise, so
rationality questions reduce to linear algebra on coefficient vectors
(see :func:`rational_slices`).

Every operation returns a Fraction when no monomial of its result carries a
symbol (see :func:`_value`), so symbol-free values are Fractions throughout;
:meth:`ExtScalar.lift` is the one way to view a Fraction as an ExtScalar.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

Rational = Fraction


class ContextMismatchError(ValueError):
    """Raised when scalars from different symbol contexts are combined."""


class UnboundSymbolError(KeyError):
    """Raised when evaluating a scalar with an incomplete assignment."""

    __str__ = Exception.__str__  # the message itself, not KeyError's repr of it


def rat_str(q: Fraction) -> str:
    return "%d/%d" % (q.numerator, q.denominator)


def parse_rat(s: str, what: str = "rational") -> Fraction:
    """The rational the text ``s`` denotes; ValueError, naming ``what``, for a
    value that is not a string (a float is not exact) or text that is no
    rational, "1/0" included."""
    if type(s) is not str:
        raise ValueError("%s must be a string such as \"p/q\", got %r" % (what, s))
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError("%s %r has a zero denominator" % (what, s)) from None


class SymbolContext:
    """Ordered table of formal transcendental symbols, shared per system."""

    def __init__(self, names: Iterable[str] = ()):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate symbol names: %r" % (self.names,))

    def __eq__(self, other):
        return isinstance(other, SymbolContext) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "SymbolContext%r" % (self.names,)

    @property
    def nsymbols(self) -> int:
        return len(self.names)

    def symbol(self, name: str) -> "ExtScalar":
        i = self.names.index(name)
        expo = tuple(1 if j == i else 0 for j in range(len(self.names)))
        return ExtScalar(self, {expo: Fraction(1)})

    def symbols(self) -> tuple["ExtScalar", ...]:
        return tuple(self.symbol(n) for n in self.names)

    def zero_expo(self) -> tuple[int, ...]:
        return (0,) * len(self.names)

    def constant(self, q) -> Fraction:
        """A rational constant: symbol-free, so a Fraction in every context."""
        return Fraction(q)


# Context used when a plain Fraction is lifted and no richer context is around.
EMPTY_CONTEXT = SymbolContext(())


def _common_context(a: SymbolContext, b: SymbolContext) -> SymbolContext:
    if a == b:
        return a
    if a.nsymbols == 0:
        return b
    if b.nsymbols == 0:
        return a
    raise ContextMismatchError("mixed symbol tables: %r vs %r" % (a, b))


class ExtScalar:
    """Element of Q[t_1, ..., t_r]: finite map from exponent vectors to Fractions.

    Immutable; no zero coefficients are stored.
    """

    __slots__ = ("context", "terms")

    def __init__(self, context: SymbolContext, terms: Mapping[tuple, Fraction]):
        self.context = context
        self.terms = {e: c for e, c in terms.items() if c != 0}

    # -- constructors -------------------------------------------------

    @staticmethod
    def lift(x, context: SymbolContext | None = None) -> "ExtScalar":
        """``x`` as an ExtScalar over ``context``, rational values included."""
        if isinstance(x, ExtScalar):
            if context is not None and context != x.context:
                if x.context.nsymbols == 0:
                    return ExtScalar(context, {context.zero_expo(): c for c in x.terms.values()})
                raise ContextMismatchError("cannot relift %r into %r" % (x, context))
            return x
        ctx = context if context is not None else EMPTY_CONTEXT
        return ExtScalar(ctx, {ctx.zero_expo(): Fraction(x)})

    # -- queries ------------------------------------------------------

    def is_rational(self) -> bool:
        return all(all(e == 0 for e in expo) for expo in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get(self.context.zero_expo(), Fraction(0))

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("scalar %r is not rational" % (self,))
        return self.constant_term()

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ExtScalar):
            ctx = _common_context(self.context, other.context)
            return ExtScalar.lift(self, ctx), ExtScalar.lift(other, ctx)
        if isinstance(other, (int, Fraction)):
            return self, ExtScalar.lift(other, self.context)
        return self, None

    def __add__(self, other):
        a, b = self._coerce(other)
        if b is None:
            return NotImplemented
        terms = dict(a.terms)
        for e, c in b.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return _value(a.context, terms)

    __radd__ = __add__

    def __neg__(self):
        return _value(self.context, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        a, b = self._coerce(other)
        if b is None:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._coerce(other)
        if b is None:
            return NotImplemented
        terms: dict[tuple, Fraction] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return _value(a.context, terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # division by a nonzero rational only; ExtScalar is a ring, not a field
        if isinstance(other, ExtScalar):
            if not other.is_rational():
                raise TypeError("division by a non-rational scalar is not defined")
            other = other.as_rational()
        q = Fraction(other)
        if q == 0:
            raise ZeroDivisionError("division by zero")
        return self * Fraction(q.denominator, q.numerator)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = Fraction(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        try:
            a, b = self._coerce(other)
        except ContextMismatchError:
            return False
        return NotImplemented if b is None else a.terms == b.terms

    def __hash__(self):
        # a rational scalar equals the Fraction of its value, so it hashes alike
        if self.is_rational():
            return hash(self.constant_term())
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms):
            c = self.terms[expo]
            mono = "*".join(
                "%s^%d" % (n, e) if e > 1 else n
                for n, e in zip(self.context.names, expo)
                if e
            )
            parts.append("%s%s" % (c, "*" + mono if mono else ""))
        return " + ".join(parts)

    # -- numerics -----------------------------------------------------

    def evaluate(self, values: Mapping[str, float]) -> float:
        """Evaluate at a numeric assignment of every symbol."""
        point = []
        for name in self.context.names:
            if name not in values:
                raise UnboundSymbolError("unbound symbol %r" % name)
            point.append(float(values[name]))
        out = 0.0
        for expo, c in self.terms.items():
            term = float(c)
            for v, e in zip(point, expo):
                if e:
                    term *= v**e
            out += term
        return out

    # -- serialization ------------------------------------------------

    def to_records(self) -> list[dict]:
        recs = []
        for expo in sorted(self.terms):
            recs.append({"monomial": list(expo), "coeff": rat_str(self.terms[expo])})
        return recs

    @staticmethod
    def from_records(context: SymbolContext, recs: list[dict]) -> "ExtScalar":
        terms = {}
        for r in recs:
            expo = tuple(r["monomial"])
            if any(type(e) is not int or e < 0 for e in expo):
                raise ValueError("monomial exponents must be nonnegative integers, got %r"
                                 % (r["monomial"],))
            if len(expo) != context.nsymbols:
                raise ValueError("monomial arity %d != %d symbols" % (len(expo), context.nsymbols))
            terms[expo] = terms.get(expo, Fraction(0)) + parse_rat(r["coeff"], "coefficient")
        return _value(context, terms)


def _value(context: SymbolContext, terms: Mapping[tuple, Fraction]):
    """The scalar with these terms: a Fraction when no monomial carries a
    symbol, an ExtScalar otherwise."""
    x = ExtScalar(context, terms)
    if any(any(expo) for expo in x.terms):
        return x
    return next(iter(x.terms.values()), Fraction(0))


def scalar_context(v) -> SymbolContext:
    """Common symbol context of a vector of scalars."""
    ctx = EMPTY_CONTEXT
    for x in v:
        if isinstance(x, ExtScalar):
            ctx = _common_context(ctx, x.context)
    return ctx


def rational_slices(v, context: SymbolContext | None = None) -> list[list[Fraction]]:
    """Monomial-wise slices of a vector of scalars.

    For each monomial appearing in any coordinate the vector of its Fraction
    coefficients is returned.  The Q-span of the output is the smallest
    Q-defined subspace containing v (symbols being independent over Q).
    """
    if context is None:
        context = scalar_context(v)
    lifted = [ExtScalar.lift(x, context) for x in v]
    monos = sorted({e for x in lifted for e in x.terms})
    out = []
    for e in monos:
        out.append([x.terms.get(e, Fraction(0)) for x in lifted])
    return out


def evaluate_scalar(x, values: Mapping[str, float]) -> float:
    if isinstance(x, ExtScalar):
        return x.evaluate(values)
    return float(x)


def floor_scalar(x) -> int:
    """Integer floor of a rational or numeric scalar (symbolic input rejected)."""
    if isinstance(x, ExtScalar):
        return math.floor(x.as_rational())
    return math.floor(x)


def substitute_rational(x, values: Mapping[str, Fraction]):
    """Exact substitution of rational values for a subset of the symbols.

    Returns a Fraction when no monomial keeps a symbol, otherwise an
    ExtScalar over the surviving symbols.
    """
    if not isinstance(x, ExtScalar):
        return Fraction(x)
    ctx = x.context
    terms: dict = {}
    for expo, c in x.terms.items():
        coeff = c
        new_expo = []
        for name, e in zip(ctx.names, expo):
            if name in values:
                coeff *= Fraction(values[name]) ** e
            else:
                new_expo.append(e)
        key = tuple(new_expo)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return _value(SymbolContext(n for n in ctx.names if n not in values), terms)
