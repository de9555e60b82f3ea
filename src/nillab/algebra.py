"""Nilpotent Lie algebras by rational structure constants, with ideal algorithms.

Algebra elements are plain lists of length ``dim`` whose entries are Fractions
or :class:`~nillab.scalars.ExtScalar` values; all computations here are exact.
Numeric points only meet the algebra through the compiled group law of
:mod:`nillab.group`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import linalg
from .scalars import ExtScalar, rational_slices


class AlgebraValidationError(ValueError):
    pass


_ZERO, _ONE = Fraction(0), Fraction(1)


def zero_vector(m: int) -> list:
    return [_ZERO] * m


def vec_add(x: list, y: list) -> list:
    return [a + b for a, b in zip(x, y)]


def vec_scale(c, x: list) -> list:
    return [c * a for a in x]


def vec_is_zero(x: list) -> bool:
    return all(linalg.is_zero_scalar(a) for a in x)


class NilLieAlgebra:
    """Nilpotent Lie algebra in a Mal'cev-adapted basis.

    ``brackets`` maps a pair ``(i, j)`` with ``i < j`` (0-based) to a dict
    ``{k: Fraction}`` giving ``[xi_i, xi_j] = sum_k c * xi_k``.  Unlisted pairs
    bracket to zero.  Adaptedness requires ``k > max(i, j)``.
    """

    def __init__(self, dim: int, step: int | None, brackets: dict[tuple[int, int], dict[int, Fraction]]):
        self.dim = dim
        self.step = step
        self.brackets = {
            ij: {k: Fraction(c) for k, c in cs.items() if c != 0}
            for ij, cs in brackets.items()
        }
        self.brackets = {ij: cs for ij, cs in self.brackets.items() if cs}
        #: Canonical text of the structure constants: equal keys, equal algebras.
        self.key = repr((dim, sorted((ij, sorted(cs.items())) for ij, cs in self.brackets.items())))
        self.validate()

    @classmethod
    def from_brackets(cls, dim: int, brackets: dict[tuple[int, int], dict[int, Fraction]]) -> "NilLieAlgebra":
        """Construct with the nilpotency step inferred from the structure constants."""
        return cls(dim, None, brackets)

    # -- basic structure ----------------------------------------------

    def basis_vector(self, i: int) -> list:
        v = zero_vector(self.dim)
        v[i] = _ONE
        return v

    def basis(self) -> list[list]:
        return [self.basis_vector(i) for i in range(self.dim)]

    def bracket(self, x: list, y: list) -> list:
        """[x, y] from the structure constants.  A pair (i, j) contributes
        x_i y_j - x_j y_i; a product with a zero factor is skipped unformed."""
        res = zero_vector(self.dim)
        for (i, j), cs in self.brackets.items():
            xi, yj, xj, yi = x[i], y[j], x[j], y[i]
            if xi and yj:
                t = xi * yj - xj * yi if xj and yi else xi * yj
            elif xj and yi:
                t = -(xj * yi)
            else:
                continue
            if not t:
                continue
            for k, c in cs.items():
                res[k] = res[k] + c * t
        return res

    # -- validation ---------------------------------------------------

    def validate(self) -> None:
        m = self.dim
        for (i, j), cs in self.brackets.items():
            if not (0 <= i < j < m):
                raise AlgebraValidationError("bracket pair out of order: %r" % ((i, j),))
            for k in cs:
                if k >= m:
                    raise AlgebraValidationError(
                        "[xi_%d, xi_%d] has component on xi_%d, beyond dimension %d" % (i, j, k, m)
                    )
                if k <= max(i, j):
                    raise AlgebraValidationError(
                        "not Mal'cev-adapted: [xi_%d, xi_%d] has component on xi_%d" % (i, j, k)
                    )
        # Jacobi identity, exact, on the structure constants c_ab^n (both
        # orders): the xi_n part of [[xi_a, xi_b], xi_c] is sum_l c_ab^l c_lc^n,
        # and its three cyclic terms must cancel
        table = dict(self.brackets)
        for (i, j), cs in self.brackets.items():
            table[j, i] = {k: -c for k, c in cs.items()}
        for i in range(m):
            for j in range(i + 1, m):
                for k in range(j + 1, m):
                    s: dict[int, Fraction] = {}  # n -> the xi_n part of the sum
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for l, x in table.get((a, b), {}).items():
                            for n, y in table.get((l, c), {}).items():
                                s[n] = s.get(n, 0) + x * y
                    if any(s.values()):
                        raise AlgebraValidationError(
                            "Jacobi identity fails on basis triple (%d, %d, %d)" % (i, j, k)
                        )
        length = len(lower_central_series(self)) - 1
        if self.step is None:
            self.step = length
        elif length != self.step:
            raise AlgebraValidationError(
                "declared step %d but lower central series has length %d" % (self.step, length)
            )

    def __repr__(self):
        return "NilLieAlgebra(dim=%d, step=%d)" % (self.dim, self.step)


class RationalIdeal:
    """Subspace of a nilpotent Lie algebra, held by its echelon basis.

    The basis is :func:`~nillab.linalg.echelon` of the given vectors: over Q
    the reduced echelon form, over Q(t) fixed by the vectors' order but not
    canonical, so compare ideals with :meth:`equals`, never ``==`` on bases.
    Despite the name, instances may represent plain subspaces: ``is_ideal``
    (closed under bracketing with the whole algebra) and ``is_rational``
    (spanned by rational vectors) are computed on first read.
    """

    def __init__(self, parent: NilLieAlgebra, vectors: list[list]):
        self.parent = parent
        self.basis = linalg.echelon([list(v) for v in vectors])

    @cached_property
    def is_rational(self) -> bool:
        return not any(isinstance(x, ExtScalar) for row in self.basis for x in row)

    @cached_property
    def is_ideal(self) -> bool:
        alg = self.parent
        return all(self.contains(alg.bracket(row, e)) for row in self.basis for e in alg.basis())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: list) -> bool:
        return linalg.in_span(self.basis, v)

    def contains_ideal(self, other: "RationalIdeal") -> bool:
        return all(self.contains(v) for v in other.basis)

    def equals(self, other: "RationalIdeal") -> bool:
        return self.contains_ideal(other) and other.contains_ideal(self)

    def pivot_columns(self) -> list[int]:
        return linalg.pivot_columns(self.basis)

    def __repr__(self):
        return "RationalIdeal(dim=%d, rational=%s, ideal=%s)" % (
            self.dim,
            self.is_rational,
            self.is_ideal,
        )


def span(parent: NilLieAlgebra, vectors: list[list]) -> RationalIdeal:
    return RationalIdeal(parent, vectors)


def full_algebra(parent: NilLieAlgebra) -> RationalIdeal:
    return RationalIdeal(parent, parent.basis())


def _bracket_span(alg: NilLieAlgebra, rows_a: list[list], rows_b: list[list]) -> list[list]:
    return [alg.bracket(a, b) for a in rows_a for b in rows_b]


def _closure(alg: NilLieAlgebra, rows: list[list], against: list[list] | None) -> list[list]:
    """Echelon basis of the least subspace containing ``rows`` and closed under
    brackets with ``against`` (with itself when ``against`` is None)."""
    closed = linalg.echelon([list(v) for v in rows])
    while True:
        others = closed if against is None else against
        grown = linalg.echelon(closed + _bracket_span(alg, closed, others))
        if len(grown) == len(closed):
            return grown
        closed = grown


def lower_central_series(L) -> list[RationalIdeal]:
    """Series [L_1 = L, L_2, ...] with L_{l+1} = [L_l, L], ending in the zero space.

    Accepts a NilLieAlgebra (meaning its full algebra) or a RationalIdeal.
    """
    if isinstance(L, NilLieAlgebra):
        L = full_algebra(L)
    series = [L]
    while series[-1].dim:
        nxt = RationalIdeal(L.parent, _bracket_span(L.parent, series[-1].basis, L.basis))
        if nxt.dim >= series[-1].dim:
            raise AlgebraValidationError("lower central series does not decrease; not nilpotent")
        series.append(nxt)
    return series


def smallest_ideal_containing(alg: NilLieAlgebra, vectors: list[list]) -> RationalIdeal:
    """Least subspace containing the vectors and closed under bracket with the algebra."""
    return RationalIdeal(alg, _closure(alg, vectors, alg.basis()))


def rational_hull(V: RationalIdeal) -> RationalIdeal:
    """Smallest rational ideal containing V.

    Alternates monomial slicing with bracket closure against the full algebra.
    Each v lies in the Q(t)-span of its rational slices, so each round's span
    contains the previous round's: a round that leaves the dimension unchanged
    has reached the fixpoint.
    """
    alg = V.parent
    rows = V.basis
    while True:
        closed = _closure(alg, [s for v in rows for s in rational_slices(v)], alg.basis())
        if len(closed) == len(rows):
            return RationalIdeal(alg, closed)
        rows = closed


def derived_subalgebra(V: RationalIdeal) -> RationalIdeal:
    """Span of brackets of V with itself, closed to a subalgebra."""
    alg = V.parent
    return RationalIdeal(alg, _closure(alg, _bracket_span(alg, V.basis, V.basis), None))
