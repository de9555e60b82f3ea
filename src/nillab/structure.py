"""Affine nilsystems and their subgroup algorithms.

The modeled map is T(x Gamma) = g_tau * A(x) Gamma on X = G0/Gamma0, where A
is a lattice-preserving unipotent automorphism.  This realizes translation by
tau on the semidirect extension G = G0 x| Z, so the conjugation derivative is
B = Ad_{g_tau} o A.  The module computes the commutator ideal of tau, its
rational closure (the discrete-spectrum kernel), the Leibman group's identity
component, the factor tower, the projection onto a factor, and an exact
ergodicity test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import algebra as la
from . import group as gp
from . import linalg
from .algebra import NilLieAlgebra, RationalIdeal
from .group import UnipotentAutomorphism
from .scalars import ExtScalar, SymbolContext, evaluate_scalar, rational_slices, scalar_context


class SystemValidationError(ValueError):
    pass


class AffineNilsystem:
    """Nilmanifold G0/Gamma0 acted on by ``generators``: one (A, g) pair, the map
    x -> g * A(x), or two commuting ones for a Z^2-system; every pair is checked
    alike, and commutation exactly, at construction.  ``A`` and ``g_tau`` name
    the first generator: the tau that the structure layer studies.
    """

    def __init__(
        self,
        alg: NilLieAlgebra,
        generators: list[tuple[UnipotentAutomorphism, list]],
        context: SymbolContext | None = None,
        name: str = "",
        default_assignment: dict[str, float] | None = None,
    ):
        self.algebra = alg
        self.generators = [(A, list(g)) for A, g in generators]
        if not 1 <= len(self.generators) <= 2:
            raise SystemValidationError(
                "a system has one or two generators, got %d" % len(self.generators))
        self.A, self.g_tau = self.generators[0]
        self.context = context if context is not None else SymbolContext(())
        self.name = name
        self.default_assignment = dict(default_assignment or {})
        for n, v in self.default_assignment.items():
            if n not in self.context.names or not math.isfinite(v):
                raise SystemValidationError(
                    "default assignment %s=%r must name a symbol of the system and be finite"
                    % (n, v))
        for i, (A, g) in enumerate(self.generators, 1):
            if A.alg.key != alg.key:
                raise SystemValidationError("T%d's automorphism acts on a different algebra" % i)
            if len(g) != alg.dim:
                raise SystemValidationError(
                    "T%d's translation has %d coordinates, not the algebra dimension %d"
                    % (i, len(g), alg.dim))
            if not A.is_rational or not A.preserves_lattice():
                raise SystemValidationError(
                    "T%d's automorphism must preserve the lattice Q-structure" % i)
        if len(self.generators) == 2:
            self._check_commuting()

    def _check_commuting(self) -> None:
        (A1, g1), (A2, g2) = self.generators
        if A1.compose(A2).matrix != A2.compose(A1).matrix:
            raise SystemValidationError("generators' automorphisms do not commute")
        # shift defect of T1 T2 vs T2 T1 must lie in the lattice
        alg = self.algebra
        s12 = gp.multiply(alg, g1, gp.apply_automorphism(alg, A1, g2))
        s21 = gp.multiply(alg, g2, gp.apply_automorphism(alg, A2, g1))
        defect = gp.multiply(alg, gp.inverse(alg, s21), s12)
        for t in defect:
            if isinstance(t, ExtScalar) or Fraction(t).denominator != 1:
                raise SystemValidationError("generators do not commute modulo the lattice")

    # -- the tau-conjugation and exact dynamics -----------------------

    @cached_property
    def B(self) -> UnipotentAutomorphism:
        """Ad_{g_tau} o A, the derivative of x -> tau x tau^{-1}; built once."""
        return gp.adjoint(self.algebra, self.g_tau).compose(self.A)

    @cached_property
    def tau_commutator_ideal(self) -> RationalIdeal:
        """Smallest ideal containing the image of B - I; built once."""
        alg = self.algebra
        return la.smallest_ideal_containing(alg, _b_minus_identity(self, alg.basis()))

    @cached_property
    def J(self) -> RationalIdeal:
        """Kernel of the discrete factor, the rational closure of [tau, G]; built once."""
        J = la.rational_hull(self.tau_commutator_ideal)
        _check_invariant(self, J)
        return J

    @cached_property
    def leibman_component(self) -> RationalIdeal:
        """Lie algebra of the identity component of the Leibman group; built once.

        Stage 1 is J; on the discrete factor the induced map is a translation,
        read with no quotient built as log g_tau reduced by J's echelon basis (the
        projection of :func:`factor_projection`, zeros at J's pivots), and stage 2
        adds the smallest rational subspace carrying its irrational part.
        """
        w = linalg.reduce_vector(self.J.basis, gp.second_to_first(self.algebra, self.g_tau))
        hH = la.rational_hull(RationalIdeal(self.algebra, self.J.basis + _nonconstant_slices(w)))
        if not _automorphism_invariant(self.A, hH):
            raise SystemValidationError("Leibman component is not automorphism-invariant")
        return hH

    def conjugation(self, g: list) -> list:
        """tau g tau^{-1} as an element of G0: g_tau * A(g) * g_tau^{-1}."""
        alg = self.algebra
        return gp.multiply(
            alg,
            gp.multiply(alg, self.g_tau, gp.apply_automorphism(alg, self.A, g)),
            gp.inverse(alg, self.g_tau),
        )

    def tau_commutator(self, g: list) -> list:
        """[tau, g] = (tau g tau^{-1}) g^{-1}, an element of G0."""
        alg = self.algebra
        return gp.multiply(alg, self.conjugation(g), gp.inverse(alg, g))

    def apply_exact(self, x: list) -> list:
        """One step of T on exact coordinates (no lattice reduction)."""
        alg = self.algebra
        return gp.multiply(alg, self.g_tau, gp.apply_automorphism(alg, self.A, x))

    # -- numeric dynamics ---------------------------------------------

    def numeric(self) -> "NumericSystem":
        return NumericSystem(self)


class NumericSystem:
    """Double-precision dynamics of an affine nilsystem, vectorized over batch points.

    Each of the system's generators x -> g * A(x) is held in ``pairs`` as an
    affine pair (A, g), g evaluated at the system's default assignment and A
    None when it is the identity, whose table is then skipped.  Its reduced
    step is :func:`group.affine_step`: one plan per generator and pattern of
    array entries, with g folded in, compiled on the first step and cached in
    ``group`` for every system with an equal generator, so building a
    NumericSystem compiles nothing.  ``step`` walks the first generator and
    ``step2`` the second.  Only forward steps exist: the estimators walk
    every orbit forward.
    """

    def __init__(self, sys: AffineNilsystem):
        self.sys = sys
        self.alg = sys.algebra
        values = sys.default_assignment
        self.pairs = [(None if A.is_identity else A, [evaluate_scalar(t, values) for t in g])
                      for A, g in sys.generators]
        self._steps = [gp.affine_step(self.alg, *pair) for pair in self.pairs]

    def step(self, pts: list) -> list:
        """pts is a list of m arrays (or floats); returns T(pts), reduced."""
        return self._steps[0](pts)

    def step2(self, pts: list) -> list:
        if len(self._steps) == 1:
            raise ValueError("step2 walks a second generator; the system has one generator")
        return self._steps[1](pts)

    def sample_points(self, count: int, seed: int | None) -> list:
        pts = gp.haar_sample(self.alg.dim, count, seed)
        return [np.ascontiguousarray(pts[:, j]) for j in range(self.alg.dim)]


# ---------------------------------------------------------------------------
# Subgroup algorithms
# ---------------------------------------------------------------------------


def total_conjugation(sys: AffineNilsystem) -> UnipotentAutomorphism:
    """B = Ad_{g_tau} o A, the derivative of x -> tau x tau^{-1}."""
    return sys.B


def _b_minus_identity(sys: AffineNilsystem, rows: list[list]) -> list[list]:
    """(B - I) v for each v in rows."""
    return [[a - b for a, b in zip(sys.B.apply_vector(v), v)] for v in rows]


def tau_commutator_ideal(sys: AffineNilsystem) -> RationalIdeal:
    """Smallest ideal containing the image of B - I: the Lie algebra of [tau, G]."""
    return sys.tau_commutator_ideal


def rational_closure_J(sys: AffineNilsystem, V: RationalIdeal) -> RationalIdeal:
    """Smallest rational connected normal subgroup containing V, at algebra level."""
    return la.rational_hull(V)


def discrete_factor_subgroup(sys: AffineNilsystem) -> RationalIdeal:
    """Kernel of the discrete-spectrum factor: the rational closure of [tau, G]."""
    return sys.J


def _automorphism_invariant(A: UnipotentAutomorphism, V: RationalIdeal) -> bool:
    return all(V.contains(A.apply_vector(v)) for v in V.basis)


def leibman_identity_component(sys: AffineNilsystem) -> RationalIdeal:
    """Lie algebra of the identity component of the Leibman group."""
    return sys.leibman_component


def _nonconstant_slices(v: list) -> list[list[Fraction]]:
    """Rational slice vectors of the non-constant monomials of v."""
    ctx = scalar_context(v)
    lifted = [ExtScalar.lift(x, ctx) for x in v]
    return rational_slices([x - x.constant_term() for x in lifted], ctx)


def leibman_lcs(sys: AffineNilsystem, k: int) -> RationalIdeal:
    """Lie algebra of H_{k+1}, the (k+1)-st lower-central term of the Leibman group.

    Iterates l_{j+1} = smallest ideal containing [l_j, h_H] + (B - I) l_j,
    taking the rational hull at each stage since the group-level H_{j+1} is
    rational.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    alg = sys.algebra
    hH = leibman_identity_component(sys)
    cur = hH
    for _ in range(k):
        brackets = [alg.bracket(v, h) for v in cur.basis for h in hH.basis]
        gens = _b_minus_identity(sys, cur.basis) + brackets
        cur = la.rational_hull(la.smallest_ideal_containing(alg, gens))
    return cur


def factor_projection(N: RationalIdeal) -> tuple[list[list[Fraction]], list[int]]:
    """(proj_rows, nonpivot): G0 -> G0/N on first-kind coordinates reduces by N's
    echelon basis, linear and exact as N is rational with unit pivots, and keeps
    the surviving coordinates ``nonpivot``."""
    pivots = N.pivot_columns()
    nonpivot = [j for j in range(N.parent.dim) if j not in pivots]
    reduced_basis = [linalg.reduce_vector(N.basis, e) for e in N.parent.basis()]
    return [[Fraction(r[i]) for r in reduced_basis] for i in nonpivot], nonpivot


def check_factor_kernel(sys: AffineNilsystem, N: RationalIdeal) -> None:
    """Raise unless N is a rational ideal invariant under every generator's automorphism."""
    if not N.is_rational or not N.is_ideal:
        raise SystemValidationError("kernel must be a rational ideal")
    _check_invariant(sys, N)


def _check_invariant(sys: AffineNilsystem, N: RationalIdeal) -> None:
    """Raise unless N is invariant under every generator's automorphism: all
    that a rational hull, a rational ideal by construction, needs checked."""
    if not all(_automorphism_invariant(A, N) for A, _ in sys.generators):
        raise SystemValidationError("kernel is not invariant under the automorphisms")


# ---------------------------------------------------------------------------
# Ergodicity
# ---------------------------------------------------------------------------


@dataclass
class ErgodicityVerdict:
    ergodic: bool
    witness: list[int] | None  # frequency vector of an invariant character

    def __repr__(self):
        if self.ergodic:
            return "ergodic"
        return "nonergodic(witness=%r)" % (self.witness,)


def ergodicity_test(sys: AffineNilsystem) -> ErgodicityVerdict:
    """Exact ergodicity decision via the maximal torus factor.

    The system is reduced modulo the rational closure of the derived algebra
    together with the tau-commutator ideal; that torus has identity charts, so
    the induced rotation is log g_tau's projection, read with no quotient built,
    and ergodicity is equivalent to no nonzero integer frequency vector pairing
    rationally with the rotation coordinates.
    """
    alg = sys.algebra
    derived = la.derived_subalgebra(la.full_algebra(alg))
    tau_ideal = tau_commutator_ideal(sys)
    N = la.rational_hull(RationalIdeal(alg, derived.basis + tau_ideal.basis))
    _check_invariant(sys, N)
    proj_rows, _ = factor_projection(N)
    bbar = gp.PolynomialMap.linear(proj_rows)(gp.second_to_first(alg, sys.g_tau))
    # no irrational part: every frequency pairs rationally (the nullspace of a zero row)
    kernel = linalg.nullspace(_nonconstant_slices(bbar) or [[Fraction(0)] * len(bbar)])
    if not kernel:
        return ErgodicityVerdict(True, None)
    kq = linalg.primitive_integer_vector(kernel[0])
    # pull the character frequency back through the projection (transpose)
    m = alg.dim
    kfull = linalg.primitive_integer_vector([
        sum((row[j] * kv for row, kv in zip(proj_rows, kq)), start=Fraction(0))
        for j in range(m)
    ])
    # scale so that <k, g_tau> is an integer: the character e(<k, x>) is then
    # genuinely T-invariant, not merely of finite order
    pairing = Fraction(0)
    for kv, t in zip(kq, bbar):
        const = t.constant_term() if isinstance(t, ExtScalar) else Fraction(t)
        pairing += kv * const
    scale = pairing.denominator
    return ErgodicityVerdict(False, [scale * v for v in kfull])
