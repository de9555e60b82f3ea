"""Affine nilsystems and their subgroup algorithms.

The modeled map is T(x Gamma) = g_tau * A(x) Gamma on X = G0/Gamma0, where A
is a lattice-preserving unipotent automorphism.  This realizes translation by
tau on the semidirect extension G = G0 x| Z, so the conjugation derivative is
B = Ad_{g_tau} o A.  The module computes the commutator ideal of tau, its
rational closure (the discrete-spectrum kernel), the Leibman group's identity
component, the factor tower, quotient systems, and an exact ergodicity test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

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
    """Nilmanifold G0/Gamma0 with the affine map x -> g_tau * A(x).

    ``second`` optionally holds a commuting second generator (A2, g_tau2) for
    Z^2-systems; commutation is checked exactly at construction.
    """

    def __init__(
        self,
        alg: NilLieAlgebra,
        A: UnipotentAutomorphism,
        g_tau: list,
        context: SymbolContext | None = None,
        second: tuple[UnipotentAutomorphism, list] | None = None,
        name: str = "",
        default_assignment: dict[str, float] | None = None,
    ):
        self.algebra = alg
        self.A = A
        self.g_tau = list(g_tau)
        self.context = context if context is not None else SymbolContext(())
        self.second = second
        self.name = name
        self.default_assignment = dict(default_assignment or {})
        for n, v in self.default_assignment.items():
            if n not in self.context.names or not math.isfinite(v):
                raise SystemValidationError(
                    "default assignment %s=%r must name a symbol of the system and be finite"
                    % (n, v))
        if len(self.g_tau) != alg.dim:
            raise SystemValidationError("translation part has wrong dimension")
        if not A.is_rational or not A.preserves_lattice():
            raise SystemValidationError("automorphism must preserve the lattice Q-structure")
        if second is not None:
            A2, g2 = second
            if not A2.is_rational or not A2.preserves_lattice():
                raise SystemValidationError("second automorphism must preserve the lattice")
            self._check_commuting()

    def _check_commuting(self) -> None:
        A1, g1 = self.A, self.g_tau
        A2, g2 = self.second
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
    def discrete_factor(self) -> "FactorData":
        """Quotient by J, the rational closure of the tau-commutator ideal: the
        discrete-spectrum factor; built once."""
        return quotient_system(self, la.rational_hull(self.tau_commutator_ideal))

    @cached_property
    def leibman_component(self) -> RationalIdeal:
        """Lie algebra of the identity component of the Leibman group; built once.

        Stage 1 is the discrete factor's kernel J; on that factor the induced
        map is a translation, and stage 2 adds the smallest rational subspace
        carrying the irrational part of that translation.
        """
        fd = self.discrete_factor
        wbar = gp.second_to_first(fd.quotient.algebra, fd.quotient.g_tau)
        lifts = [fd.lift_vector(s) for s in _nonconstant_slices(wbar)]
        hH = la.rational_hull(RationalIdeal(self.algebra, fd.kernel.basis + lifts))
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

    Each generator x -> g * A(x) is held as an affine pair (A, g), g evaluated
    at the system's default assignment and A None when it is the identity,
    whose table is then skipped.  Its reduced step is
    :func:`group.affine_step`: one plan per generator and pattern of array
    entries, with g folded in, compiled on the first step and cached in
    ``group`` for every system with an equal generator, so building a
    NumericSystem compiles nothing.  Only forward steps exist: the
    estimators walk every orbit forward.
    """

    def __init__(self, sys: AffineNilsystem):
        self.sys = sys
        self.alg = sys.algebra
        self._forward = self._pair(sys.A, sys.g_tau)
        self._step1 = gp.affine_step(self.alg, *self._forward)
        if sys.second is not None:
            self._step2 = gp.affine_step(self.alg, *self._pair(*sys.second))

    def _pair(self, A: UnipotentAutomorphism, g: list) -> tuple:
        values = self.sys.default_assignment
        return None if A.is_identity else A, [evaluate_scalar(t, values) for t in g]

    def apply(self, pts: list) -> list:
        """g_tau * A(pts): one step of T before lattice reduction."""
        A, g = self._forward
        if A is not None:
            pts = gp.apply_automorphism(self.alg, A, pts)
        return gp.multiply(self.alg, g, pts)

    def step(self, pts: list) -> list:
        """pts is a list of m arrays (or floats); returns T(pts), reduced."""
        return self._step1(pts)

    def step2(self, pts: list) -> list:
        return self._step2(pts)

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
    return sys.discrete_factor.kernel


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


# ---------------------------------------------------------------------------
# Quotient systems
# ---------------------------------------------------------------------------


@dataclass
class FactorData:
    """Quotient of an affine nilsystem by a rational invariant ideal.

    ``proj_matrix`` acts on first-kind coordinates; ``nonpivot`` lists the
    parent coordinates that survive as quotient coordinates.
    """

    kernel: RationalIdeal
    quotient: AffineNilsystem
    proj_matrix: list[list[Fraction]]
    nonpivot: list[int]

    def project_log(self, w: list) -> list:
        return gp.PolynomialMap.linear(self.proj_matrix)(w)

    def project_point(self, x: list) -> list:
        """Second-kind coordinates downstairs of a point given upstairs."""
        parent = self.kernel.parent
        qalg = self.quotient.algebra
        w = gp.second_to_first(parent, x)
        return gp.first_to_second(qalg, self.project_log(w))

    def lift_vector(self, v: list) -> list:
        """Section of a quotient first-kind vector: insert zeros at kernel pivots."""
        parent_dim = self.kernel.parent.dim
        out = [Fraction(0)] * parent_dim
        for q, i in enumerate(self.nonpivot):
            out[i] = v[q]
        return out


def check_factor_kernel(sys: AffineNilsystem, N: RationalIdeal) -> None:
    """Raise unless N is a rational ideal invariant under every generator's automorphism."""
    if not N.is_rational or not N.is_ideal:
        raise SystemValidationError("kernel must be a rational ideal")
    for A in [sys.A] + ([sys.second[0]] if sys.second is not None else []):
        if not _automorphism_invariant(A, N):
            raise SystemValidationError("kernel is not invariant under the automorphisms")


def quotient_system(sys: AffineNilsystem, N: RationalIdeal) -> FactorData:
    """Validated quotient system on G0/N with the induced automorphism and shift."""
    alg = sys.algebra
    if N.parent is not alg:
        raise SystemValidationError("ideal belongs to a different algebra")
    check_factor_kernel(sys, N)
    pivots = N.pivot_columns()
    nonpivot = [j for j in range(alg.dim) if j not in pivots]
    mq = len(nonpivot)
    # projection: reduce a first-kind vector by N's echelon basis, keep nonpivots;
    # N is rational with unit pivots, so the reduction is linear and exact
    basis = alg.basis()
    reduced_basis = [linalg.reduce_vector(N.basis, e) for e in basis]
    proj_rows = [[Fraction(r[i]) for r in reduced_basis] for i in nonpivot]
    project_log = gp.PolynomialMap.linear(proj_rows)
    qalg = NilLieAlgebra.from_brackets(mq, {
        (a, b): dict(enumerate(project_log(alg.bracket(basis[i], basis[j]))))
        for (a, i), (b, j) in combinations(enumerate(nonpivot), 2)
    })

    def induced(A: UnipotentAutomorphism, g: list) -> tuple[UnipotentAutomorphism, list]:
        """The map x -> g A(x) of the quotient: A on the surviving basis, g projected."""
        cols = [project_log(A.apply_vector(alg.basis_vector(i))) for i in nonpivot]
        qA = UnipotentAutomorphism(qalg, [[col[k] for col in cols] for k in range(mq)])
        return qA, gp.first_to_second(qalg, project_log(gp.second_to_first(alg, g)))

    qA, qg = induced(sys.A, sys.g_tau)
    second = induced(*sys.second) if sys.second is not None else None
    qsys = AffineNilsystem(qalg, qA, qg, context=sys.context, second=second,
                           name=sys.name + "/N" if sys.name else "",
                           default_assignment=sys.default_assignment)
    return FactorData(kernel=N, quotient=qsys, proj_matrix=proj_rows, nonpivot=nonpivot)


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
    together with the tau-commutator ideal; on the resulting torus the induced
    map is a rotation, and ergodicity is equivalent to no nonzero integer
    frequency vector pairing rationally with the rotation coordinates.
    """
    alg = sys.algebra
    derived = la.derived_subalgebra(la.full_algebra(alg))
    tau_ideal = tau_commutator_ideal(sys)
    N = la.rational_hull(RationalIdeal(alg, derived.basis + tau_ideal.basis))
    fd = quotient_system(sys, N)
    qalg = fd.quotient.algebra
    bbar = gp.second_to_first(qalg, fd.quotient.g_tau)
    slices = _nonconstant_slices(bbar)
    kernel = linalg.nullspace(slices) if slices else qalg.basis()
    if not kernel:
        return ErgodicityVerdict(True, None)
    kq = linalg.primitive_integer_vector(kernel[0])
    # pull the character frequency back through the projection (transpose)
    m = alg.dim
    kfull = linalg.primitive_integer_vector([
        sum((Fraction(fd.proj_matrix[q][j]) * kq[q] for q in range(qalg.dim)), start=Fraction(0))
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
