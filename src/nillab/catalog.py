"""Built-in reference systems with their known structural and spectral answers.

Each entry carries an exact constructor (with formal symbols for the
irrational translation data), a default numeric assignment for dynamics, and
the expected answers of the structure and spectral layers.  The expected
fields are the golden data the test suite replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import NilLieAlgebra
from .group import UnipotentAutomorphism, identity_automorphism
from .scalars import SymbolContext, substitute_rational
from .spectral import Observable
from .structure import AffineNilsystem

SQRT2M1 = 2.0 ** 0.5 - 1.0
SQRT3M1 = 3.0 ** 0.5 - 1.0


@dataclass
class CatalogEntry:
    name: str
    summary: str
    symbols: tuple[str, ...]
    default_assignment: dict[str, float]
    expected: dict
    observables: list[dict] = field(default_factory=list)
    dichotomy_observables: list[dict] = field(default_factory=list)

    def build(self, params: dict | None = None) -> AffineNilsystem:
        return catalog_build(self.name, params)


def _frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def _build_skew_torus_nonergodic(ctx: SymbolContext) -> AffineNilsystem:
    alg = NilLieAlgebra(2, 1, {})
    A = UnipotentAutomorphism(alg, _frac_rows([[1, 0], [1, 1]]))
    return AffineNilsystem(alg, A, [Fraction(0), Fraction(0)], context=ctx,
                           name="skew_torus_nonergodic")


def _build_skew_torus_ergodic(ctx: SymbolContext) -> AffineNilsystem:
    alg = NilLieAlgebra(2, 1, {})
    A = UnipotentAutomorphism(alg, _frac_rows([[1, 0], [1, 1]]))
    a = ctx.symbol("alpha")
    return AffineNilsystem(alg, A, [a, ctx.constant(0)], context=ctx,
                           name="skew_torus_ergodic")


def _build_rot_torus(ctx: SymbolContext) -> AffineNilsystem:
    alg = NilLieAlgebra(1, 1, {})
    return AffineNilsystem(alg, identity_automorphism(alg), [ctx.symbol("alpha")],
                           context=ctx, name="rot_torus")


def _build_heisenberg3(ctx: SymbolContext) -> AffineNilsystem:
    alg = NilLieAlgebra(3, 2, {(0, 1): {2: Fraction(1)}})
    a, b = ctx.symbol("alpha"), ctx.symbol("beta")
    return AffineNilsystem(alg, identity_automorphism(alg),
                           [a, b, ctx.constant(0)], context=ctx, name="heisenberg3")


def _build_heisenberg4(ctx: SymbolContext) -> AffineNilsystem:
    # 4x4 unitriangular matrix group; basis xi_1..xi_6 = the matrix units
    # E12, E23, E34, E13, E24, E14 of the strictly-upper-triangular algebra
    alg = NilLieAlgebra(6, 3, {
        (0, 1): {3: Fraction(1)},   # [E12, E23] = E13
        (1, 2): {4: Fraction(1)},   # [E23, E34] = E24
        (0, 4): {5: Fraction(1)},   # [E12, E24] = E14
        (2, 3): {5: Fraction(-1)},  # [E34, E13] = -E14
    })
    y, u = ctx.symbol("y_tau"), ctx.symbol("u_tau")
    zero = ctx.constant(0)
    g_tau = [zero, u, zero, y, zero, zero]
    return AffineNilsystem(alg, identity_automorphism(alg), g_tau, context=ctx,
                           name="heisenberg4")


def _build_z2_skew(ctx: SymbolContext) -> AffineNilsystem:
    alg = NilLieAlgebra(2, 1, {})
    a, b = ctx.symbol("alpha"), ctx.symbol("beta")
    zero = ctx.constant(0)
    A1 = UnipotentAutomorphism(alg, _frac_rows([[1, 0], [1, 1]]))
    A2 = identity_automorphism(alg)
    return AffineNilsystem(alg, A1, [a, zero], context=ctx,
                           second=(A2, [zero, b]), name="z2_skew")


_BUILDERS = {
    "skew_torus_nonergodic": _build_skew_torus_nonergodic,
    "skew_torus_ergodic": _build_skew_torus_ergodic,
    "rot_torus": _build_rot_torus,
    "heisenberg3": _build_heisenberg3,
    "heisenberg4": _build_heisenberg4,
    "z2_skew": _build_z2_skew,
}


# ---------------------------------------------------------------------------
# Golden data
# ---------------------------------------------------------------------------

_ENTRIES = [
    CatalogEntry(
        name="skew_torus_nonergodic",
        summary="T(x,y) = (x, x+y) on T^2: nonergodic skew product, order 1",
        symbols=(),
        default_assignment={},
        expected={
            "tau_ideal_dim": 1,
            "J": [[0, 1]],
            "leibman_component": [[0, 1]],
            "derived_H": [],
            "leibman_lcs_1": [],
            "ergodic": False,
            "witness": [1, 0],
        },
        observables=[
            {"name": "e_x", "freqs": (1, 0), "verdict": "discrete"},
            {"name": "e_y", "freqs": (0, 1), "verdict": "lebesgue-like"},
        ],
        dichotomy_observables=[
            {"name": "e_x+e_y", "terms": {(1, 0): 1.0, (0, 1): 1.0}},
            {"name": "e_2x+e_y", "terms": {(2, 0): 1.0, (0, 1): 1.0}},
            {"name": "e_x+e_2y", "terms": {(1, 0): 1.0, (0, 2): 1.0}},
        ],
    ),
    CatalogEntry(
        name="skew_torus_ergodic",
        summary="T(x,y) = (x+alpha, y+x) on T^2: ergodic skew product",
        symbols=("alpha",),
        default_assignment={"alpha": SQRT2M1},
        expected={
            "tau_ideal_dim": 1,
            "J": [[0, 1]],
            "leibman_component": [[1, 0], [0, 1]],
            "derived_H": [],
            "leibman_lcs_1": [[0, 1]],
            "ergodic": True,
            "witness": None,
        },
        observables=[
            {"name": "e_x", "freqs": (1, 0), "verdict": "discrete"},
            {"name": "e_y", "freqs": (0, 1), "verdict": "lebesgue-like"},
        ],
    ),
    CatalogEntry(
        name="rot_torus",
        summary="rotation x -> x + alpha on T^1",
        symbols=("alpha",),
        default_assignment={"alpha": SQRT2M1},
        expected={
            "tau_ideal_dim": 0,
            "J": [],
            "leibman_component": [[1]],
            "derived_H": [],
            "leibman_lcs_1": [],
            "ergodic": True,
            "witness": None,
        },
        observables=[
            {"name": "e_x", "freqs": (1,), "verdict": "discrete"},
        ],
    ),
    CatalogEntry(
        name="heisenberg3",
        summary="3-dim Heisenberg nilmanifold, translation by psi(alpha, beta, 0)",
        symbols=("alpha", "beta"),
        default_assignment={"alpha": SQRT2M1, "beta": SQRT3M1},
        expected={
            "tau_ideal_dim": 1,
            "J": [[0, 0, 1]],
            "leibman_component": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "derived_H": [[0, 0, 1]],
            "leibman_lcs_1": [[0, 0, 1]],
            "ergodic": True,
            "witness": None,
            "J_equals_derived": True,
        },
        observables=[
            {"name": "e_x", "freqs": (1, 0, 0), "verdict": "discrete"},
            {"name": "e_z", "freqs": (0, 0, 1), "verdict": "lebesgue-like"},
        ],
        dichotomy_observables=[
            {"name": "e_x+e_z", "terms": {(1, 0, 0): 1.0, (0, 0, 1): 1.0}},
            {"name": "e_y+e_z", "terms": {(0, 1, 0): 1.0, (0, 0, 1): 1.0}},
            {"name": "e_xy+e_2z", "terms": {(1, 1, 0): 1.0, (0, 0, 2): 1.0}},
        ],
    ),
    CatalogEntry(
        name="heisenberg4",
        summary="4x4 unitriangular nilmanifold (6-dim algebra), translation with symbols y_tau, u_tau",
        symbols=("y_tau", "u_tau"),
        default_assignment={"y_tau": SQRT2M1, "u_tau": SQRT3M1},
        expected={
            "tau_ideal_dim": 3,
            "J": [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]],
            "leibman_component": [
                [0, 1, 0, 0, 0, 0],
                [0, 0, 0, 1, 0, 0],
                [0, 0, 0, 0, 1, 0],
                [0, 0, 0, 0, 0, 1],
            ],
            "derived_H": [],
            "leibman_lcs_1": [],
            "ergodic": False,
            "witness": [1, 0, 0, 0, 0, 0],
            "center": [[0, 0, 0, 0, 0, 1]],
        },
        observables=[
            {"name": "e_t1", "freqs": (1, 0, 0, 0, 0, 0), "verdict": "discrete"},
        ],
    ),
    CatalogEntry(
        name="z2_skew",
        summary="commuting pair T1(x,y) = (x+alpha, y+x), T2(x,y) = (x, y+beta) on T^2",
        symbols=("alpha", "beta"),
        default_assignment={"alpha": SQRT2M1, "beta": SQRT3M1},
        expected={
            "tau_ideal_dim": 1,
            "J": [[0, 1]],
            "subtorus_direction": (1, 0),
        },
        observables=[
            {"name": "e_y", "freqs": (0, 1), "verdict": "subtorus"},
            {"name": "e_x", "freqs": (1, 0), "verdict": "discrete"},
        ],
    ),
]

_REGISTRY = {e.name: e for e in _ENTRIES}


def catalog_list() -> list[CatalogEntry]:
    return list(_ENTRIES)


def catalog_entry(name: str) -> CatalogEntry:
    if name not in _REGISTRY:
        raise KeyError("unknown catalog system %r" % name)
    return _REGISTRY[name]


def catalog_build(name: str, params: dict | None = None) -> AffineNilsystem:
    """Instantiate a catalog system, its symbols resolved by :func:`substitute_params`."""
    entry = catalog_entry(name)
    sys = _BUILDERS[name](SymbolContext(entry.symbols))
    sys.default_assignment = dict(entry.default_assignment)
    return substitute_params(sys, params)


def _rational(name: str, value) -> Fraction:
    """The rational a parameter value's text denotes: 0.1 is 1/10, not its binary value."""
    try:
        return Fraction(str(value))
    except ValueError:
        raise ValueError("parameter %r must be a rational or 'symbolic', got %r" % (name, value))


def substitute_params(sys: AffineNilsystem, params: dict | None) -> AffineNilsystem:
    """``sys`` with its symbols resolved.

    ``params`` maps each symbol either to the string "symbolic" (keep it
    formal) or to an exact rational, which is substituted exactly.  ``None``
    keeps every symbol formal.
    """
    if params is None:
        return sys
    symbols = sys.context.names
    unknown = set(params) - set(symbols)
    if unknown:
        raise ValueError("unknown parameters %r for %r" % (sorted(unknown), sys.name))
    missing = set(symbols) - set(params)
    if missing:
        raise ValueError("missing parameters %r for %r" % (sorted(missing), sys.name))
    subst = {n: _rational(n, v) for n, v in params.items() if v != "symbolic"}
    if not subst:
        return sys
    kept = tuple(n for n in symbols if n not in subst)
    g_tau = [substitute_rational(t, subst) for t in sys.g_tau]
    second = None
    if sys.second is not None:
        A2, g2 = sys.second
        second = (A2, [substitute_rational(t, subst) for t in g2])
    defaults = {n: v for n, v in sys.default_assignment.items() if n in kept}
    return AffineNilsystem(sys.algebra, sys.A, g_tau, context=SymbolContext(kept), second=second,
                           name=sys.name, default_assignment=defaults)


def observable_for(entry: CatalogEntry, spec: dict) -> Observable:
    if "terms" in spec:
        return Observable(len(next(iter(spec["terms"]))), spec["terms"])
    return Observable.character(len(spec["freqs"]), spec["freqs"])
