"""Built-in reference systems with their known structural and spectral answers.

Each entry carries its system as data (algebra, automorphisms and
translations, with formal symbols for the irrational translation data), a
default numeric assignment for dynamics, and the expected answers of the
structure and spectral layers.  The expected fields are the golden data the
test suite replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import NilLieAlgebra
from .group import UnipotentAutomorphism, identity_automorphism
from .scalars import SymbolContext, parse_rat, substitute_rational
from .spectral import Observable
from .structure import AffineNilsystem

SQRT2M1 = 2.0 ** 0.5 - 1.0
SQRT3M1 = 3.0 ** 0.5 - 1.0
_SKEW = [[1, 0], [1, 1]]  # (x, y) -> (x, x + y)


@dataclass
class CatalogEntry:
    """One system: its algebra and generators beside its expected answers.

    ``algebra`` is (dim, step, brackets) as :class:`NilLieAlgebra` takes them;
    ``generators`` lists one (automorphism, translation) pair per generator,
    two commuting ones for a Z^2-system: the automorphism's matrix, None for
    the identity, and the translation coordinates, each 0 or a symbol name.
    """

    name: str
    summary: str
    symbols: tuple[str, ...]
    default_assignment: dict[str, float]
    algebra: tuple
    generators: list
    expected: dict
    observables: list[dict] = field(default_factory=list)
    dichotomy_observables: list[dict] = field(default_factory=list)

    def build(self, params: dict | None = None) -> AffineNilsystem:
        return catalog_build(self.name, params)


_ENTRIES = [
    CatalogEntry(
        name="skew_torus_nonergodic",
        summary="T(x,y) = (x, x+y) on T^2: nonergodic skew product, order 1",
        symbols=(),
        default_assignment={},
        algebra=(2, 1, {}),
        generators=[(_SKEW, (0, 0))],
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
        algebra=(2, 1, {}),
        generators=[(_SKEW, ("alpha", 0))],
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
        algebra=(1, 1, {}),
        generators=[(None, ("alpha",))],
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
        algebra=(3, 2, {(0, 1): {2: 1}}),
        generators=[(None, ("alpha", "beta", 0))],
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
        # 4x4 unitriangular matrix group; basis xi_1..xi_6 = the matrix units
        # E12, E23, E34, E13, E24, E14 of the strictly-upper-triangular algebra
        algebra=(6, 3, {
            (0, 1): {3: 1},   # [E12, E23] = E13
            (1, 2): {4: 1},   # [E23, E34] = E24
            (0, 4): {5: 1},   # [E12, E24] = E14
            (2, 3): {5: -1},  # [E34, E13] = -E14
        }),
        generators=[(None, (0, "u_tau", 0, "y_tau", 0, 0))],
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
        algebra=(2, 1, {}),
        generators=[(_SKEW, ("alpha", 0)), (None, (0, "beta"))],
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
    """Instantiate a catalog system, its symbols resolved as :func:`substitute_params`
    resolves them; the system is constructed and validated once."""
    entry = catalog_entry(name)
    alg = NilLieAlgebra(*entry.algebra)
    ctx = SymbolContext(entry.symbols)
    generators = [(identity_automorphism(alg) if A is None else
                   UnipotentAutomorphism(alg, [[Fraction(x) for x in row] for row in A]),
                   [ctx.symbol(t) if isinstance(t, str) else ctx.constant(t) for t in g])
                  for A, g in entry.generators]
    context, generators, defaults = _resolve(entry.name, ctx, generators,
                                             entry.default_assignment, params)
    return AffineNilsystem(alg, generators, context=context, name=entry.name,
                           default_assignment=defaults)


def _rational(name: str, value) -> Fraction:
    """The rational a parameter value's text denotes: 0.1 is 1/10, not its binary value."""
    try:
        return parse_rat(str(value))
    except ValueError:  # "x", "1/0"
        raise ValueError("parameter %r must be a rational or 'symbolic', got %r" % (name, value))


def _resolve(name: str, ctx: SymbolContext, generators: list, defaults: dict,
             params: dict | None) -> tuple[SymbolContext, list, dict]:
    """(context, generators, default assignment) of system ``name`` with its
    symbols resolved by ``params``, as :func:`substitute_params` documents;
    ``ctx`` itself when no symbol is substituted."""
    if params is None:
        return ctx, generators, defaults
    symbols = ctx.names
    unknown = set(params) - set(symbols)
    if unknown:
        raise ValueError("unknown parameters %r for %r" % (sorted(unknown), name))
    missing = set(symbols) - set(params)
    if missing:
        raise ValueError("missing parameters %r for %r" % (sorted(missing), name))
    subst = {n: _rational(n, v) for n, v in params.items() if v != "symbolic"}
    if not subst:
        return ctx, generators, defaults
    kept = tuple(n for n in symbols if n not in subst)
    generators = [(A, [substitute_rational(t, subst) for t in g]) for A, g in generators]
    return (SymbolContext(kept), generators,
            {n: v for n, v in defaults.items() if n in kept})


def substitute_params(sys: AffineNilsystem, params: dict | None) -> AffineNilsystem:
    """``sys`` with its symbols resolved.

    ``params`` maps each symbol either to the string "symbolic" (keep it
    formal) or to an exact rational, which is substituted exactly.  ``None``
    keeps every symbol formal.
    """
    ctx, generators, defaults = _resolve(sys.name, sys.context, sys.generators,
                                         sys.default_assignment, params)
    if ctx is sys.context:
        return sys
    return AffineNilsystem(sys.algebra, generators, context=ctx, name=sys.name,
                           default_assignment=defaults)


def observable_for(entry: CatalogEntry, spec: dict) -> Observable:
    if "terms" in spec:
        return Observable(len(next(iter(spec["terms"]))), spec["terms"])
    return Observable.character(len(spec["freqs"]), spec["freqs"])
