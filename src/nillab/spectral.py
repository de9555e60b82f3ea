"""Numerical spectral analysis of affine nilsystems.

Estimates Fourier coefficients of spectral measures by quasi-Monte-Carlo
averaging along numerically iterated orbits, and derives the classification
data (Wiener atom mass, Fejér densities, uniformity seminorms, factor
projections, fiberwise eigenvalues, joint Z^2 spectra, and pushforward
histograms) used to check the discrete/Lebesgue dichotomy on concrete systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import product
from math import gcd, isfinite

import numpy as np

from . import algebra as la
from . import group as gp
from . import linalg
from .algebra import RationalIdeal
from .structure import (AffineNilsystem, NumericSystem, check_factor_kernel,
                        leibman_identity_component)

TWO_PI = 2.0 * np.pi

#: Calibration constants for spectral verdicts, fixed by the reference-system
#: golden runs.  atom_mass >= discrete_ratio * c(0) reads as discrete spectrum;
#: atom_mass <= continuous_ratio * c(0) reads as Lebesgue-like.
CALIBRATION = {
    "discrete_ratio": 0.9,
    "continuous_ratio": 0.05,
    "support_tolerance": 1e-2,
    "character_tolerance": 1e-6,
}

#: Default cap on lags; beyond this the accumulated double-precision drift of
#: the orbit iteration is no longer guaranteed below the per-step budget.
MAX_LAG = 1024

#: Entries of the phase table of :func:`_exp_2pi_i`, a power of two.  With 4096
#: the table takes 64 KB and the residual angle |theta| <= pi / 4096 needs
#: Taylor terms only up to theta^4.
PHASES = 4096

#: 1.5 * 2^52: for |u| < 2^51, u + _ROUNDER is _ROUNDER + k for the integer k
#: nearest u, and its bits read as an int64 are congruent to k modulo 2^51.
_ROUNDER = 1.5 * 2.0 ** 52

#: Sample points per chunk of the seminorm walk, whose block is depth x chunk
#: values whatever N: 8192 raised `useminorm --levels 64 64` peak RSS 57 -> 70 MB.
SEMINORM_CHUNK = 4096
#: Sample points per chunk of the autocorrelation walk (block parts x (2 K2 + 1)
#: x chunk): on 2 vCPUs, one heisenberg4 series at N = 10^5, K = 256 took 2.6 s
#: whole-batch, 2.0-3.0 s at 4096, 1.7 s at 8192, 1.5-1.6 s here; 2^13 points is one chunk.
CORRELATION_CHUNK = 16384
#: Columns per block of the s = 2 seminorm level: its row copy, conjugates and
#: product buffer, (4 H + 1) x 512 values, fill 2 MB at H = 64, one core's L2.
#: Four (64, 64) chunks on a 2-vCPU Xeon: 70-96 ms, 128-145 ms on whole rows,
#: 102-112 ms on blocks sliced from g (its rows lie 64 KB apart, all in the
#: same cache sets) rather than copied; 256 and 1024 columns were slower.
BLOCK = 512


#: Largest |k_j| of an Observable's frequency entry.  :func:`evaluate_observables`
#: keeps every power e(x_j)^1..e(x_j)^|k_j| as a complex array: 16 B a point
#: each, so 4 KiB a point at 256, 64 MiB for one CORRELATION_CHUNK, and one
#: product per power (about 0.15 ms per power at 16384 points on a 2-vCPU Xeon).
MAX_FREQUENCY = 256


class LagBudgetError(ValueError):
    """Requested lag exceeds the numeric drift budget of orbit iteration."""


class ObservableError(ValueError):
    pass


@cache
def _phase_table() -> np.ndarray:
    """e(j / PHASES) for j = 0..PHASES - 1, read-only, built on first use.

    cos and sin are taken only on the first octant (angles <= pi / 4), each
    within 1 ulp; the rest of the circle follows by exact swaps and sign
    changes, so e(0), e(1/4), e(1/2) and e(3/4) are exactly 1, i, -1 and -i.
    """
    j = np.arange(PHASES // 8 + 1)
    cos, sin = np.cos(np.pi * j / (PHASES // 2)), np.sin(np.pi * j / (PHASES // 2))
    quarter = np.empty(PHASES // 4, dtype=complex)  # e(j / PHASES) for angles < pi / 2
    quarter.real = np.concatenate([cos, sin[-2:0:-1]])
    quarter.imag = np.concatenate([sin, cos[-2:0:-1]])
    table = np.concatenate([quarter, 1j * quarter, -quarter, -1j * quarter])
    table.flags.writeable = False
    return table


def _exp_2pi_i(x: np.ndarray) -> np.ndarray:
    """e(x) = exp(2 pi i x) for a float array, within 1e-15 of the exact value.

    x = m + (k + t) / PHASES with integers m, k and |t| <= 1/2, all exact:
    r = x - rint(x) and t = u - rint(u) for u = r PHASES are exact in binary
    floating point for every finite x (x - floor(x) is not, for small
    negative x).  Then e(x) = e(k / PHASES) e(t / PHASES): a table entry times
    cos theta + i sin theta at |theta| = 2 pi |t| / PHASES <= 7.7e-4, from
    Taylor terms up to theta^4 and theta^3, whose truncation is below 3e-18.
    Non-finite x gives nan + nan i without a warning.  Each step writes into
    one of four float temporaries or into the result; x is only read.
    """
    u = np.rint(x, out=np.empty(np.shape(x)))
    with np.errstate(invalid="ignore"):  # inf - inf is nan, as wanted
        np.subtract(x, u, out=u)
    np.multiply(u, PHASES, out=u)
    rounded = np.add(u, _ROUNDER, out=np.empty_like(u))
    theta2 = np.subtract(rounded, _ROUNDER, out=np.empty_like(u))  # rint(u) until theta
    theta = np.subtract(u, theta2, out=u)
    np.multiply(theta, TWO_PI / PHASES, out=theta)
    np.multiply(theta, theta, out=theta2)
    part = np.multiply(theta2, 1.0 / 24.0, out=np.empty_like(u))
    np.subtract(0.5, part, out=part)
    np.multiply(theta2, part, out=part)
    np.subtract(1.0, part, out=part)
    out = np.empty(np.shape(x), dtype=complex)
    out.real = part
    np.multiply(theta2, 1.0 / 6.0, out=part)
    np.subtract(1.0, part, out=part)
    np.multiply(theta, part, out=part)
    out.imag = part
    k = rounded.view(np.int64)
    np.bitwise_and(k, PHASES - 1, out=k)
    out *= _phase_table().take(k)
    return out


def _integral(v, what: str, error=ValueError) -> int:
    """``v`` as an int: ints, NumPy ints and integral values only, else ``error``."""
    try:
        k = int(v)
    except (TypeError, ValueError, OverflowError):
        k = None
    if k is None or k != v:
        raise error("%s %r is not an integer" % (what, v))
    return k


class Observable:
    """Trigonometric polynomial f(x) = sum_k a_k e(<k, x>) on reduced coordinates.

    e(t) = exp(2 pi i t).  Calling f on a batch of points evaluates it with
    :func:`evaluate_observables`: one exponential e(x_j) per coordinate the
    terms use, from the phase-table kernel :func:`_exp_2pi_i` (within 1e-15
    of the exact value), then each character e(<k, x>) as a product of
    integer powers of those values.  Since every power up to |k_j| is held at
    once, a frequency entry with |k_j| > :data:`MAX_FREQUENCY` (256) is refused.
    ``coordinates`` is the frozenset of the coordinates j that some term reads.
    """

    def __init__(self, dim: int, terms: dict[tuple, complex]):
        self.dim = dim
        self.terms = {}
        for k, a in terms.items():
            k = tuple(_integral(v, "frequency entry", ObservableError) for v in k)
            if len(k) != dim:
                raise ObservableError("frequency vector has wrong length")
            if any(abs(v) > MAX_FREQUENCY for v in k):
                raise ObservableError("frequency entry above %d in %s"
                                      % (MAX_FREQUENCY, ",".join(map(str, k))))
            a = complex(a)
            if not np.isfinite(a):
                raise ObservableError("amplitude of frequency %s is not finite: %s"
                                      % (",".join(map(str, k)), a))
            a = self.terms.get(k, 0.0) + a
            if a != 0:
                self.terms[k] = a
            else:
                self.terms.pop(k, None)
        self.coordinates = frozenset(j for k in self.terms for j, kj in enumerate(k) if kj)

    @classmethod
    def character(cls, dim: int, freqs) -> "Observable":
        return cls(dim, {tuple(freqs): 1.0})

    @classmethod
    def constant(cls, dim: int, value=1.0) -> "Observable":
        return cls(dim, {(0,) * dim: value})

    def __call__(self, pts: list) -> np.ndarray:
        return evaluate_observables([self], pts)[0]

    def _same_dim(self, other: "Observable") -> None:
        if other.dim != self.dim:
            raise ObservableError("observables on %d and %d coordinates do not combine"
                                  % (self.dim, other.dim))

    def __add__(self, other: "Observable") -> "Observable":
        self._same_dim(other)
        merged = dict(self.terms)
        for k, a in other.terms.items():
            merged[k] = merged.get(k, 0.0) + a
        return Observable(self.dim, merged)

    def __mul__(self, other):
        if isinstance(other, Observable):
            self._same_dim(other)
            prod: dict[tuple, complex] = {}
            for k1, a1 in self.terms.items():
                for k2, a2 in other.terms.items():
                    k = tuple(x + y for x, y in zip(k1, k2))
                    prod[k] = prod.get(k, 0.0) + a1 * a2
            return Observable(self.dim, prod)
        return Observable(self.dim, {k: a * other for k, a in self.terms.items()})

    __rmul__ = __mul__

    def conj(self) -> "Observable":
        return Observable(
            self.dim, {tuple(-v for v in k): np.conj(a) for k, a in self.terms.items()}
        )

    def __repr__(self):
        return "Observable(%r)" % (self.terms,)


def evaluate_observables(fs: list[Observable], pts: list) -> list[np.ndarray]:
    """f(pts) for every Observable f of ``fs``, one exponential per coordinate.

    e(x_j) = exp(2 pi i x_j) is computed once for each coordinate j that some
    term uses, by :func:`_exp_2pi_i` (within 1e-15 of the exact value).  A
    point of a walk carries only the coordinates it reads (None at the
    others), so the constant character and an empty f take their shape from
    the first coordinate the batch carries.  The character of a frequency
    vector k is the product, in coordinate order, of the powers e(x_j)^|k_j|,
    each built by repeated multiplication and conjugated when k_j < 0;
    f = sum_k a_k e(<k, x>) is summed in term order.
    A character is built the same way whichever observables share the call,
    so each f gets exactly its value alone, and a unit character of one
    coordinate is exactly ``_exp_2pi_i(x_j)``.  Nothing is written in place,
    but the arrays of a one-term f with a_k = 1 are the character itself,
    which other entries of the result may share.
    """
    powers: dict[int, list] = {}  # j -> [e(x_j), e(x_j)^2, ...]
    chars: dict[tuple, np.ndarray] = {}
    shape = next((np.shape(v) for v in pts if v is not None), ())

    def power(j: int, m: int) -> np.ndarray:
        if j not in powers:
            powers[j] = [_exp_2pi_i(np.asarray(pts[j], dtype=float))]
        ps = powers[j]
        while len(ps) < m:
            ps.append(ps[-1] * ps[0])
        return ps[m - 1]

    def character(k: tuple) -> np.ndarray:
        if k not in chars:
            factors = [power(j, kj) if kj > 0 else np.conj(power(j, -kj))
                       for j, kj in enumerate(k) if kj]
            chi = factors[0] if factors else np.ones(shape, dtype=complex)
            for p in factors[1:]:
                chi = chi * p
            chars[k] = chi
        return chars[k]

    def value(f: Observable) -> np.ndarray:
        if not f.terms:
            return np.zeros(shape, dtype=complex)
        terms = (character(k) if a == 1 else a * character(k) for k, a in f.terms.items())
        return reduce(np.add, terms)

    return [value(f) for f in fs]


def _translate(alg, z, pts: list) -> list:
    """Reduced coordinates of psi(z) x for every point x of the batch."""
    return gp.reduce_mod_lattice(alg, gp.multiply(alg, z, pts))[0]


# ---------------------------------------------------------------------------
# Autocorrelation series
# ---------------------------------------------------------------------------


@dataclass
class AutocorrelationSeries:
    """Estimated Fourier coefficients c(n) of a spectral measure.

    The lags fill the box |n_i| <= K_i in row-major order: for one generator
    ``lags`` is the list of ints -K..K, for two the list of (n1, n2) pairs.
    ``reach`` holds (K_1, ..., K_g), one per generator, read off the first
    lag, and ``box`` the values as an array over the box, ``box[K + n] =
    c(n)``.  Hermitian symmetry c(-n) = conj(c(n)) holds exactly: negative
    lags are filled from the mirrored estimate.
    """

    lags: list
    values: np.ndarray
    sample_count: int
    seed: int | None

    def __post_init__(self):
        corner = tuple(self.lags[0]) if np.ndim(self.lags[0]) else (self.lags[0],)
        self.reach = tuple(-n for n in corner)
        if len(self.lags) != np.prod([2 * K + 1 for K in self.reach]):
            raise ValueError("lags must fill the box |n_i| <= K_i in row-major order")

    @property
    def box(self) -> np.ndarray:
        """``values`` as a row-major view over the lag box."""
        return np.reshape(self.values, [2 * K + 1 for K in self.reach])

    def value(self, *lag) -> complex:
        if len(lag) != len(self.reach) or any(abs(n) > K for n, K in zip(lag, self.reach)):
            raise KeyError(lag)
        return complex(self.box[tuple(n + K for n, K in zip(lag, self.reach))])

    def c0(self) -> float:
        return abs(complex(self.box[self.reach]))


def _hermitian(half: np.ndarray) -> np.ndarray:
    """The full lag box from its rows n_1 = 0..K_1, by c(-n) = conj(c(n))."""
    return np.concatenate([np.conj(np.flip(half[1:])), half])


def _chunks(sys: AffineNilsystem, fs: list, N: int, seed, size: int, lags):
    """The numeric system and the N sample points in chunks of ``size`` (lists
    of coordinate arrays, each chunk drawn when reached), after checking N (at
    most 2^30 in ``haar_chunks``), each walk length in ``lags``, and then the
    dimension of each Observable in ``fs``."""
    if N < 10 ** 3:
        raise ValueError("sample count must be at least 10^3")
    chunks = gp.haar_chunks(sys.algebra.dim, N, seed, size)
    for lag in lags:
        if lag < 0:
            raise ValueError("lag must be nonnegative, got %d" % lag)
        if lag > MAX_LAG:
            raise LagBudgetError("lag %d exceeds the drift budget cap of %d" % (lag, MAX_LAG))
    for f in fs:
        _check_dimension(sys, f)
    return sys.numeric(), map(list, chunks)


def _check_dimension(sys: AffineNilsystem, f) -> None:
    """Raise unless f, when an Observable, has the system's dimension."""
    if isinstance(f, Observable) and f.dim != sys.algebra.dim:
        raise ObservableError("observable of dimension %d on a system of dimension %d"
                              % (f.dim, sys.algebra.dim))


def _same_bits(u: np.ndarray, v: np.ndarray) -> bool:
    """Whether two float arrays hold the same bits: the first entries filter,
    the int64 views decide (so 0.0 and -0.0 differ)."""
    return u[0] == v[0] and np.array_equal(u.view(np.int64), v.view(np.int64))


def _walk(step, pts, reach: int, reads: list):
    """pts, step(pts), ..., step^reach(pts), each with the parts to evaluate
    there.  A part is evaluated at the walk's first point, where the flags are
    None (every part), and wherever a coordinate it reads changed bits in the
    step; a callable (None in ``reads``) may read any coordinate, so it is
    evaluated at every point.
    """
    watched = sorted(set().union(*(r for r in reads if r is not None)))
    yield pts, None
    for _ in range(reach):
        new = step(pts)
        moved = {j for j in watched if not _same_bits(pts[j], new[j])}
        pts = new  # the previous point is released before the new one is evaluated
        yield pts, [r is None or not r.isdisjoint(moved) for r in reads]


def _correlations(sys: AffineNilsystem, fs: list, K1: int, K2: int, N: int,
                  seed) -> list[np.ndarray]:
    """Row-major boxes of c_q(n1, n2), |n1| <= K1 and |n2| <= K2, one per observable.

    Haar measure is T2-invariant and T1 T2 = T2 T1, so with y = T2^K2 z,
    c(n1, n2) = E[conj f(T2^(K2 - n2) z) . f(T1^n1 y)].  Each chunk z of
    sample points walks 2 K2 steps along T2, keeping conj f in a (2 K2 + 1) x
    chunk block; y then walks K1 steps along T1, its values at y read back
    from the block, and each step's row products are summed into the box,
    which is divided by N once: one chunk gives np.mean.  c(0) (or c(0, 0))
    is summed as the real sum of |f|^2, so it is real on every host.  Row
    n1 = 0 is recorded for n2 >= 0 and mirrored, the rows n1 < 0 are mirrored
    from n1 > 0, so Hermitian symmetry is exact.  One generator is K2 = 0.
    Observables with equal terms are evaluated and contracted once, and each
    of them gets that box; callables are never merged.  A lag whose sum is not
    finite (products that overflow) is named in a ValueError.

    Each walk evaluates a part by the one rule of :func:`_walk`: at its first
    point, and where a coordinate the part reads changed bits.  A part left
    out keeps its previous row, and along T1 its previous lag sums are added
    again; row n1 = 0 is contracted over every lag, so step 1 may reuse it.
    The same bits give the same values and sums, so the result is bit for bit
    that of evaluating every part at every step.  The walks step only the
    closure of the coordinates the parts read, under T1 and T2 for a joint
    walk (:meth:`NumericSystem.closure`); a callable may read any coordinate,
    so it makes them step every one.
    """
    num, chunks = _chunks(sys, fs, N, seed, CORRELATION_CHUNK, (K1, K2))
    parts, where, slot = [], [], {}  # the distinct parts; fs[q] is parts[where[q]]
    for q, f in enumerate(fs):
        key = (f.dim, tuple(f.terms.items())) if isinstance(f, Observable) else q
        if key not in slot:
            slot[key] = len(parts)
            parts.append(f)
        where.append(slot[key])
    reads = [f.coordinates if isinstance(f, Observable) else None for f in parts]
    keep = num.closure(None if None in reads else frozenset().union(*reads), 2 if K2 else 1)
    step, step2 = partial(num.step, read=keep), partial(num.step2, read=keep)

    def values(pts: list, fresh) -> list:
        # the fresh Observables share one evaluation; callables run one by one in
        # list order, so a complement still sees its projection's batch last;
        # a part that is not fresh gets None
        fresh = fresh or [True] * len(parts)
        obs = [f for f, r, new in zip(parts, reads, fresh) if new and r is not None]
        shared = iter(evaluate_observables(obs, pts) if obs else ())
        return [(next(shared) if r is not None else f(pts)) if new else None
                for f, r, new in zip(parts, reads, fresh)]

    # -0.0 is the exact additive identity (+0.0 would turn a sum of -0.0 into +0.0)
    half = np.full((len(parts), K1 + 1, 2 * K2 + 1), complex(-0.0, -0.0))
    sums = [[]] * len(parts)  # each part's lag sums i = 0..2 K2 at its last evaluation
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is refused below
        for chunk in chunks:
            kept = np.empty((len(parts), 2 * K2 + 1, len(chunk[0])), dtype=complex)
            for j, (z, fresh) in enumerate(_walk(step2, chunk, 2 * K2, reads)):
                for q, fz in enumerate(values(z, fresh)):
                    kept[q, j] = kept[q, j - 1] if fz is None else np.conj(fz)
                if j == K2:
                    y = z
            for n1, (x, fresh) in enumerate(_walk(step, y, K1, reads)):
                # f(y) is conj of the kept row K2, exactly: conj only flips a sign
                for q, fx in enumerate(values(x, fresh) if n1 else map(np.conj, kept[:, K2])):
                    if fx is not None:
                        sums[q] = [np.sum(kept[q, 2 * K2 - i] * fx) for i in range(2 * K2 + 1)]
                    if n1 == 0:
                        half[q, 0, K2] += np.sum(np.square(fx.real) + np.square(fx.imag))
                    for i in range(K2 + 1 if n1 == 0 else 0, 2 * K2 + 1):  # i = K2 + n2
                        half[q, n1, i] += sums[q][i]
            del kept  # freed before the next chunk's block is allocated
        half /= N
    bad = np.argwhere(~np.isfinite(half))
    if len(bad):
        q, n1, i = bad[0]
        lag = "%d" % n1 if K2 == 0 else "%d, %d" % (n1, i - K2)
        raise ValueError("autocorrelation is not finite: c(%s) = %s" % (lag, half[q, n1, i]))
    for h in half:
        h[0] = _hermitian(h[0, K2:])
    return [_hermitian(half[p]).ravel() for p in where]


def autocorrelation(sys: AffineNilsystem, f, lag_range: int, N: int,
                    seed) -> AutocorrelationSeries:
    """c(n) ~= int conj(f) . f o T^n dmu for |n| <= lag_range, one orbit pass."""
    return autocorrelation_many(sys, [f], lag_range, N, seed)[0]


def autocorrelation_many(sys: AffineNilsystem, fs: list, lag_range: int, N: int,
                         seed) -> list[AutocorrelationSeries]:
    """Autocorrelation series of several observables sharing a single orbit run."""
    boxes = _correlations(sys, fs, lag_range, 0, N, seed)
    lags = list(range(-lag_range, lag_range + 1))
    return [AutocorrelationSeries(lags, v, N, seed) for v in boxes]


def joint_autocorrelation(sys: AffineNilsystem, f, grid: tuple[int, int], N: int,
                          seed) -> AutocorrelationSeries:
    """c(n1, n2) ~= int conj(f) . f o T1^n1 T2^n2 dmu for the Z^2-action of two
    commuting generators, |n_i| <= grid[i].

    Estimated as the mean of conj f(T2^(K2 - n2) z) . f(T1^n1 T2^K2 z) over the
    sample points z, which walk forward only: 2 K2 steps along T2 and K1
    along T1 (K_i = grid[i]).
    """
    if len(sys.generators) != 2:
        raise ValueError("joint autocorrelation needs a system with two generators")
    K1, K2 = grid
    (values,) = _correlations(sys, [f], K1, K2, N, seed)
    lags = list(product(range(-K1, K1 + 1), range(-K2, K2 + 1)))
    return AutocorrelationSeries(lags, values, N, seed)


def subtorus_support_test(series: AutocorrelationSeries, direction: tuple[int, int]) -> bool:
    """True when the joint spectrum is carried by {k1 z1 + k2 z2 = 0}.

    Checks |c(n1, n2)| <= CALIBRATION["support_tolerance"] whenever k1 n1 + k2 n2 != 0.
    """
    if len(series.reach) != 2:
        raise ValueError("support test needs a two-generator series")
    k1, k2 = direction
    if (k1, k2) == (0, 0) or gcd(abs(k1), abs(k2)) != 1:
        raise ValueError("direction must be a nonzero coprime pair")
    tol = CALIBRATION["support_tolerance"]
    n1, n2 = np.ogrid[tuple(slice(-K, K + 1) for K in series.reach)]
    return not np.any(np.abs(series.box[k1 * n1 + k2 * n2 != 0]) > tol)


# ---------------------------------------------------------------------------
# Atom mass, densities, reports
# ---------------------------------------------------------------------------


@dataclass
class AtomMass:
    """Cesaro mean of |c(n)|^2 with a half-window second estimate.

    The full-window value equals the sum of squared atom masses of the
    spectral measure in the K -> infinity limit; the half-window estimate
    reports convergence quality.
    """

    value: float
    half_window_value: float
    K: int

    def __float__(self):
        return self.value

    @property
    def convergence_delta(self) -> float:
        return abs(self.value - self.half_window_value)


def wiener_atom_mass(series: AutocorrelationSeries) -> AtomMass:
    if len(series.reach) != 1:
        raise ValueError("atom mass is defined for one-generator series")
    if len(series.lags) < 64:
        raise ValueError("need at least 64 lags")
    (K,) = series.reach
    with np.errstate(over="ignore"):  # |c|^2 past the float range is inf, which classify refuses
        power = np.abs(series.values) ** 2

    def cesaro(k: int) -> float:
        return float(np.mean(power[K - k : K + k + 1]))

    return AtomMass(cesaro(K), cesaro(K // 2), K)


def fejer_density(series: AutocorrelationSeries, grid_size: int) -> np.ndarray:
    """Fejér-smoothed density of the spectral measure on S^1 (or S^2).

    Nonnegative up to estimation noise; small negative values are clipped.
    The grid mean approximates c(0).
    """
    if grid_size < 16:
        raise ValueError("grid_size must be at least 16")
    theta = np.arange(grid_size) / grid_size
    dens = series.box
    for K in series.reach:
        # contract the leading lag axis against the Fejer-weighted characters;
        # its grid axis goes last, so the grid axes end in generator order
        n = np.arange(-K, K + 1)
        kernel = (1.0 - np.abs(n) / (K + 1.0)) * _exp_2pi_i(-np.outer(theta, n))
        dens = np.tensordot(dens, kernel, axes=(0, 1))
    return np.clip(dens.real, 0.0, None)


@dataclass
class SpectralReport:
    atom_mass: float
    verdict: str  # discrete | lebesgue-like | mixed
    c0: float
    sample_count: int
    K: int
    seed: int | None


def classify(series: AutocorrelationSeries) -> SpectralReport:
    """The verdict of the atom mass against ``CALIBRATION``'s ratios of c(0),
    each bound inclusive; a zero series (c(0) = 0) reads discrete.  Raises
    ValueError when c(0) or the atom mass is not finite."""
    am = wiener_atom_mass(series)
    c0 = series.c0()
    if not isfinite(c0):
        raise ValueError("autocorrelation is not finite: c(0) = %r, atom mass = %r"
                         % (c0, am.value))
    if not isfinite(am.value):
        raise ValueError("atom mass is not finite: c(0) = %r, but |c(n)|^2 passes the float range"
                         % c0)
    if am.value >= CALIBRATION["discrete_ratio"] * c0:
        verdict = "discrete"
    elif am.value <= CALIBRATION["continuous_ratio"] * c0:
        verdict = "lebesgue-like"
    else:
        verdict = "mixed"
    return SpectralReport(
        atom_mass=am.value,
        verdict=verdict,
        c0=c0,
        sample_count=series.sample_count,
        K=am.K,
        seed=series.seed,
    )


# ---------------------------------------------------------------------------
# Uniformity seminorms
# ---------------------------------------------------------------------------


@dataclass
class SeminormEstimate:
    value: float
    stability_delta: float  # |value - value at halved H|
    s: int
    H_levels: tuple[int, ...]
    sample_count: int
    seed: int | None

    def __float__(self):
        return self.value


def _seminorm_power(g: np.ndarray, s: int, H_levels: tuple[int, ...], halved=False):
    """||f||_{U^s}^{2^s} summed over one chunk's points: g[t, i] = f(T^t x_i).

    Finite-H surrogate: each level averages over shifts h = 1..H; the h = 0
    term of the limit formula contributes nothing as H grows and would
    dominate the finite-H bias, so it is dropped.  The s = 1 level is the
    closed form sum_i (sum_h g[h, i]) conj(g[0, i]) / H.  With ``halved``,
    the pair (that sum, the sum at the halved window, where each level H is
    max(1, H // 2)).

    The s = 2 level averages F(h, t) = g_0 conj(g_h) conj(g_t) g_{h+t} over
    h <= H2, t <= H1 (g_j = g[j, i], (H1, H2) = H_levels[:2]), and F is
    symmetric: F(h, t) = F(t, h), the cube symmetry of Host and Kra.  So each
    unordered pair is summed once.  For the larger shift a = 2..max(H1, H2)
    one dot over the n = min(a - 1, H1, H2) smaller shifts gives
    sum_{t <= n} F(a, t); it counts twice while a <= min(H1, H2) (both orders
    lie in the box) and once beyond; the diagonal F(a, a) is one sum.  That
    is about min(H1, H2) (2 max(H1, H2) - min(H1, H2)) / 2 row products in
    place of H2 (H1 + 1), 2143 in place of 4160 at H1 = H2 = 64.

    The s = 2 products are formed on column blocks of at most BLOCK points,
    cut in equal widths so that no block is one column wide (NumPy would sum
    a one-column block pairwise, not row by row).  Each block copies the rows
    it reads into one buffer and conj(g_1..g_low) into a second, writes each
    shift's products into one reused buffer and sums them down into that
    shift's full-width row of sums (row 1 holds the diagonal).  Row 0 then
    takes conj(g_0), and one s = 1 call on rows 0 and 1 at H = 1 gives the
    diagonal sum; each pair term is the dot of its row of sums with
    conj(g_a conj(g_0)), formed in one reused full-width buffer, so every dot
    runs over the whole chunk.  Every sum is added in the order of the
    full-width form kept in ``tests/oracles.py``.  Only a diagonal product
    can differ from that form's, in the last bit: NumPy's complex multiply
    is not commutative bit for bit, and that form multiplies conj(g_a)^2 by
    g_2a, as here, only when NumPy reuses the squares' temporary in place
    (at 256 KiB and more, so at every chunk of 4096 points with min(H) >= 4).

    At equal levels H the s = 2 and s = 3 sums run over the cube [1, H]^s
    grouped by the largest shift a, in increasing a, so the halved window's
    sum is the running sum at a = max(1, H // 2): the same pass gives it, bit
    for bit as a call at the halved levels.  At s = 2 those are the pair terms
    up to a and the diagonal summed over its first rows (the last row holds
    that partial diagonal).  At s = 3 the term G(h1, h2, h3) is symmetric
    under all six permutations of its shifts.  With p = g[a : 3a + 1]
    conj(g[: 2a + 1]) and F_p as above, a triple with largest shift a has one,
    two or all three shifts equal to a, so the group sums to
    3 (a - 1)^2 A(a) + 3 B(a) + C(a): A(a) is the s = 2 level at (a - 1, a - 1)
    on p, B(a) = sum_{t < a} F_p(t, a) one s = 1 call and C(a) = F_p(a, a).
    That is about H^3 / 6 row products in place of H^3 / 2.  Unequal levels
    run the s = 3 level as one s = 2 level per shift of its third level, and
    their halved window as a second call.
    """
    if halved and not (s >= 2 and len(set(H_levels[:s])) == 1):
        return (_seminorm_power(g, s, H_levels),
                _seminorm_power(g, s, tuple(max(1, h // 2) for h in H_levels)))
    if s == 0:
        return complex(g[0].sum())
    H = H_levels[s - 1]
    half = max(1, H // 2)
    if s == 1:
        return complex(np.dot(g[1 : H + 1].sum(0), np.conj(g[0]))) / H
    if s == 2:
        low, high = sorted(H_levels[:2])
        span, width = low + high + 1, g.shape[1]  # the level reads g[:span]
        count = -(-width // BLOCK)
        edges = [width * k // count for k in range(count + 1)]
        size = -(-width // count)
        rows = np.empty((high + 1 + halved, width), dtype=complex)
        block = np.empty((span, size), dtype=complex)
        conj = np.empty((low, size), dtype=complex)
        prod = np.empty((low, size), dtype=complex)
        for lo, hi in zip(edges, edges[1:]):
            gb, cb, pb = (b[:, : hi - lo] for b in (block, conj, prod))
            np.copyto(gb, g[:span, lo:hi])
            np.conjugate(gb[1 : low + 1], out=cb)
            np.multiply(cb, cb, out=pb)
            np.multiply(pb, gb[2 : 2 * low + 1 : 2], out=pb)
            np.add.reduce(pb, axis=0, out=rows[1, lo:hi])
            if halved:
                np.add.reduce(pb[:half], axis=0, out=rows[-1, lo:hi])
            for a in range(2, high + 1):
                n = min(a - 1, low)
                p = np.multiply(gb[a + 1 : a + n + 1], cb[:n], out=pb[:n])
                np.add.reduce(p, axis=0, out=rows[a, lo:hi])
        np.conjugate(g[0], out=rows[0])
        acc = _seminorm_power(rows[:2], 1, (1,))  # the diagonal: rows[1] . g_0
        part = _seminorm_power(rows[[0, -1]], 1, (1,)) if halved else 0j
        term = np.empty(width, dtype=complex)
        for a in range(2, high + 1):
            n = min(a - 1, low)
            np.conjugate(np.multiply(g[a], rows[0], out=term), out=term)
            pair = (2 if a <= low else 1) * n * (complex(np.dot(rows[a], term)) / n)
            acc += pair
            if a <= half:
                part += pair
        return (acc / (H * H), part / (half * half)) if halved else acc / (low * high)
    if H_levels[0] == H_levels[1] == H:  # s = 3 at equal levels, grouped by a
        base = np.conj(g[: 2 * H + 1])
        acc = part = 0j
        for a in range(1, H + 1):
            p = g[a : 3 * a + 1] * base[: 2 * a + 1]
            q = p[a : 2 * a + 1] * np.conj(p[: a + 1])  # q_t = p_{a+t} conj(p_t)
            n = a - 1
            acc += complex(np.dot(q[a], np.conj(q[0])))  # C(a)
            if n:
                acc += 3 * n * n * _seminorm_power(p, 2, (n, n))  # 3 (a - 1)^2 A(a)
                acc += 3 * n * _seminorm_power(q[:a], 1, (n,))  # 3 B(a)
            if a == half:
                part = acc
        return (acc / H ** 3, part / half ** 3) if halved else acc / H ** 3
    depth = 1 + sum(H_levels[: s - 1])
    base = np.conj(g[:depth])
    acc = 0.0j
    for h in range(1, H + 1):
        acc += _seminorm_power(g[h : h + depth] * base, s - 1, H_levels)
    return acc / H


def _seminorm_levels(s: int, H_levels) -> tuple[int, ...]:
    if s < 0 or s > 3:
        raise ValueError("s must be in 0..3")
    try:
        H_levels = tuple(H_levels)
    except TypeError:  # one level for every s
        H_levels = (H_levels,) * s
    H_levels = tuple(_integral(h, "level") for h in H_levels)
    if len(H_levels) != s:
        raise ValueError("need one H per recursion level")
    if any(h < 1 for h in H_levels):
        raise ValueError("every H must be >= 1, got %r" % (H_levels,))
    return H_levels


def _seminorm_rows(sys: AffineNilsystem, f, orders, H_levels: tuple[int, ...], N: int,
                   seed) -> list[SeminormEstimate]:
    """The U^s estimate on the levels H_levels[:s] for each s in ``orders``, one walk.

    Each chunk of sample points is walked and contracted in turn, so only a
    depth x chunk block of orbit values is held.  Each row's estimate at
    halved windows comes from the same :func:`_seminorm_power` call as the
    row's own, read off its running sum where the levels are equal.  A row
    whose sum is not finite (products that overflow) is named in a ValueError.
    The walk steps only the closure of the coordinates f reads (every one for
    a callable f).
    """
    depth = 1 + sum(H_levels)
    num, chunks = _chunks(sys, [f], N, seed, SEMINORM_CHUNK, (depth - 1,))
    keep = num.closure(f.coordinates if isinstance(f, Observable) else None, 1)
    sums = [(0j, 0j)] * len(orders)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is refused below
        for chunk in chunks:
            g = np.empty((depth, len(chunk[0])), dtype=complex)
            g[0] = f(chunk)
            for t in range(1, depth):
                chunk = num.step(chunk, keep)
                g[t] = f(chunk)
            for q, s in enumerate(orders):
                full, half = _seminorm_power(g, s, H_levels[:s], halved=True)
                sums[q] = (sums[q][0] + full, sums[q][1] + half)
            del g  # freed before the next chunk's block is allocated

    def estimate(p: complex, s: int) -> float:
        return max(p.real, 0.0) ** (1.0 / 2 ** s) if s else abs(p)

    rows = []
    for s, (full, half) in zip(orders, sums):
        if not np.isfinite([full, half]).all():
            raise ValueError("U^%d estimate is not finite: %r, at halved windows %r"
                             % (s, full / N, half / N))
        value = estimate(full / N, s)
        rows.append(SeminormEstimate(value, abs(value - estimate(half / N, s)),
                                     s, H_levels[:s], N, seed))
    return rows


def uniformity_seminorm(sys: AffineNilsystem, f, s: int, H_levels, N: int,
                        seed) -> SeminormEstimate:
    """Finite-scale Gowers–Host–Kra seminorm U^s estimate with a stability delta.

    The base case is the plain integral; each level averages the previous
    seminorm power of T^h f . conj(f) over h = 1..H.
    """
    H_levels = _seminorm_levels(s, H_levels)
    return _seminorm_rows(sys, f, [s], H_levels, N, seed)[0]


def seminorm_ladder(sys: AffineNilsystem, f, H_levels, N: int,
                    seed) -> list[SeminormEstimate]:
    """U^s estimates for s = 1..len(H_levels), row s on H_levels[:s], from one orbit walk.

    Row s equals ``uniformity_seminorm(sys, f, s, H_levels[:s], N, seed)``.
    """
    try:
        s = len(H_levels)
    except TypeError:  # unlike uniformity_seminorm, no s to repeat a scalar level for
        raise ValueError("a ladder needs one level per row, got %r" % (H_levels,)) from None
    H_levels = _seminorm_levels(s, H_levels)
    return _seminorm_rows(sys, f, range(1, s + 1), H_levels, N, seed)


# ---------------------------------------------------------------------------
# Factor projections and characters
# ---------------------------------------------------------------------------


def _primitive_ideal_basis(N_ideal: RationalIdeal) -> np.ndarray:
    """The ideal's basis rows as primitive integer vectors, one float row each."""
    rows = [linalg.primitive_integer_vector(v) for v in N_ideal.basis]
    return np.array(rows, dtype=float).reshape(len(rows), N_ideal.parent.dim)


def _commutes(alg, xs, ys) -> bool:
    """True when [x, y] = 0 for every x in xs and y in ys."""
    return all(la.vec_is_zero(alg.bracket(x, y)) for x in xs for y in ys)


def project_to_factor(sys: AffineNilsystem, f, N_ideal: RationalIdeal,
                      samples: int = 16):
    """Split f into its conditional expectation on G/exp(N) and the complement.

    When f is an :class:`Observable` and N is spanned by central coordinate
    axes, translation by exp(N) only shifts those coordinates, so the
    expectation is exact: both parts are Observables, the terms of f with zero
    frequency on the axes and the remaining terms.  Otherwise the expectation
    is the average of f over the exp(N)-coset through each point, on a
    midpoint grid of ``samples`` points per direction of N (which annihilates
    exactly the nonzero integer frequencies below the grid resolution), and
    the complement is f minus it; both parts are then callables on numeric
    point batches.  The complement reuses the projection's value when it is
    called on the batch object the projection saw last, so the batch must not
    be changed in place between the two calls.
    """
    M = _integral(samples, "samples")
    if M < 1:
        raise ValueError("samples must be >= 1, got %d" % M)
    _check_dimension(sys, f)
    check_factor_kernel(sys, N_ideal)
    alg = sys.algebra
    dirs = _primitive_ideal_basis(N_ideal)
    # a primitive vector with one nonzero entry is +-1 times a coordinate axis
    axes = [int(np.flatnonzero(d)[0]) for d in dirs if np.count_nonzero(d) == 1]
    if (isinstance(f, Observable) and len(axes) == len(dirs)
            and _commutes(alg, [alg.basis_vector(j) for j in axes], alg.basis())):
        kept = {k: a for k, a in f.terms.items() if not any(k[j] for j in axes)}
        rest = {k: a for k, a in f.terms.items() if k not in kept}
        return Observable(f.dim, kept), Observable(f.dim, rest)
    u = (np.array(list(np.ndindex(*[M] * len(dirs)))) + 0.5) / M
    zs = [gp.first_to_second(alg, w.tolist()) for w in u @ dirs]

    last = [None, None]  # the batch the projection last saw, and its value there

    def projection(pts: list) -> np.ndarray:
        last[:] = pts, sum(f(_translate(alg, z, pts)) for z in zs) / len(zs)
        return last[1]

    def complement(pts: list) -> np.ndarray:
        # a series over [projection, complement] evaluates both on each batch:
        # reuse the projection's value rather than average the coset again
        return f(pts) - (last[1] if last[0] is pts else projection(pts))

    return projection, complement


def vertical_character_test(sys: AffineNilsystem, f, central_ideal: RationalIdeal,
                            chi_frequency) -> bool:
    """True when f(z x) = chi(z) f(x) for central z, i.e. f lies in V_chi: checked
    on 256 sample points and 8 random z, both drawn from seed 0."""
    alg = sys.algebra
    if central_ideal.dim and not central_ideal.is_rational:
        raise ValueError("central ideal must be rational")
    if not _commutes(alg, central_ideal.basis, alg.basis()):
        raise ValueError("ideal is not central")
    chi = tuple(_integral(k, "character frequency") for k in np.atleast_1d(chi_frequency))
    if len(chi) != central_ideal.dim:
        raise ValueError("character frequency has wrong length")
    tol = CALIBRATION["character_tolerance"]
    dirs = _primitive_ideal_basis(central_ideal)
    pts = sys.numeric().sample_points(256, 0)
    rng = np.random.default_rng(0)
    us = rng.random((8, len(dirs))) if len(dirs) else np.zeros((1, 0))
    f0 = f(pts)
    for u in us:
        z = gp.first_to_second(alg, (u @ dirs).tolist())
        chi_z = _exp_2pi_i(np.dot(chi, u))
        if np.max(np.abs(f(_translate(alg, z, pts)) - chi_z * f0)) > tol:
            return False
    return True


def fiber_eigenvalues(sys: AffineNilsystem, base_point, j_range) -> list[float]:
    """Angles t_j(y) of the fiberwise eigenvalues chi_j(g^{-1} tau g).

    Requires the Leibman group's identity component to be abelian, so every
    fiber system is a rotation; ``base_point`` gives a section point g whose
    projection is the base point y, and the angles are the characters of the
    fiber torus evaluated at the element g^{-1} g_tau A(g).
    """
    alg = sys.algebra
    hH = leibman_identity_component(sys)
    if not _commutes(alg, hH.basis, hH.basis):
        raise ValueError("Leibman component is not abelian; fibers are not rotations")
    g = [float(c) for c in base_point]
    A, g_tau = sys.numeric().pairs[0]  # g_tau A(g), unreduced, from T's float pair
    image = gp.multiply(alg, g_tau, g if A is None else gp.apply_automorphism(alg, A, g))
    w = gp.multiply(alg, gp.inverse(alg, g), image)
    logw = gp.second_to_first(alg, w)
    # coordinates of log(w) in the primitive basis of the fiber algebra
    dirs = _primitive_ideal_basis(hH)
    if len(dirs):
        Mt = dirs.T
        coords = np.linalg.lstsq(Mt, np.array(logw, dtype=float), rcond=None)[0]
        resid = np.array(logw, dtype=float) - Mt @ coords
        if np.max(np.abs(resid)) > 1e-9:
            raise ValueError("g^{-1} tau g does not lie in the fiber group")
    else:
        coords = np.zeros(0)
    angles = []
    for j in j_range:
        jv = np.array([_integral(k, "character index") for k in np.atleast_1d(j)], dtype=float)
        if len(jv) != len(coords):
            raise ValueError("character index has wrong length")
        angles.append(float(np.dot(jv, coords) % 1.0))
    return angles


# ---------------------------------------------------------------------------
# Pushforward histograms
# ---------------------------------------------------------------------------


@dataclass
class PushforwardHistogram:
    counts: np.ndarray  # bin masses summing to 1
    bins: int
    max_atom: float
    sample_count: int
    seed: int | None


def pushforward_histogram(p: dict, bins: int, N: int, seed) -> PushforwardHistogram:
    """Histogram of p(x) mod 1 over QMC samples of the unit cube.

    ``p`` maps exponent tuples to coefficients.  Constant polynomials are
    rejected: their gradient vanishes everywhere, so the pushforward of
    Lebesgue measure is a point mass and carries no density.
    """
    expos = [tuple(_integral(e, "exponent") for e in k) for k in p]
    if any(e < 0 for k in expos for e in k):
        raise ValueError("exponents must be nonnegative integers, got %r" % (list(p),))
    if not expos or not any(any(e) for e in expos):
        raise ValueError("constant polynomial has no absolutely continuous pushforward")
    d = len(expos[0])
    if any(len(e) != d for e in expos):
        raise ValueError("inconsistent number of variables")
    coeffs = [float(c) for c in p.values()]
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients must be finite, got %r" % (list(p.values()),))
    pts = gp.haar_sample(d, N, seed)
    vals = np.zeros(N)
    for k, c in zip(expos, coeffs):
        term = c * np.ones(N)
        for j, e in enumerate(k):
            if e:
                term = term * pts[:, j] ** e
        vals += term
    vals = np.mod(vals, 1.0)
    counts, _ = np.histogram(vals, bins=bins, range=(0.0, 1.0))
    masses = counts / N
    return PushforwardHistogram(
        counts=masses,
        bins=bins,
        max_atom=float(masses.max()),
        sample_count=N,
        seed=seed,
    )
