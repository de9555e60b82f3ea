"""Spectral estimator tests: exact small cases plus catalog cross-checks."""

import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from nillab import algebra as la
from nillab import spectral as sp
from nillab import structure as st
from nillab.catalog import catalog_build, catalog_entry, observable_for
from nillab.spectral import (
    AutocorrelationSeries,
    LagBudgetError,
    Observable,
    ObservableError,
    autocorrelation,
    autocorrelation_many,
    classify,
    fejer_density,
    fiber_eigenvalues,
    joint_autocorrelation,
    project_to_factor,
    pushforward_histogram,
    seminorm_ladder,
    subtorus_support_test,
    translated_observable,
    uniformity_seminorm,
    vertical_character_test,
    wiener_atom_mass,
)

import oracles


def ones_series(K):
    return AutocorrelationSeries(
        list(range(-K, K + 1)), np.ones(2 * K + 1, dtype=complex), 1000, 0
    )


def delta_series(K):
    v = np.zeros(2 * K + 1, dtype=complex)
    v[K] = 1.0
    return AutocorrelationSeries(list(range(-K, K + 1)), v, 1000, 0)


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------


def test_observable_algebra():
    f = Observable.character(2, (1, 0))
    g = Observable.character(2, (0, 1))
    pts = [np.array([0.25, 0.5]), np.array([0.125, 0.75])]
    assert np.allclose(f(pts), np.exp(2j * np.pi * np.array([0.25, 0.5])))
    prod = f * g
    assert set(prod.terms) == {(1, 1)}
    s = f + g
    assert np.allclose(s(pts), f(pts) + g(pts))
    assert np.allclose(f.conj()(pts), np.conj(f(pts)))
    c = Observable.constant(2, 3.0)
    assert np.allclose(c(pts), 3.0)


@pytest.mark.parametrize("amp", [np.nan, np.inf, -np.inf, complex(1, np.inf), complex(np.nan, 0)])
def test_observable_rejects_non_finite_amplitude(amp):
    with pytest.raises(ObservableError, match="not finite"):
        Observable(2, {(1, 0): 1.0, (0, 1): amp})
    with pytest.raises(ObservableError, match="not finite"):
        Observable.character(2, (1, 0)) * amp


def test_exp_kernel_matches_exact_oracle():
    """The phase-table e(x) is within 1e-15 of the exactly reduced e(x).

    Over these inputs and 64000 random ones in [-1, 1] and 1 <= |x| <= 2^40
    the largest deviation was 2.5e-16.  np.exp(2j pi x) deviates by up to
    7.9e-16 on [-1, 1], and by far more at large |x|, where 2 pi x is rounded
    before the exponential.
    """
    rng = np.random.default_rng(13)
    j = np.arange(sp.PHASES + 1) / sp.PHASES
    mag = 2.0 ** rng.uniform(0, 40, 256)
    huge = 2.0 ** rng.uniform(52, 1023, 64)
    xs = np.concatenate([
        np.linspace(-1.0, 1.0, 2049),
        j, np.nextafter(j, -1.0), np.nextafter(j, 2.0),
        -rng.random(256), mag, -mag, huge, -huge,
        [2.0 ** 52 - 0.5, 2.0 ** 52, 5e-324, -5e-324, -1e-300],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sp._exp_2pi_i(xs)
        exact = [oracles.exp_2pi_i_exact(x) for x in xs.tolist()]
        assert np.max(np.abs(got - exact)) <= 1e-15
        assert np.all(sp._exp_2pi_i(np.concatenate([huge, -huge])) == 1)
        quarters = np.array([0.0, -0.0, 0.25, 0.5, 0.75, -0.25, -0.5, -0.75, 1.0, -3.0])
        assert np.array_equal(sp._exp_2pi_i(quarters), [1, 1, 1j, -1, -1j, -1j, -1, 1j, 1, 1])
        bad = sp._exp_2pi_i(np.array([np.nan, np.inf, -np.inf]))
        assert np.all(np.isnan(bad.real) & np.isnan(bad.imag))


def test_exp_kernel_is_bitwise_the_table_expression():
    """The in-place e(x) is the out-of-place phase-table expression bit for
    bit, and leaves its read-only input as it was."""
    rng = np.random.default_rng(17)
    j = np.arange(4 * 64 + 1) / 16  # quarter and sixteenth turns, up to 16
    xs = np.concatenate([
        rng.uniform(-8.0, 8.0, 4096), -rng.random(256),
        2.0 ** rng.uniform(0, 60, 128), -(2.0 ** rng.uniform(0, 60, 128)),
        2.0 ** rng.uniform(52, 1023, 64), -(2.0 ** rng.uniform(52, 1023, 64)),
        j, -j, np.nextafter(j, -np.inf), np.nextafter(j, np.inf),
        [0.0, -0.0, 5e-324, -5e-324, 2.0 ** 52 - 0.5, np.nan, np.inf, -np.inf],
    ])
    before = xs.copy()
    xs.flags.writeable = False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sp._exp_2pi_i(xs)
    want = oracles.exp_2pi_i_table(xs)
    assert got.dtype == want.dtype == complex
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(xs.view(np.int64), before.view(np.int64))
    assert not np.shares_memory(got, xs)


@pytest.mark.parametrize("entry", [1.5, Fraction(3, 2), np.float64(0.5), -0.25, np.nan,
                                   np.inf, "1", 1 + 1j])
def test_observable_rejects_non_integer_frequency(entry):
    with pytest.raises(ObservableError, match="not an integer"):
        Observable(2, {(1, entry): 1.0})
    with pytest.raises(ObservableError, match="not an integer"):
        Observable.character(2, (entry, 0))


def test_observable_refuses_frequency_above_cap():
    for k in (sp.MAX_FREQUENCY + 1, -sp.MAX_FREQUENCY - 1, 10 ** 20):
        with pytest.raises(ObservableError, match="frequency entry above 256"):
            Observable(2, {(0, k): 1.0})
    f = Observable.character(2, (-sp.MAX_FREQUENCY, 1))
    with pytest.raises(ObservableError, match="frequency entry above 256"):
        f * f


def test_observables_of_different_dimensions_do_not_combine():
    # zipping the frequency vectors would drop the extra coordinate: e_x on T^1
    f, g = Observable(1, {(1,): 1.0}), Observable(2, {(0, 1): 1.0})
    for a, b in ((f, g), (g, f)):
        with pytest.raises(ObservableError, match="do not combine"):
            a * b
        with pytest.raises(ObservableError, match="do not combine"):
            a + b


def test_observable_accepts_integral_frequencies():
    f = Observable(3, {(2.0, np.int64(-1), Fraction(4, 2)): 1.0})
    assert f.terms == {(2, -1, 2): 1.0}
    assert all(type(k) is int for k in next(iter(f.terms)))


@settings(max_examples=200, deadline=None)
@given(hst.data())
def test_observable_evaluation_matches_per_term_oracle(data):
    """One exponential per coordinate agrees with one exponential per term.

    A unit character of one coordinate is the phase-table kernel applied to
    that coordinate, bit for bit, and within 1e-15 of the exact e(x_j).
    Otherwise powers and products round differently from exp(2 pi i <k, x>):
    over 20000 random observables the deviation was at most 1.4e-14 per unit
    of sum |a_k|, and 3.6e-14 with every |k_j| = 3 and every |x_j| near 1 in
    six coordinates; the bound is 1e-13.
    """
    dim = data.draw(hst.integers(0, 6), label="dim")
    freq = hst.tuples(*[hst.integers(-3, 3)] * dim)
    coeff = hst.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
    terms = data.draw(hst.dictionaries(freq, coeff, max_size=6), label="terms")
    terms[(0,) * dim] = data.draw(coeff, label="constant term")
    f = Observable(dim, terms)
    # terms that cancel: adding -a_k e_k drops e_k from f
    gone = data.draw(hst.lists(hst.sampled_from(sorted(terms)), max_size=3, unique=True),
                     label="cancelled")
    f = f + Observable(dim, {k: -f.terms[k] for k in gone if k in f.terms})
    assert not set(gone) & set(f.terms)
    coord = hst.floats(-1.0, 1.0, allow_nan=False)
    if data.draw(hst.booleans(), label="float point"):
        pts = [data.draw(coord) for _ in range(dim)]
    else:
        n = data.draw(hst.integers(1, 16), label="points")
        pts = [np.array(data.draw(hst.lists(coord, min_size=n, max_size=n)))
               for _ in range(dim)]

    got = f(pts)
    assert np.shape(got) == (np.shape(pts[0]) if dim else ())
    bound = 1e-13 * sum(abs(a) for a in f.terms.values())
    assert np.max(np.abs(got - oracles.observable_direct(f, pts)), initial=0.0) <= bound
    units = [Observable.character(dim, np.eye(dim, dtype=int)[j]) for j in range(dim)]
    for x, e in zip(pts, units):
        x = np.asarray(x, dtype=float)
        value = np.asarray(e(pts))
        assert value.tobytes() == sp._exp_2pi_i(x).tobytes()
        exact = [oracles.exp_2pi_i_exact(v) for v in np.ravel(x).tolist()]
        assert np.max(np.abs(np.ravel(value) - exact)) <= 1e-15
    empty, one = Observable(dim, {}), Observable.constant(dim)
    assert not empty.terms and np.all(empty(pts) == 0)
    assert np.all(one(pts) == 1)
    # in a batch every observable gets exactly its value alone
    batch = [f, *units, empty, one, f.conj()]
    for g, value in zip(batch, sp.evaluate_observables(batch, pts)):
        assert np.array_equal(value, g(pts))


# ---------------------------------------------------------------------------
# Autocorrelation
# ---------------------------------------------------------------------------


def test_autocorrelation_constant_observable_is_all_ones():
    sys = catalog_build("rot_torus")
    series = autocorrelation(sys, Observable.constant(1), 32, 1024, seed=0)
    assert np.max(np.abs(series.values - 1.0)) <= 1e-12


def test_autocorrelation_of_character_on_rotation():
    sys = catalog_build("rot_torus")
    alpha = sys.default_assignment["alpha"]
    f = Observable.character(1, (1,))
    series = autocorrelation(sys, f, 32, 2048, seed=1)
    for n in range(-32, 33):
        assert abs(series.value(n) - np.exp(2j * np.pi * n * alpha)) <= 1e-10
    with pytest.raises(KeyError):
        series.value(33)


def test_autocorrelation_hermitian_symmetry_and_bound():
    sys = catalog_build("skew_torus_nonergodic")
    f = Observable.character(2, (0, 1))
    series = autocorrelation(sys, f, 64, 4096, seed=2)
    c0 = series.c0()
    for n in range(1, 65):
        assert series.value(-n) == np.conj(series.value(n))
        assert abs(series.value(n)) <= c0 * (1 + 1e-6)


def test_autocorrelation_many_shares_one_orbit():
    sys = catalog_build("rot_torus")
    f = Observable.character(1, (1,))
    g = Observable.character(1, (2,))
    sf, sg = autocorrelation_many(sys, [f, g], 16, 1024, seed=3)
    assert np.allclose(sf.values, autocorrelation(sys, f, 16, 1024, seed=3).values)
    assert np.allclose(sg.values, autocorrelation(sys, g, 16, 1024, seed=3).values)
    # the dichotomy parts: every Observable part of a step is evaluated in one
    # batch, and a character is built the same way in or out of it
    for name in ("skew_torus_nonergodic", "heisenberg3"):
        entry = catalog_entry(name)
        sys = entry.build()
        J = st.rational_closure_J(sys, st.tau_commutator_ideal(sys))
        parts = [p for spec in entry.dichotomy_observables
                 for p in project_to_factor(sys, observable_for(entry, spec), J)]
        many = autocorrelation_many(sys, parts, 16, 1024, seed=3)
        for part, series in zip(parts, many):
            alone = autocorrelation(sys, part, 16, 1024, seed=3)
            assert np.all(series.values == alone.values)


def test_autocorrelation_many_contracts_each_distinct_part_once(monkeypatch):
    """Observables with equal terms are evaluated once per step, and each gets
    the series it gets without the duplicate; a callable is never merged."""
    sys = catalog_build("heisenberg3")
    f = Observable(3, {(0, 0, 1): 1.0, (1, 0, 0): 0.5})
    g = Observable.character(3, (0, 1, 0))
    pair = autocorrelation_many(sys, [f, g], 16, 1024, seed=5)
    evaluated, called = [], []
    evaluate = sp.evaluate_observables
    monkeypatch.setattr(sp, "evaluate_observables",
                        lambda fs, pts: evaluated.append(len(fs)) or evaluate(fs, pts))

    def h(pts):
        called.append(pts)
        return np.cos(pts[0]) + 0j

    many = autocorrelation_many(sys, [f, g, Observable(3, f.terms), h, h], 16, 1024, seed=5)
    for series, want in zip(many, [*pair, pair[0]]):
        assert series.values.tobytes() == want.values.tobytes()
    assert many[3].values.tobytes() == many[4].values.tobytes()
    assert evaluated == [2] * 17  # the sample, kept and reused, then 16 steps along T
    assert len(called) == 2 * 17


def test_autocorrelation_many_is_the_plain_orbit_mean():
    """Each value is exactly np.mean(conj f(x) . f(T^n x)) over the sample."""
    sys = catalog_build("heisenberg3")
    f = Observable(3, {(0, 0, 1): 1.0, (1, 0, 0): 0.5})
    (series,) = autocorrelation_many(sys, [f], 16, 1024, seed=4)
    num = sys.numeric()
    x = num.sample_points(1024, 4)
    base = np.conj(f(x))
    for n in range(17):
        assert series.value(n) == np.mean(base * f(x))
        x = num.step(x)


_C = sp.CORRELATION_CHUNK


@pytest.mark.parametrize("N", [1000, _C - 1, _C, _C + 1, 3 * _C + 17])
@pytest.mark.parametrize("name, K2", [("heisenberg3", 0), ("z2_skew", 0), ("z2_skew", 3)])
def test_chunked_correlations_match_whole_batch_oracle(name, K2, N):
    """Bitwise the whole-batch walk while the sample is one chunk, and within
    1e-15 c(0) across chunk boundaries.  On heisenberg3 a quadrature
    [projection, complement] pair runs the complement's reuse of the
    projection's batch in every chunk."""
    sys = catalog_build(name)
    K = 6
    if name == "heisenberg3":
        alg = sys.algebra
        kernel = la.span(alg, [alg.basis_vector(1), alg.basis_vector(2)])
        f = Observable(3, {(1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 1): 0.5})
        fs = [f, *project_to_factor(sys, f, kernel, samples=2)]
    else:
        fs = [Observable(2, {(0, 1): 1.0, (1, 2): 0.5}), Observable.character(2, (1, 0))]
    if K2:
        got = [joint_autocorrelation(sys, f, (K, K2), N, seed=17).values for f in fs]
        want = [w for f in fs for w in oracles.correlations(sys, [f], K, K2, N, 17)]
    else:
        got = [s.values for s in autocorrelation_many(sys, fs, K, N, seed=17)]
        want = oracles.correlations(sys, fs, K, K2, N, 17)
    assert len(got) == len(want) == len(fs)
    for g, w in zip(got, want):
        if N <= _C:
            assert g.tobytes() == w.tobytes()
        else:
            assert np.max(np.abs(g - w)) <= 1e-15 * abs(w[len(w) // 2])


def test_joint_autocorrelation_memory_is_bounded_by_the_chunk():
    """A whole-batch walk would hold a (2 K2 + 1) x N block, 52.8 MB at
    K2 = 16 and N = 10^5; the chunked walk holds (2 K2 + 1) x chunk values."""
    sys = catalog_build("z2_skew")
    tracemalloc.start()
    try:
        joint_autocorrelation(sys, Observable.character(2, (0, 1)), (8, 16), 10 ** 5, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 53e6


def test_autocorrelation_input_validation():
    sys = catalog_build("rot_torus")
    f = Observable.character(1, (1,))
    with pytest.raises(ValueError):
        autocorrelation(sys, f, 16, 512, seed=0)  # too few samples
    with pytest.raises(LagBudgetError):
        autocorrelation(sys, f, 2048, 4096, seed=0)  # beyond the drift cap


def test_translated_observable_leaves_spectral_measure_invariant():
    sys = catalog_build("rot_torus")
    f = Observable.character(1, (1,))
    g = translated_observable(sys, f, [0.3517])
    sf = autocorrelation(sys, f, 24, 2048, seed=4)
    sg = autocorrelation(sys, g, 24, 2048, seed=4)
    assert np.max(np.abs(sf.values - sg.values)) <= 1e-12


# ---------------------------------------------------------------------------
# Atom mass, density, classification
# ---------------------------------------------------------------------------


def test_wiener_atom_mass_pure_point_series():
    am = wiener_atom_mass(ones_series(128))
    assert am.value == pytest.approx(1.0)
    assert am.convergence_delta <= 1e-12


def test_wiener_atom_mass_flat_series():
    K = 128
    am = wiener_atom_mass(delta_series(K))
    assert am.value == pytest.approx(1.0 / (2 * K + 1))
    assert float(am) == am.value


def hermitian_series(K, seed):
    rng = np.random.default_rng(seed)
    half = rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)
    half[0] = abs(half[0]) + 2.0
    v = np.concatenate([np.conj(half[1:][::-1]), half])
    return AutocorrelationSeries(list(range(-K, K + 1)), v, 1000, 0)


def test_wiener_atom_mass_matches_cesaro_formula():
    K = 100
    series = hermitian_series(K, seed=20)

    def cesaro(k):
        return sum(abs(series.value(n)) ** 2 for n in range(-k, k + 1)) / (2 * k + 1)

    am = wiener_atom_mass(series)
    assert am.K == K
    assert am.value == pytest.approx(cesaro(K), rel=1e-13)
    assert am.half_window_value == pytest.approx(cesaro(K // 2), rel=1e-13)


def test_wiener_atom_mass_needs_enough_lags():
    with pytest.raises(ValueError):
        wiener_atom_mass(ones_series(16))


def test_fejer_density_shapes():
    dens = fejer_density(delta_series(64), 64)
    assert np.allclose(dens, 1.0, atol=1e-12)  # Lebesgue: flat density
    dens = fejer_density(ones_series(64), 64)
    assert np.argmax(dens) == 0  # point mass at frequency zero
    assert dens[0] == pytest.approx(65.0)  # Fejer kernel peak = K + 1
    assert dens[32] <= 0.05 * dens[0]
    with pytest.raises(ValueError):
        fejer_density(ones_series(64), 8)


def test_fejer_density_two_generators_matches_double_sum():
    K1, K2, grid = 3, 5, 16
    rng = np.random.default_rng(21)
    lags = [(n1, n2) for n1 in range(-K1, K1 + 1) for n2 in range(-K2, K2 + 1)]
    c = {l: complex(rng.normal(), rng.normal()) for l in lags if l >= (0, 0)}
    c[(0, 0)] = 4.0
    c.update({(-n1, -n2): np.conj(v) for (n1, n2), v in list(c.items())})
    series = AutocorrelationSeries(lags, np.array([c[l] for l in lags]), 1000, 0, generators=2)
    t = np.arange(grid) / grid
    brute = np.zeros((grid, grid))
    for i in range(grid):
        for j in range(grid):
            brute[i, j] = sum(
                ((1 - abs(n1) / (K1 + 1)) * (1 - abs(n2) / (K2 + 1))
                 * c[(n1, n2)] * np.exp(-2j * np.pi * (n1 * t[i] + n2 * t[j]))).real
                for n1, n2 in lags
            )
    assert np.max(np.abs(fejer_density(series, grid) - np.clip(brute, 0.0, None))) <= 1e-12


def test_classify_verdicts_on_exact_series():
    assert classify(ones_series(128)).verdict == "discrete"
    assert classify(delta_series(128)).verdict == "lebesgue-like"
    # constant series at 0.6: atom mass 0.36, c(0) = 0.6, ratio 0.6 -> mixed
    half = ones_series(128)
    half.values = half.values * 0.6
    assert classify(half).verdict == "mixed"


def test_classify_thresholds_are_inclusive(monkeypatch):
    # a constant series at v = 2^-j: atom mass v^2 and c(0) = v, so the ratio
    # atom mass / c(0) is exactly v
    def constant(v):
        series = ones_series(128)
        series.values = series.values * v
        return series

    monkeypatch.setitem(sp.CALIBRATION, "discrete_ratio", 0.5)
    monkeypatch.setitem(sp.CALIBRATION, "continuous_ratio", 0.125)
    assert classify(constant(0.5)).verdict == "discrete"
    assert classify(constant(0.25)).verdict == "mixed"
    assert classify(constant(0.125)).verdict == "lebesgue-like"
    assert classify(constant(0.0)).verdict == "discrete"  # c(0) = 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_classify_refuses_a_non_finite_series(bad):
    """A non-finite c(0) or atom mass has no verdict: a NaN series used to
    read `mixed`, and a NaN atom mass at c(0) = 0 `discrete`."""
    everywhere = ones_series(128)
    everywhere.values = np.full(257, complex(bad))
    off_zero = ones_series(128)
    off_zero.values = np.zeros(257, dtype=complex)
    off_zero.values[0] = bad  # c(0) = 0, atom mass not finite
    for series in (everywhere, off_zero):
        with pytest.raises(ValueError, match="not finite"):
            classify(series)


# ---------------------------------------------------------------------------
# Uniformity seminorms
# ---------------------------------------------------------------------------


def test_seminorm_of_constant_is_one():
    sys = catalog_build("rot_torus")
    f = Observable.constant(1)
    for s in range(4):
        est = uniformity_seminorm(sys, f, s, 16, 2048, seed=5)
        assert est.value == pytest.approx(1.0, abs=1e-10)
        assert est.stability_delta <= 1e-10


def test_seminorm_stability_delta_is_halved_level_difference():
    # equal levels read the halved window off the full window's pass; on
    # heisenberg3 the estimate moves with the window, so a wrong prefix shows
    for name, f, levels in [
            ("skew_torus_nonergodic", Observable(2, {(0, 1): 1.0, (1, 1): 0.5}), (9, 6, 3)),
            ("heisenberg3", Observable(3, {(0, 1, 0): 1.0, (0, 0, 1): 1.0}), (8, 8, 8))]:
        sys = catalog_build(name)
        for s in (1, 2, 3):
            est = uniformity_seminorm(sys, f, s, levels[:s], 1024, seed=7)
            halved = tuple(max(1, h // 2) for h in levels[:s])
            half = uniformity_seminorm(sys, f, s, halved, 1024, seed=7)
            assert est.stability_delta == abs(est.value - half.value), (levels, s)


def _orbit_matrix(sys, f, depth, N, seed):
    """G[t, i] = f(T^t x_i), walked on the whole batch at once."""
    num = sys.numeric()
    G = np.empty((depth, N), dtype=complex)
    for t, cur in enumerate(sp._orbit(num.step, num.sample_points(N, seed), depth - 1)):
        G[t] = f(cur)
    return G


@settings(max_examples=25, deadline=None)
@given(hst.data())
def test_chunked_seminorm_matches_full_batch_oracle(data):
    sys = catalog_build("skew_torus_nonergodic")
    # e(x) is invariant, so every seminorm power stays of order one
    f = Observable(2, {(1, 0): 1.0, (0, 1): 0.5, (1, 1): 0.25j})
    s = data.draw(hst.integers(0, 3), label="s")
    levels = tuple(data.draw(hst.lists(hst.integers(1, 9), min_size=s, max_size=s),
                             label="levels"))
    C = sp.SEMINORM_CHUNK
    N = data.draw(hst.sampled_from([1000, C - 1, C, C + 1, 3 * C + 17]), label="N")
    seed = data.draw(hst.integers(0, 2 ** 16), label="seed")
    est = uniformity_seminorm(sys, f, s, levels, N, seed)
    G = _orbit_matrix(sys, f, 1 + sum(levels), N, seed)
    p = oracles.seminorm_power(G, s, levels)
    want = max(p.real, 0.0) ** (1.0 / 2 ** s) if s else abs(p)
    assert abs(est.value - want) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(hst.data())
def test_seminorm_kernel_matches_oracle_at_s_2_and_3(data):
    # the kernel sums each unordered s = 2 shift pair once, the oracle every
    # (h, t); levels up to 24 reach H1 < H2, H1 > H2 and a level of 1
    s = data.draw(hst.sampled_from([2, 3]), label="s")
    levels = tuple(data.draw(hst.lists(hst.integers(1, 24), min_size=s, max_size=s),
                             label="levels"))
    width = data.draw(hst.integers(1, 40), label="width")
    rng = np.random.default_rng(data.draw(hst.integers(0, 2 ** 32 - 1), label="seed"))
    shape = (1 + sum(levels), width)
    # moduli off 1 and phases within 0.1 turns, so the power is of order one
    G = rng.uniform(0.5, 1.5, shape) * np.exp(2j * np.pi * rng.uniform(-0.1, 0.1, shape))
    want = oracles.seminorm_power(G, s, levels)
    got = sp._seminorm_power(G, s, levels) / width
    assert abs(got - want) <= 1e-13 * abs(want)


_B = sp.BLOCK


@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("levels", [(64, 64), (64, 48), (9, 6), (1, 1), (1, 8)])
def test_blocked_seminorm_kernel_matches_full_width_oracle(s, levels):
    # the s = 2 level forms its products on column blocks; the oracle forms
    # them on whole rows.  Every width below crosses a block edge differently.
    levels = levels + (2,) * (s - 2)
    rng = np.random.default_rng(sum(levels) + s)
    for width in (1, _B - 1, _B, _B + 1, 3 * _B + 17, sp.SEMINORM_CHUNK):
        shape = (1 + sum(levels), width)
        G = rng.uniform(0.5, 1.5, shape) * np.exp(2j * np.pi * rng.uniform(-0.1, 0.1, shape))
        want = oracles.seminorm_power_full_width(G, s, levels)
        got = sp._seminorm_power(G, s, levels)
        if min(levels[:2]) >= 48:
            # pair sums and dots are bitwise the oracle's, and so is the
            # diagonal once the oracle multiplies in place into its squares
            assert got == want, width
        else:
            # the oracle's diagonal product may take its operands in the
            # other order, which moves the last bit of some products
            assert abs(got - want) <= 1e-15 * abs(want), width


def _unit_orbit(levels, width, seed):
    """Orbit-like rows for the kernel: moduli off 1, phases within 0.1 turns."""
    rng = np.random.default_rng(seed)
    shape = (1 + sum(levels), width)
    return rng.uniform(0.5, 1.5, shape) * np.exp(2j * np.pi * rng.uniform(-0.1, 0.1, shape))


@pytest.mark.parametrize("H", [1, 2, 3, 16, 24])
def test_grouped_u3_kernel_matches_oracles(H):
    # equal s = 3 levels sum the cube grouped by its largest shift; the naive
    # oracle sums every triple, the full-width oracle runs one s = 2 level per
    # outer shift, as the kernel does for unequal levels
    levels = (H, H, H)
    for width in (1, _B - 1, _B, _B + 1, 3 * _B + 17):
        G = _unit_orbit(levels, width, H + width)
        got = sp._seminorm_power(G, 3, levels)
        want = oracles.seminorm_power(G, 3, levels)
        assert abs(got / width - want) <= 1e-13 * abs(want), width
        want = oracles.seminorm_power_full_width(G, 3, levels)
        assert abs(got - want) <= 1e-15 * abs(want), width


@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("H", [64, 9, 3, 1])
def test_shared_halved_window_equals_standalone_call(s, H):
    # at equal levels the halved window is the running sum at a = H // 2 of
    # the full window's pass, and equals a call at the halved levels bit for bit
    levels, halved = (H,) * s, (max(1, H // 2),) * s
    for width in (1, _B + 1, 3 * _B + 17):
        G = _unit_orbit(levels, width, s + H + width)
        full, half = sp._seminorm_power(G, s, levels, halved=True)
        assert full == sp._seminorm_power(G, s, levels), width
        assert half == sp._seminorm_power(G, s, halved), width


def test_seminorm_ladder_rows_equal_standalone_estimates():
    # equal levels take each halved window from the grouped sum's prefix
    sys = catalog_build("heisenberg3")
    f = Observable(3, {(0, 1, 0): 1.0, (0, 0, 1): 1.0})
    N = sp.SEMINORM_CHUNK + 5  # a full chunk and a short one
    for levels in [(7, 5, 3), (6, 6, 6), (8, 8)]:
        rows = seminorm_ladder(sys, f, levels, N, seed=3)
        assert [r.s for r in rows] == list(range(1, len(levels) + 1))
        for s, row in enumerate(rows, 1):
            alone = uniformity_seminorm(sys, f, s, levels[:s], N, seed=3)
            assert (row.value, row.stability_delta, row.H_levels) == (
                alone.value, alone.stability_delta, alone.H_levels)


def test_seminorm_validation():
    sys = catalog_build("rot_torus")
    f = Observable.constant(1)
    with pytest.raises(ValueError):
        uniformity_seminorm(sys, f, 4, 16, 2048, seed=0)
    with pytest.raises(ValueError):
        uniformity_seminorm(sys, f, 2, (16,), 2048, seed=0)
    with pytest.raises(LagBudgetError):
        uniformity_seminorm(sys, f, 1, 2000, 2048, seed=0)
    with pytest.raises(ValueError):
        seminorm_ladder(sys, f, (4, 4, 4, 4), 2048, seed=0)
    with pytest.raises(ValueError, match="one level per row"):  # a scalar gives no row count
        seminorm_ladder(sys, f, 16, 2048, seed=0)
    for N in (1, 999):  # the sample floor of the autocorrelations
        with pytest.raises(ValueError, match="at least 10\\^3"):
            uniformity_seminorm(sys, f, 1, 4, N, seed=0)
        with pytest.raises(ValueError, match="at least 10\\^3"):
            seminorm_ladder(sys, f, (4, 4), N, seed=0)


@pytest.mark.parametrize("h", [2.9, 2.5, np.float64(1.5), "2", 2 + 0j, None])
def test_seminorm_rejects_non_integral_levels(h):
    sys = catalog_build("rot_torus")
    f = Observable.character(1, (1,))
    for call in (lambda: uniformity_seminorm(sys, f, 1, (h,), 1024, seed=1),
                 lambda: uniformity_seminorm(sys, f, 2, h, 1024, seed=1),
                 lambda: seminorm_ladder(sys, f, (3, h), 1024, seed=1)):
        with pytest.raises(ValueError, match="level .* is not an integer"):
            call()


def test_seminorm_accepts_integral_levels():
    sys = catalog_build("rot_torus")
    f = Observable.character(1, (1,))
    want = uniformity_seminorm(sys, f, 2, (2, 3), 1024, seed=1)
    for levels in [(2.0, np.int64(3)), (Fraction(4, 2), 3.0), np.array([2, 3])]:
        est = uniformity_seminorm(sys, f, 2, levels, 1024, seed=1)
        assert est.H_levels == (2, 3) and all(type(h) is int for h in est.H_levels)
        assert (est.value, est.stability_delta) == (want.value, want.stability_delta)
    assert uniformity_seminorm(sys, f, 2, 3.0, 1024, seed=1).H_levels == (3, 3)


def test_seminorm_lag_cap_counts_the_steps_walked():
    # levels (H,) walk H steps, as an autocorrelation at lag H does
    sys = catalog_build("rot_torus")
    e_x = Observable.character(1, (1,))
    cap = sp.MAX_LAG
    assert uniformity_seminorm(sys, e_x, 1, (cap,), 1000, seed=1).H_levels == (cap,)
    with pytest.raises(LagBudgetError):
        uniformity_seminorm(sys, e_x, 1, (cap + 1,), 1000, seed=1)


def test_seminorm_detects_invariant_versus_quasi_eigenfunction():
    sys = catalog_build("skew_torus_nonergodic")
    e_x = Observable.character(2, (1, 0))  # invariant: U^1 = 1
    e_y = Observable.character(2, (0, 1))  # order-2 obstruction: U^1 small, U^2 = 1
    assert uniformity_seminorm(sys, e_x, 1, 32, 4096, seed=6).value >= 0.99
    assert uniformity_seminorm(sys, e_y, 1, 32, 4096, seed=6).value <= 0.05
    assert uniformity_seminorm(sys, e_y, 2, 32, 4096, seed=6).value >= 0.99


# ---------------------------------------------------------------------------
# Factor projection
# ---------------------------------------------------------------------------


def test_identity_projection_is_identity():
    sys = catalog_build("heisenberg3")
    f = Observable.character(3, (1, 1, 0))
    proj, compl = project_to_factor(sys, f, la.span(sys.algebra, []))
    pts = sys.numeric().sample_points(64, seed=7)
    assert np.allclose(proj(pts), f(pts))
    assert np.max(np.abs(compl(pts))) <= 1e-12


def test_projection_of_factor_observable_is_itself():
    sys = catalog_build("heisenberg3")
    center = la.span(sys.algebra, [sys.algebra.basis_vector(2)])
    f = Observable.character(3, (1, 0, 0))  # does not see the fiber coordinate
    proj, compl = project_to_factor(sys, f, center)
    pts = sys.numeric().sample_points(64, seed=8)
    assert np.allclose(proj(pts), f(pts))
    assert np.max(np.abs(compl(pts))) <= 1e-12


def test_projection_generic_quadrature_matches_exact_path():
    sys = catalog_build("heisenberg3")
    center = la.span(sys.algebra, [sys.algebra.basis_vector(2)])
    f = Observable(3, {(1, 0, 0): 1.0, (0, 0, 1): 1.0, (2, 0, 3): 0.5})
    proj_fast, _ = project_to_factor(sys, f, center)
    assert isinstance(proj_fast, Observable)
    # wrapping in a plain function hides the trigonometric structure and
    # forces the midpoint-quadrature coset average
    proj_slow, _ = project_to_factor(sys, lambda pts: f(pts), center, samples=16)
    assert not isinstance(proj_slow, Observable)
    pts = sys.numeric().sample_points(32, seed=9)
    assert np.max(np.abs(proj_fast(pts) - proj_slow(pts))) <= 1e-9


@pytest.mark.parametrize("name", ["skew_torus_nonergodic", "heisenberg3"])
def test_projection_on_dichotomy_kernel_partitions_terms(name):
    entry = catalog_entry(name)
    sys = entry.build()
    J = st.rational_closure_J(sys, st.tau_commutator_ideal(sys))
    for spec in entry.dichotomy_observables:
        f = observable_for(entry, spec)
        proj, compl = project_to_factor(sys, f, J)
        assert isinstance(proj, Observable) and isinstance(compl, Observable)
        assert not set(proj.terms) & set(compl.terms)
        assert {**proj.terms, **compl.terms} == f.terms


def test_projection_onto_noncentral_kernel_by_quadrature():
    sys = catalog_build("heisenberg3")
    alg = sys.algebra
    # span(e_y, e_z) is an ideal but not central, so only the coset average applies
    kernel = la.span(alg, [alg.basis_vector(1), alg.basis_vector(2)])
    f = Observable(3, {(1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 1): 0.5})
    e_x = Observable.character(3, (1, 0, 0))
    proj, compl = project_to_factor(sys, f, kernel)
    pts = sys.numeric().sample_points(64, seed=10)
    assert np.max(np.abs(proj(pts) - e_x(pts))) <= 1e-12
    assert np.max(np.abs(compl(pts) - (f(pts) - e_x(pts)))) <= 1e-12


def test_quadrature_complement_reuses_the_projection_of_the_same_batch():
    sys = catalog_build("heisenberg3")
    alg = sys.algebra
    kernel = la.span(alg, [alg.basis_vector(1), alg.basis_vector(2)])
    f = Observable(3, {(1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 1): 0.5})
    calls = [0]

    def counted(pts):
        calls[0] += 1
        return f(pts)

    M, K = 4, 8
    proj, compl = project_to_factor(sys, counted, kernel, samples=M)
    autocorrelation_many(sys, [proj, compl], K, 1024, seed=11)
    # per batch: M^2 translates for the projection, one call of f for the
    # complement; the K + 1 lags 0..K are the batches, lag 0 the kept sample
    assert calls[0] == (K + 1) * (M ** 2 + 1)


@pytest.mark.parametrize("samples", [1.5, 0, -2])
def test_projection_checks_samples_on_either_path(samples):
    # 1.5 is no grid size, and 0 and -2 give no grid point
    sys = catalog_build("heisenberg3")
    alg = sys.algebra
    center = la.span(alg, [alg.basis_vector(2)])
    noncentral = la.span(alg, [alg.basis_vector(1), alg.basis_vector(2)])
    f = Observable(3, {(1, 0, 0): 1.0, (0, 0, 1): 1.0})
    for kernel in (center, noncentral):
        with pytest.raises(ValueError, match="samples"):
            project_to_factor(sys, f, kernel, samples=samples)


def test_projection_rejects_noninvariant_kernel():
    sys = catalog_build("heisenberg3")
    bad = la.span(sys.algebra, [sys.algebra.basis_vector(0)])
    with pytest.raises(ValueError):
        project_to_factor(sys, Observable.constant(3), bad)


# ---------------------------------------------------------------------------
# Vertical characters and fiber eigenvalues
# ---------------------------------------------------------------------------


def test_vertical_character_detection():
    sys = catalog_build("heisenberg3")
    center = la.span(sys.algebra, [sys.algebra.basis_vector(2)])
    e_z = Observable.character(3, (0, 0, 1))
    e_x = Observable.character(3, (1, 0, 0))
    assert vertical_character_test(sys, e_z, center, (1,))
    assert not vertical_character_test(sys, e_z, center, (0,))
    assert vertical_character_test(sys, e_x, center, (0,))
    assert not vertical_character_test(sys, e_x, center, (1,))
    with pytest.raises(ValueError):
        vertical_character_test(
            sys, e_z, la.span(sys.algebra, [sys.algebra.basis_vector(0)]), (1,)
        )


@pytest.mark.parametrize("chi", [1.5, 1.9, (1.5,), np.float64(1.9), "1"])
def test_vertical_character_rejects_non_integer_frequency(chi):
    # int() would read 1.5 and 1.9 as the character chi = 1, which e_z lies in
    sys = catalog_build("heisenberg3")
    center = la.span(sys.algebra, [sys.algebra.basis_vector(2)])
    e_z = Observable.character(3, (0, 0, 1))
    with pytest.raises(ValueError, match="character frequency .* is not an integer"):
        vertical_character_test(sys, e_z, center, chi)
    assert vertical_character_test(sys, e_z, center, 1.0)


def test_fiber_eigenvalues_rotation():
    sys = catalog_build("rot_torus")
    alpha = sys.default_assignment["alpha"]
    angles = fiber_eigenvalues(sys, [0.0], [(1,), (2,), (3,)])
    assert angles == pytest.approx([alpha, 2 * alpha % 1.0, 3 * alpha % 1.0])


def test_fiber_eigenvalues_trivial_fiber():
    # rational rotation: the Leibman component collapses and the fiber torus
    # is a point, so only the empty character index is accepted
    sys = catalog_build("rot_torus", params={"alpha": "1/4"})
    assert fiber_eigenvalues(sys, [0.0], [()]) == [0.0]
    with pytest.raises(ValueError):
        fiber_eigenvalues(sys, [0.0], [(1,)])


def test_fiber_eigenvalues_ergodic_skew():
    sys = catalog_build("skew_torus_ergodic")
    alpha = sys.default_assignment["alpha"]
    angles = fiber_eigenvalues(sys, [0.3, 0.2], [(1, 0), (0, 1), (0, 2)])
    assert angles == pytest.approx([alpha, 0.3, 0.6])


@pytest.mark.parametrize("j", [0.5, (0.5,), (1.5,), np.float64(2.5)])
def test_fiber_eigenvalues_reject_non_integer_index(j):
    # a half-integer index gave half of alpha's angle, which is no character
    sys = catalog_build("rot_torus")
    with pytest.raises(ValueError, match="character index .* is not an integer"):
        fiber_eigenvalues(sys, [0.1], [j])
    assert fiber_eigenvalues(sys, [0.1], [2.0]) == fiber_eigenvalues(sys, [0.1], [(2,)])


def test_fiber_eigenvalues_need_abelian_fibers():
    sys = catalog_build("heisenberg3")
    with pytest.raises(ValueError):
        fiber_eigenvalues(sys, [0.0, 0.0, 0.0], [(1, 0, 0)])


# ---------------------------------------------------------------------------
# Joint spectra for commuting pairs
# ---------------------------------------------------------------------------


def test_joint_autocorrelation_constant():
    sys = catalog_build("z2_skew")
    series = joint_autocorrelation(sys, Observable.constant(2), (6, 6), 1024, seed=10)
    assert np.max(np.abs(series.values - 1.0)) <= 1e-12
    assert series.generators == 2


def _z2_squared():
    """z2_skew's first generator T1 with T2 = T1^2: a ℤ² system whose second
    generator is a skew map, not a rotation."""
    z2 = catalog_build("z2_skew")
    return st.AffineNilsystem(z2.algebra, z2.A, z2.g_tau, context=z2.context,
                              second=(z2.A.compose(z2.A), z2.apply_exact(z2.g_tau)),
                              default_assignment=z2.default_assignment)


def test_joint_autocorrelation_matches_direct_orbit_means():
    """c(n1, n2) is the sample mean of conj f(T2^(K2 - n2) z) . f(T1^n1 T2^K2 z)."""
    f = Observable(2, {(0, 1): 1.0, (1, 2): 0.5})
    K1, K2 = 3, 2
    for sys in (catalog_build("z2_skew"), _z2_squared()):
        series = joint_autocorrelation(sys, f, (K1, K2), 1024, seed=13)
        assert series.lags[0] == (-K1, -K2) and len(series.values) == (2 * K1 + 1) * (2 * K2 + 1)
        num = sys.numeric()
        z = num.sample_points(1024, 13)
        for n1 in range(-K1, K1 + 1):
            for n2 in range(-K2, K2 + 1):
                if (n1, n2) < (0, 0):  # filled by Hermitian symmetry
                    assert series.value(n1, n2) == np.conj(series.value(-n1, -n2))
                    continue
                u = x = z
                for _ in range(K2 - n2):
                    u = num.step2(u)
                for _ in range(K2):
                    x = num.step2(x)
                for _ in range(n1):
                    x = num.step(x)
                assert abs(series.value(n1, n2) - np.mean(np.conj(f(u)) * f(x))) <= 1e-12
        with pytest.raises(KeyError):
            series.value(K1 + 1, 0)


def test_joint_autocorrelation_walks_each_generator_forward_once(monkeypatch):
    """One grid (K1, K2) costs K1 steps of T1 and 2 K2 steps of T2."""
    calls = {"step": 0, "step2": 0}
    for name in calls:
        def counted(self, pts, _step=getattr(st.NumericSystem, name), _name=name):
            calls[_name] += 1
            return _step(self, pts)
        monkeypatch.setattr(st.NumericSystem, name, counted)
    joint_autocorrelation(catalog_build("z2_skew"), Observable.character(2, (0, 1)),
                          (5, 3), 1024, seed=1)
    assert calls == {"step": 5, "step2": 6}


def test_joint_autocorrelation_rejects_negative_lags():
    sys = catalog_build("z2_skew")
    with pytest.raises(ValueError, match="lag must be nonnegative"):
        joint_autocorrelation(sys, Observable.character(2, (0, 1)), (2, -1), 1024, seed=0)


def test_joint_hermitian_symmetry():
    sys = catalog_build("z2_skew")
    f = Observable.character(2, (0, 1))
    series = joint_autocorrelation(sys, f, (4, 4), 2048, seed=11)
    for n1 in range(-4, 5):
        for n2 in range(-4, 5):
            assert abs(series.value(-n1, -n2) - np.conj(series.value(n1, n2))) <= 1e-12


def test_subtorus_support_detection():
    sys = catalog_build("z2_skew")
    e_y = Observable.character(2, (0, 1))
    series = joint_autocorrelation(sys, e_y, (8, 8), 8192, seed=12)
    assert subtorus_support_test(series, (1, 0))
    assert not subtorus_support_test(series, (0, 1))
    with pytest.raises(ValueError):
        subtorus_support_test(series, (0, 0))
    with pytest.raises(ValueError):
        subtorus_support_test(series, (2, 2))
    one_gen = autocorrelation(sys, e_y, 16, 1024, seed=0)
    with pytest.raises(ValueError):
        subtorus_support_test(one_gen, (1, 0))


def test_joint_requires_second_generator():
    sys = catalog_build("rot_torus")
    with pytest.raises(ValueError):
        joint_autocorrelation(sys, Observable.constant(1), (4, 4), 1024, seed=0)


# ---------------------------------------------------------------------------
# Pushforward histograms
# ---------------------------------------------------------------------------


def test_pushforward_uniform_for_linear_polynomial():
    hist = pushforward_histogram({(1,): 1.0}, 32, 1 << 14, seed=13)
    assert hist.max_atom <= 0.05
    assert np.allclose(np.sum(hist.counts), 1.0)
    assert np.max(np.abs(hist.counts - 1.0 / 32)) <= 0.01


def test_pushforward_two_variables():
    hist = pushforward_histogram({(1, 0): 1.0, (0, 1): 1.0}, 32, 1 << 14, seed=14)
    assert hist.max_atom <= 0.05


def test_pushforward_rejects_constant():
    with pytest.raises(ValueError):
        pushforward_histogram({(0,): 0.5}, 32, 1 << 14, seed=0)
    with pytest.raises(ValueError):
        pushforward_histogram({(1, 0): 1.0, (1,): 1.0}, 32, 1 << 14, seed=0)


@pytest.mark.parametrize("p", [{(1.7,): 1.0}, {(-1,): 1.0}, {(1, 0): 1.0, (0, -2): 1.0},
                               {(np.float64(0.5), 1): 1.0}])
def test_pushforward_rejects_non_polynomial_exponents(p):
    # 1.7 was truncated to x^1 and -1 taken as the Laurent term 1/x
    with pytest.raises(ValueError, match="exponent"):
        pushforward_histogram(p, 32, 1 << 12, seed=0)


@pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
def test_pushforward_rejects_non_finite_coefficient(c):
    # NaN and infinite values fall outside every bin, so no mass would be counted
    with pytest.raises(ValueError, match="finite"):
        pushforward_histogram({(1,): 1.0, (2,): c}, 32, 1 << 12, seed=0)


def test_pushforward_accepts_integral_exponents():
    want = pushforward_histogram({(2, 1): 1.0}, 32, 1 << 12, seed=0).counts
    got = pushforward_histogram({(2.0, np.int64(1)): 1.0}, 32, 1 << 12, seed=0).counts
    assert np.array_equal(got, want)
