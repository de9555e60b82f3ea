"""Group-law tests cross-checked against exact unitriangular matrix arithmetic."""

import math
import random
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from nillab import algebra as la
from nillab import group as gp
from nillab import structure as st
from nillab.algebra import NilLieAlgebra
from nillab.catalog import catalog_build, catalog_list

import oracles
from oracles import (
    H3_UNITS,
    H4_UNITS,
    eye,
    mat_exp,
    mat_log,
    matrix_to_vec,
    mmul,
    mscale,
    madd,
    psi_matrix,
    vec_to_matrix,
)

F = Fraction

H3 = NilLieAlgebra.from_brackets(3, {(0, 1): {2: F(1)}})
H4 = NilLieAlgebra.from_brackets(
    6,
    {
        (0, 1): {3: F(1)},
        (1, 2): {4: F(1)},
        (0, 4): {5: F(1)},
        (2, 3): {5: F(-1)},
    },
)

CASES = [(H3, H3_UNITS, 3), (H4, H4_UNITS, 4)]


def rand_vec(rng, m, den=4):
    return [F(rng.randint(-6, 6), rng.randint(1, den)) for _ in range(m)]


def munipotent_inverse(m):
    """Exact inverse of a unipotent matrix via the finite Neumann series."""
    n = len(m)
    N = madd(m, mscale(F(-1), eye(n)))
    out = eye(n)
    power = eye(n)
    sign = F(1)
    for _ in range(n):
        power = mmul(power, N)
        sign = -sign
        out = madd(out, mscale(sign, power))
    return out


# The group law by its BCH definitions alone, the reference for the compiled law
def bch_second_to_first(alg, t):
    return gp.second_to_first.__wrapped__(alg, t)


def bch_first_to_second(alg, w):
    return gp.first_to_second.__wrapped__(alg, w)


def bch_multiply(alg, g, h):
    return bch_first_to_second(
        alg, gp.bch(alg, bch_second_to_first(alg, g), bch_second_to_first(alg, h))
    )


def bch_inverse(alg, g):
    return bch_first_to_second(alg, gp.vec_neg(bch_second_to_first(alg, g)))


# ---------------------------------------------------------------------------
# Baker-Campbell-Hausdorff
# ---------------------------------------------------------------------------


def test_bch_two_step_closed_form():
    rng = random.Random(11)
    for _ in range(50):
        x = rand_vec(rng, 3)
        y = rand_vec(rng, 3)
        expect = la.vec_add(la.vec_add(x, y), la.vec_scale(F(1, 2), H3.bracket(x, y)))
        assert gp.bch(H3, x, y) == expect


@pytest.mark.parametrize("alg,units,n", CASES)
def test_bch_matches_matrix_logarithm(alg, units, n):
    rng = random.Random(101 + n)
    for _ in range(100):
        x = rand_vec(rng, alg.dim)
        y = rand_vec(rng, alg.dim)
        z = gp.bch(alg, x, y)
        mx = mat_exp(vec_to_matrix(units, n, x))
        my = mat_exp(vec_to_matrix(units, n, y))
        expect = matrix_to_vec(units, mat_log(mmul(mx, my)))
        assert z == expect


def test_bch_rejects_step_above_five():
    brackets = {(0, i): {i + 1: F(1)} for i in range(1, 6)}
    filiform = NilLieAlgebra.from_brackets(7, brackets)
    assert filiform.step == 6
    with pytest.raises(gp.UnsupportedStepError):
        gp.bch(filiform, filiform.basis_vector(0), filiform.basis_vector(1))


# ---------------------------------------------------------------------------
# Coordinates of the second kind and the group law
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alg,units,n", CASES)
def test_coordinate_kind_conversions_roundtrip(alg, units, n):
    rng = random.Random(7)
    for _ in range(30):
        t = rand_vec(rng, alg.dim)
        w = gp.second_to_first(alg, t)
        assert gp.first_to_second(alg, w) == t
        # the compiled charts agree with their BCH definitions
        assert w == bch_second_to_first(alg, t)
        assert bch_first_to_second(alg, w) == t
        # first-kind coords of psi(t) agree with the matrix logarithm
        assert w == matrix_to_vec(units, mat_log(psi_matrix(units, n, t)))


@pytest.mark.parametrize("alg,units,n", CASES)
def test_multiply_matches_matrix_product(alg, units, n):
    rng = random.Random(23 + n)
    for _ in range(60):
        g = rand_vec(rng, alg.dim)
        h = rand_vec(rng, alg.dim)
        prod = gp.multiply(alg, g, h)
        expect = mmul(psi_matrix(units, n, g), psi_matrix(units, n, h))
        assert psi_matrix(units, n, prod) == expect
        assert prod == bch_multiply(alg, g, h)


@pytest.mark.parametrize("alg,units,n", CASES)
def test_associativity_exact(alg, units, n):
    rng = random.Random(31)
    for _ in range(25):
        g, h, k = (rand_vec(rng, alg.dim) for _ in range(3))
        left = gp.multiply(alg, gp.multiply(alg, g, h), k)
        right = gp.multiply(alg, g, gp.multiply(alg, h, k))
        assert left == right


@pytest.mark.parametrize("alg,units,n", CASES)
def test_inverse_and_identity(alg, units, n):
    rng = random.Random(41)
    e = gp.identity_element(alg)
    for _ in range(25):
        g = rand_vec(rng, alg.dim)
        gi = gp.inverse(alg, g)
        assert gi == bch_inverse(alg, g)
        assert gp.multiply(alg, g, gi) == e
        assert gp.multiply(alg, gi, g) == e
        assert psi_matrix(units, n, gi) == munipotent_inverse(psi_matrix(units, n, g))


@pytest.mark.parametrize("alg,units,n", CASES)
def test_commutator_matches_matrix_commutator(alg, units, n):
    rng = random.Random(53)
    for _ in range(25):
        g = rand_vec(rng, alg.dim)
        h = rand_vec(rng, alg.dim)
        c = gp.commutator(alg, g, h)
        mg = psi_matrix(units, n, g)
        mh = psi_matrix(units, n, h)
        expect = mmul(
            mmul(mg, mh), mmul(munipotent_inverse(mg), munipotent_inverse(mh))
        )
        assert psi_matrix(units, n, c) == expect


# Adapted algebras of step <= 5 as (dim, brackets); a triangular change of
# basis keeps a basis adapted, so these seed random adapted algebras.
ADAPTED_BASES = [
    (3, {}),
    (3, {(0, 1): {2: 1}}),
    (4, {(0, 1): {2: 1}, (0, 2): {3: 1}}),
    (5, {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 1}}),
    (6, {(0, 1): {3: 1}, (1, 2): {4: 1}, (0, 4): {5: 1}, (2, 3): {5: -1}}),
    (6, {(0, i): {i + 1: 1} for i in range(1, 5)}),
]

small_fractions = hst.fractions(min_value=-3, max_value=3, max_denominator=4)


@hst.composite
def adapted_algebras(draw):
    """Structure constants of a base algebra in a random triangular basis
    xi'_i = sum_{k >= i} P[k][i] xi_k."""
    dim, brackets = draw(hst.sampled_from(ADAPTED_BASES))
    base = NilLieAlgebra.from_brackets(
        dim, {ij: {k: F(c) for k, c in cs.items()} for ij, cs in brackets.items()}
    )
    P = [[F(0)] * dim for _ in range(dim)]
    for k in range(dim):
        P[k][k] = draw(small_fractions.filter(bool))
        for l in range(k):
            P[k][l] = draw(small_fractions)
    cols = [[P[k][i] for k in range(dim)] for i in range(dim)]
    new = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            v = base.bracket(cols[i], cols[j])
            c = []  # solve P c = v by forward substitution
            for k in range(dim):
                c.append((v[k] - sum((P[k][l] * c[l] for l in range(k)), F(0))) / P[k][k])
            cs = {k: x for k, x in enumerate(c) if x}
            if cs:
                new[(i, j)] = cs
    return NilLieAlgebra.from_brackets(dim, new)


@settings(max_examples=30, deadline=None)
@given(hst.data())
def test_compiled_law_on_random_adapted_algebras(data):
    alg = data.draw(adapted_algebras())
    assert alg.step <= 5
    g, h, k = (data.draw(hst.lists(small_fractions, min_size=alg.dim, max_size=alg.dim))
               for _ in range(3))
    gh = gp.multiply(alg, g, h)
    assert gh == bch_multiply(alg, g, h)
    assert gp.inverse(alg, g) == bch_inverse(alg, g)
    w = gp.second_to_first(alg, g)
    assert w == bch_second_to_first(alg, g)
    assert gp.first_to_second(alg, w) == bch_first_to_second(alg, w) == g
    assert gp.multiply(alg, gh, k) == gp.multiply(alg, g, gp.multiply(alg, h, k))
    assert gp.multiply(alg, g, gp.inverse(alg, g)) == gp.identity_element(alg)
    rep, lat = gp.reduce_mod_lattice(alg, gh)
    assert all(0 <= t < 1 for t in rep)
    assert all(t.denominator == 1 for t in lat)
    # float evaluation of the same polynomials at the same rational points
    gf, hf = [float(t) for t in g], [float(t) for t in h]
    for got, want in ((gp.multiply(alg, gf, hf), gh), (gp.inverse(alg, gf), gp.inverse(alg, g))):
        assert got == pytest.approx([float(t) for t in want], rel=1e-12, abs=1e-12)


def reference_reduce(alg, g):
    """Lattice reduction one coordinate at a time: floor coordinate i, then
    right-multiply by psi(-k e_i) through the group law."""
    rep, lat = list(g), []
    for i in range(alg.dim):
        k = F(math.floor(rep[i]))
        lat.append(k)
        rep = gp.multiply(alg, rep, la.vec_scale(-k, alg.basis_vector(i)))
    return rep, lat


@hst.composite
def unipotent_automorphisms(draw, alg):
    """Ad_g for a random g, after an elementary shear xi_i -> xi_i + c xi_k
    (k > i) when that shear is an automorphism."""
    g = draw(hst.lists(small_fractions, min_size=alg.dim, max_size=alg.dim))
    A = gp.adjoint(alg, g)
    k = draw(hst.integers(1, alg.dim - 1))
    M = [[F(int(r == c)) for c in range(alg.dim)] for r in range(alg.dim)]
    M[k][draw(hst.integers(0, k - 1))] = draw(small_fractions)
    try:
        return A.compose(gp.UnipotentAutomorphism(alg, M))
    except gp.AutomorphismError:
        return A


wide_fractions = hst.fractions(min_value=-10**6, max_value=10**6, max_denominator=9)


@settings(max_examples=30, deadline=None)
@given(hst.data())
def test_lattice_and_automorphism_tables_on_random_adapted_algebras(data):
    alg = data.draw(adapted_algebras())
    g = data.draw(hst.lists(wide_fractions, min_size=alg.dim, max_size=alg.dim))
    rep, lat = gp.reduce_mod_lattice(alg, g)
    assert (rep, lat) == reference_reduce(alg, g)
    assert all(0 <= t < 1 for t in rep)
    A = data.draw(unipotent_automorphisms(alg))
    h = data.draw(hst.lists(small_fractions, min_size=alg.dim, max_size=alg.dim))
    expect = bch_first_to_second(alg, A.apply_vector(bch_second_to_first(alg, h)))
    assert gp.apply_automorphism(alg, A, h) == expect
    # a fresh automorphism with the same matrix shares the table
    same = gp.UnipotentAutomorphism(alg, A.matrix)
    assert gp.apply_automorphism(alg, same, g) == gp.apply_automorphism(alg, A, g)


near_integers = hst.builds(lambda n, to: float(np.nextafter(float(n), to)),
                           hst.integers(-3, 3), hst.sampled_from([-math.inf, math.inf]))
float_entries = hst.one_of(hst.sampled_from([0.0, -0.0, 1.0, -1.0]), near_integers,
                           hst.floats(-4.0, 4.0))


@hst.composite
def float_points(draw, nvars, size):
    """Python floats mixed with read-only arrays of ``size`` floats (or ints)."""
    out = []
    for _ in range(nvars):
        kind = draw(hst.sampled_from(["scalar", "array", "array", "int array"]))
        if kind == "scalar":
            out.append(draw(float_entries))
            continue
        if kind == "array":
            v = np.array(draw(hst.lists(float_entries, min_size=size, max_size=size)))
        else:
            v = np.array(draw(hst.lists(hst.integers(-3, 3), min_size=size, max_size=size)))
        v.flags.writeable = False
        out.append(v)
    return out


def assert_plan_is_plain_loop(pmap, values, floors_at=None):
    """The float plan gives the plain loop's outputs bit for bit, as fresh
    float64 arrays wherever an output is an array, and writes no entry."""
    before = [np.array(v, copy=True) for v in values]
    got = pmap(values, floors_at)
    want = oracles.polynomial_map_float(pmap, values, floors_at)
    if floors_at is not None:
        got, want = got[0] + got[1], want[0] + want[1]
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b)
        assert np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))
    arrays = [a for a in got if isinstance(a, np.ndarray)]
    assert all(a.dtype == np.float64 for a in arrays)
    inputs = [v for v in values if isinstance(v, np.ndarray)]
    assert not any(np.shares_memory(a, v) for a in arrays for v in inputs)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[:i])
    assert all(np.array_equal(np.asarray(v), w, equal_nan=True) for v, w in zip(values, before))


@settings(max_examples=40, deadline=None)
@given(hst.data())
def test_float_plans_are_bitwise_the_plain_loop(data):
    alg = data.draw(adapted_algebras())
    m = alg.dim
    size = data.draw(hst.integers(1, 4))
    A = data.draw(unipotent_automorphisms(alg))
    tables = [(gp.multiply.table(alg), 2 * m, None), (gp.inverse.table(alg), m, None),
              (gp.second_to_first.table(alg), m, None), (gp.first_to_second.table(alg), m, None),
              (gp._times_lattice.table(alg), 2 * m, m), (gp._automorphism_table(alg, A), m, None)]
    for pmap, nvars, floors_at in tables:
        assert_plan_is_plain_loop(pmap, data.draw(float_points(nvars, size)), floors_at)
    # reduce_mod_lattice's own call: arrays, then scalar zeros for the floors
    g = [np.array(data.draw(hst.lists(float_entries, min_size=size, max_size=size)))
         for _ in range(m)]
    assert_plan_is_plain_loop(gp._times_lattice.table(alg), g + [0] * m, m)


@settings(max_examples=40, deadline=None)
@given(hst.data())
def test_known_entries_fold_bitwise(data):
    """A plan built with some scalar entries known (folded into each term's
    coefficient, a term with a known zero skipped) gives the plain loop's
    outputs and floors at the whole point, bit for bit and of its types."""
    alg = data.draw(adapted_algebras())
    m = alg.dim
    size = data.draw(hst.integers(1, 4))
    tables = [(gp.multiply.table(alg), 2 * m, None), (gp.inverse.table(alg), m, None),
              (gp.second_to_first.table(alg), m, None), (gp.first_to_second.table(alg), m, None),
              (gp._times_lattice.table(alg), 2 * m, m)]
    for pmap, nvars, floors_at in tables:
        values = data.draw(float_points(nvars, size))
        known = tuple(v if isinstance(v, float) and data.draw(hst.booleans()) else None
                      for v in values)
        rest = [gp._float_entry(v) for v, k in zip(values, known) if k is None]
        plan = gp._float_plan([(pmap.exact, floors_at, known)],
                              tuple(isinstance(v, np.ndarray) for v in rest))
        got, want = plan(*rest), oracles.polynomial_map_float(pmap, values, floors_at)
        if floors_at is not None:
            got, want = got[0] + got[1], want[0] + want[1]
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert type(a) is type(b)
            assert np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


unit_points = hst.one_of(hst.sampled_from([0.0, -0.0, float(np.nextafter(1.0, 0.0))]),
                        hst.floats(0.0, 1.0, exclude_max=True))
translation_entries = hst.one_of(hst.sampled_from([0.0, 1.0, -1.0]),
                                 hst.floats(-4.0, 4.0, exclude_min=True, exclude_max=True))


@settings(max_examples=60, deadline=None)
@given(hst.data())
def test_step_plan_is_bitwise_the_three_tables(data):
    """NumericSystem.step, one plan with g folded in, equals the automorphism,
    multiply and lattice tables run one after another on the generic path,
    bit for bit, at points in [0, 1) mixing Python floats with read-only
    arrays, for translations with zero, unit and -0.0 coordinates; its
    outputs are fresh arrays."""
    alg = data.draw(adapted_algebras())
    m = alg.dim
    A = data.draw(hst.one_of(unipotent_automorphisms(alg),
                             hst.just(gp.identity_automorphism(alg))))
    g = data.draw(hst.lists(translation_entries, min_size=m, max_size=m))
    # the float step needs no lattice-preserving A, so it runs on a stand-in
    # with the attributes NumericSystem reads
    num = st.NumericSystem(SimpleNamespace(algebra=alg, A=A, g_tau=g, second=None,
                                           default_assignment={}))
    size = data.draw(hst.integers(1, 4))
    x = []
    for _ in range(m):
        if data.draw(hst.booleans()):
            x.append(data.draw(unit_points))
            continue
        v = np.array(data.draw(hst.lists(unit_points, min_size=size, max_size=size)))
        v.flags.writeable = False
        x.append(v)
    want, _ = gp.reduce_mod_lattice(alg, gp.multiply(alg, g, gp.apply_automorphism(alg, A, x)))
    got = num.step(x)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b)
        assert np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))
    arrays = [a for a in got if isinstance(a, np.ndarray)]
    inputs = [v for v in x if isinstance(v, np.ndarray)]
    assert not any(np.shares_memory(a, v) for a in arrays for v in inputs)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[:i])


# ---------------------------------------------------------------------------
# Lattice reduction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alg,units,n", CASES)
def test_reduce_mod_lattice_exact(alg, units, n):
    rng = random.Random(67)
    for _ in range(30):
        g = rand_vec(rng, alg.dim, den=5)
        rep, lat = gp.reduce_mod_lattice(alg, g)
        for t in rep:
            assert 0 <= t < 1
        for k in lat:
            assert k.denominator == 1
        # rep = g * gamma with gamma in the lattice: psi(g)^{-1} psi(rep)
        # must be unitriangular with integer entries
        diff = mmul(munipotent_inverse(psi_matrix(units, n, g)), psi_matrix(units, n, rep))
        for i in range(n):
            for j in range(n):
                assert diff[i][j].denominator == 1
        # reducing a reduced element is a no-op
        rep2, lat2 = gp.reduce_mod_lattice(alg, rep)
        assert rep2 == rep
        assert all(k == 0 for k in lat2)


def test_reduce_mod_lattice_numeric_matches_exact():
    rng = random.Random(71)
    for _ in range(20):
        g = rand_vec(rng, 6, den=7)
        rep, _ = gp.reduce_mod_lattice(H4, g)
        repf, _ = gp.reduce_mod_lattice(H4, [float(t) for t in g])
        # compare as points on the torus: floor can flip at integer boundaries
        for a, b in zip(rep, repf):
            d = abs(float(a) - b) % 1.0
            assert min(d, 1.0 - d) <= 1e-9


@pytest.mark.parametrize("alg", [H3, H4])
def test_reduce_mod_lattice_float_roundoff(alg):
    # t - floor(t) rounds to exactly 1.0 for t = -1e-20
    for i in range(alg.dim):
        g = [0.25] * alg.dim
        g[i] = -1e-20
        for point in (g, [np.array([t, 0.5]) for t in g]):
            rep, _ = gp.reduce_mod_lattice(alg, point)
            assert all(np.all((0 <= t) & (t < 1)) for t in rep)


def test_reduce_mod_lattice_batched_matches_scalar():
    rng = random.Random(73)
    pts = [rand_vec(rng, 3, den=9) for _ in range(8)]
    batch = [np.array([float(p[i]) for p in pts]) for i in range(3)]
    reps, _ = gp.reduce_mod_lattice(H3, batch)
    for idx, p in enumerate(pts):
        rep, _ = gp.reduce_mod_lattice(H3, p)
        for r, t in zip(reps, rep):
            d = abs(float(r[idx]) - float(t)) % 1.0
            assert min(d, 1.0 - d) <= 1e-9


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------


def test_haar_sample_deterministic():
    a = gp.haar_sample(3, 257, seed=5)
    b = gp.haar_sample(3, 257, seed=5)
    assert np.array_equal(a, b)
    assert a.shape == (257, 3)
    assert np.all(a >= 0) and np.all(a < 1)
    c = gp.haar_sample(3, 257, seed=6)
    assert not np.array_equal(a, c)


def test_haar_sample_equidistributed():
    pts = gp.haar_sample(2, 100_000, seed=1)
    for axis in range(2):
        mean = np.mean(np.exp(2j * np.pi * pts[:, axis]))
        assert abs(mean) <= 1e-3


def _scipy_sobol(m, count, seed):
    """The same draw from SciPy's ``qmc.Sobol``, the oracle for ``haar_sample``."""
    from scipy.stats import qmc

    eng = qmc.Sobol(d=m, scramble=seed is not None, seed=seed)
    pts = eng.random_base2(max(1, math.ceil(math.log2(count)))) if count > 1 else eng.random(1)
    return pts[:count]


@settings(max_examples=60, deadline=None)
@given(
    m=hst.integers(1, 32),
    count=hst.integers(1, 1 << 17) | hst.integers(0, 17).map(lambda k: 1 << k),
    seed=hst.none() | hst.integers(min_value=0, max_value=1 << 64),
)
def test_haar_sample_is_bit_equal_to_scipy_sobol(m, count, seed):
    assert np.array_equal(gp.haar_sample(m, count, seed), _scipy_sobol(m, count, seed))


@pytest.mark.parametrize("m, count, size, seed", [
    (6, 10 ** 5, 16384, 7), (2, 1 << 14, 4096, 7), (6, 10 ** 5, 16384, None),
])
def test_haar_chunks_are_slices_of_the_whole_draw(m, count, size, seed):
    whole = gp.haar_sample(m, count, seed).T
    chunks = list(gp.haar_chunks(m, count, seed, size))
    assert len(chunks) == -(-count // size)
    for lo, chunk in zip(range(0, count, size), chunks):
        assert chunk.dtype == whole.dtype
        assert np.array_equal(chunk, whole[:, lo:lo + size])


def test_haar_sample_rejects_out_of_range_draws():
    with pytest.raises(ValueError):
        gp.haar_sample(2, 0, seed=1)
    with pytest.raises(gp.SobolRangeError):
        gp.haar_sample(33, 8, seed=1)
    with pytest.raises(gp.SobolRangeError):
        gp.haar_sample(1, (1 << 30) + 1, seed=None)


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------


def _h3_automorphism():
    # skew automorphism: xi_0 -> xi_0 + xi_1 + (1/2) xi_2; the half-entry
    # central correction is what makes the induced group map lattice-preserving
    M = [[F(1), F(0), F(0)], [F(1), F(1), F(0)], [F(1, 2), F(0), F(1)]]
    return gp.UnipotentAutomorphism(H3, M)


def test_automorphism_preserves_brackets():
    A = _h3_automorphism()
    rng = random.Random(83)
    for _ in range(25):
        x = rand_vec(rng, 3)
        y = rand_vec(rng, 3)
        lhs = A.apply_vector(H3.bracket(x, y))
        rhs = H3.bracket(A.apply_vector(x), A.apply_vector(y))
        assert lhs == rhs


def test_automorphism_rejects_non_homomorphism():
    # xi_1 -> xi_1 + xi_2 breaks [xi_1, xi_3] = 0 versus [xi_2, xi_3] = -xi_5
    M = [[F(1 if i == j else 0) for j in range(6)] for i in range(6)]
    M[2][1] = F(1)
    with pytest.raises(gp.AutomorphismError):
        gp.UnipotentAutomorphism(H4, M)


@pytest.mark.parametrize("alg,units,n", CASES)
def test_adjoint_matches_matrix_conjugation(alg, units, n):
    rng = random.Random(97)
    for _ in range(20):
        g = rand_vec(rng, alg.dim)
        x = rand_vec(rng, alg.dim)
        Ad = gp.adjoint(alg, g)
        mg = psi_matrix(units, n, g)
        X = vec_to_matrix(units, n, x)
        expect = matrix_to_vec(units, mmul(mmul(mg, X), munipotent_inverse(mg)))
        assert Ad.apply_vector(x) == expect


def _conjugation_by_bch(alg, g):
    """Columns of Ad_g by the BCH definition log(g exp(e) g^-1), the oracle
    for the exp(ad w) series."""
    w = gp.second_to_first(alg, g)
    return [gp.bch(alg, w, gp.bch(alg, e, gp.vec_neg(w))) for e in alg.basis()]


def _adjoint_columns(alg, g):
    return [list(col) for col in zip(*gp.adjoint(alg, g).matrix)]


@settings(max_examples=30, deadline=None)
@given(hst.data())
def test_adjoint_series_matches_bch_on_random_adapted_algebras(data):
    alg = data.draw(adapted_algebras())
    g = data.draw(hst.lists(small_fractions, min_size=alg.dim, max_size=alg.dim))
    assert _adjoint_columns(alg, g) == _conjugation_by_bch(alg, g)


@pytest.mark.parametrize("name", [e.name for e in catalog_list()])
def test_adjoint_series_matches_bch_at_symbolic_catalog_translations(name):
    sys = catalog_build(name)
    expect = _conjugation_by_bch(sys.algebra, sys.g_tau)
    assert _adjoint_columns(sys.algebra, sys.g_tau) == expect


def test_apply_automorphism_is_group_homomorphism():
    A = _h3_automorphism()
    rng = random.Random(103)
    for _ in range(25):
        g = rand_vec(rng, 3)
        h = rand_vec(rng, 3)
        lhs = gp.apply_automorphism(H3, A, gp.multiply(H3, g, h))
        rhs = gp.multiply(
            H3, gp.apply_automorphism(H3, A, g), gp.apply_automorphism(H3, A, h)
        )
        assert lhs == rhs


def test_preserves_lattice_flag():
    assert _h3_automorphism().preserves_lattice()
    # the same skew without the central half-entry maps exp(xi_0) outside
    # the lattice (its commutator correction lands at -1/2 on the center)
    M = [[F(1), F(0), F(0)], [F(1), F(1), F(0)], [F(0), F(0), F(1)]]
    A = gp.UnipotentAutomorphism(H3, M)
    assert not A.preserves_lattice()


def test_import_leaves_scipy_stats_unloaded():
    """The runtime needs only NumPy: with every ``scipy`` import made to fail,
    ``verify`` and a Sobol-sampled histogram still run, and no ``scipy`` module
    is loaded."""
    probe = """if True:
        import sys

        class BlockScipy:
            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] == "scipy":
                    raise ImportError("scipy is blocked: " + name)

        sys.meta_path.insert(0, BlockScipy())
        from nillab import cli, spectral
        code = cli.main(["verify"])
        spectral.pushforward_histogram({(1, 1): 1.0}, 16, 1 << 12, seed=3)
        loaded = [m for m in sys.modules if m.partition(".")[0] == "scipy"]
        print(code, loaded)
    """
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.splitlines()[-1] == "0 []", out.stderr
