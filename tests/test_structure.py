"""Structure-theory tests: golden catalog replays plus randomized falsifiers."""

import random
from fractions import Fraction

import numpy as np
import pytest

from nillab import algebra as la
from nillab import group as gp
from nillab import structure as st
from nillab.algebra import NilLieAlgebra
from nillab.catalog import catalog_build, catalog_entry, catalog_list, substitute_params
from nillab.group import UnipotentAutomorphism
from nillab.scalars import evaluate_scalar
from nillab.spectral import Observable, project_to_factor

import oracles

F = Fraction

NAMES = [e.name for e in catalog_list()]


def build(name):
    return catalog_build(name)


def rows_of(ideal):
    return [[F(x) for x in row] for row in ideal.basis]


def rand_point(rng, m, den=5):
    return [F(rng.randint(0, 4), rng.randint(1, den)) for _ in range(m)]


def exact_equal(u, v):
    return all(a == b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# Golden replays of the catalog structure data
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_golden_structure_data(name):
    entry = catalog_entry(name)
    sys = build(name)
    exp = entry.expected
    tau = st.tau_commutator_ideal(sys)
    assert tau.dim == exp["tau_ideal_dim"]
    J = st.rational_closure_J(sys, tau)
    assert rows_of(J) == [[F(x) for x in r] for r in exp["J"]]
    if "leibman_component" in exp:
        H = st.leibman_identity_component(sys)
        assert rows_of(H) == [[F(x) for x in r] for r in exp["leibman_component"]]
        dH = la.derived_subalgebra(H)
        assert rows_of(dH) == [[F(x) for x in r] for r in exp["derived_H"]]
        lcs1 = st.leibman_lcs(sys, 1)
        assert rows_of(lcs1) == [[F(x) for x in r] for r in exp["leibman_lcs_1"]]
    if "ergodic" in exp:
        verdict = st.ergodicity_test(sys)
        assert verdict.ergodic == exp["ergodic"]
        if exp["witness"] is None:
            assert verdict.witness is None
        else:
            assert [F(x) for x in verdict.witness] == [F(x) for x in exp["witness"]]
    if exp.get("J_equals_derived"):
        D = la.derived_subalgebra(la.full_algebra(sys.algebra))
        assert J.equals(D)


# ---------------------------------------------------------------------------
# Randomized falsifiers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_tau_commutator_lands_in_tau_ideal(name):
    """log [tau-twisted commutator](g) lies in the computed ideal for random g."""
    sys = build(name)
    tau = st.tau_commutator_ideal(sys)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(15):
        g = rand_point(rng, sys.algebra.dim)
        c = sys.tau_commutator(g)
        w = gp.second_to_first(sys.algebra, c)
        assert tau.contains(w)


@pytest.mark.parametrize("name", NAMES)
def test_inclusion_chain_and_bracket_comparison(name):
    """tau ideal <= rational closure <= Leibman component; [g, h_H] <= closure."""
    sys = build(name)
    tau = st.tau_commutator_ideal(sys)
    J = st.rational_closure_J(sys, tau)
    H = st.leibman_identity_component(sys)
    assert tau.is_ideal and J.is_ideal and J.is_rational
    assert J.contains_ideal(tau)
    assert H.contains_ideal(J)
    bracket_gh = la.span(
        sys.algebra,
        la._bracket_span(sys.algebra, la.full_algebra(sys.algebra).basis, H.basis),
    )
    assert J.contains_ideal(bracket_gh)
    # whether the closure collapses to [g, h_H] is example-dependent data:
    # equality holds on the genuinely nilpotent systems, fails on abelian skews
    expected_equality = {
        "skew_torus_nonergodic": False,
        "skew_torus_ergodic": False,
        "rot_torus": True,
        "heisenberg3": True,
        "heisenberg4": True,
        "z2_skew": False,
    }
    assert (bracket_gh.dim == J.dim) == expected_equality[name]


# ---------------------------------------------------------------------------
# Quotient systems
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["heisenberg3", "heisenberg4", "skew_torus_ergodic"])
def test_quotient_projection_intertwines_exactly(name):
    sys = build(name)
    J = st.rational_closure_J(sys, st.tau_commutator_ideal(sys))
    if J.dim == 0:
        pytest.skip("trivial kernel")
    fac = st.quotient_system(sys, J)
    rng = random.Random(5)
    for _ in range(10):
        x = rand_point(rng, sys.algebra.dim)
        down_then_step = fac.quotient.apply_exact(fac.project_point(x))
        step_then_down = fac.project_point(sys.apply_exact(x))
        assert exact_equal(down_then_step, step_then_down)


def test_quotient_rejects_bad_ideals():
    sys = build("heisenberg3")
    # a subspace that is not an ideal
    V = la.span(sys.algebra, [sys.algebra.basis_vector(0)])
    with pytest.raises(st.SystemValidationError):
        st.quotient_system(sys, V)


def test_kernel_must_be_invariant_under_every_generator():
    """On a Z^2-system whose second automorphism moves N, both the quotient
    and the factor projection refuse N."""
    alg = NilLieAlgebra(2, 1, {})
    A1 = UnipotentAutomorphism(alg, [[F(1), F(0)], [F(0), F(1)]])
    A2 = UnipotentAutomorphism(alg, [[F(1), F(0)], [F(1), F(1)]])
    sys = st.AffineNilsystem(alg, A1, [F(0), F(1, 3)], second=(A2, [F(0), F(1, 5)]))
    N = la.span(alg, [alg.basis_vector(0)])
    with pytest.raises(ValueError):
        st.quotient_system(sys, N)
    with pytest.raises(ValueError):
        project_to_factor(sys, Observable.character(2, (0, 1)), N)


def test_identity_quotient_is_identity():
    sys = build("heisenberg3")
    Z = la.span(sys.algebra, [])
    fac = st.quotient_system(sys, Z)
    assert fac.quotient.algebra.dim == sys.algebra.dim
    x = [F(1, 3), F(2, 7), F(1, 2)]
    assert fac.project_point(x) == x


def test_full_quotient_is_a_point():
    """The quotient by the whole algebra is 0-dimensional, and a 0-dimensional
    system runs the Leibman derivation through it like any other."""
    sys = build("heisenberg3")
    fac = st.quotient_system(sys, la.full_algebra(sys.algebra))
    assert fac.quotient.algebra.dim == 0 and fac.nonpivot == []
    point = NilLieAlgebra.from_brackets(0, {})
    sys0 = st.AffineNilsystem(point, UnipotentAutomorphism(point, []), [])
    assert st.discrete_factor_subgroup(sys0).dim == 0
    assert st.leibman_identity_component(sys0).dim == 0
    assert st.leibman_lcs(sys0, 1).dim == 0
    assert st.ergodicity_test(sys0).ergodic


# ---------------------------------------------------------------------------
# Numeric cross-validation of the Leibman component
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["skew_torus_nonergodic", "heisenberg4"])
def test_orbit_confined_to_leibman_coset(name):
    """Coordinates transverse to the Leibman component are constant on orbits."""
    sys = build(name)
    H = st.leibman_identity_component(sys)
    fac = st.quotient_system(sys, H)
    num = sys.numeric()
    pts = num.sample_points(8, seed=3)
    vals0 = None
    for _ in range(200):
        down = fac.project_point(pts)
        phases = [np.exp(2j * np.pi * c) for c in down]
        if vals0 is None:
            vals0 = phases
        else:
            for a, b in zip(vals0, phases):
                assert np.max(np.abs(a - b)) <= 1e-9
        pts = num.step(pts)


def test_ergodic_skew_birkhoff_oracle():
    """Birkhoff averages of nonconstant characters vanish on the ergodic skew."""
    sys = build("skew_torus_ergodic")
    num = sys.numeric()
    pts = num.sample_points(1, seed=11)
    n = 1 << 14
    acc_x = 0.0
    acc_y = 0.0
    for _ in range(n):
        acc_x += np.exp(2j * np.pi * pts[0][0])
        acc_y += np.exp(2j * np.pi * pts[1][0])
        pts = num.step(pts)
    assert abs(acc_x / n) <= 0.05
    assert abs(acc_y / n) <= 0.05


@pytest.mark.parametrize("name", ["skew_torus_nonergodic", "heisenberg4"])
def test_nonergodic_witness_character_is_invariant(name):
    sys = build(name)
    verdict = st.ergodicity_test(sys)
    assert not verdict.ergodic
    w = [F(x) for x in verdict.witness]
    rng = random.Random(17)
    for _ in range(10):
        x = rand_point(rng, sys.algebra.dim)
        tx = sys.apply_exact(x)
        diff = sum((w[i] * (tx[i] - x[i]) for i in range(len(w))), start=F(0))
        assert F(diff).denominator == 1


RATIONAL_PARAMS = {"alpha": "355/113", "beta": "577/408", "y_tau": "265/153", "u_tau": "99/70"}


@pytest.mark.parametrize("name", NAMES)
def test_numeric_steps_track_exact_map(name):
    """At rational parameters each float step is the exact map read in floats."""
    sys = catalog_build(name, {s: RATIONAL_PARAMS[s] for s in catalog_entry(name).symbols})
    alg = sys.algebra
    num = sys.numeric()
    maps = [(sys.A, sys.g_tau, num.step)]
    if sys.second is not None:
        maps.append((*sys.second, num.step2))
    rng = random.Random(5)
    for _ in range(10):
        x = [F(rng.randint(1, 96), 97) for _ in range(alg.dim)]
        xf = [float(t) for t in x]
        for A, g, step in maps:
            exact, _ = gp.reduce_mod_lattice(
                alg, gp.multiply(alg, g, gp.apply_automorphism(alg, A, x)))
            assert step(xf) == pytest.approx([float(t) for t in exact], abs=1e-12)


def _bitwise_equal(got, want):
    return all(np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))
               for a, b in zip(got, want)) and len(got) == len(want)


@pytest.mark.parametrize("name", NAMES)
def test_orbit_is_bitwise_the_plain_table_loop(name):
    """300 steps of each generator equal, bit for bit, the automorphism,
    multiply and lattice tables evaluated by the plain loop one after another
    (the identity automorphism table included, which the step skips)."""
    sys = catalog_build(name)
    alg = sys.algebra
    num = sys.numeric()
    gens = [(num.step, sys.A, sys.g_tau)]
    if sys.second is not None:
        gens.append((num.step2, *sys.second))
    for step, A, g in gens:
        g = [evaluate_scalar(t, sys.default_assignment) for t in g]
        pts = want = num.sample_points(512, 11)
        for _ in range(300):
            pts = step(pts)
            x = oracles.polynomial_map_float(gp._automorphism_table(alg, A), want)
            x = oracles.polynomial_map_float(gp.multiply.table(alg), g + x)
            want, _ = oracles.polynomial_map_float(
                gp._times_lattice.table(alg), x + [0] * alg.dim, floors_at=alg.dim)
            assert _bitwise_equal(pts, want)


def _compiled_plans(monkeypatch) -> list:
    """From now on, an empty step-plan cache and the list of plans compiled."""
    monkeypatch.setattr(gp, "_STEP_PLANS", {})
    made, compile_plan = [], gp._float_plan

    def counted(*args, **kwargs):
        made.append(compile_plan(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(gp, "_float_plan", counted)
    return made


def test_step_plans_are_compiled_once_per_generator(monkeypatch):
    """Building a NumericSystem compiles nothing; the first step compiles the
    generator's plan, which a rebuilt system (every `verify` and estimator
    call builds one) reuses."""
    made = _compiled_plans(monkeypatch)
    num = catalog_build("heisenberg3").numeric()
    assert made == []
    pts = num.sample_points(64, 1)
    num.step(pts)
    assert len(made) == 1
    catalog_build("heisenberg3").numeric().step(pts)
    num.step(pts)
    assert len(made) == 1


def test_step_plans_are_keyed_by_the_translation_bits(monkeypatch):
    """Generators that differ only in g's value, or only in the sign of a
    zero coordinate, get plans of their own."""
    made = _compiled_plans(monkeypatch)
    base = catalog_build("skew_torus_ergodic")
    pts = base.numeric().sample_points(64, 1)
    steps = [substitute_params(base, {"alpha": v}).numeric().step(pts) for v in ("1/3", "1/5")]
    assert len(made) == 2 and made[0] is not made[1]
    assert not _bitwise_equal(*steps)
    alg = base.algebra
    zeros = [gp.affine_step(alg, None, [z, 0.0])(pts) for z in (0.0, -0.0)]
    assert len(made) == 4
    assert _bitwise_equal(*zeros)


@pytest.mark.parametrize("defaults", [
    {"alfa": 0.25},  # names no symbol: the estimators would run at the default alpha
    {"alpha": float("nan")},
    {"alpha": float("inf")},
])
def test_default_assignment_names_symbols_and_is_finite(defaults):
    sys = build("rot_torus")
    st.AffineNilsystem(sys.algebra, sys.A, sys.g_tau, context=sys.context,
                       default_assignment={"alpha": 0.25})
    with pytest.raises(st.SystemValidationError, match="default assignment"):
        st.AffineNilsystem(sys.algebra, sys.A, sys.g_tau, context=sys.context,
                           default_assignment=defaults)


def test_second_generator_must_commute():
    alg = NilLieAlgebra(3, 1, {})
    A1 = gp.UnipotentAutomorphism(alg, [[F(1), F(0), F(0)], [F(1), F(1), F(0)], [F(0), F(0), F(1)]])
    A2 = gp.UnipotentAutomorphism(alg, [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(1), F(1)]])
    zero = [F(0)] * 3
    st.AffineNilsystem(alg, A1, zero, second=(A1, zero))
    with pytest.raises(st.SystemValidationError, match="automorphisms do not commute"):
        st.AffineNilsystem(alg, A1, zero, second=(A2, zero))
