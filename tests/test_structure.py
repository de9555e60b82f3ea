"""Structure-theory tests: golden catalog replays plus randomized falsifiers."""

import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from nillab import algebra as la
from nillab import group as gp
from nillab import linalg
from nillab import structure as st
from nillab.algebra import NilLieAlgebra
from nillab.catalog import catalog_build, catalog_entry, catalog_list, substitute_params
from nillab.group import UnipotentAutomorphism
from nillab.scalars import ExtScalar, SymbolContext, evaluate_scalar
from nillab.spectral import Observable, project_to_factor

import oracles

F = Fraction

NAMES = [e.name for e in catalog_list()]
#: Rational stand-ins for the symbols, those of the ``structure`` benchmark workload.
RATIONAL_PARAMS = {"alpha": "355/113", "beta": "577/408", "y_tau": "265/153", "u_tau": "99/70"}


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
# Factors, against the oracle quotient systems
# ---------------------------------------------------------------------------


def _log_g_tau_through(fac):
    """log g_tau read on a built quotient system, in its own first-kind chart."""
    return gp.second_to_first(fac.quotient.algebra, fac.quotient.g_tau)


def _leibman_through_quotient(sys):
    """The Leibman component derived on the discrete factor's quotient system."""
    fac = oracles.discrete_factor(sys)
    lifts = [fac.lift_vector(v) for v in st._nonconstant_slices(_log_g_tau_through(fac))]
    return la.rational_hull(la.RationalIdeal(sys.algebra, fac.kernel.basis + lifts))


def _verdict_through_quotient(sys, N):
    """The ergodicity verdict derived on the torus quotient system by N."""
    fac = oracles.quotient_system(sys, N)
    qalg = fac.quotient.algebra
    bbar = _log_g_tau_through(fac)
    slices = st._nonconstant_slices(bbar)
    kernel = linalg.nullspace(slices) if slices else qalg.basis()
    if not kernel:
        return st.ErgodicityVerdict(True, None)
    kq = linalg.primitive_integer_vector(kernel[0])
    kfull = linalg.primitive_integer_vector([
        sum((fac.proj_matrix[q][j] * kq[q] for q in range(qalg.dim)), start=F(0))
        for j in range(sys.algebra.dim)])
    pairing = sum((kv * (t.constant_term() if isinstance(t, ExtScalar) else F(t))
                   for kv, t in zip(kq, bbar)), start=F(0))
    return st.ErgodicityVerdict(False, [pairing.denominator * v for v in kfull])


def _diagonal_skew():
    """T(x, y, z) = (x + alpha, y + x, z + x) on T^3: J is spanned by (0, 1, 1),
    not by coordinate axes as on every catalog system, so the projection has
    an entry off the surviving axes, and z - y is an invariant character."""
    alg = NilLieAlgebra(3, 1, {})
    A = UnipotentAutomorphism(alg, [[F(1), F(0), F(0)], [F(1), F(1), F(0)], [F(1), F(0), F(1)]])
    ctx = SymbolContext(("alpha",))
    return st.AffineNilsystem(alg, [(A, [ctx.symbol("alpha"), ctx.constant(0), ctx.constant(0)])],
                              context=ctx, name="diagonal_skew")


@pytest.mark.parametrize("params", [False, True], ids=["symbolic", "rational"])
@pytest.mark.parametrize("name", NAMES + ["diagonal_skew"])
def test_factors_read_by_projection_match_the_quotient_systems(name, params):
    """The projected log g_tau, the Leibman component and the ergodicity
    verdict, which build no quotient system, equal the same values derived
    through the oracle ``quotient_system``, on every catalog system and a skew
    torus whose kernel is not a coordinate subspace, with the symbols formal
    and at the structure workload's rational parameters."""
    sys = _diagonal_skew() if name == "diagonal_skew" else catalog_build(name)
    if params:
        sys = substitute_params(sys, {s: RATIONAL_PARAMS[s] for s in sys.context.names})
    alg = sys.algebra
    torus = la.rational_hull(la.RationalIdeal(
        alg, la.derived_subalgebra(la.full_algebra(alg)).basis + sys.tau_commutator_ideal.basis))
    for N in (sys.J, torus):
        proj_rows, nonpivot = st.factor_projection(N)
        # P is the projection along N onto the surviving coordinates: it keeps
        # each surviving axis and sends N to 0, which fixes it uniquely
        assert [[row[i] for i in nonpivot] for row in proj_rows] == oracles.eye(len(nonpivot))
        assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in proj_rows for v in N.basis)
        fac = oracles.quotient_system(sys, N)
        assert (proj_rows, nonpivot) == (fac.proj_matrix, fac.nonpivot)
        log_g = gp.second_to_first(alg, sys.g_tau)
        projected = gp.PolynomialMap.linear(proj_rows)(log_g)
        assert exact_equal(projected, _log_g_tau_through(fac))
        assert len(projected) == fac.quotient.algebra.dim == alg.dim - N.dim
        # the Leibman component's lifted read: zeros at N's pivots, P log g_tau elsewhere
        lifted = linalg.reduce_vector(N.basis, log_g)
        assert exact_equal(lifted, fac.lift_vector(projected)) and len(lifted) == alg.dim
    assert rows_of(sys.leibman_component) == rows_of(_leibman_through_quotient(sys))
    verdict = st.ergodicity_test(sys)
    expected = _verdict_through_quotient(sys, torus)
    assert (verdict.ergodic, verdict.witness) == (expected.ergodic, expected.witness)


@pytest.mark.parametrize("name", ["heisenberg3", "heisenberg4", "skew_torus_ergodic"])
def test_quotient_projection_intertwines_exactly(name):
    sys = build(name)
    J = st.rational_closure_J(sys, st.tau_commutator_ideal(sys))
    if J.dim == 0:
        pytest.skip("trivial kernel")
    fac = oracles.quotient_system(sys, J)
    rng = random.Random(5)
    for _ in range(10):
        x = rand_point(rng, sys.algebra.dim)
        down_then_step = fac.quotient.apply_exact(fac.project_point(x))
        step_then_down = fac.project_point(sys.apply_exact(x))
        assert exact_equal(down_then_step, step_then_down)


def test_quotient_rejects_bad_ideals():
    """The oracle quotient and the factor projection of ``project_to_factor``,
    whose N comes from the caller, both refuse a subspace that is not an
    ideal and an ideal that is not rational."""
    sys = build("heisenberg3")
    alg, ctx = sys.algebra, sys.context
    not_ideal = la.span(alg, [alg.basis_vector(0)])
    # x + alpha y with the center: an ideal, as it holds [g, g], but not rational
    irrational = la.RationalIdeal(
        alg, [[ctx.constant(1), ctx.symbol("alpha"), ctx.constant(0)], alg.basis_vector(2)])
    assert irrational.is_ideal and not irrational.is_rational
    for V in (not_ideal, irrational):
        with pytest.raises(st.SystemValidationError):
            oracles.quotient_system(sys, V)
        with pytest.raises(st.SystemValidationError, match="kernel must be a rational ideal"):
            project_to_factor(sys, Observable.character(3, (0, 0, 1)), V)


def test_kernel_must_be_invariant_under_every_generator():
    """On a Z^2-system whose second automorphism moves N, both the quotient
    and the factor projection refuse N."""
    alg = NilLieAlgebra(2, 1, {})
    A1 = UnipotentAutomorphism(alg, [[F(1), F(0)], [F(0), F(1)]])
    A2 = UnipotentAutomorphism(alg, [[F(1), F(0)], [F(1), F(1)]])
    sys = st.AffineNilsystem(alg, [(A1, [F(0), F(1, 3)]), (A2, [F(0), F(1, 5)])])
    N = la.span(alg, [alg.basis_vector(0)])
    with pytest.raises(ValueError):
        oracles.quotient_system(sys, N)
    with pytest.raises(ValueError):
        project_to_factor(sys, Observable.character(2, (0, 1)), N)


def test_identity_quotient_is_identity():
    sys = build("heisenberg3")
    Z = la.span(sys.algebra, [])
    fac = oracles.quotient_system(sys, Z)
    assert fac.quotient.algebra.dim == sys.algebra.dim
    x = [F(1, 3), F(2, 7), F(1, 2)]
    assert fac.project_point(x) == x


def test_full_quotient_is_a_point():
    """The quotient by the whole algebra is 0-dimensional, and a 0-dimensional
    system runs the Leibman derivation through it like any other."""
    sys = build("heisenberg3")
    fac = oracles.quotient_system(sys, la.full_algebra(sys.algebra))
    assert fac.quotient.algebra.dim == 0 and fac.nonpivot == []
    point = NilLieAlgebra.from_brackets(0, {})
    sys0 = st.AffineNilsystem(point, [(UnipotentAutomorphism(point, []), [])])
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
    fac = oracles.quotient_system(sys, H)
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


@pytest.mark.parametrize("name", NAMES)
def test_numeric_steps_track_exact_map(name):
    """At rational parameters each float step is the exact map read in floats."""
    sys = catalog_build(name, {s: RATIONAL_PARAMS[s] for s in catalog_entry(name).symbols})
    alg = sys.algebra
    num = sys.numeric()
    maps = [(A, g, step) for (A, g), step in zip(sys.generators, (num.step, num.step2))]
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
    for step, (A, g) in zip((num.step, num.step2), sys.generators):
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
    # a walk that reads x alone steps its closure {x}: a plan of its own, from
    # the whole first point on, which a second such walk reuses
    for walk in range(2):
        x = pts
        for _ in range(3):
            x = catalog_build("heisenberg3").numeric().step(x, frozenset({0}))
        assert len(made) == 2
        assert x[0] is not None and x[1] is None and x[2] is None


#: Each read set's closure under T1, the coordinates a walk steps to read it;
#: z2_skew's joint walk steps the same sets
CLOSURES = {
    "heisenberg4": {0: {0}, 1: {1}, 2: {2}, 3: {0, 1, 3}, 4: {1, 2, 4}, 5: set(range(6))},
    "heisenberg3": {0: {0}, 1: {1}, 2: {0, 1, 2}},
    "skew_torus_ergodic": {0: {0}, 1: {0, 1}},
    "skew_torus_nonergodic": {0: {0}, 1: {0, 1}},
    "z2_skew": {0: {0}, 1: {0, 1}},
    "rot_torus": {0: {0}},
}


@pytest.mark.parametrize("name", sorted(CLOSURES))
def test_walk_closures_of_the_catalog(name):
    """The closures derived from the plans' terms and floors: output 5 of
    heisenberg4's step reads x4 floor(x0), and x3 and x1 through floor(x0)
    and floor(x2), so it needs every coordinate."""
    num = catalog_build(name).numeric()
    for j, want in CLOSURES[name].items():
        assert num._steps[0].closure({j}) == want
        for generators in range(1, len(num._steps) + 1):
            assert num.closure({j}, generators) == want
    assert num.closure(set(), 1) == frozenset()
    assert num.closure(None, 1) == frozenset(range(num.alg.dim))


def test_joint_closure_is_closed_under_both_generators():
    """A joint walk steps one set under T1 and T2: the fixed point of both
    generators' closures, here wider than either generator's own.  The
    closure reads only the steps, so the stand-in's shears need not commute."""
    alg = NilLieAlgebra(3, 1, {})
    A1 = gp.UnipotentAutomorphism(alg, [[F(1), F(0), F(0)], [F(1), F(1), F(0)], [F(0), F(0), F(1)]])
    A2 = gp.UnipotentAutomorphism(alg, [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(1), F(1)]])
    g = [F(1, 3), F(1, 5), F(1, 7)]
    num = st.NumericSystem(SimpleNamespace(algebra=alg, generators=[(A2, g), (A1, g)],
                                           default_assignment={}))
    assert num._steps[0].closure({2}) == {1, 2}
    assert num._steps[1].closure({1}) == {0, 1}
    assert num.closure({2}, 1) == {1, 2}
    assert num.closure({2}, 2) == {0, 1, 2}


def test_a_product_that_starts_two_terms_is_formed_once(monkeypatch):
    """heisenberg4's multiply stage has the term (-u) x0 in output 3 and
    (-u) x0 x2 in output 5: the full plan forms (-u) x0 once, and so does the
    plan of output 3's closure, which needs output 3 alone.  The lattice
    stage's scratch terms x1' floor(x0) floor(x2) and x1' x2' floor(x0) of
    output 5 share their first factor only, so the second is formed anew:
    the full step is the plain loop of the tables bit for bit at unreduced
    points, where those floors are nonzero."""
    sources = []
    monkeypatch.setattr(gp, "_STEP_PLANS", {})
    monkeypatch.setattr(gp, "exec", lambda source, namespace: sources.append(source)
                        or exec(source, namespace), raising=False)
    num = catalog_build("heisenberg4").numeric()
    A, g = num.pairs[0]
    pts = list(np.random.default_rng(5).uniform(-4.0, 4.0, (6, 64)))
    for read in (None, frozenset({3})):
        num.step(pts, read)
    product = "np.multiply((%r), x0" % -g[1]
    assert [source.count(product) for source in sources] == [1, 1]
    assert A is None
    x = oracles.polynomial_map_float(gp.multiply.table(num.alg), list(g) + pts)
    want, _ = oracles.polynomial_map_float(gp._times_lattice.table(num.alg), x + [0] * 6,
                                           floors_at=6)
    assert _bitwise_equal(num.step(pts), want)


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
    st.AffineNilsystem(sys.algebra, sys.generators, context=sys.context,
                       default_assignment={"alpha": 0.25})
    with pytest.raises(st.SystemValidationError, match="default assignment"):
        st.AffineNilsystem(sys.algebra, sys.generators, context=sys.context,
                           default_assignment=defaults)


def test_second_generator_must_commute():
    alg = NilLieAlgebra(3, 1, {})
    A1 = gp.UnipotentAutomorphism(alg, [[F(1), F(0), F(0)], [F(1), F(1), F(0)], [F(0), F(0), F(1)]])
    A2 = gp.UnipotentAutomorphism(alg, [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(1), F(1)]])
    zero = [F(0)] * 3
    st.AffineNilsystem(alg, [(A1, zero), (A1, zero)])
    with pytest.raises(st.SystemValidationError, match="automorphisms do not commute"):
        st.AffineNilsystem(alg, [(A1, zero), (A2, zero)])


@pytest.mark.parametrize("length", [1, 3])
def test_every_translation_has_the_algebra_dimension(length):
    """T2's translation is checked like T1's, on z2_skew's 2-dim algebra."""
    z2 = build("z2_skew")
    (A1, g1), (A2, _) = z2.generators
    wrong = [F(1, 5)] * length
    for generators, which in (([(A1, g1), (A2, wrong)], "T2"), ([(A1, wrong)], "T1")):
        with pytest.raises(st.SystemValidationError,
                           match="%s's translation has %d coordinates, not the algebra "
                                 "dimension 2" % (which, length)):
            st.AffineNilsystem(z2.algebra, generators, context=z2.context)


@pytest.mark.parametrize("count", [0, 3])
def test_a_system_has_one_or_two_generators(count):
    sys = build("z2_skew")
    with pytest.raises(st.SystemValidationError, match="one or two generators, got %d" % count):
        st.AffineNilsystem(sys.algebra, (sys.generators * 2)[:count], context=sys.context)


@pytest.mark.parametrize("which", ["T1", "T2"])
def test_automorphism_must_act_on_the_system_algebra(which):
    """heisenberg3's automorphism on z2_skew's 2-dim algebra is refused, as
    either generator, before any structure object reads it."""
    z2, h3 = build("z2_skew"), build("heisenberg3")
    (A1, g1), (_, g2) = z2.generators
    generators = [(h3.A, g1)] if which == "T1" else [(A1, g1), (h3.A, g2)]
    with pytest.raises(st.SystemValidationError,
                       match="%s's automorphism acts on a different algebra" % which):
        st.AffineNilsystem(z2.algebra, generators, context=z2.context)


def test_step2_needs_a_second_generator():
    num = build("rot_torus").numeric()
    with pytest.raises(ValueError, match="the system has one generator"):
        num.step2([0.5])
