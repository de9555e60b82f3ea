"""Catalog transcription checks against the unitriangular matrix oracle."""

import random
from fractions import Fraction

import numpy as np
import pytest

from nillab import algebra as la
from nillab import linalg
from nillab import group as gp
from nillab import structure as st
from nillab.catalog import (catalog_build, catalog_entry, catalog_list, observable_for,
                            substitute_params)
from nillab.serialize import load_system, save_system

from oracles import H4_UNITS, psi_matrix

F = Fraction

NAMES = [e.name for e in catalog_list()]


def rand_vec(rng, m):
    return [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m)]


def test_catalog_listing_and_lookup():
    assert NAMES == [
        "skew_torus_nonergodic",
        "skew_torus_ergodic",
        "rot_torus",
        "heisenberg3",
        "heisenberg4",
        "z2_skew",
    ]
    with pytest.raises(KeyError):
        catalog_entry("nope")


def test_heisenberg4_second_kind_matrix_entries():
    """Transcription check: psi(t) as an explicit 4x4 unitriangular matrix.

    In the basis ordering (E12, E23, E34, E13, E24, E14) the product of
    elementary exponentials has the closed-form entries below.
    """
    sys = catalog_build("heisenberg4")
    rng = random.Random(29)
    for _ in range(20):
        t = rand_vec(rng, 6)
        M = psi_matrix(H4_UNITS, 4, t)
        assert M[0][1] == t[0]
        assert M[1][2] == t[1]
        assert M[2][3] == t[2]
        assert M[0][2] == t[0] * t[1] + t[3]
        assert M[1][3] == t[1] * t[2] + t[4]
        assert M[0][3] == t[0] * t[1] * t[2] + t[0] * t[4] + t[5]
        # and the group law agrees with matrix multiplication through the
        # catalog algebra's structure constants
        s = rand_vec(rng, 6)
        prod = gp.multiply(sys.algebra, t, s)
        N = psi_matrix(H4_UNITS, 4, s)
        assert psi_matrix(H4_UNITS, 4, prod) == [
            [sum(M[i][k] * N[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]


def test_heisenberg4_tau_commutator_matrix_entries():
    """[tau, g] has the hand-derived entries -u x, u w, w (u x + y)."""
    u, y = F(3, 7), F(2, 5)
    sys = catalog_build("heisenberg4", params={"u_tau": u, "y_tau": y})
    tau = [F(c) for c in sys.g_tau]
    assert tau == [F(0), u, F(0), y, F(0), F(0)]
    rng = random.Random(31)
    for _ in range(20):
        g = rand_vec(rng, 6)
        c = gp.commutator(sys.algebra, tau, g)
        M = psi_matrix(H4_UNITS, 4, c)
        x, w = g[0], g[2]
        assert M[0][1] == 0 and M[1][2] == 0 and M[2][3] == 0
        assert M[0][2] == -u * x
        assert M[1][3] == u * w
        assert M[0][3] == w * (u * x + y)


@pytest.mark.parametrize("name", NAMES)
def test_total_conjugation_is_built_once_per_system(name):
    sys = catalog_build(name)
    B = st.total_conjugation(sys)
    assert st.total_conjugation(sys) is B
    assert B.matrix == gp.adjoint(sys.algebra, sys.g_tau).compose(sys.A).matrix


@pytest.mark.parametrize("name", NAMES)
def test_tau_commutator_ideal_is_built_once_per_system(name):
    sys = catalog_build(name)
    tau = st.tau_commutator_ideal(sys)
    assert st.tau_commutator_ideal(sys) is tau
    alg = sys.algebra
    image = [[a - b for a, b in zip(sys.B.apply_vector(v), v)] for v in alg.basis()]
    assert tau.equals(la.smallest_ideal_containing(alg, image))


@pytest.mark.parametrize("name", NAMES)
def test_discrete_factor_and_leibman_component_are_built_once_per_system(name):
    sys = catalog_build(name)
    J = st.discrete_factor_subgroup(sys)
    assert st.discrete_factor_subgroup(sys) is J is sys.J
    assert J.equals(la.rational_hull(st.tau_commutator_ideal(sys)))
    hH = st.leibman_identity_component(sys)
    assert st.leibman_identity_component(sys) is hH
    assert hH.contains_ideal(J)


def test_heisenberg4_center_enters_only_through_ideal_closure():
    """The golden center is the nullspace of v -> ([v, e_i])_i.  im(B - I) is
    2-dimensional and misses it; the smallest ideal containing im(B - I)
    picks it up, which is what makes the commutator ideal 3-dimensional."""
    sys = catalog_build("heisenberg4")
    alg = sys.algebra
    (center,) = [[F(c) for c in v] for v in catalog_entry("heisenberg4").expected["center"]]
    # column j of the map v -> ([v, e_i])_i is ([e_j, e_i])_i
    columns = [[c for e in alg.basis() for c in alg.bracket(v, e)] for v in alg.basis()]
    assert linalg.nullspace([list(row) for row in zip(*columns)]) == [center]
    B = st.total_conjugation(sys)
    image = [
        [B.matrix[k][i] - (1 if k == i else 0) for k in range(6)] for i in range(6)
    ]
    ech = linalg.echelon(image)
    assert len(ech) == 2
    assert not linalg.in_span(ech, center)
    tau_ideal = st.tau_commutator_ideal(sys)
    assert tau_ideal.dim == 3
    assert tau_ideal.contains(center)


def test_catalog_build_parameter_validation():
    with pytest.raises(KeyError):
        catalog_build("nope")
    with pytest.raises(ValueError):
        catalog_build("rot_torus", params={"beta": "1/3"})
    sys = catalog_build("rot_torus", params={"alpha": "1/3"})
    verdict = st.ergodicity_test(sys)
    assert not verdict.ergodic
    # e(3x) is genuinely invariant under rotation by 1/3
    assert [F(v) for v in verdict.witness] == [F(3)]


@pytest.mark.parametrize("mixed", [False, True], ids=["rational", "one_rational"])
@pytest.mark.parametrize("name", [n for n in NAMES if catalog_entry(n).symbols])
def test_catalog_build_with_params_constructs_one_system(name, mixed, monkeypatch):
    """With rational params, catalog_build constructs and validates one
    system, equal to the symbolic system with the params substituted."""
    symbols = catalog_entry(name).symbols
    params = {s: "symbolic" if mixed and i else "1/%d" % (i + 3) for i, s in enumerate(symbols)}
    want = substitute_params(catalog_build(name), params)
    init, built = st.AffineNilsystem.__init__, []

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(st.AffineNilsystem, "__init__", counted)
    sys = catalog_build(name, params)
    assert built == [sys]
    assert [(A.matrix, repr(g)) for A, g in sys.generators] == [
        (A.matrix, repr(g)) for A, g in want.generators]
    assert (sys.context.names, sys.default_assignment, sys.name) == (
        want.context.names, want.default_assignment, want.name)


@pytest.mark.parametrize("name", NAMES)
def test_default_assignment_covers_symbols(name):
    entry = catalog_entry(name)
    sys = entry.build()
    assert set(sys.default_assignment) == set(entry.symbols)
    # numeric() evaluates every translation at the default assignment
    num = sys.numeric()
    pts = num.sample_points(4, seed=0)
    num.step(pts)


@pytest.mark.parametrize("name", NAMES)
def test_symbols_are_the_names_in_the_translations(name):
    """An undeclared symbol in a translation, or a declared one no translation uses, fails."""
    entry = catalog_entry(name)
    named = [t for _, tr in entry.generators for t in tr if isinstance(t, str)]
    assert sorted(entry.symbols) == sorted(set(named))


@pytest.mark.parametrize("name", NAMES)
def test_serialization_roundtrip(name, tmp_path):
    sys = catalog_build(name)
    path = str(tmp_path / "roundtrip.json")
    save_system(path, sys)
    back = load_system(path)
    assert back.algebra.dim == sys.algebra.dim
    assert back.algebra.brackets == sys.algebra.brackets
    assert back.A.matrix == sys.A.matrix
    rng = random.Random(37)
    x = rand_vec(rng, sys.algebra.dim)
    a = sys.apply_exact(x)
    b = back.apply_exact(x)
    assert a == b
    assert [A.matrix for A, _ in back.generators] == [A.matrix for A, _ in sys.generators]
    assert [g for _, g in back.generators] == [g for _, g in sys.generators]


def test_z2_file_keeps_both_generators_and_their_orbits(tmp_path):
    """A saved and loaded z2_skew holds both generators, and each one's float
    orbit from the file is bit for bit the catalog system's."""
    sys = catalog_build("z2_skew", {"alpha": "355/113", "beta": "577/408"})
    path = str(tmp_path / "z2.json")
    save_system(path, sys)
    back = load_system(path)
    assert len(back.generators) == 2
    nums = [s.numeric() for s in (sys, back)]
    for step in ("step", "step2"):
        pts = [nums[0].sample_points(256, 3)] * 2
        for _ in range(50):
            pts = [getattr(num, step)(p) for num, p in zip(nums, pts)]
            for a, b in zip(*pts):
                assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_observable_for_builds_catalog_observables():
    entry = catalog_entry("heisenberg3")
    f = observable_for(entry, entry.observables[0])
    assert f.terms == {(1, 0, 0): (1 + 0j)}
    g = observable_for(entry, entry.dichotomy_observables[0])
    assert set(g.terms) == {(1, 0, 0), (0, 0, 1)}
