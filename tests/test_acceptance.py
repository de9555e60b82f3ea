"""Acceptance suite: nine criteria, one PASS/FAIL line each.

Run with ``pytest -v``; each test prints its verdict line directly to the
terminal (bypassing capture) so the one-line-per-criterion report is always
visible.
"""

import os
import random
import subprocess
import sys as _sys
import time
from fractions import Fraction

import numpy as np
import pytest

from nillab import algebra as la
from nillab import group as gp
from nillab import linalg
from nillab import structure as st
from nillab.algebra import NilLieAlgebra
from nillab.catalog import catalog_build, catalog_entry, observable_for
from nillab.spectral import (
    Observable,
    autocorrelation_many,
    joint_autocorrelation,
    project_to_factor,
    pushforward_histogram,
    subtorus_support_test,
    uniformity_seminorm,
    wiener_atom_mass,
)

import oracles
from oracles import H3_UNITS, H4_UNITS, mat_exp, mat_log, matrix_to_vec, mmul, psi_matrix, vec_to_matrix

F = Fraction
SEED = 20240809


def report(capsys, num, label, ok, detail=""):
    line = "%s criterion %d: %s%s" % ("PASS" if ok else "FAIL", num, label,
                                      (" [%s]" % detail) if detail else "")
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_1_example_autocorrelations(capsys):
    sys = catalog_build("skew_torus_nonergodic")
    t0 = time.monotonic()
    fs = [Observable.character(2, (p, 0)) for p in (1, 2)]
    gs = [Observable.character(2, (0, q)) for q in (1, 2)]
    series = autocorrelation_many(sys, fs + gs, 64, 10 ** 5, seed=SEED)
    elapsed = time.monotonic() - t0
    worst_f = max(
        abs(s.value(n) - 1.0) for s in series[:2] for n in range(-64, 65)
    )
    worst_g = max(
        abs(s.value(n)) for s in series[2:] for n in range(-64, 65) if n != 0
    )
    worst_g0 = max(abs(s.value(0) - 1.0) for s in series[2:])
    ok = worst_f <= 5e-3 and worst_g <= 5e-3 and worst_g0 <= 5e-3 and elapsed <= 40.0
    report(capsys, 1, "autocorrelations of e(px), e(qy) on the nonergodic skew", ok,
           "max dev %.2e / %.2e, %.1fs" % (worst_f, worst_g, elapsed))


def test_criterion_2_heisenberg4_commutator_formula(capsys):
    sys = catalog_build("heisenberg4")
    u, y = sys.g_tau[1], sys.g_tau[3]
    rng = random.Random(2)
    ok = True
    for _ in range(20):
        g = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)]
        c = gp.commutator(sys.algebra, list(sys.g_tau), g)
        M = psi_matrix(H4_UNITS, 4, c)
        x, w = g[0], g[2]
        ok = ok and M[0][2] == -u * x and M[1][3] == u * w and M[0][3] == w * (u * x + y)
        ok = ok and M[0][1] == 0 and M[1][2] == 0 and M[2][3] == 0
    B = st.total_conjugation(sys)
    image = [[B.matrix[k][i] - (1 if k == i else 0) for k in range(6)] for i in range(6)]
    center = [F(0)] * 5 + [F(1)]
    ok = ok and not linalg.in_span(linalg.echelon(image), center)
    report(capsys, 2, "4-dim Heisenberg [tau, g] matrix entries, exact", ok)


def test_criterion_3_bch_against_matrix_oracles(capsys):
    ok = True
    # 2-step closed form on every 2-step catalog algebra
    for name in ("skew_torus_nonergodic", "skew_torus_ergodic", "rot_torus",
                 "heisenberg3", "z2_skew"):
        alg = catalog_build(name).algebra
        if alg.step > 2:
            continue
        rng = random.Random(3)
        for _ in range(20):
            x = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(alg.dim)]
            yv = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(alg.dim)]
            expect = la.vec_add(
                la.vec_add(x, yv), la.vec_scale(F(1, 2), alg.bracket(x, yv))
            )
            ok = ok and gp.bch(alg, x, yv) == expect
    # unitriangular oracles, 100 random rational pairs per system
    h3 = NilLieAlgebra.from_brackets(3, {(0, 1): {2: F(1)}})
    h4 = catalog_build("heisenberg4").algebra
    for alg, units, n in ((h3, H3_UNITS, 3), (h4, H4_UNITS, 4)):
        rng = random.Random(30 + n)
        for _ in range(100):
            x = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(alg.dim)]
            yv = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(alg.dim)]
            mx = mat_exp(vec_to_matrix(units, n, x))
            my = mat_exp(vec_to_matrix(units, n, yv))
            expect = matrix_to_vec(units, mat_log(mmul(mx, my)))
            ok = ok and gp.bch(alg, x, yv) == expect
    report(capsys, 3, "BCH exact vs 2-step closed form and matrix oracles", ok)


def test_criterion_4_structure_suite(capsys):
    ok = True
    sys = catalog_build("skew_torus_nonergodic")
    J = st.rational_closure_J(sys, st.tau_commutator_ideal(sys))
    ok = ok and J.basis == [[F(0), F(1)]]
    v = st.ergodicity_test(sys)
    ok = ok and not v.ergodic and [F(x) for x in v.witness] == [F(1), F(0)]

    sys = catalog_build("skew_torus_ergodic")
    ok = ok and st.ergodicity_test(sys).ergodic
    H = st.leibman_identity_component(sys)
    ok = ok and H.dim == sys.algebra.dim

    sys = catalog_build("heisenberg3")
    J = st.rational_closure_J(sys, st.tau_commutator_ideal(sys))
    ok = ok and J.basis == [[F(0), F(0), F(1)]]
    D = la.derived_subalgebra(la.full_algebra(sys.algebra))
    ok = ok and J.equals(D)
    report(capsys, 4, "structure suite golden values (kernels, verdicts, witness)", ok)


def test_criterion_5_dichotomy_splitting(capsys):
    t0 = time.monotonic()
    ok = True
    detail = []
    for name in ("skew_torus_nonergodic", "heisenberg3"):
        entry = catalog_entry(name)
        sys = entry.build()
        J = st.rational_closure_J(sys, st.tau_commutator_ideal(sys))
        parts = []
        for spec in entry.dichotomy_observables:
            f = observable_for(entry, spec)
            proj, compl = project_to_factor(sys, f, J)
            parts.extend([proj, compl])
        series = autocorrelation_many(sys, parts, 256, 10 ** 5, seed=SEED)
        for i in range(0, len(series), 2):
            am_p = wiener_atom_mass(series[i])
            am_c = wiener_atom_mass(series[i + 1])
            ok = ok and am_p.value >= 0.9 * series[i].c0()
            ok = ok and am_c.value <= 0.05 * series[i + 1].c0()
            detail.append("%.3f/%.4f" % (am_p.value / series[i].c0(),
                                         am_c.value / series[i + 1].c0()))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 120.0
    report(capsys, 5, "discrete-factor splitting of 6 observables", ok,
           "atom ratios %s, %.1fs" % (" ".join(detail), elapsed))


def test_criterion_6_uniformity_seminorms(capsys):
    sys = catalog_build("skew_torus_nonergodic")
    e_x = Observable.character(2, (1, 0))
    e_y = Observable.character(2, (0, 1))
    u1y = uniformity_seminorm(sys, e_y, 1, 64, 10 ** 5, seed=SEED).value
    u2y = uniformity_seminorm(sys, e_y, 2, 64, 10 ** 5, seed=SEED).value
    u1x = uniformity_seminorm(sys, e_x, 1, 64, 10 ** 5, seed=SEED).value
    lcs1 = st.leibman_lcs(sys, 1)
    ok = (u1y <= 0.05 and abs(u2y - 1.0) <= 0.05 and abs(u1x - 1.0) <= 0.05
          and lcs1.dim == 0)
    report(capsys, 6, "U^1/U^2 on e(y), e(x); first lcs stage trivial", ok,
           "U1(ey)=%.4f U2(ey)=%.4f U1(ex)=%.4f" % (u1y, u2y, u1x))


def test_criterion_7_joint_spectra_on_subtorus(capsys):
    sys = catalog_build("z2_skew")
    ok = True
    worst_off, worst_on = 0.0, 1.0
    for q in (1, 2):
        f = Observable.character(2, (0, q))
        series = joint_autocorrelation(sys, f, (16, 16), 10 ** 5, seed=SEED)
        for (n1, n2), v in zip(series.lags, series.values):
            if n1 != 0:
                worst_off = max(worst_off, abs(v))
            elif n1 == 0:
                worst_on = min(worst_on, abs(v))
        ok = ok and subtorus_support_test(series, (1, 0))
    ok = ok and worst_off <= 1e-2 and worst_on >= 0.99
    report(capsys, 7, "Z^2 spectra supported on the n1 = 0 subtorus", ok,
           "off-line max %.2e, on-line min %.4f" % (worst_off, worst_on))


def test_criterion_8_pushforward_histogram(capsys):
    hist = pushforward_histogram({(1, 1): 1.0}, 256, 10 ** 5, seed=SEED)
    ok = hist.max_atom <= 0.05
    rejected = False
    try:
        pushforward_histogram({(0, 0): 0.5}, 256, 10 ** 5, seed=SEED)
    except ValueError:
        rejected = True
    ok = ok and rejected
    report(capsys, 8, "pushforward of xy has no heavy atoms; constants rejected", ok,
           "max bin %.4f" % hist.max_atom)


def test_criterion_9_verify_determinism(capsys):
    outs = []
    codes = []
    for _ in range(2):
        r = subprocess.run(
            [_sys.executable, "-m", "nillab.cli", "verify"],
            capture_output=True, text=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        outs.append(r.stdout)
        codes.append(r.returncode)
    ok = codes == [0, 0] and outs[0] == outs[1] and "RESULT PASS" in outs[0]
    report(capsys, 9, "golden verify byte-identical across runs", ok)
