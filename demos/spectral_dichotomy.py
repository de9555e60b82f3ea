"""Spectral dichotomy on the nonergodic skew product T(x, y) = (x, x + y).

Every observable splits into a discrete-factor part, whose spectral measure
is purely atomic, and a complement carried by Lebesgue-type spectrum.  The
Wiener atom mass (Cesaro mean of |c(n)|^2) makes the split quantitative.
"""

from nillab import structure as st
from nillab.catalog import catalog_build, catalog_entry, observable_for
from nillab.spectral import autocorrelation_many, classify, project_to_factor, wiener_atom_mass

entry = catalog_entry("skew_torus_nonergodic")
sys = entry.build()
J = st.discrete_factor_subgroup(sys)
print("Discrete-factor kernel: span %s" % J.basis)
print()

N, K = 1 << 14, 128
for spec in entry.dichotomy_observables:
    f = observable_for(entry, spec)
    proj, compl = project_to_factor(sys, f, J)
    s_proj, s_compl = autocorrelation_many(sys, [proj, compl], K, N, seed=1)
    am_p = wiener_atom_mass(s_proj)
    am_c = wiener_atom_mass(s_compl)
    print("observable %-10s" % spec["name"])
    print("  factor part:     atom mass %.4f of c(0) = %.4f -> %s"
          % (am_p.value, s_proj.c0(), classify(s_proj).verdict))
    print("  complement part: atom mass %.4f of c(0) = %.4f -> %s"
          % (am_c.value, s_compl.c0(), classify(s_compl).verdict))
