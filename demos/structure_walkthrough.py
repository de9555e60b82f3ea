"""Walk through the exact structure pipeline on the Heisenberg nilmanifold.

Starting from the translation data, compute the commutator ideal of the
twisted map, close it up to a rational ideal, extract the Leibman identity
component, and decide ergodicity — all in exact rational arithmetic with the
translation frequencies kept as formal symbols.
"""

from nillab import algebra as la
from nillab import structure as st
from nillab.catalog import catalog_build

sys = catalog_build("heisenberg3")
alg = sys.algebra

print("System: 3-dim Heisenberg nilmanifold, translation psi(alpha, beta, 0)")
print("Algebra: dim %d, nilpotency step %d" % (alg.dim, alg.step))
print()

tau = st.tau_commutator_ideal(sys)
print("Smallest ideal containing im(B - I), B = Ad_tau o A:")
print("  dim %d, basis %s" % (tau.dim, tau.basis))

J = st.discrete_factor_subgroup(sys)
print("Rational closure (slice + ideal-closure fixpoint):")
print("  dim %d, basis %s" % (J.dim, J.basis))

derived = la.derived_subalgebra(la.full_algebra(alg))
print("Derived algebra: basis %s" % derived.basis)
print("Closure equals derived algebra: %s" % J.equals(derived))
print()

H = st.leibman_identity_component(sys)
print("Leibman identity component: dim %d (full algebra: %s)"
      % (H.dim, H.dim == alg.dim))

verdict = st.ergodicity_test(sys)
print("Ergodicity verdict: %r" % verdict)
print()

print("The discrete-spectrum factor is the quotient by the closure:")
_, nonpivot = st.factor_projection(sys.J)  # the coordinates that survive J
print("  factor torus dimension %d, surviving coordinates %s" % (len(nonpivot), nonpivot))
