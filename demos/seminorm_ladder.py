"""Uniformity seminorms distinguish invariant functions, quasi-eigenfunctions,
and higher obstructions on the nonergodic skew product.

e(x) is T-invariant, so already U^1 is 1.  e(y) gains a linear phase each
step: its U^1 average cancels, but U^2 sees the order-2 structure and
saturates.  The stability delta compares against a halved averaging window.
"""

from nillab.catalog import catalog_build
from nillab.spectral import Observable, seminorm_ladder

sys = catalog_build("skew_torus_nonergodic")
N, H = 1 << 14, 48

for name, freqs in (("e(x)", (1, 0)), ("e(y)", (0, 1)), ("e(x+y)", (1, 1))):
    f = Observable.character(2, freqs)
    print("observable %s" % name)
    # one orbit walk gives U^1, U^2 and U^3, each on the first s levels
    for est in seminorm_ladder(sys, f, (H, H, H), N, seed=2):
        print("  U^%d = %.4f   (stability delta %.1e)"
              % (est.s, est.value, est.stability_delta))
