"""Computational laboratory for affine nilsystems.

Exact Mal'cev-coordinate group arithmetic, the subgroup algorithms behind the
structure of nonergodic nilsystems (commutator ideals, rational closures, the
Leibman component and its factor tower), and numerical spectral-measure
estimators checking the discrete/Lebesgue decomposition on reference systems.
"""

from .scalars import (
    ExtScalar,
    Rational,
    SymbolContext,
    rational_slices,
    substitute_rational,
)
from .algebra import (
    NilLieAlgebra,
    RationalIdeal,
    derived_subalgebra,
    lower_central_series,
    rational_hull,
    smallest_ideal_containing,
)
from .group import (
    UnipotentAutomorphism,
    adjoint,
    apply_automorphism,
    bch,
    commutator,
    haar_sample,
    identity_automorphism,
    inverse,
    multiply,
    reduce_mod_lattice,
)
from .structure import (
    AffineNilsystem,
    ErgodicityVerdict,
    discrete_factor_subgroup,
    ergodicity_test,
    factor_projection,
    leibman_identity_component,
    leibman_lcs,
    rational_closure_J,
    tau_commutator_ideal,
    total_conjugation,
)
from .spectral import (
    AutocorrelationSeries,
    Observable,
    SpectralReport,
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
    uniformity_seminorm,
    vertical_character_test,
    wiener_atom_mass,
)
from .catalog import CatalogEntry, catalog_build, catalog_entry, catalog_list
from .serialize import load_system, save_system

__version__ = "0.1.0"
