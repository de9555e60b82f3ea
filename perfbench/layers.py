"""Per-layer metrics of a traced run, and which end-to-end metric each should move.

Every metric is computed from the spans of one traced set-up plus one traced
workload call, so ``calls`` counts repeat exactly for a fixed seed.  Stats:

- ``calls``: spans of that layer;
- ``self_s``: summed self time, each span's duration minus its child spans;
- ``ns_per_point``: self time divided by the points in the batches handled.

``BENCHMARK.json`` lists the same names and units under ``per_layer``.
"""

from __future__ import annotations

import tracing
from tracing import NAME, PARENT, TAG

SYSTEMS = ("skew_torus_nonergodic", "skew_torus_ergodic", "rot_torus",
           "heisenberg3", "heisenberg4", "z2_skew")

_GROUP_NUMERIC = "wall_ref_s on verify, then dichotomy (numeric); wall_ref_s on structure (exact)"
_STRUCTURE_EXACT = "wall_ref_s on structure"
_STEP = "wall_ref_s on verify and dichotomy"
_DICHOTOMY = "wall_ref_s on dichotomy"
_ESTIMATOR = "wall_ref_s on verify and dichotomy"
_CATALOG = "setup_s; wall_ref_s on verify and structure"
_BRACKET = "wall_ref_s on verify and dichotomy (numeric BCH)"

#: (name, unit, the end-to-end metric and workloads it should move)
PER_LAYER: list[tuple[str, str, str]] = [
    ("group.bch.calls", "count", _GROUP_NUMERIC),
    ("group.bch.self_s", "s", _GROUP_NUMERIC),
    ("group.multiply.calls", "count", _GROUP_NUMERIC),
    ("group.multiply.self_s", "s", _GROUP_NUMERIC),
    ("group.first_to_second.self_s", "s", _GROUP_NUMERIC),
    ("group.second_to_first.self_s", "s", _GROUP_NUMERIC),
    ("group.reduce_mod_lattice.calls", "count", _GROUP_NUMERIC),
    ("group.reduce_mod_lattice.self_s", "s", _GROUP_NUMERIC),
    ("group.reduce_mod_lattice.multiply_frac", "ratio", _GROUP_NUMERIC),
    ("group.haar_sample.self_s", "s", "setup_s"),
    ("group.adjoint.self_s", "s", _STRUCTURE_EXACT),
    ("group.apply_automorphism.calls", "count", _GROUP_NUMERIC),
    ("algebra.NilLieAlgebra.bracket.calls", "count", _BRACKET),
    ("algebra.NilLieAlgebra.bracket.self_s", "s", _BRACKET),
    ("algebra.smallest_ideal_containing.self_s", "s", _STRUCTURE_EXACT),
    ("algebra.rational_hull.self_s", "s", _STRUCTURE_EXACT),
    ("algebra.derived_subalgebra.self_s", "s", _STRUCTURE_EXACT),
    ("linalg.echelon.calls", "count", _STRUCTURE_EXACT),
    ("linalg.echelon.self_s", "s", _STRUCTURE_EXACT),
    ("linalg.reduce_vector.self_s", "s", _STRUCTURE_EXACT),
    ("linalg.nullspace.self_s", "s", _STRUCTURE_EXACT),
    ("scalars.ExtScalar.arith.calls", "count", "wall_ref_s on structure; setup_s"),
    ("scalars.substitute_rational.self_s", "s", "wall_ref_s on structure; setup_s"),
    ("scalars.evaluate_scalar.calls", "count", "wall_ref_s on structure; setup_s"),
    ("structure.NumericSystem.step.calls", "count", _STEP),
    ("structure.NumericSystem.step.self_s", "s", _STEP),
    *[("structure.NumericSystem.step.ns_per_point." + s, "ns", "wall_ref_s on verify")
      for s in SYSTEMS],
    ("structure.NumericSystem.step2.self_s", "s", "wall_ref_s on verify"),
    ("structure.NumericSystem.step2_inverse.self_s", "s", "wall_ref_s on verify"),
    ("structure.step.useful_frac", "ratio", "wall_ref_s on seminorm"),
    ("structure.AffineNilsystem.init.self_s", "s", "setup_s"),
    *[("structure.%s.self_s" % fn, "s", _STRUCTURE_EXACT)
      for fn in ("tau_commutator_ideal", "discrete_factor_subgroup",
                 "leibman_identity_component", "leibman_lcs", "quotient_system",
                 "ergodicity_test")],
    *[("structure.suite_s." + s, "s", _STRUCTURE_EXACT) for s in SYSTEMS],
    ("spectral.Observable.call.calls", "count", _DICHOTOMY),
    ("spectral.Observable.call.self_s", "s", _DICHOTOMY),
    ("spectral.Observable.call.ns_per_point_term", "ns", _DICHOTOMY),
    ("spectral.Observable.distinct_char_frac", "ratio", _DICHOTOMY),
    ("spectral.uniformity_seminorm.self_s", "s", "wall_ref_s and peak_rss_mb on seminorm"),
    ("spectral._seminorm_power.calls", "count", "wall_ref_s on seminorm"),
    ("spectral._seminorm_power.self_s", "s", "wall_ref_s on seminorm"),
    ("spectral.seminorm.G_mb", "MB", "peak_rss_mb on seminorm"),
    ("spectral.autocorrelation_many.self_s", "s", _ESTIMATOR),
    ("spectral.joint_autocorrelation.self_s", "s", "wall_ref_s on verify"),
    ("spectral.project_to_factor.self_s", "s", _DICHOTOMY),
    ("spectral.classify.self_s", "s", _ESTIMATOR),
    ("spectral.wiener_atom_mass.self_s", "s", _ESTIMATOR),
    ("spectral.fejer_density.self_s", "s", _ESTIMATOR),
    ("catalog.catalog_build.calls", "count", _CATALOG),
    ("catalog.catalog_build.self_s", "s", _CATALOG),
    ("catalog.observable_for.calls", "count", _CATALOG),
    ("cli.self_s", "s", "wall_ref_s on verify and structure"),
    ("trace.overhead_s", "s", "none: traced minus untraced wall_ref_s of one call"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def compute(tracer: tracing.Tracer, workload, state, overhead_s: float) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from the tracer's spans; 0 where a layer did not run."""
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    stats = tracing.layer_stats(spans, selfs)
    empty = tracing.LayerStats()

    def layer(name: str) -> tracing.LayerStats:
        return stats.get(name, empty)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    reduce_spans = {i for i, s in enumerate(spans) if s[NAME] == "group.reduce_mod_lattice"}
    remultiplies = sum(1 for s in spans
                       if s[NAME] == "group.multiply" and s[PARENT] in reduce_spans)
    steps = tracing.layer_stats(
        spans, selfs, key=lambda s: s[TAG] if s[NAME] == "structure.NumericSystem.step" else None)
    suites = tracing.layer_stats(
        spans, selfs, key=lambda s: s[TAG] if s[NAME] == "structure.suite" else None)
    distinct, evaluations = workload.characters(state)
    obs = layer("spectral.Observable.call")

    special = {
        "group.reduce_mod_lattice.multiply_frac":
            ratio(remultiplies, layer("group.reduce_mod_lattice").work),
        "scalars.ExtScalar.arith.calls": tracer.arith_calls,
        "structure.step.useful_frac":
            ratio(workload.step_depths_needed(), layer("structure.NumericSystem.step").calls),
        "spectral.Observable.call.ns_per_point_term": 1e9 * ratio(obs.self_s, obs.work),
        "spectral.Observable.distinct_char_frac": ratio(distinct, evaluations),
        "spectral.seminorm.G_mb": workload.orbit_matrix_mb(),
        "cli.self_s": sum(st.self_s for n, st in stats.items() if n.startswith("cli.")),
        "trace.overhead_s": overhead_s,
    }
    for s in SYSTEMS:
        st = steps.get(s, empty)
        special["structure.NumericSystem.step.ns_per_point." + s] = 1e9 * ratio(st.self_s, st.work)
        special["structure.suite_s." + s] = suites.get(s, empty).total_s

    out = {}
    for name, _, _ in PER_LAYER:
        if name in special:
            out[name] = float(special[name])
        elif name.endswith(".calls"):
            out[name] = float(layer(name[:-len(".calls")]).calls)
        else:
            out[name] = layer(name[:-len(".self_s")]).self_s
    return out
