"""Command-line experiment runner.

Subcommands: structure (exact subgroup reports), spectrum (autocorrelation
CSV + spectral report), useminorm (uniformity seminorm CSV), verify (replay
the built-in golden suite), catalog (list built-in systems).  Every spectral
command requires a seed and produces byte-identical output for a fixed
config.  useminorm computes every U^s row and its halved-window estimate from
one orbit walk.  Both spectral commands draw and walk fixed chunks of sample
points, so memory is bounded by chunk size, not N: depth x chunk orbit values
for useminorm, (2 K2 + 1) x chunk for spectrum.

Exit codes: 0 success, 1 validation error, 2 golden-suite failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from fractions import Fraction
from functools import cache
from itertools import chain

from . import spectral as sp
from . import structure as st
from .algebra import RationalIdeal, derived_subalgebra
from .catalog import catalog_build, catalog_list, observable_for, substitute_params
from .scalars import UnboundSymbolError
from .serialize import load_system
from .spectral import Observable
from .structure import AffineNilsystem


#: The value of each flag that neither the command line nor a config file
#: sets; the commands and the help strings read it from here.
DEFAULTS = {"k": 1, "lags": 256, "samples": 10 ** 5, "levels": (64,)}


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 2 is reserved for golden failures
        raise ConfigError(message)


def _load_sys(config: dict) -> AffineNilsystem:
    name = config.get("system")
    if not name:
        raise ConfigError("missing system")
    if name.endswith(".json") or os.path.sep in name:
        if not os.path.exists(name):
            raise ConfigError("system file %r not found" % name)
        try:
            system = load_system(name)
        except (LookupError, TypeError, AttributeError, ValueError) as exc:  # JSONDecodeError too
            raise ConfigError("malformed system file %r: %s: %s" % (name, type(exc).__name__, exc))
        return substitute_params(system, config.get("params"))
    try:
        return catalog_build(name, config.get("params"))
    except KeyError as exc:
        raise ConfigError(exc.args[0])


def _parse_params(items) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError("parameter %r is not of the form name=value" % item)
        k, v = item.split("=", 1)
        if k in out:
            raise ConfigError("parameter %r is given twice" % k)
        out[k] = v
    return out


def _parse_observable(specs, dim: int) -> Observable:
    """Each spec is "k1,...,km:amplitude"; several specs sum."""
    if not specs:
        raise ConfigError("missing observable")
    terms: dict[tuple, complex] = {}
    for spec in specs:
        if ":" in spec:
            kpart, apart = spec.rsplit(":", 1)
            amp = complex(apart)
        else:
            kpart, amp = spec, 1.0
        k = tuple(int(x) for x in kpart.split(","))
        if len(k) != dim:
            raise ConfigError(
                "frequency vector %r has %d entries; system has %d coordinates"
                % (spec, len(k), dim)
            )
        terms[k] = terms.get(k, 0.0) + amp
    return Observable(dim, terms)


def _fmt(x: float) -> str:
    return "%.12e" % x


def _basis_lines(label: str, ideal: RationalIdeal) -> list[str]:
    lines = ["%s: dim %d" % (label, ideal.dim)]
    for row in ideal.basis:
        lines.append("  [" + ", ".join(str(x) for x in row) + "]")
    return lines


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_structure(config: dict) -> str:
    system = _load_sys(config)
    lines = ["system: %s" % (system.name or config.get("system"))]
    lines.append("algebra: dim %d, step %d" % (system.algebra.dim, system.algebra.step))
    tc = st.tau_commutator_ideal(system)
    lines += _basis_lines("tau_commutator_ideal", tc)
    J = st.discrete_factor_subgroup(system)
    lines += _basis_lines("discrete_factor_subgroup", J)
    hH = st.leibman_identity_component(system)
    lines += _basis_lines("leibman_identity_component", hH)
    lines += _basis_lines("derived_leibman", derived_subalgebra(hH))
    k = config["k"]
    lines += _basis_lines("leibman_lcs(k=%d)" % k, st.leibman_lcs(system, k))
    lines.append("discrete_factor: torus dimension %d" % (system.algebra.dim - J.dim))
    verdict = st.ergodicity_test(system)
    if verdict.ergodic:
        lines.append("ergodicity: ergodic")
    else:
        lines.append("ergodicity: nonergodic witness=%s"
                     % ",".join(str(v) for v in verdict.witness))
    return "\n".join(lines) + "\n"


def cmd_spectrum(config: dict) -> str:
    system = _load_sys(config)
    if config.get("seed") is None:
        raise ConfigError("spectral commands require a seed")
    seed, lags, N = config["seed"], config["lags"], config["samples"]
    f = _parse_observable(config.get("observable"), system.algebra.dim)
    series = sp.autocorrelation(system, f, lags, N, seed)
    report = sp.classify(series)
    lines = ["lag,re_c,im_c"]
    for lag, v in zip(series.lags, series.values):
        lines.append("%d,%s,%s" % (lag, _fmt(v.real), _fmt(v.imag)))
    lines.append("# atom_mass=%s" % _fmt(report.atom_mass))
    lines.append("# c0=%s" % _fmt(report.c0))
    lines.append("# verdict=%s" % report.verdict)
    lines.append("# N=%d K=%d seed=%d" % (N, lags, seed))
    return "\n".join(lines) + "\n"


def cmd_useminorm(config: dict) -> str:
    system = _load_sys(config)
    if config.get("seed") is None:
        raise ConfigError("spectral commands require a seed")
    seed, N, levels = config["seed"], config["samples"], config["levels"]
    f = _parse_observable(config.get("observable"), system.algebra.dim)
    lines = ["s,estimate,stability_delta"]
    for est in sp.seminorm_ladder(system, f, levels, N, seed):
        lines.append("%d,%s,%s" % (est.s, _fmt(est.value), _fmt(est.stability_delta)))
    return "\n".join(lines) + "\n"


def cmd_catalog(config: dict | None = None) -> str:
    lines = []
    for e in catalog_list():
        sym = ",".join(e.symbols) if e.symbols else "-"
        lines.append("%s  symbols=%s  %s" % (e.name, sym, e.summary))
    return "\n".join(lines) + "\n"


# -- golden verification ---------------------------------------------------

_VERIFY_N = 2 ** 13
_VERIFY_K = 128
_VERIFY_SEED = 20240809


def _verify_structure(entry, system):
    """(label, passed) for each golden structure check of one catalog system."""
    exp = entry.expected

    def golden(key):
        return RationalIdeal(system.algebra, [[Fraction(x) for x in r] for r in exp[key]])

    yield "tau_ideal_dim", st.tau_commutator_ideal(system).dim == exp["tau_ideal_dim"]
    yield "J", st.discrete_factor_subgroup(system).equals(golden("J"))
    if "leibman_component" in exp:
        hH = st.leibman_identity_component(system)
        yield "leibman", hH.equals(golden("leibman_component"))
        yield "derived_H", derived_subalgebra(hH).equals(golden("derived_H"))
        yield "leibman_lcs_1", st.leibman_lcs(system, 1).equals(golden("leibman_lcs_1"))
    if "ergodic" in exp:
        v = st.ergodicity_test(system)
        yield "ergodic", v.ergodic == exp["ergodic"] and v.witness == exp["witness"]


def _verify_spectral(entry, system):
    """(label, passed) for each golden spectral verdict of one catalog system.

    The one-generator verdicts share one orbit walk, which gives each
    observable exactly the series it gets alone.
    """
    single = [spec for spec in entry.observables if spec["verdict"] != "subtorus"]
    walked = iter(sp.autocorrelation_many(system, [observable_for(entry, spec) for spec in single],
                                          _VERIFY_K, _VERIFY_N, _VERIFY_SEED))
    for spec in entry.observables:
        if spec["verdict"] == "subtorus":
            f = observable_for(entry, spec)
            series = sp.joint_autocorrelation(system, f, (8, 8), _VERIFY_N, _VERIFY_SEED)
            ok = sp.subtorus_support_test(series, entry.expected["subtorus_direction"])
        else:
            ok = sp.classify(next(walked)).verdict == spec["verdict"]
        yield "obs_%s" % spec["name"], ok


def cmd_verify(config: dict | None = None) -> tuple[str, int]:
    out: list[str] = []
    all_ok = True
    for entry in catalog_list():
        system = catalog_build(entry.name)
        for label, ok in chain(_verify_structure(entry, system), _verify_spectral(entry, system)):
            out.append("%s %s/%s" % ("PASS" if ok else "FAIL", entry.name, label))
            all_ok = all_ok and ok
    out.append("RESULT %s" % ("PASS" if all_ok else "FAIL"))
    return "\n".join(out) + "\n", (0 if all_ok else 2)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and reused: parsing leaves it unchanged."""
    p = _Parser(prog="nillab", description="nilsystem structure and spectrum laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp_):
        sp_.add_argument("--config", help="JSON config file; flags override its keys")
        sp_.add_argument("--system", help="catalog name or system file path")
        sp_.add_argument("--params", action="append", default=None,
                         metavar="NAME=VALUE", help="symbol substitution (rational or 'symbolic')")
        sp_.add_argument("--out", help="output file (default stdout)")

    s = sub.add_parser("structure", help="exact subgroup and ergodicity report")
    common(s)
    s.add_argument("--k", type=int, help="factor level for the lcs tower (default %d)"
                   % DEFAULTS["k"])

    samples = "QMC sample count N (default %d)" % DEFAULTS["samples"]
    s = sub.add_parser("spectrum", help="autocorrelation series and spectral report")
    common(s)
    s.add_argument("--observable", action="append", metavar="K1,..,KM:AMP")
    s.add_argument("--lags", type=int, help="largest lag K (default %d)" % DEFAULTS["lags"])
    s.add_argument("--samples", type=int, help=samples)
    s.add_argument("--seed", type=int)

    s = sub.add_parser("useminorm", help="uniformity seminorm estimates")
    common(s)
    s.add_argument("--observable", action="append", metavar="K1,..,KM:AMP")
    s.add_argument("--samples", type=int, help=samples)
    s.add_argument("--seed", type=int)
    s.add_argument("--levels", type=int, nargs="+",
                   help="H per recursion stage; one U^s row per prefix (default %s)"
                   % " ".join(map(str, DEFAULTS["levels"])))

    for name, help_ in (("verify", "replay the built-in golden suite"),
                        ("catalog", "list built-in systems")):
        sub.add_parser(name, help=help_).add_argument("--out", help="output file (default stdout)")
    # a config key must name a flag of some command, not necessarily this
    # one's, so that one file can serve several commands
    known = {a.dest for s in sub.choices.values() for a in s._actions} - {"help"}
    for s in sub.choices.values():
        s.set_defaults(flags=s._actions, known_keys=known)
    return p


def _config_value(flag: argparse.Action, value):
    """A config file's value for a flag, checked and converted as the flag's own."""
    listed = flag.nargs == "+" or isinstance(flag, argparse._AppendAction)
    kind = flag.type or str
    items = value if listed and isinstance(value, list) else [value]
    nonempty = flag.nargs == "+"  # as on the command line, where the flag needs a value
    need = "a nonempty list of " if nonempty else "a list of " if listed else ""
    if (isinstance(value, list) != listed or any(type(v) not in (kind, str) for v in items)
            or nonempty and not items):
        raise ConfigError("config key %r must be %s%s, got %s" % (
            flag.dest, need, kind.__name__, json.dumps(value)))
    try:
        items = [kind(v) for v in items]
    except ValueError:
        raise ConfigError("config key %r: invalid %s value %s" % (
            flag.dest, kind.__name__, json.dumps(value)))
    return items if listed else items[0]


def _config_from_args(args) -> dict:
    config = {}
    if getattr(args, "config", None):
        if not os.path.exists(args.config):
            raise ConfigError("config file %r not found" % args.config)
        with open(args.config) as fh:
            try:
                config = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError("malformed config: %s" % exc)
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(config) - args.known_keys)
        if unknown:
            raise ConfigError("config key %s names no nillab flag"
                              % ", ".join(repr(k) for k in unknown))
        if not isinstance(config.get("params", {}), dict):
            raise ConfigError("config key 'params' must be an object of name: value pairs")
    for flag in args.flags:
        if flag.dest in ("help", "config", "params"):
            continue
        v = getattr(args, flag.dest)
        if v is not None:
            config[flag.dest] = v
        elif flag.dest in config:
            config[flag.dest] = _config_value(flag, config[flag.dest])
        elif flag.dest in DEFAULTS:
            config[flag.dest] = DEFAULTS[flag.dest]
    if getattr(args, "params", None):
        config["params"] = _parse_params(args.params)
    return config


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _config_from_args(args)
        if args.command == "verify":
            text, code = cmd_verify(config)
        else:
            run = {"structure": cmd_structure, "spectrum": cmd_spectrum,
                   "useminorm": cmd_useminorm, "catalog": cmd_catalog}[args.command]
            text, code = run(config), 0
        _emit(text, config.get("out"))
    except (ValueError, UnboundSymbolError, OSError) as exc:
        _sys.stderr.write("error: %s\n" % exc)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
