"""Command-line interface tests: exit codes, formats, determinism."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from nillab.cli import main


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_catalog_listing(capsys):
    code, out, err = run(capsys, ["catalog"])
    assert code == 0
    for name in ("rot_torus", "heisenberg3", "heisenberg4", "z2_skew"):
        assert name in out


def test_structure_report(capsys):
    code, out, err = run(capsys, ["structure", "--system", "heisenberg3"])
    assert code == 0
    assert "ergodic" in out
    assert "tau" in out or "commutator" in out


def test_structure_unknown_system(capsys):
    code, out, err = run(capsys, ["structure", "--system", "not_a_system"])
    assert code == 1
    assert "error:" in err


def test_structure_bad_params(capsys):
    code, out, err = run(
        capsys, ["structure", "--system", "rot_torus", "--params", "gamma=1/3"]
    )
    assert code == 1
    assert "error:" in err


def test_spectrum_requires_seed(capsys):
    code, out, err = run(
        capsys,
        ["spectrum", "--system", "rot_torus", "--observable", "1:1",
         "--samples", "2048", "--lags", "64"],
    )
    assert code == 1
    assert "seed" in err


def test_spectrum_csv_and_determinism(capsys):
    argv = ["spectrum", "--system", "rot_torus", "--observable", "1:1",
            "--samples", "2048", "--lags", "64", "--seed", "7"]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    code, out2, _ = run(capsys, argv)
    assert out1 == out2
    lines = out1.strip().splitlines()
    data = [l for l in lines if not l.startswith("#") and "," in l and "lag" not in l]
    assert len(data) == 129  # lags -64..64
    first = data[0].split(",")
    assert len(first) == 3
    float(first[1]), float(first[2])
    report = [l for l in lines if l.startswith("#")]
    assert any("atom_mass" in l for l in report)
    assert any("verdict" in l for l in report)


def test_verdicts_compute_no_fejer_density(capsys, monkeypatch):
    """A verdict reads the atom mass and c(0) alone: with the Fejer density
    made to raise, classify, verify and spectrum still run to exit 0."""
    from nillab import spectral as sp

    def unread(series, grid_size):
        raise AssertionError("fejer_density called")

    monkeypatch.setattr(sp, "fejer_density", unread)
    assert "fejer_grid" not in {f.name for f in dataclasses.fields(sp.SpectralReport)}
    series = sp.AutocorrelationSeries(list(range(-64, 65)), np.ones(129, dtype=complex), 1000, 0)
    assert sp.classify(series).verdict == "discrete"
    assert run(capsys, ["verify"])[0] == 0
    code, out, _ = run(capsys, ["spectrum", "--system", "rot_torus", "--observable", "1:1",
                                "--samples", "2048", "--lags", "64", "--seed", "7"])
    assert code == 0 and "# verdict=discrete" in out


def test_spectrum_lag_budget(capsys):
    code, out, err = run(
        capsys,
        ["spectrum", "--system", "rot_torus", "--observable", "1:1",
         "--samples", "2048", "--lags", "5000", "--seed", "7"],
    )
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("lags", ["-1", "-40"])
def test_spectrum_negative_lag_exits_1(capsys, lags):
    code, out, err = run(
        capsys,
        ["spectrum", "--system", "rot_torus", "--observable", "1:1",
         "--lags", lags, "--seed", "1", "--samples", "2000"],
    )
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: lag must be nonnegative, got %s" % lags]


def test_useminorm_rows_per_level_prefix(capsys):
    code, out, _ = run(
        capsys,
        ["useminorm", "--system", "skew_torus_nonergodic", "--observable", "0,1:1",
         "--samples", "2048", "--seed", "3", "--levels", "16", "16"],
    )
    assert code == 0
    data = [l for l in out.strip().splitlines() if not l.startswith("#") and "s," not in l]
    assert len(data) == 2  # one row for U^1, one for U^2
    s_vals = [int(l.split(",")[0]) for l in data]
    assert s_vals == [1, 2]
    u1 = float(data[0].split(",")[1])
    u2 = float(data[1].split(",")[1])
    assert u1 <= 0.05 and u2 >= 0.99


@pytest.mark.parametrize("argv, module, name, flags", [
    (["structure", "--system", "heisenberg3"], "structure", "leibman_lcs", {1: "--k"}),
    (["spectrum", "--system", "rot_torus", "--observable", "1:1", "--seed", "7"],
     "spectral", "autocorrelation", {2: "--lags", 3: "--samples"}),
    (["useminorm", "--system", "rot_torus", "--observable", "1:1", "--seed", "7"],
     "spectral", "seminorm_ladder", {2: "--levels", 3: "--samples"}),
])
def test_help_shows_the_default_a_run_uses(capsys, monkeypatch, argv, module, name, flags):
    """Each flag's --help line names the value that a run without the flag
    passes on: the estimator's or report's argument, caught before it runs."""
    from nillab import spectral, structure

    seen = []

    def caught(*args):
        seen.extend(args)
        raise ValueError("caught")

    monkeypatch.setattr({"spectral": spectral, "structure": structure}[module], name, caught)
    code, _, err = run(capsys, argv)
    assert (code, err) == (1, "error: caught\n")
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    text = " ".join(capsys.readouterr().out.split("options:", 1)[1].split())
    for position, flag in flags.items():
        value = seen[position]
        shown = " ".join(map(str, value)) if isinstance(value, (list, tuple)) else str(value)
        line = text[text.index("%s %s " % (flag, flag[2:].upper())):].split(" --", 1)[0]
        assert "(default %s)" % shown in line, line


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": "rot_torus", "observable": ["1:1"],
        "samples": 2048, "lags": 64, "seed": 7,
    }))
    code, out1, _ = run(capsys, ["spectrum", "--config", str(cfg)])
    assert code == 0
    # flags override the config file
    code, out2, _ = run(capsys, ["spectrum", "--config", str(cfg), "--seed", "8"])
    assert code == 0
    assert out1 != out2


def test_config_file_values_are_used(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": "rot_torus", "observable": ["1:1"], "samples": 2000, "lags": 40,
        "seed": 7,
    }))
    code, out, _ = run(capsys, ["spectrum", "--config", str(cfg)])
    assert code == 0
    assert "# N=2000 K=40 seed=7" in out
    assert len([l for l in out.splitlines() if l[:1].isdigit() or l[:1] == "-"]) == 81
    cfg.write_text(json.dumps({"system": "heisenberg4", "k": 2}))
    code, out, _ = run(capsys, ["structure", "--config", str(cfg)])
    assert code == 0 and "leibman_lcs(k=2)" in out
    code, out, _ = run(capsys, ["structure", "--config", str(cfg), "--k", "0"])
    assert code == 0 and "leibman_lcs(k=0)" in out


def test_config_key_naming_no_flag_exits_1(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    config = {"system": "rot_torus", "observable": ["1:1"], "seed": 7, "samples": 2000}
    cfg.write_text(json.dumps(dict(config, lag=40)))
    code, out, err = run(capsys, ["spectrum", "--config", str(cfg)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "'lag'" in err and err.count("\n") == 1
    # a flag of another command is accepted, so one file serves several commands
    cfg.write_text(json.dumps(dict(config, lags=40, k=2, levels=[8])))
    code, out, _ = run(capsys, ["spectrum", "--config", str(cfg)])
    assert code == 0 and "# N=2000 K=40 seed=7" in out


@pytest.mark.parametrize("command,config", [
    ("useminorm", {"system": "skew_torus_nonergodic", "observable": ["0,1:1"],
                   "samples": 2048, "seed": 3, "levels": 64}),
    ("spectrum", {"system": "rot_torus", "observable": ["1:1"], "samples": 2048, "seed": [1]}),
    ("structure", {"system": 5}),
    ("structure", {"system": "heisenberg3", "k": "two"}),
    ("structure", {"system": "heisenberg3", "k": 1.5}),
    ("spectrum", {"system": "rot_torus", "observable": "1:1", "seed": 1}),
    ("structure", {"system": "rot_torus", "params": 5}),
    ("structure", {"system": "rot_torus", "params": {"alpha": [1]}}),
    ("structure", {"system": "rot_torus", "params": {"alpha": True}}),
    # --levels with no value is refused, so an empty list is too
    ("useminorm", {"system": "skew_torus_nonergodic", "observable": ["0,1:1"],
                   "samples": 2048, "seed": 3, "levels": []}),
])
def test_wrongly_typed_config_exits_1(capsys, tmp_path, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, [command, "--config", str(cfg)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_param_is_the_rational_its_text_denotes(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    for alpha in (0.1, "1/10"):
        cfg.write_text(json.dumps({"system": "rot_torus", "params": {"alpha": alpha}}))
        code, out, _ = run(capsys, ["structure", "--config", str(cfg)])
        assert code == 0 and out.endswith("ergodicity: nonergodic witness=10\n")


def test_missing_config_file(capsys):
    code, out, err = run(capsys, ["spectrum", "--config", "/tmp/does_not_exist.json"])
    assert code == 1
    assert "error:" in err


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out, _ = run(
        capsys, ["structure", "--system", "heisenberg4", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert "ergodic" in text


def test_system_file_path_accepted(capsys, tmp_path):
    from nillab.catalog import catalog_build
    from nillab.serialize import save_system

    path = tmp_path / "h3.json"
    save_system(str(path), catalog_build("heisenberg3"))
    code, out, _ = run(capsys, ["structure", "--system", str(path)])
    assert code == 0
    assert "ergodic" in out


_SPECTRUM = ["spectrum", "--system", "rot_torus", "--seed", "7"]


@pytest.mark.parametrize("argv", [
    _SPECTRUM + ["--observable", "x:1", "--samples", "2048", "--lags", "64"],
    _SPECTRUM + ["--observable", "1:1", "--samples", "10", "--lags", "64"],
    _SPECTRUM + ["--observable", "1:1", "--samples", "2048", "--lags", "10"],
    _SPECTRUM + ["--observable", "1:1", "--lags", "x"],
    _SPECTRUM + ["--observable", "1:1", "--no-such-flag"],
    ["useminorm", "--system", "skew_torus_nonergodic", "--observable", "0,1:1",
     "--samples", "2048", "--seed", "3", "--levels", "0"],
    ["verify", "--system", "nonexistent"],
    [],
    # a non-finite amplitude, and a seminorm below the autocorrelations' 10^3 samples
    _SPECTRUM + ["--observable", "1:inf", "--samples", "2048", "--lags", "64"],
    ["useminorm", "--system", "skew_torus_nonergodic", "--observable", "0,1",
     "--observable", "1,1:nan", "--samples", "2048", "--seed", "3", "--levels", "4"],
    ["useminorm", "--system", "skew_torus_nonergodic", "--observable", "0,1:1",
     "--samples", "1", "--seed", "3", "--levels", "4"],
    # more than 2^30 Sobol points, refused before the orbit block is allocated
    ["spectrum", "--system", "rot_torus", "--observable", "1:1", "--samples", "2000000000",
     "--seed", "3", "--lags", "64"],
    # an --out file that cannot be opened: a missing directory, and a directory
    ["catalog", "--out", "/nonexistent/dir/x"],
    ["catalog", "--out", "."],
    # a parameter with a zero denominator, on one- and two-symbol systems
    ["structure", "--system", "skew_torus_ergodic", "--params", "alpha=1/0"],
    ["structure", "--system", "heisenberg3", "--params", "alpha=1/2", "--params", "beta=1/0"],
    # a frequency entry above spectral.MAX_FREQUENCY
    _SPECTRUM + ["--observable", "257:1", "--samples", "2000"],
    # a parameter given twice
    ["structure", "--system", "skew_torus_ergodic", "--params", "alpha=1", "--params", "alpha=2"],
    # amplitudes whose products overflow, refused without a RuntimeWarning: a NaN
    # autocorrelation, a finite c(0) whose atom mass overflows, a NaN U^2 sum
    _SPECTRUM + ["--observable", "1:1e200"],
    _SPECTRUM + ["--observable", "1:1e100", "--samples", "1024", "--lags", "64"],
    ["useminorm", "--system", "rot_torus", "--observable", "1:1e100", "--levels", "8", "8",
     "--samples", "4096", "--seed", "7"],
])
def test_bad_input_exits_1_with_error_line(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_parser_is_built_once_and_a_bad_flag_leaves_it_unchanged(capsys):
    """One parser serves every call in a process: after a bad flag (exit 1,
    one error line), a good command prints what it prints in a fresh process."""
    from nillab.cli import _build_parser

    assert _build_parser() is _build_parser()
    code, out, err = run(capsys, ["structure", "--params", "alpha=1/3", "--no-such-flag"])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    argv = ["structure", "--system", "heisenberg3", "--params", "alpha=1/2",
            "--params", "beta=symbolic"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    fresh = subprocess.run([sys.executable, "-m", "nillab.cli"] + argv, capture_output=True,
                           text=True, cwd=root)
    assert (fresh.returncode, fresh.stdout) == (0, out)


def test_non_finite_series_exits_1_with_error_line(capsys):
    """An amplitude whose products overflow gives a NaN series, which is
    refused: one error line and exit 1, not a verdict, and no RuntimeWarning."""
    code, out, err = run(capsys, _SPECTRUM + ["--observable", "1:1e200",
                                              "--samples", "1024", "--lags", "64"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: autocorrelation is not finite") and err.count("\n") == 1


def test_overflowing_atom_mass_is_named_not_the_series(capsys):
    """At amplitude 1e100, c(0) = 1e200 is finite but |c(n)|^2 is not: the
    error line names the atom mass, not the autocorrelation."""
    code, out, err = run(capsys, _SPECTRUM + ["--observable", "1:1e100",
                                              "--samples", "1024", "--lags", "64"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: atom mass is not finite: c(0) = 1e+200")
    assert err.count("\n") == 1


def test_structure_report_derives_each_structure_object_once(capsys, monkeypatch):
    """The library has no quotient system to build (the Leibman component and
    the ergodicity test read their factors through the projection, and the
    torus dimension is dim - dim J); one report takes four rational hulls (J,
    the Leibman component, its lcs step and the ergodicity kernel), and once
    the tables are warm, no BCH runs."""
    import nillab
    from nillab import algebra as la
    from nillab import group as gp
    from nillab import structure as st

    for module in (nillab, st):
        for name in ("quotient_system", "FactorData", "discrete_factor"):
            assert not hasattr(module, name)
    assert not hasattr(st.AffineNilsystem, "discrete_factor")

    calls = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((la, "rational_hull"), (gp, "bch")):
        counted(module, name)
    argv = ["structure", "--system", "heisenberg4"]
    assert run(capsys, argv)[0] == 0
    calls.clear()
    assert run(capsys, argv)[0] == 0
    assert calls == {"rational_hull": 4}


def _system_file(*path, value=None, system="heisenberg3"):
    """The catalog system's file data with the entry at ``path`` set to
    ``value``, or deleted when ``value`` is None."""
    from nillab.catalog import catalog_build
    from nillab.serialize import system_to_dict

    data = system_to_dict(catalog_build(system))
    *outer, last = path
    entry = data
    for key in outer:
        entry = entry[key]
    if value is None:
        del entry[last]
    else:
        entry[last] = value
    return data


@pytest.mark.parametrize("content", [
    _system_file("automorphism"),
    [1, 2],
    # a zero denominator in each kind of rational entry
    _system_file("automorphism", 0, 0, value="1/0"),
    _system_file("algebra", "brackets", 0, "coeffs", 0, 1, value="1/0"),
    _system_file("translation", 0, 0, "coeff", value="1/0"),
    # translation coordinates are polynomials: exponents are nonnegative integers
    _system_file("translation", 0, 0, "monomial", value=[1.5, 0]),
    _system_file("translation", 0, 0, "monomial", value=[-1, 0]),
    # integer fields are JSON integers, never truncated or parsed from text
    _system_file("algebra", "dim", value=3.7),
    _system_file("algebra", "dim", value="3"),
    _system_file("algebra", "step", value=2.5),
    _system_file("algebra", "brackets", 0, "i", value=0.5),
    _system_file("algebra", "brackets", 0, "j", value=1.9),
    _system_file("algebra", "brackets", 0, "coeffs", 0, 0, value=2.2),
    # a string is not a list of symbol names, one per character
    _system_file("symbols", value="ab"),
    # rationals are text: a JSON number is refused, not taken by its binary value,
    # and a string is not a matrix row, one entry per character
    _system_file("automorphism", 0, 0, value=1),
    _system_file("algebra", "brackets", 0, "coeffs", 0, 1, value=1),
    _system_file("translation", 0, 0, "coeff", value=0.1),
    _system_file("automorphism", 0, value="100"),
    # T2's translation is checked like T1's: one coordinate per basis vector
    _system_file("second_generator", "translation", value=[[]], system="z2_skew"),
    _system_file("second_generator", "translation", value=[[]] * 3, system="z2_skew"),
], ids=["no_automorphism", "json_list", "automorphism_1/0", "bracket_1/0",
        "translation_1/0", "fractional_exponent", "negative_exponent", "float_dim",
        "string_dim", "float_step", "float_i", "float_j", "float_k", "string_symbols",
        "number_automorphism_entry", "number_bracket_coefficient",
        "number_translation_coeff", "string_automorphism_row", "t2_translation_1",
        "t2_translation_3"])
def test_malformed_system_file_exits_1_naming_the_file(capsys, tmp_path, content):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(content))
    code, out, err = run(capsys, ["structure", "--system", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err
    if "second_generator" in content:
        length = len(content["second_generator"]["translation"])
        assert "T2's translation has %d coordinates, not the algebra dimension 2" % length in err


def test_system_file_resolves_params(capsys, tmp_path):
    from nillab.catalog import catalog_build
    from nillab.serialize import save_system

    path = tmp_path / "h3.json"
    save_system(str(path), catalog_build("heisenberg3"))
    argv = ["spectrum", "--system", str(path), "--observable", "0,0,1:1",
            "--samples", "2048", "--lags", "64", "--seed", "7"]
    code, out, err = run(capsys, argv + ["--params", "alpha=1/3", "--params", "beta=2/7"])
    assert code == 0 and "# verdict=" in out
    # a file holds no numeric defaults, so the formal symbols stay unbound
    code, out, err = run(capsys, argv)
    assert code == 1
    assert err == "error: unbound symbol 'alpha'\n"
    code, out, err = run(capsys, argv + ["--params", "gamma=1/3"])
    assert code == 1
    assert "unknown parameters ['gamma']" in err
