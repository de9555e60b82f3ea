"""The benchmark's four workloads: set-up, one call, and the output checks.

Each workload is a closed loop with one client: the worker calls
:meth:`Workload.call` again only after the previous call returned.  A call's
output is checked by :meth:`Workload.check`, outside the timed region, and
every failed operation counts against ``error_rate``.

nillab functions are reached through their modules (``sp.autocorrelation_many``,
not a name imported from it), so a traced run sees the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nillab import catalog, cli
from nillab import spectral as sp
from nillab import structure as st

#: The pinned golden seed of ``nillab verify`` and the acceptance tests.
#: ``dichotomy`` and ``seminorm`` compare against reference estimates
#: recorded at this seed only.
GOLDEN_SEED = 20240809
#: Largest deviation from the recorded reference estimates accepted at the
#: golden seed.  Orbit float drift at lag 128 is about 1e-11, so a fast path
#: that changes only the last bits passes; a changed answer is O(1e-3) or more.
REFERENCE_TOL = 1e-8

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _nullspan(name, tag=None, work=0):
    return contextlib.nullcontext()


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@functools.lru_cache(maxsize=None)
def _load_reference(name: str):
    with open(REFERENCE_DIR / name) as fh:
        return json.load(fh)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Largest deviation from the reference estimates, at the golden seed only.
    reference_dev: float | None = None

    def record(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


class Workload:
    name = ""
    #: False when the inputs are fixed exact or golden data and ``--seed`` is ignored.
    seeded = True
    #: Parts of the calibration loop that the ``ref`` times are scaled by: the
    #: kinds of work a call does (see ``worker._calibrator``).
    calibration = ("fractions", "products")

    def sizes(self) -> dict:
        raise NotImplementedError

    def setup(self, seed: int):
        """Build what the first call needs; timed as part of ``setup_s``."""
        raise NotImplementedError

    def call(self, state, span=_nullspan):
        """One closed-loop call; returns the raw output that :meth:`check` reads."""
        raise NotImplementedError

    def check(self, state, raw) -> Outcome:
        raise NotImplementedError

    def step_depths_needed(self) -> int:
        """Distinct orbit depths of ``NumericSystem.step`` one call needs."""
        return 0

    def characters(self, state) -> tuple[int, int]:
        """(distinct frequency vectors, character evaluations) per lag."""
        return 0, 0

    def orbit_matrix_mb(self) -> float:
        """Largest seminorm orbit matrix G, depth x N complex values, in MB."""
        return 0.0


def _warm_numeric(system, n: int, seed: int) -> None:
    system.numeric().sample_points(n, seed)


# ---------------------------------------------------------------------------


class Verify(Workload):
    """``nillab verify`` in-process: the golden suite on all six catalog systems."""

    name = "verify"
    seeded = False

    def sizes(self):
        return {"N": cli._VERIFY_N, "K": cli._VERIFY_K, "golden_seed": cli._VERIFY_SEED,
                "systems": len(catalog.catalog_list())}

    def setup(self, seed):
        for entry in catalog.catalog_list():
            _warm_numeric(catalog.catalog_build(entry.name), cli._VERIFY_N, cli._VERIFY_SEED)
        return None

    def call(self, state, span=_nullspan):
        return _run_cli(["verify"])

    def check(self, state, raw):
        return check_verify(*raw, _load_reference("verify.json"))

    def step_depths_needed(self):
        # every catalog system has a K-lag autocorrelation check; z2_skew's
        # joint check needs only a prefix of the same orbit
        return len(catalog.catalog_list()) * cli._VERIFY_K

    def characters(self, state):
        n = sum(len(e.observables) for e in catalog.catalog_list())
        return n, n


def check_verify(code: int, text: str, golden: dict) -> Outcome:
    """One operation per golden line; a line passes when it is byte-identical."""
    out = Outcome()
    lines = text.splitlines(keepends=True)
    want = golden["stdout"].splitlines(keepends=True)
    for i, line in enumerate(want):
        got = lines[i] if i < len(lines) else None
        out.record(got == line, "line %d: %r, expected %r" % (i + 1, got, line))
    if len(lines) > len(want):
        out.record(False, "%d extra lines" % (len(lines) - len(want)))
    if code != golden["exit_code"] and not out.failed:
        out.record(False, "exit code %d, expected %d" % (code, golden["exit_code"]))
    return out


# ---------------------------------------------------------------------------


class Dichotomy(Workload):
    """Criterion-5 pipeline: factor projections, then one shared orbit per system."""

    name = "dichotomy"
    SYSTEMS = ("skew_torus_nonergodic", "heisenberg3")
    K = 128
    N = 2 ** 13

    def sizes(self):
        return {"N": self.N, "K": self.K, "systems": list(self.SYSTEMS),
                "observable_parts": 2 * sum(
                    len(catalog.catalog_entry(n).dichotomy_observables) for n in self.SYSTEMS),
                "point_steps": self.N * self.K * len(self.SYSTEMS)}

    def setup(self, seed):
        systems = []
        for name in self.SYSTEMS:
            entry = catalog.catalog_entry(name)
            system = entry.build()
            J = st.rational_closure_J(system, st.tau_commutator_ideal(system))
            fs = [(spec["name"], catalog.observable_for(entry, spec))
                  for spec in entry.dichotomy_observables]
            _warm_numeric(system, self.N, seed)
            systems.append((name, system, J, fs))
        return {"seed": seed, "systems": systems}

    def _parts(self, system, J, fs):
        parts, labels = [], []
        for obs, f in fs:
            proj, compl = sp.project_to_factor(system, f, J)
            parts += [proj, compl]
            labels += [(obs, "projected"), (obs, "complement")]
        return parts, labels

    def call(self, state, span=_nullspan):
        out = []
        for name, system, J, fs in state["systems"]:
            parts, labels = self._parts(system, J, fs)
            series = sp.autocorrelation_many(system, parts, self.K, self.N, state["seed"])
            for (obs, part), s in zip(labels, series):
                report = sp.classify(s)
                out.append({"system": name, "observable": obs, "part": part,
                            "verdict": report.verdict, "ratio": report.atom_mass / report.c0,
                            "values": s.values[self.K:]})
        return out

    def check(self, state, raw):
        return check_dichotomy(raw, state["seed"], _load_reference("dichotomy.json"))

    def step_depths_needed(self):
        return self.K * len(self.SYSTEMS)

    def characters(self, state):
        distinct = evaluations = 0
        for _, system, J, fs in state["systems"]:
            parts, _ = self._parts(system, J, fs)
            keys = [k for p in parts for k in _evaluated_terms(p)]
            distinct += len(set(keys))
            evaluations += len(keys)
        return distinct, evaluations


def _evaluated_terms(part) -> list[tuple]:
    """Frequency vectors a factor part evaluates: its exact observable's terms."""
    obs = part if isinstance(part, sp.Observable) else getattr(part, "_exact", None)
    return list(obs.terms) if isinstance(obs, sp.Observable) else []


def check_dichotomy(raw: list[dict], seed: int, reference: dict) -> Outcome:
    """One operation per observable part.

    Any seed: a projected part reads ``discrete``, with atom ratio at least
    ``discrete_ratio``; a complement reads ``lebesgue-like``, with atom ratio
    at most ``continuous_ratio``.  Golden seed: the estimated
    c(0..K) also stay within ``REFERENCE_TOL`` of the recorded reference.
    """
    out = Outcome()
    refs = {(p["system"], p["observable"], p["part"]): p for p in reference["parts"]}
    golden = seed == reference["seed"]
    worst = 0.0
    for p in raw:
        key = (p["system"], p["observable"], p["part"])
        if p["part"] == "projected":
            ok = p["verdict"] == "discrete" and p["ratio"] >= sp.CALIBRATION["discrete_ratio"]
        else:
            ok = (p["verdict"] == "lebesgue-like"
                  and p["ratio"] <= sp.CALIBRATION["continuous_ratio"])
        problem = "%s/%s %s reads %s, atom ratio %.4g" % (*key, p["verdict"], p["ratio"])
        if golden:
            ref = refs.get(key)
            if ref is None or len(ref["re"]) != len(p["values"]):
                ok, problem = False, "%s/%s %s has no matching reference" % key
            else:
                dev = float(np.max(np.abs(p["values"] - (np.array(ref["re"]) + 1j * np.array(ref["im"])))))
                worst = max(worst, dev)
                if dev > REFERENCE_TOL:
                    ok, problem = False, "%s/%s %s deviates %.3g from reference" % (*key, dev)
        out.record(ok, problem)
    if golden:
        out.reference_dev = worst
        if len(raw) != len(refs):
            out.record(False, "%d parts, reference has %d" % (len(raw), len(refs)))
    return out


# ---------------------------------------------------------------------------


class Seminorm(Workload):
    """``nillab useminorm`` on the abelian skew torus: the U^s recursion dominates."""

    name = "seminorm"
    SYSTEM = "skew_torus_nonergodic"
    OBSERVABLE = "0,1:1"
    LEVELS = (64, 64)
    N = 2 ** 14

    def sizes(self):
        return {"N": self.N, "levels": list(self.LEVELS), "system": self.SYSTEM,
                "observable": self.OBSERVABLE,
                "point_steps": self.N * sum(_seminorm_steps(self.LEVELS))}

    def setup(self, seed):
        _warm_numeric(catalog.catalog_build(self.SYSTEM), self.N, seed)
        argv = ["useminorm", "--system", self.SYSTEM, "--observable", self.OBSERVABLE,
                "--levels", *map(str, self.LEVELS), "--seed", str(seed),
                "--samples", str(self.N)]
        return {"seed": seed, "argv": argv}

    def call(self, state, span=_nullspan):
        return _run_cli(state["argv"])

    def check(self, state, raw):
        return check_seminorm(*raw, state["seed"], _load_reference("seminorm.json"))

    def step_depths_needed(self):
        return sum(self.LEVELS)

    def characters(self, state):
        return 1, 1

    def orbit_matrix_mb(self):
        return (1 + sum(self.LEVELS)) * self.N * 16 / 1e6


def _seminorm_steps(levels) -> list[int]:
    """Orbit steps ``useminorm`` takes: per row, its full and its halved window."""
    steps = []
    for s in range(1, len(levels) + 1):
        steps.append(sum(levels[:s]))
        steps.append(sum(max(1, h // 2) for h in levels[:s]))
    return steps


def check_seminorm(code: int, text: str, seed: int, reference: dict) -> Outcome:
    """One operation per U^s row of the e(y) observable.

    Any seed, as in criterion 6: U^1 <= 0.05 and |U^2 - 1| <= 0.05.  Golden
    seed: estimate and stability delta within ``REFERENCE_TOL`` of the reference.
    """
    out = Outcome()
    lines = text.strip().split("\n")
    try:
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]] if code == 0 else []
    except ValueError:
        rows = []
    golden = seed == reference["seed"]
    worst = 0.0
    for i, ref in enumerate(reference["rows"]):
        if i >= len(rows):
            out.record(False, "row s=%d missing (exit code %d)" % (i + 1, code))
            continue
        s, est, delta = rows[i]
        ok = est <= 0.05 if s == 1 else abs(est - 1.0) <= 0.05
        problem = "U^%d estimate %.6g" % (s, est)
        if golden:
            dev = max(abs(est - ref[1]), abs(delta - ref[2]), abs(s - ref[0]))
            worst = max(worst, dev)
            if dev > REFERENCE_TOL:
                ok, problem = False, "U^%d row deviates %.3g from reference" % (s, dev)
        out.record(ok, problem)
    if len(rows) > len(reference["rows"]):
        out.record(False, "%d extra rows" % (len(rows) - len(reference["rows"])))
    if golden:
        out.reference_dev = worst
    return out


# ---------------------------------------------------------------------------


class Structure(Workload):
    """``nillab structure`` on every catalog system, symbolic and at rational parameters."""

    name = "structure"
    seeded = False
    #: Exact arithmetic only: no NumPy work in a call.
    calibration = ("fractions",)
    #: Rational stand-ins for the irrational default assignments.
    RATIONAL = {"alpha": "355/113", "beta": "577/408", "y_tau": "265/153", "u_tau": "99/70"}

    def reports(self) -> list[tuple[str, str, list[str]]]:
        """(label, system, argv) for each report of one call."""
        out = []
        for entry in catalog.catalog_list():
            argv = ["structure", "--system", entry.name]
            out.append((entry.name, entry.name, argv))
            if entry.symbols:
                params = ["%s=%s" % (s, self.RATIONAL[s]) for s in entry.symbols]
                out.append(("%s@%s" % (entry.name, ",".join(params)), entry.name,
                            argv + [a for p in params for a in ("--params", p)]))
        return out

    def sizes(self):
        return {"reports": len(self.reports()), "rational_params": self.RATIONAL}

    def setup(self, seed):
        for entry in catalog.catalog_list():
            catalog.catalog_build(entry.name)
        return {"reports": self.reports()}

    def call(self, state, span=_nullspan):
        out = []
        for label, system, argv in state["reports"]:
            with span("structure.suite", system):
                out.append((label,) + _run_cli(argv))
        return out

    def check(self, state, raw):
        return check_structure(raw, _load_reference("structure.json"))


def check_structure(raw: list[tuple[str, int, str]], reference: dict) -> Outcome:
    """One operation per report; exact arithmetic, so byte-identical or failed."""
    out = Outcome()
    for label, code, text in raw:
        out.record(code == 0 and text == reference.get(label),
                   "report %s differs from reference (exit code %d)" % (label, code))
    if len(raw) != len(reference):
        out.record(False, "%d reports, reference has %d" % (len(raw), len(reference)))
    return out


WORKLOADS = {w.name: w for w in (Verify(), Dichotomy(), Seminorm(), Structure())}
