"""The output checks flag tampered outputs and accept faithful ones."""

import json
from pathlib import Path

import numpy as np

import layers
import run
import workloads as wl

ROOT = Path(__file__).resolve().parents[2]


def test_verify_check_flags_a_fail_line():
    golden = wl._load_reference("verify.json")
    assert wl.check_verify(0, golden["stdout"], golden).failed == 0
    tampered = golden["stdout"].replace("PASS heisenberg4/J", "FAIL heisenberg4/J")
    out = wl.check_verify(2, tampered, golden)
    assert out.failed == 1 and "heisenberg4/J" in out.problems[0]
    assert wl.check_verify(0, golden["stdout"] + "PASS extra\n", golden).failed == 1
    assert wl.check_verify(2, golden["stdout"], golden).failed == 1


def _dichotomy_raw(reference):
    return [{"system": p["system"], "observable": p["observable"], "part": p["part"],
             "verdict": "discrete" if p["part"] == "projected" else "lebesgue-like",
             "ratio": 1.0 if p["part"] == "projected" else 0.004,
             "values": np.array(p["re"]) + 1j * np.array(p["im"])}
            for p in reference["parts"]]


def test_dichotomy_check_flags_a_flipped_verdict():
    reference = wl._load_reference("dichotomy.json")
    raw = _dichotomy_raw(reference)
    assert wl.check_dichotomy(raw, wl.GOLDEN_SEED, reference).failed == 0
    raw[3]["verdict"] = "discrete"
    out = wl.check_dichotomy(raw, 7, reference)
    assert (out.attempted, out.failed) == (12, 1)


def test_dichotomy_reference_tolerance_at_the_golden_seed_only():
    reference = wl._load_reference("dichotomy.json")
    raw = _dichotomy_raw(reference)
    raw[0]["values"] = raw[0]["values"] + 1e-12
    out = wl.check_dichotomy(raw, wl.GOLDEN_SEED, reference)
    assert out.failed == 0 and 0 < out.reference_dev <= wl.REFERENCE_TOL
    raw[0]["values"] = raw[0]["values"] + 1e-4
    assert wl.check_dichotomy(raw, wl.GOLDEN_SEED, reference).failed == 1
    assert wl.check_dichotomy(raw, 7, reference).failed == 0


def _seminorm_text(rows):
    return "s,estimate,stability_delta\n" + "".join(
        "%d,%.12e,%.12e\n" % (s, est, d) for s, est, d in rows)


def test_seminorm_check():
    reference = wl._load_reference("seminorm.json")
    rows = reference["rows"]
    assert wl.check_seminorm(0, _seminorm_text(rows), wl.GOLDEN_SEED, reference).failed == 0
    off = [rows[0], [2, 0.9, 0.0]]
    assert wl.check_seminorm(0, _seminorm_text(off), 7, reference).failed == 1
    shifted = [[1, rows[0][1] + 1e-6, rows[0][2]], rows[1]]
    assert wl.check_seminorm(0, _seminorm_text(shifted), 7, reference).failed == 0
    assert wl.check_seminorm(0, _seminorm_text(shifted), wl.GOLDEN_SEED, reference).failed == 1
    assert wl.check_seminorm(1, "", 7, reference).failed == 2


def test_structure_check_flags_a_changed_report():
    reference = wl._load_reference("structure.json")
    raw = [(label, 0, text) for label, text in reference.items()]
    assert wl.check_structure(raw, reference).failed == 0
    label, code, text = raw[0]
    raw[0] = (label, code, text.replace("dim 1", "dim 2", 1))
    out = wl.check_structure(raw, reference)
    assert (out.attempted, out.failed) == (len(reference), 1)


def test_benchmark_json_matches_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, unit, _ in layers.PER_LAYER]
    assert set(run.WORKLOADS) == set(wl.WORKLOADS)
    assert set(layers.SYSTEMS) == {e.name for e in wl.catalog.catalog_list()}


def test_result_line_in_a_fresh_output_directory(monkeypatch, tmp_path, capsys):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "OUT", tmp_path / "records")
    for trace, declared in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "structure", "--seed", "1", "--seconds", "0",
                         "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in bench[declared]}
    assert (tmp_path / "records" / "spans-structure.csv").is_file()
