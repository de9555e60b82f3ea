"""Record the reference outputs the benchmark checks against.

Run from the repository root, at a commit whose outputs are trusted:

    PYTHONPATH=src python3 perfbench/record_reference.py

It rewrites ``perfbench/reference/*.json`` from the current ``src/nillab``:
the golden ``verify`` stdout, every ``structure`` report, and the
``dichotomy`` and ``seminorm`` estimates at the golden seed.
"""

from __future__ import annotations

import json

import workloads as wl


def _write(name: str, data) -> None:
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    with open(wl.REFERENCE_DIR / name, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def main() -> None:
    seed = wl.GOLDEN_SEED
    code, text = wl.Verify().call(None)
    _write("verify.json", {"exit_code": code, "stdout": text})

    structure = wl.Structure()
    _write("structure.json", {label: text for label, code, text in
                              structure.call({"reports": structure.reports()})})

    dichotomy = wl.Dichotomy()
    raw = dichotomy.call(dichotomy.setup(seed))
    _write("dichotomy.json", {"seed": seed, "parts": [
        {"system": p["system"], "observable": p["observable"], "part": p["part"],
         "re": p["values"].real.tolist(), "im": p["values"].imag.tolist()} for p in raw]})

    seminorm = wl.Seminorm()
    code, text = seminorm.call(seminorm.setup(seed))
    _write("seminorm.json", {"seed": seed, "rows": [
        [float(x) for x in line.split(",")] for line in text.strip().split("\n")[1:]]})


if __name__ == "__main__":
    main()
