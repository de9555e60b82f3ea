"""nillab benchmark: run one workload, check its outputs, print every metric.

    python3 perfbench/run.py --workload {verify,dichotomy,seminorm,structure} \\
        --seed N --seconds T --trace {0,1}

Run it from the root of a checkout; it imports nillab from the checkout's
``src``.  Each workload is a closed loop with one client in a fresh
single-threaded Python process, with the BLAS thread pools capped at the
number of usable cores.  ``--trace 0`` runs ``PROCESSES`` such processes one
after another; each sets up from scratch and runs an equal share of the
``--seconds``, so that no one process's memory layout sets the result.
``setup_s`` is the median of their set-up times.  ``wall_ref_s`` and
``cpu_ref_s`` are the medians over all their calls of each call's wall and CPU
time scaled to a reference host speed, which a fixed calibration
loop run before and after every call measures (``worker.py``); the raw
medians ``wall_s`` and ``cpu_s`` and the fastest call are printed and recorded
beside them.  The set-up already warmed the numeric sampling.
``peak_rss_mb`` is the largest peak of a process that ran the loop.
``--trace 1`` runs the loop in one process, then sets up again and makes one
call with every nillab layer wrapped, and reports the per-layer metrics of
``layers.py``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give the
provenance and every metric by name and unit, ``error_rate`` included.  The
whole record, and a traced run's spans, are also written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("verify", "dichotomy", "seminorm", "structure")
#: Processes per untraced run; each sets up from scratch, and ``setup_s`` is
#: their median.
PROCESSES = 3
#: Workloads whose one call takes most of a run: one process runs the whole
#: loop and the others only set up.
ONE_LOOP = ("verify",)
#: Everything, child processes included, ends within this many seconds.
DEADLINE_S = 170.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "cpu_ref_s": "s", "peak_rss_mb": "MB"}
#: Printed and recorded beside the metrics, not gated: raw call times swing
#: with the host's load, which the ``ref`` times take out.
RAW = ("wall_s", "cpu_s", "wall_min_s", "cpu_min_s")


class BenchError(RuntimeError):
    pass


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = str(_nproc())
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # a fixed hash seed keeps dict and set layouts, and so timings, alike across runs
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, deadline: float, seconds: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace), *extra]
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker overran the %.0f s deadline" % DEADLINE_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker exited with %d:\n%s" % (proc.returncode, proc.stderr[-4000:]))
    return json.loads(lines[-1])


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nillab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _provenance(args, result: dict, walls: list[float], setups: list[float]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": result["seeded"],
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "sizes": result["sizes"],
        "calls": len(walls),
        "setup_samples": len(setups),
        "run_seconds": args.seconds,
        "nproc": _nproc(),
        "blas_threads": _child_env()["OMP_NUM_THREADS"],
        "NILLAB_THREADS": os.environ.get("NILLAB_THREADS", "unset"),
        **result["versions"],
    }


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        results = [_worker(args, deadline, args.seconds,
                           "--spans", str(OUT / ("spans-%s.csv" % args.workload)))]
        setups = [results[0]["setup_s"]]
    else:
        loops = 1 if args.workload in ONE_LOOP else PROCESSES
        results = [_worker(args, deadline, args.seconds / loops) for _ in range(loops)]
        setups = [r["setup_s"] for r in results] + [
            _worker(args, deadline, 0.0, "--setup-only")["setup_s"]
            for _ in range(PROCESSES - loops)]
    result = results[0]
    walls, cpus, ref_walls, ref_cpus = (
        [x for r in results for x in r[key]] for key in ("walls", "cpus", "ref_walls", "ref_cpus"))
    if args.trace:
        import layers  # noqa: PLC0415 - only traced runs need the layer table

        units = layers.UNITS
        metrics = result["layers"]
    else:
        units = END_TO_END
        metrics = {"wall_ref_s": statistics.median(ref_walls),
                   "setup_s": statistics.median(setups),
                   "cpu_ref_s": statistics.median(ref_cpus),
                   "peak_rss_mb": max(r["peak_rss_mb"] for r in results)}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    devs = [r["reference_dev"] for r in results if r["reference_dev"] is not None]
    return {
        "provenance": _provenance(args, result, walls, setups),
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "problems": [p for r in results for p in r["problems"]][:20],
        "reference_dev": max(devs) if devs else None,
        "walls": [r["walls"] for r in results],
        "ref_walls": [r["ref_walls"] for r in results],
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "wall_min_s": min(walls),
        "cpu_min_s": min(cpus),
        "setups": setups,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "nillab" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no nillab sources at %s\n" % SRC)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        record = run(args)
    except BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1
    with open(OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)
    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    print("provenance " + json.dumps(record["provenance"]))
    if record["reference_dev"] is not None:
        print("reference deviation %.3g" % record["reference_dev"])
    for problem in record["problems"]:
        print("FAILED " + problem)
    for name, m in record["metrics"].items():
        print("  %-64s %16.9g %s" % (name, m["value"], m["unit"]))
    print("  %-64s %16.9g %s" % ("error_rate", record["error_rate"], "ratio"))
    for name in RAW:
        print("  %-64s %16.9g %s" % (name, record[name], "s"))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
