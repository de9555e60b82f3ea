"""One benchmark process: set up a workload, run its closed loop, print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed S --seconds T --trace 0|1
        [--setup-only] [--spans FILE]

``run.py`` starts it in a fresh interpreter with ``PYTHONPATH`` at the
checkout's ``src`` and the BLAS thread caps set, and pools the call times of
several such processes.  ``--setup-only`` stops after set-up and reports only
``setup_s``.
"""

import time

_T0 = time.perf_counter()  # setup_s runs from here, before nillab is imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="file for the traced run's spans")
    return p.parse_args(argv)


def _versions() -> dict:
    import platform

    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


#: Fraction additions in the ``fractions`` part of a calibration loop, and
#: NumPy complex products in its ``products`` part.
CALIB_FRACTIONS = 15000
CALIB_PRODUCTS = 100
#: Seconds each part of a calibration loop is scaled to; ``ref`` times read as
#: if the host ran each part in exactly this long (about each part's time on
#: a 2-vCPU Intel Xeon VM).
REF_PART_S = 0.05
#: Calibration loops repeat for at least this many seconds before the first
#: call, and for this share of each call's time after it, so that a long call
#: is scaled by as many loops as the host's second-to-second noise needs.
CALIB_FIRST_S = 1.0
CALIB_SHARE = 0.1


def _calibrator(parts):
    """A function timing a fixed calibration loop as (wall, cpu) seconds.

    A shared host's speed drifts by tens of percent over a minute, and a
    call's time moves with it.  The loop runs no nillab code, only the kinds
    of work the workload does (``Workload.calibration``): ``fractions``,
    pure-Python Fraction arithmetic as in the exact layer, and ``products``,
    NumPy complex products on 2 MB arrays as in the numeric layer.  It slows
    with the host in step, so a call's time over the loops run just before and
    after it keeps the program's cost and drops most of the host's drift.
    The ``products`` arrays are allocated once, a constant 6 MB of
    ``peak_rss_mb``.
    """
    import numpy as np

    if "products" in parts:
        a = np.exp(2j * np.pi * np.random.default_rng(0).random((8, 1 << 14)))
        b = np.conj(a[::-1])
        out = np.empty_like(a)

    def once() -> tuple[float, float]:
        w0, c0 = time.perf_counter(), time.process_time()
        if "fractions" in parts:
            acc = Fraction(0)
            for i in range(1, CALIB_FRACTIONS):
                acc += Fraction(i % 97, i % 89 + 1)
                if acc.denominator > 10 ** 30:
                    acc = Fraction(1, 3)
        if "products" in parts:
            for _ in range(CALIB_PRODUCTS):
                np.multiply(a, b, out=out)
                out.sum()
        return time.perf_counter() - w0, time.process_time() - c0

    def calibrate(seconds: float) -> tuple[float, float]:
        """Median (wall, cpu) of loops repeated for at least ``seconds``, at least one."""
        start, loops = time.perf_counter(), []
        while not loops or time.perf_counter() - start < seconds:
            loops.append(once())
        return (statistics.median(w for w, _ in loops),
                statistics.median(c for _, c in loops))

    return calibrate


def _closed_loop(workload, state, seconds: float):
    """Call, check, repeat; stop when another call would overrun ``seconds``.

    Calibration loops run before the first call and after every call; each
    call's ``ref`` times are its times scaled by the loop's reference time over
    the mean of the two calibrations around it.
    """
    walls, cpus, ref_walls, ref_cpus, outcomes = [], [], [], [], []
    calibrate = _calibrator(workload.calibration)
    ref = REF_PART_S * len(workload.calibration)
    start = time.perf_counter()
    before = calibrate(CALIB_FIRST_S)
    while True:
        w0, c0 = time.perf_counter(), time.process_time()
        raw = workload.call(state)
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        after = calibrate(CALIB_SHARE * walls[-1])
        ref_walls.append(walls[-1] * 2 * ref / (before[0] + after[0]))
        ref_cpus.append(cpus[-1] * 2 * ref / (before[1] + after[1]))
        before = after
        outcomes.append(workload.check(state, raw))
        if time.perf_counter() - start + (1 + CALIB_SHARE) * walls[-1] > seconds:
            return walls, cpus, ref_walls, ref_cpus, outcomes


def _traced_call(workload, seed: int, tracing):
    """Set up again and make one call with every nillab layer wrapped."""
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.run = 1
        with tracer.span("workload.setup"):
            state = workload.setup(seed)
        tracer.run = 2
        w0 = time.perf_counter()
        with tracer.span("workload.call"):
            raw = workload.call(state, tracer.span)
        wall = time.perf_counter() - w0
    return tracer, state, raw, wall


def main(argv=None) -> int:
    args = _parse(argv)
    import workloads as wl  # imports nillab
    import nillab

    if SRC not in Path(nillab.__file__).resolve().parents:
        sys.stderr.write("nillab was imported from %s, not from %s\n" % (nillab.__file__, SRC))
        return 3
    workload = wl.WORKLOADS[args.workload]
    state = workload.setup(args.seed)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import tracing

    if tracing.installed_wrappers():
        sys.stderr.write("tracer wrappers installed before the untraced loop\n")
        return 3
    walls, cpus, ref_walls, ref_cpus, outcomes = _closed_loop(workload, state, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "walls": walls,
        "cpus": cpus,
        "ref_walls": ref_walls,
        "ref_cpus": ref_cpus,
        "sizes": workload.sizes(),
        "seeded": workload.seeded,
        "versions": _versions(),
    }
    if args.trace:
        import layers

        tracer, tstate, raw, traced_wall = _traced_call(workload, args.seed, tracing)
        left = tracing.installed_wrappers()
        if left:
            sys.stderr.write("tracer wrappers left installed: %s\n" % left[:5])
            return 3
        outcomes.append(workload.check(tstate, raw))
        result["layers"] = layers.compute(tracer, workload, tstate,
                                          traced_wall - statistics.median(walls))
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracing.write_spans(args.spans, tracer.spans)
    result["attempted"] = sum(o.attempted for o in outcomes)
    result["failed"] = sum(o.failed for o in outcomes)
    result["problems"] = [p for o in outcomes for p in o.problems][:20]
    devs = [o.reference_dev for o in outcomes if o.reference_dev is not None]
    result["reference_dev"] = max(devs) if devs else None
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
