"""One measured process of the bhgap benchmark; run.py starts it.

The worker imports bhgap from the checkout's ``src``, makes one warm-up call
at the workload's warm-up point, and then calls the route once per point in
a closed loop with one caller: for whole passes over the workload's slots
that add up to ``--seconds`` seconds at the reference speed, or for exactly
``--count`` points when it replays another worker's points under tracing.
Between points, at most every ``CAL_EVERY_S``, it times a fixed calibration
kernel, so that run.py can take the machine's speed drift out of the point
times.  With ``--refs`` it instead computes the references of the listed
point indices; run.py starts such workers only after the timed loop has
ended.  The result is one JSON line on stdout.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

CAL_EVERY_S = 0.25
CAL_ITERATIONS = 100_000
CAL_BURST = 5
CAL_REF_S = workloads.SPEC["calibration_ref_s"]


def _kernel() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CAL_ITERATIONS):
        acc += (i * 1.0000001) ** 0.5
    return time.perf_counter() - t0


def calibrate(samples: int = 1) -> float:
    """Seconds the fixed pure-Python kernel takes at the machine's current
    speed: the median of ``samples`` back-to-back timings."""
    return statistics.median(_kernel() for _ in range(samples))


def _evaluate(pt: dict) -> dict:
    try:
        r = workloads.call(pt)
    except Exception as exc:  # a failing route is a measured outcome, not a crash
        return {"value": math.nan, "est_error": math.nan,
                "error": f"{type(exc).__name__}: {exc}"}
    return {"value": workloads.real(r.value), "est_error": float(r.est_error), "error": None}


def _references(args) -> dict:
    wanted = [int(i) for i in args.refs.split(",")]
    pts = list(itertools.islice(workloads.points(args.workload, args.seed), max(wanted) + 1))
    out = {}
    for i in wanted:
        try:
            out[i] = {"ref": workloads.reference(pts[i]), "ref_error": None}
        except Exception as exc:
            out[i] = {"ref": math.nan, "ref_error": f"{type(exc).__name__}: {exc}"}
    return {"refs": out}


def _timed(args) -> dict:
    _evaluate(workloads.warmup_point(args.workload))
    source = workloads.points(args.workload, args.seed)
    tracer = None
    call = _evaluate
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        call = tracer.span("route", _evaluate)
    out = {"setup_s": time.monotonic() - args.spawned}
    if args.setup_only:
        return out

    # The loop runs whole passes over the workload's slots until its points
    # add up to --seconds at the calibration kernel's reference speed, so a
    # slow spell of the machine does not shorten the measured work and every
    # run has the same mix of slots.  A calibration after a long point takes
    # more samples, one per CAL_EVERY_S of the gap, up to CAL_BURST.
    cycle = workloads.cycle_length(args.workload)
    cal = [calibrate(CAL_BURST)]
    records = []
    clock = time.perf_counter
    start = last_cal = clock()
    done = 0.0
    for pt in (itertools.islice(source, args.count) if args.count else source):
        t0 = clock()
        rec = call(pt)
        rec["latency_s"] = clock() - t0
        rec["point"] = pt
        rec["cal"] = len(cal) - 1
        records.append(rec)
        done += rec["latency_s"] * CAL_REF_S / cal[-1]
        if not args.count and done >= args.seconds and len(records) % cycle == 0:
            break
        gap = clock() - last_cal
        if gap >= CAL_EVERY_S:
            cal.append(calibrate(min(int(gap / CAL_EVERY_S), CAL_BURST)))
            last_cal = clock()
    out["loop_s"] = clock() - start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal.append(calibrate(CAL_BURST))
    out["cal_s"] = cal
    out["records"] = records
    if tracer is not None:
        tracer.close()
        out["layers"] = {"calls": tracer.calls, "self_s": tracer.self_s,
                         "hit_ratio": tracer.hit_ratios(), "hifi_calls": tracer.hifi_calls,
                         "steps_accepted": tracer.steps_accepted,
                         "steps_rejected": tracer.steps_rejected}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--count", type=int, default=0,
                    help="run exactly this many points instead of a timed loop")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true",
                    help="stop at the first timed point and report only the set-up time")
    ap.add_argument("--refs", metavar="I,J,...",
                    help="compute the references of these point indices instead")
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent when it started this process")
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")
    print(json.dumps(_references(args) if args.refs else _timed(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
