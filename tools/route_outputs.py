"""Print every point's output of benchmark workloads, one line per point.

    python3 tools/route_outputs.py --workload flow --seeds 1 --passes 1
    python3 tools/route_outputs.py --workload all --seeds 1-10,90017
    python3 tools/route_outputs.py --workload deep-cutoff,shallow-cutoff,fixed-trace

Run it from any directory: it imports the ``src`` of the checkout it sits in
and the benchmark's point generator, ``perfbench/workloads.py``, which it
only reads.  ``--workload`` takes a comma-separated list of workloads, run in
turn, or ``all``, and ``--seeds`` a comma-separated list of seeds and
inclusive ranges.  Each line is the workload and seed, the point
(``workloads.describe``), then ``repr((value, est_error))`` with each real
number as a Python float, or the exception's class and message.  Warnings
are ignored, as in the benchmark's worker.  Two checkouts print the same
lines exactly when their outputs are bitwise equal, so one diff of their
outputs shows whether a change keeps them.
"""
from __future__ import annotations

import argparse
import itertools
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def output_lines(workload: str, seed: int, passes: int):
    """One line per point of the first ``passes`` passes."""
    count = passes * workloads.cycle_length(workload)
    for pt in itertools.islice(workloads.points(workload, seed), count):
        try:
            out = result_text(workloads.call(pt))
        except Exception as exc:  # a failing point is an output too
            out = f"{type(exc).__name__}: {exc}"
        yield f"{workloads.describe(pt)} {out}"


def result_text(r) -> str:
    """``repr((value, est_error))``, each real number as ``repr(float(x))`` so a
    numpy scalar prints like the float it equals; a complex value as it is."""
    return repr(tuple(x if isinstance(x, complex) else float(x) for x in (r.value, r.est_error)))


def parse_seeds(text: str) -> list[int]:
    """'1-3,90017' -> [1, 2, 3, 90017]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def parse_workloads(text: str) -> list[str]:
    """'deep-cutoff,flow' -> ['deep-cutoff', 'flow']; 'all' -> every workload."""
    if text == "all":
        return list(workloads.WORKLOADS)
    names = text.split(",")
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown workload(s) {', '.join(unknown)}; choose from {', '.join(workloads.WORKLOADS)}")
    return names


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, type=parse_workloads)
    ap.add_argument("--seeds", type=parse_seeds, default=[1])
    ap.add_argument("--passes", type=int, default=1)
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")
    for name in args.workload:
        for seed in args.seeds:
            for line in output_lines(name, seed, args.passes):
                print(f"{name}/{seed} {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
