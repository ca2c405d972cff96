"""Repeat benchmark runs over seeds and summarize each metric's spread.

    python3 perfbench/baseline.py [--write perfbench/baseline.json]

Runs ``run.py`` once per workload and seed 1-10, one run at a time, for
BENCHMARK.json's ``run_seconds``, and prints each end-to-end metric's median,
first and third quartiles (Python's ``statistics.quantiles(values, n=4)``)
and their distance as a share of the median; then one traced run per
workload at seed 1.  ``--write`` records the runs, the summary and the
machine in a JSON file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ABOUT = ("Runs of the benchmark, one at a time: per workload every metric's median, "
         "quartiles (statistics.quantiles(values, n=4)) and spread = (q3 - q1) / median "
         "over the seeds, the same for fail_share and err_miss_share as each run's info "
         "line prints them, and one traced run.")


SEEDS = range(1, 11)
TRACE_SEED = 1
SHARES = ("fail_share", "err_miss_share")
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}): {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = {}
    for line in lines:
        if line.startswith("info "):
            info.update(tok.split("=", 1) for tok in line.split()[1:] if "=" in tok)
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "shares": {k: float(info[k]) for k in SHARES if k in info}}


def _quartiles(vals: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def summarize(runs: list[dict]) -> dict:
    """Median, quartiles and (q3 - q1) / median of every metric over the runs."""
    return {name: _quartiles([r["metrics"][name] for r in runs]) for name in runs[0]["metrics"]}


def shares(runs: list[dict]) -> dict:
    """fail_share and err_miss_share as the untraced runs measured them."""
    return {name: _quartiles([r["shares"][name] for r in runs]) for name in SHARES}


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--write")
    args = ap.parse_args(argv)
    record = {"about": ABOUT, "run_seconds": RUN_SECONDS,
              "seeds": f"{SEEDS[0]}-{SEEDS[-1]}",
              "trace_seed": TRACE_SEED, "machine": machine(), "workloads": {}}
    for wl in workloads.WORKLOADS:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(wl, seed, 0))
            r = runs[-1]
            print(f"{wl} seed={seed} wall={r['wall_s']:.1f}s attempted={r['attempted']}"
                  f" failed={r['failed']} " + " ".join(
                      f"{k}={v:.4g}" for k, v in r["metrics"].items()), flush=True)
        summary = summarize(runs)
        for name, s in summary.items():
            print(f"  {wl} {name}: median={s['median']:.5g} q1={s['q1']:.5g}"
                  f" q3={s['q3']:.5g} spread={s['spread']:.4f}", flush=True)
        traced = run_once(wl, TRACE_SEED, 1)
        print(f"  {wl} traced: " + " ".join(
            f"{k}={v:.4g}" for k, v in traced["metrics"].items()), flush=True)
        record["workloads"][wl] = {"summary": summary, "shares_as_measured": shares(runs),
                                   "traced": traced, "runs": runs}
    if args.write:
        Path(args.write).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
