"""The bhgap benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  With ``--trace 0`` it measures the
end-to-end metrics: one worker process runs the timed loop (whole passes
over the workload's slots adding up to S seconds at the calibration speed),
two more processes repeat only the set-up, so that ``setup_s`` is a median
of three, and two reference processes then give every returned value its
reference.  With ``--trace 1`` it replays the untraced worker's points in a
traced worker and reports the per-layer metrics.  Failing and ``err_miss``
points are printed one per line; the last line of stdout is the JSON result.
Workloads, ranges, tolerances and tail ranks are in spec.json; see README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = workloads.SPEC
BUDGET_S = 170.0      # every run must end within 180 s
SETUP_SAMPLES = 3     # set-ups per run; setup_s is their median
REF_WORKERS = 2       # processes that compute references after the timed loop
CAL_REF_S = SPEC["calibration_ref_s"]
DIGITS_CAP = 16.0

END_TO_END = (
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("point_p50_ms", "ms"),
    ("point_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("pass_share", "share"),
    ("err_cover", "share"),
    ("mean_digits", "digits"),
)

# per-layer metric -> (kind, tracer key); counts and times are per timed point
PER_LAYER = {
    "specfun.gamma2_boxed_dd.calls": ("calls", "specfun.gamma2_boxed_dd"),
    "specfun.gamma2_boxed_dd.self_s": ("self_s", "specfun.gamma2_boxed_dd"),
    "specfun.gamma2_boxed_dd.hit_ratio": ("hit_ratio", "specfun.gamma2_boxed_dd"),
    "dd.dd_exp.calls": ("calls", "dd.dd_exp"),
    "dd.dd_pow.calls": ("calls", "dd.dd_pow"),
    "specfun.gamma2_boxed.calls": ("calls", "specfun.gamma2_boxed"),
    "specfun.gamma2_boxed.self_s": ("self_s", "specfun.gamma2_boxed"),
    "bops._dd_gram.calls": ("calls", "bops._dd_gram"),
    "bops._dd_gram.hifi_calls": ("hifi_calls", None),
    "bops._dd_gram.self_s": ("self_s", "bops._dd_gram"),
    "bops._dd_gram.hit_ratio": ("hit_ratio", "bops._dd_gram"),
    "plinalg.dd_lu_det.calls": ("calls", "plinalg.dd_lu_det"),
    "plinalg.dd_lu_det.self_s": ("self_s", "plinalg.dd_lu_det"),
    "plinalg.dd_pfaffian.calls": ("calls", "plinalg.dd_pfaffian"),
    "plinalg.dd_pfaffian.self_s": ("self_s", "plinalg.dd_pfaffian"),
    "ensembles._pf_sign.self_s": ("self_s", "ensembles._pf_sign"),
    "ensembles._talbot_sum.calls": ("calls", "ensembles._talbot_sum"),
    "ensembles._talbot_sum.self_s": ("self_s", "ensembles._talbot_sum"),
    "ensembles._xi_coefficients.calls": ("calls", "ensembles._xi_coefficients"),
    "ensembles._xi_coefficients.self_s": ("self_s", "ensembles._xi_coefficients"),
    "bimoments.ubh_pf_element_rescaled.calls": ("calls", "bimoments.ubh_pf_element_rescaled"),
    "bimoments.ubh_pf_element_rescaled.self_s": ("self_s", "bimoments.ubh_pf_element_rescaled"),
    "specfun.gamma_upper_scaled.calls": ("calls", "specfun.gamma_upper_scaled"),
    "specfun.gamma_upper_scaled.self_s": ("self_s", "specfun.gamma_upper_scaled"),
    "specfun.gamma2_diag_scaled.calls": ("calls", "specfun.gamma2_diag_scaled"),
    "specfun.gamma2_diag_scaled.self_s": ("self_s", "specfun.gamma2_diag_scaled"),
    "specfun.quad.calls": ("calls", "specfun.quad"),
    "plinalg.pfaffian.calls": ("calls", "plinalg.pfaffian"),
    "plinalg.pfaffian.self_s": ("self_s", "plinalg.pfaffian"),
    "flow.from_moments.self_s": ("self_s", "flow.from_moments"),
    "flow.integrate.self_s": ("self_s", "flow.integrate"),
    "flow.steps_accepted": ("steps_accepted", None),
    "flow.steps_rejected": ("steps_rejected", None),
    "flow.constraint_residuals.calls": ("calls", "flow.constraint_residuals"),
    "flow.constraint_residuals.self_s": ("self_s", "flow.constraint_residuals"),
    "flow._kernels_from_state.self_s": ("self_s", "flow._kernels_from_state"),
    "lax.build_lax.calls": ("calls", "lax.build_lax"),
    "lax.build_lax.self_s": ("self_s", "lax.build_lax"),
    "trace.overhead_ratio": ("overhead", None),
}
LAYER_UNITS = {"calls": "count/point", "hifi_calls": "count/point",
               "steps_accepted": "count/point", "steps_rejected": "count/point",
               "self_s": "s/point", "hit_ratio": "ratio", "overhead": "ratio"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result for this run."""


def _cmd(args, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra, "--spawned", repr(time.monotonic())]


def _result(proc: subprocess.Popen, stdout: str) -> dict:
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(proc.args)}")
    return json.loads(stdout.strip().splitlines()[-1])


def _worker(args, deadline: float, *extra: str) -> dict:
    with subprocess.Popen(_cmd(args, *extra), stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired as exc:
            proc.kill()
            proc.wait()
            raise BenchError(
                f"worker exceeded the run's time budget: {' '.join(proc.args)}") from exc
    return _result(proc, out)


def add_references(args, deadline: float, records: list[dict]) -> None:
    """Compute every returned value's reference in REF_WORKERS processes.

    Points that share cutoffs go to the same process, where the reference
    of one can reuse the special-function keys of another.
    """
    groups: dict[tuple, list[int]] = {}
    for i, rec in enumerate(records):
        if rec["error"] is None and math.isfinite(rec["value"]):
            groups.setdefault((rec["point"]["s"], rec["point"]["t"]), []).append(i)
    shares = [[] for _ in range(REF_WORKERS)]
    for k, idx in enumerate(groups.values()):
        shares[k % REF_WORKERS].extend(idx)
    procs = [subprocess.Popen(_cmd(args, "--refs", ",".join(map(str, share))),
                              stdout=subprocess.PIPE, text=True)
             for share in shares if share]
    try:
        for proc in procs:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
            for i, ref in _result(proc, out)["refs"].items():
                records[int(i)].update(ref)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("reference workers exceeded the run's time budget") from exc
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def normalized_latencies(res: dict) -> list[float]:
    """Point times in seconds at the reference speed of the calibration kernel.

    Each point's time is scaled by CAL_REF_S over the mean of the
    calibrations taken just before and just after it, which removes the
    machine's speed drift between and within runs.
    """
    cal = res["cal_s"]
    return [r["latency_s"] * CAL_REF_S * 2.0 / (cal[r["cal"]] + cal[r["cal"] + 1])
            for r in res["records"]]


def check(rec: dict) -> dict:
    """Classify one record: the failure reason (None if it passed), the
    relative discrepancy from the reference, whether the discrepancy exceeds
    est_error, and the share of the discrepancy that est_error covers."""
    pt, v, est = rec["point"], rec["value"], rec["est_error"]
    ref = rec.get("ref", math.nan)
    tol = SPEC["tolerance_rel"][pt["route"]]
    rel, miss, cover, reason = math.nan, False, math.nan, None
    if math.isfinite(v) and math.isfinite(ref):
        disc = abs(v - ref)
        rel = disc / abs(ref) if ref else (0.0 if disc == 0 else math.inf)
        miss = disc > est
        cover = est / disc if miss else 1.0
    if rec["error"]:
        reason = f"raised {rec['error']}"
    elif not math.isfinite(v):
        reason = "non-finite or non-real value"
    elif not -est <= v <= 1.0 + est:
        reason = "value outside [-est_error, 1 + est_error]"
    elif rec.get("ref_error"):
        reason = f"reference raised {rec['ref_error']}"
    elif not math.isfinite(ref):
        reason = "non-finite reference"
    elif rel > tol:
        reason = f"disagrees with its reference beyond {tol:g}"
    return {"reason": reason, "rel": rel, "miss": miss, "cover": cover}


def _property_error(workload: str, rec: dict) -> str | None:
    """Deep and shallow points must sit on their side of the route's DD threshold."""
    prop = SPEC["workloads"][workload]["property"]
    if prop == "none" or rec["error"] or not math.isfinite(rec["value"]):
        return None
    thr = SPEC["deep_threshold"][rec["point"]["route"]]
    deep = abs(rec["value"]) < thr
    if deep != (prop == "deep"):
        return (f"{workload} point is not {prop} (|Z| = {abs(rec['value']):.3e},"
                f" threshold {thr:g}): {workloads.describe(rec['point'])}")
    return None


def _percentile(sorted_vals: list[float], rank: float) -> float:
    """Nearest-rank percentile; rank 100 is the maximum."""
    idx = max(math.ceil(rank / 100.0 * len(sorted_vals)) - 1, 0)
    return sorted_vals[idx]


def point_lines(records: list[dict], checks: list[dict]) -> list[str]:
    """One FAIL or ERRMISS line per failing or err_miss point."""
    lines = []
    for rec, c in zip(records, checks):
        base = (f"{workloads.describe(rec['point'])} value={rec['value']!r}"
                f" ref={rec.get('ref', math.nan)!r} rel_disc={c['rel']:.3e}"
                f" est_error={rec['est_error']!r}")
        if c["reason"]:
            lines.append(f"FAIL {base} reason={c['reason']}")
        if c["miss"]:
            lines.append(f"ERRMISS {base}")
    return lines


def end_to_end(workload: str, res: dict, checks: list[dict],
               setups: list[float]) -> tuple[dict, list[str]]:
    recs = res["records"]
    norm = normalized_latencies(res)
    passed = [(r, c) for r, c in zip(recs, checks) if c["reason"] is None]
    # latencies of the passed points; of all points only if none passed
    lat = sorted(t * 1e3 for t, c in zip(norm, checks) if c["reason"] is None) \
        or sorted(t * 1e3 for t in norm)
    checked = [c for c in checks if math.isfinite(c["rel"])]
    digits = [DIGITS_CAP if c["rel"] == 0 else min(DIGITS_CAP, -math.log10(c["rel"]))
              for c in checked]
    n = len(recs)
    metrics = {
        "setup_s": statistics.median(setups),
        "points_per_s": len(passed) / sum(norm),
        "point_p50_ms": statistics.median(lat),
        "point_tail_ms": _percentile(lat, SPEC["workloads"][workload]["tail_rank"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "pass_share": len(passed) / n,
        "err_cover": statistics.fmean(c["cover"] for c in checked) if checked else 0.0,
        "mean_digits": statistics.fmean(digits) if digits else 0.0,
    }
    info = (f"info points={n} passed={len(passed)} fail_share={1 - len(passed) / n:.4f}"
            f" err_miss_share={sum(c['miss'] for c in checked) / max(len(checked), 1):.4f}"
            f" worst_digits={min(digits) if digits else math.nan:.3f}"
            f" loop_s={res['loop_s']:.3f} raw_points_per_s={len(passed) / res['loop_s']:.4g}"
            f" calibration_median_s={statistics.median(res['cal_s']):.4g}"
            f" setup_samples={setups}")
    return metrics, [info]


def _layer_assertions(workload: str, per_point: dict) -> list[str]:
    """Properties each workload must show in its traced run."""
    errs = []
    if workload == "deep-cutoff":
        spans = {k[:-len(".self_s")]: v for k, v in per_point.items() if k.endswith(".self_s")}
        top = max(spans, key=spans.get)
        if top != "specfun.gamma2_boxed_dd":
            errs.append(f"deep-cutoff: largest self time is {top}, not specfun.gamma2_boxed_dd")
    if workload == "shallow-cutoff":
        for key in ("specfun.gamma2_boxed_dd.calls", "bops._dd_gram.hifi_calls"):
            if per_point[key] != 0:
                errs.append(f"shallow-cutoff: {key} = {per_point[key]} (must be 0)")
    if workload == "fixed-trace" and per_point["specfun.quad.calls"] <= 0:
        errs.append("fixed-trace: specfun.quad.calls is 0")
    return errs


def per_layer(plain: dict, traced: dict) -> dict:
    lay, n = traced["layers"], len(traced["records"])
    out = {}
    for name, (kind, key) in PER_LAYER.items():
        if kind in ("calls", "self_s"):
            out[name] = lay[kind][key] / n
        elif kind == "hit_ratio":
            out[name] = lay["hit_ratio"][key]
        elif kind == "overhead":
            out[name] = sum(normalized_latencies(traced)) / sum(normalized_latencies(plain))
        else:
            out[name] = lay[kind] / n
    return out


def _same_outputs(a: dict, b: dict) -> bool:
    def key(r):
        return (r["error"].split(":")[0] if r["error"] else None, repr(r["value"]))

    return [key(r) for r in a["records"]] == [key(r) for r in b["records"]]


def run(args) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "bhgap" / "__init__.py").is_file():
        raise BenchError(f"no bhgap package under {ROOT / 'src'}; run from a full checkout")
    plain = _worker(args, deadline, "--seconds", repr(args.seconds))
    errs = [e for e in (_property_error(args.workload, r) for r in plain["records"]) if e]
    if errs:
        raise BenchError("workload property broken:\n" + "\n".join(errs))
    if not args.trace:
        setups = [plain["setup_s"]] + [
            _worker(args, deadline, "--setup-only")["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
    else:
        traced = _worker(args, deadline, "--count", str(len(plain["records"])), "--trace", "1")
    add_references(args, deadline, plain["records"])
    checks = [check(r) for r in plain["records"]]
    lines = point_lines(plain["records"], checks)
    # every returned value was checked against its reference
    correct = all("ref" in r for r in plain["records"]
                  if r["error"] is None and math.isfinite(r["value"]))
    if not args.trace:
        metrics, info = end_to_end(args.workload, plain, checks, setups)
        units = dict(END_TO_END)
    else:
        metrics = per_layer(plain, traced)
        errs = _layer_assertions(args.workload, metrics)
        if errs:
            raise BenchError("traced run broke a workload property:\n" + "\n".join(errs))
        units = {name: LAYER_UNITS[kind] for name, (kind, _) in PER_LAYER.items()}
        # tracing must not change a single output
        correct = correct and _same_outputs(plain, traced)
        info = [f"info points={len(plain['records'])} untraced_loop_s={plain['loop_s']:.3f}"
                f" traced_loop_s={traced['loop_s']:.3f}"]
    lines += info
    failed = sum(c["reason"] is not None for c in checks)
    for name, value in metrics.items():
        lines.append(f"metric {name} {value!r} {units[name]}")
    result = {"correct": correct, "attempted": len(plain["records"]), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bhgap benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    try:
        result, lines = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
