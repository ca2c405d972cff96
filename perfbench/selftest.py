"""Tests of the benchmark itself (not of bhgap).

    python3 -m pytest -q perfbench/selftest.py

They run every workload at a tiny size, so they take a few minutes.  The
file name keeps them out of the repository's default test collection.
"""
from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_S = 1


def _run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload,
           "--seed", "7", "--seconds", str(TINY_S), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert _declared("end_to_end") == dict(run.END_TO_END)
    assert _declared("per_layer") == {n: run.LAYER_UNITS[k] for n, (k, _) in run.PER_LAYER.items()}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, kind):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = _declared(kind)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, float) and math.isfinite(value), name
        assert f"metric {name} {value!r} {unit}" in lines


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_self_times_fit_in_the_span_wall_time(workload):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "3",
           "--count", "3", "--trace", "1", "--spawned", repr(time.monotonic())]
    out = json.loads(subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                                    timeout=180).stdout)
    self_s = out["layers"]["self_s"]
    wall = sum(r["latency_s"] for r in out["records"])
    assert all(v >= 0.0 for v in self_s.values()), self_s
    layers = sum(v for k, v in self_s.items() if k != "route")
    assert layers <= sum(self_s.values()) <= wall


def test_points_come_from_the_seed_only():
    for wl in workloads.WORKLOADS:
        first = list(itertools.islice(workloads.points(wl, 5), 40))
        assert first == list(itertools.islice(workloads.points(wl, 5), 40))
        assert first != list(itertools.islice(workloads.points(wl, 6), 40))
        assert workloads.warmup_point(wl) not in first
        per_m = {}
        for pt in first:
            per_m.setdefault(pt["m"], set()).add((pt["s"], pt["t"]))
        assert sum(map(len, per_m.values())) == len(first), "a cutoff repeats within one m"


def _rec(value, ref, est=1e-12, error=None, route="z_cl2m"):
    return {"point": {"route": route}, "value": value, "ref": ref, "est_error": est,
            "error": error, "ref_error": None}


def test_check_classifies_failures_and_error_misses():
    exact = run.check(_rec(0.5, 0.5))
    assert exact["reason"] is None and exact["cover"] == 1.0
    ok = run.check(_rec(0.5, 0.5 * (1 + 1e-10)))
    assert ok["reason"] is None and ok["miss"] and ok["cover"] == pytest.approx(0.02)
    assert "disagrees" in run.check(_rec(0.5, 0.5 * (1 + 1e-6)))["reason"]
    assert run.check(_rec(0.5, 0.5 * (1 + 1e-7), route="z_bhft"))["reason"] is None
    assert "outside" in run.check(_rec(-1e-3, -1e-3))["reason"]
    assert "outside" in run.check(_rec(1.5, 1.5))["reason"]
    assert "non-finite" in run.check(_rec(math.nan, 0.5))["reason"]
    assert "raised" in run.check(_rec(math.nan, math.nan, error="FlowAbort: x"))["reason"]
    assert "reference" in run.check(_rec(0.5, math.nan))["reason"]


def test_run_without_the_program_fails_fast():
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in BENCH["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        t0 = time.monotonic()
        proc = _run(workloads.WORKLOADS[0], 0, cwd=bare)
        assert time.monotonic() - t0 < 180
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
