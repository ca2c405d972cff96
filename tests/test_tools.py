import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run_route_outputs(*args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "route_outputs.py"), *args],
                          capture_output=True, text=True, check=True).stdout.splitlines()


def test_route_outputs_prints_one_line_per_point():
    lines = run_route_outputs("--workload", "deep-cutoff", "--seeds", "1", "--passes", "1")
    assert len(lines) == _workloads().cycle_length("deep-cutoff")
    assert all(line.startswith("deep-cutoff/1 route='z_") for line in lines)


def load_route_outputs(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends to it
    spec = importlib.util.spec_from_file_location("route_outputs",
                                                  ROOT / "tools" / "route_outputs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_route_outputs_takes_every_workload_and_a_seed_list(monkeypatch):
    # the lines of one workload and seed are those of its own run
    mod = load_route_outputs(monkeypatch)
    assert mod.parse_seeds("1-3,90017") == [1, 2, 3, 90017]
    calls = []
    monkeypatch.setattr(mod, "output_lines",
                        lambda w, seed, passes: calls.append((w, seed)) or ["x"])
    assert mod.main(["--workload", "all", "--seeds", "2,5-6"]) == 0
    assert calls == [(w, s) for w in mod.workloads.WORKLOADS for s in (2, 5, 6)]
    n = _workloads().cycle_length("deep-cutoff")
    lines = run_route_outputs("--workload", "deep-cutoff", "--seeds", "1-2")
    assert lines[:n] == run_route_outputs("--workload", "deep-cutoff")
    assert lines[n:] == run_route_outputs("--workload", "deep-cutoff", "--seeds", "2")


def test_route_outputs_takes_a_workload_list(monkeypatch):
    # the untouched workloads of a change in one diff, in the order given
    mod = load_route_outputs(monkeypatch)
    calls = []
    monkeypatch.setattr(mod, "output_lines",
                        lambda w, seed, passes: calls.append((w, seed)) or ["x"])
    assert mod.main(["--workload", "shallow-cutoff,deep-cutoff,fixed-trace",
                     "--seeds", "1,90017"]) == 0
    assert calls == [(w, s) for w in ("shallow-cutoff", "deep-cutoff", "fixed-trace")
                     for s in (1, 90017)]
    with pytest.raises(SystemExit):
        mod.main(["--workload", "deep-cutoff,no-such-workload"])


def test_route_outputs_prints_bits_not_types(monkeypatch):
    # a numpy scalar prints like the float it equals, so a diff shows bits only
    mod = load_route_outputs(monkeypatch)
    as_numpy = SimpleNamespace(value=np.float64(0.1), est_error=np.float64(2e-9))
    as_float = SimpleNamespace(value=0.1, est_error=2e-9)
    assert mod.result_text(as_numpy) == mod.result_text(as_float) == "(0.1, 2e-09)"
    as_complex = SimpleNamespace(value=0.1 + 0.2j, est_error=1e-9)
    assert mod.result_text(as_complex) == "((0.1+0.2j), 1e-09)"


def test_tracer_wraps_and_restores_every_layer():
    # a renamed wrap site or cache fails here, not in the traced benchmark run
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    sites = [(importlib.import_module(f"bhgap.{mod}"), attr) for _, mod, attr, _ in tracer.LAYERS]
    before = [getattr(mod, attr) for mod, attr in sites]
    for _, mod, attr in tracer.CACHES:
        getattr(importlib.import_module(f"bhgap.{mod}"), attr).cache_info()
    tr = tracer.Tracer()
    try:
        tr.install()
        assert all(getattr(mod, attr) is not orig for (mod, attr), orig in zip(sites, before))
    finally:
        tr.close()
    assert all(getattr(mod, attr) is orig for (mod, attr), orig in zip(sites, before))


def test_compare_outputs_counts_equal_lines_moves_and_exception_changes(tmp_path):
    pt = "route='z_cl2m' m=3 a=0.3 b=0.7 xi=1.0 psi=1.0 s={} t=1.9"
    a = [f"deep-cutoff/1 {pt.format(1.5)} (0.25, 2.5e-11)",
         f"deep-cutoff/1 {pt.format(1.5)} (0.25, 2.5e-11)",
         f"deep-cutoff/2 {pt.format(2.5)} (0.5, 5e-11)",
         f"flow/1 {pt.format(3.5)} DomainError: cutoffs (3.5, 1.9): out of range",
         f"flow/1 {pt.format(4.5)} ((0.1+0.2j), 1e-09)"]
    b = a[:2] + [f"deep-cutoff/2 {pt.format(2.5)} (0.5000000000001, 5e-11)",
                 f"flow/1 {pt.format(3.5)} (nan, nan)",
                 f"flow/1 {pt.format(4.5)} ((0.1+0.2j), 1e-09)",
                 f"flow/2 {pt.format(5.5)} (0.75, 1e-12)"]
    (tmp_path / "a.txt").write_text("\n".join(a) + "\n")
    (tmp_path / "b.txt").write_text("\n".join(b) + "\n")
    tool = [sys.executable, str(ROOT / "tools" / "compare_outputs.py")]
    run = subprocess.run([*tool, str(tmp_path / "a.txt"), str(tmp_path / "b.txt")],
                         capture_output=True, text=True)
    assert run.returncode == 1
    assert run.stdout.splitlines() == [
        "deep-cutoff: 3 points, 2 bitwise equal, largest relative move 2e-13",
        "flow: 2 points, 1 bitwise equal, largest relative move 0",
        f"  exception changed: flow/1 {pt.format(3.5)}: DomainError -> value",
        f"  only in B: flow/2 {pt.format(5.5)}"]
    same = subprocess.run([*tool, str(tmp_path / "a.txt"), str(tmp_path / "a.txt")],
                          capture_output=True, text=True)
    assert same.returncode == 0
    assert same.stdout.splitlines()[0] == "deep-cutoff: 3 points, 3 bitwise equal, largest relative move 0"
