import importlib.util
import subprocess
import sys
from pathlib import Path

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
