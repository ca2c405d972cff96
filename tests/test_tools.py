import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_route_outputs_prints_one_line_per_point():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "route_outputs.py"),
                          "--workload", "deep-cutoff", "--seed", "1", "--passes", "1"],
                         capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert len(lines) == _workloads().cycle_length("deep-cutoff")
    assert all(line.startswith("route='z_") for line in lines)
