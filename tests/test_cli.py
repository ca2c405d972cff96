import csv
import json
import warnings

import pytest

from bhgap import bops, cli, dd, ensembles, oracles
from bhgap.cli import main
from bhgap.params import ModelParams, PrecisionWarning


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_gap_determinant_row(tmp_path):
    out = tmp_path / "gap.csv"
    rc = main(["gap", "--m", "2", "--a", "0", "--b", "1", "--xi", "1", "--psi", "1",
               "--s", "1", "--t", "1", "--route", "determinant", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 1
    assert abs(float(rows[0]["Z"])) < 1.0
    assert rows[0]["route"] == "determinant"
    assert rows[0]["version"]


def test_gap_grid_product_and_roundtrip(tmp_path):
    out = tmp_path / "gap.csv"
    rc = main(["gap", "--m", "1", "--a", "0.3", "--xi", "0.5", "--psi", "0",
               "--s", "0.5", "--s", "1.5", "--t", "1.0", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 2
    z = float(rows[0]["Z"])
    assert repr(float(rows[0]["Z"])) == repr(z)  # 17 digits round-trip


def test_gap_precision_degraded_exit_code(tmp_path, monkeypatch):
    # one point of the sweep warns: every row is written and the run exits 2
    out = tmp_path / "gap.csv"
    argv = ["gap", "--route", "pfaffian", "--m", "5", "--a", "0.5", "--out", str(out)]
    z_ubh = ensembles.z_ubh

    def warn_below_1(p, s):
        return (warning_twin(z_ubh) if s < 1 else z_ubh)(p, s)

    monkeypatch.setattr(ensembles, "z_ubh", warn_below_1)
    assert main(argv + ["--s", "0.5", "--s", "5"]) == 2
    assert [float(r["s"]) for r in read_csv(out)] == [0.5, 5.0]
    assert main(argv + ["--s", "5"]) == 0


def warning_twin(fn):
    """fn, but raising a PrecisionWarning before it returns."""
    def warned(*args, **kwargs):
        warnings.warn("degraded", PrecisionWarning)
        return fn(*args, **kwargs)
    return warned


@pytest.mark.parametrize("command", [["oracle"], ["gap", "--route", "oracle"]])
def test_oracle_precision_degraded_exit_code(tmp_path, monkeypatch, command):
    out = tmp_path / "o.csv"
    # m = 3 runs oracles.mc_gap
    argv = command + ["--m", "3", "--a", "0", "--b", "1", "--s", "1.5", "--t", "1.5",
                      "--out", str(out)]
    assert main(argv) == 0
    monkeypatch.setattr(oracles, "mc_gap", warning_twin(oracles.mc_gap))
    assert main(argv) == 2
    assert float(read_csv(out)[0]["std_error"]) > 0


def test_bhft_precision_degraded_exit_code(tmp_path, monkeypatch):
    out = tmp_path / "bhft.csv"
    argv = ["bhft", "--m", "1", "--a", "0.5", "--xi", "0.6", "--t", "0.7",
            "--out", str(out)]
    monkeypatch.setattr(ensembles, "z_bhft", warning_twin(ensembles.z_bhft))
    assert main(argv) == 2
    row = read_csv(out)[0]
    assert row["s"] == "" and row["route"] == "laplace"
    assert abs(float(row["Z"]) - 0.4) <= 1e-6


def test_gap_oracle_route_has_std_error(tmp_path):
    out = tmp_path / "o.csv"
    rc = main(["oracle", "--m", "1", "--a", "0", "--b", "0", "--xi", "1",
               "--psi", "1", "--s", "1", "--t", "1", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert "std_error" in rows[0]


def test_gap_json_format(tmp_path):
    out = tmp_path / "gap.json"
    rc = main(["gap", "--m", "1", "--a", "0", "--b", "0", "--s", "1", "--t", "1",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    recs = json.loads(out.read_text())
    assert recs[0]["m"] == 1


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"m": 1, "a": 0.0, "b": 0.0, "xi": 0.25,
                                   "s": [1.0], "t": [1.0]}))
    out1 = tmp_path / "a.csv"
    assert main(["gap", "--config", str(cfgfile), "--out", str(out1)]) == 0
    rows = read_csv(out1)
    assert float(rows[0]["xi"]) == 0.25
    out2 = tmp_path / "b.csv"
    assert main(["gap", "--config", str(cfgfile), "--xi", "0.75",
                 "--out", str(out2)]) == 0
    assert float(read_csv(out2)[0]["xi"]) == 0.75


def test_config_unknown_field_errors(tmp_path):
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps({"bogus": 1}))
    assert main(["gap", "--config", str(cfgfile)]) == 1


def test_identical_config_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    argv = ["oracle", "--m", "3", "--a", "0", "--b", "1", "--xi", "1", "--psi", "1",
            "--s", "1.5", "--t", "1.5", "--n-samples", "20000", "--seed", "9"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bhft_sweep_monotone(tmp_path):
    out = tmp_path / "bhft.csv"
    rc = main(["bhft", "--m", "2", "--a", "0.5", "--xi", "1",
               "--t", "0.3", "--t", "0.6", "--t", "0.9", "--out", str(out)])
    assert rc == 0
    vals = [float(r["Z"]) for r in read_csv(out)]
    assert vals == sorted(vals)
    assert abs(vals[0]) <= 1e-5  # below the first threshold


def test_bops_table_undeformed_identity(tmp_path):
    out = tmp_path / "bops.csv"
    rc = main(["bops", "--m", "2", "--a", "0.5", "--b", "0.25", "--xi", "0",
               "--psi", "0", "--s", "1", "--t", "1", "--nmax", "4", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 5
    for row in rows:
        n = int(row["n"])
        want = 2 * n + 0.5 + 0.25 + 1
        assert abs(float(row["pi_eta"]) - want) <= 1e-9 * want


def test_flow_trajectory_csv(tmp_path):
    out = tmp_path / "traj.csv"
    rc = main(["flow", "--m", "2", "--a", "0", "--b", "1", "--xi", "1", "--psi", "1",
               "--n", "2", "--s0", "1", "--t0", "1", "--s", "1.3", "--t", "1.0",
               "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) >= 2
    assert float(rows[0]["s"]) == 1.0
    assert abs(float(rows[-1]["s"]) - 1.3) < 1e-12
    for i in range(1, 9):
        assert abs(float(rows[-1][f"resid_{i}"])) < 1e-6


def test_verify_default_passes(tmp_path):
    out = tmp_path / "verify.csv"
    rc = main(["verify", "--m", "2", "--a", "0", "--b", "1", "--xi", "1",
               "--psi", "1", "--s", "1", "--t", "1", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert all(r["status"] == "pass" for r in rows)
    names = {r["identity"] for r in rows}
    assert {"rank1_cauchy", "cd_three_way", "anti_incidence", "constraints",
            "lax_invariants", "schlesinger", "fk_bridge",
            "sigma_reconstruction"} <= names


def test_verify_perturbed_fails(tmp_path):
    out = tmp_path / "verify.csv"
    rc = main(["verify", "--m", "2", "--a", "0", "--b", "1", "--xi", "1",
               "--psi", "1", "--s", "1", "--t", "1", "--perturb", "--out", str(out)])
    assert rc == 1
    rows = read_csv(out)
    assert any(r["status"] == "FAIL" for r in rows)


def test_verify_degenerate_deformation(tmp_path):
    out = tmp_path / "v0.csv"
    rc = main(["verify", "--m", "2", "--a", "0.3", "--b", "0.6", "--xi", "0",
               "--psi", "0", "--s", "1", "--t", "1", "--out", str(out)])
    assert rc == 0


def test_verify_rank1_row_sees_a_corrupted_gram(tmp_path, monkeypatch):
    # one entry of the species-swapped twin, off by 1e-8 relative, fails
    # rank1_cauchy and no other row
    gram = bops._dd_gram
    swapped = ModelParams(2, 1.0, 0.0, 1.0, 1.0)

    def corrupted(p, d, size, *args):
        mdd, aldd, bedd, iscx = gram(p, d, size, *args)
        if p == swapped:
            mdd = [row[:] for row in mdd]
            mdd[2][1] = mdd[2][1] * dd.DD(1.0 + 1e-8)
        return mdd, aldd, bedd, iscx

    monkeypatch.setattr(cli, "_dd_gram", corrupted)
    out = tmp_path / "verify.csv"
    rc = main(["verify", "--m", "2", "--a", "0", "--b", "1", "--xi", "1",
               "--psi", "1", "--s", "1", "--t", "1", "--out", str(out)])
    assert rc == 1
    status = {r["identity"]: r["status"] for r in read_csv(out)}
    assert sorted(k for k, v in status.items() if v == "FAIL") == ["rank1_cauchy"]


@pytest.mark.parametrize("suite,column,other", [
    ("residue_invariants", "lax_invariants", "pairwise_traces"),
    ("pairwise_trace_residuals", "pairwise_traces", "lax_invariants"),
])
def test_verify_lax_suites_own_columns(tmp_path, monkeypatch, suite, column, other):
    # a bad value in one Lax suite fails its own column and no other
    monkeypatch.setattr(cli, suite, lambda *args: {"bad": 1.0})
    out = tmp_path / "verify.csv"
    rc = main(["verify", "--m", "2", "--a", "0", "--b", "1", "--xi", "1",
               "--psi", "1", "--s", "1", "--t", "1", "--out", str(out)])
    assert rc == 1
    status = {r["identity"]: r["status"] for r in read_csv(out)}
    assert status[column] == "FAIL"
    assert status[other] == "pass"
    assert sorted(k for k, v in status.items() if v == "FAIL") == [column]
