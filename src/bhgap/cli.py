"""Batch command-line front door.

Subcommands: gap (generating-function values over a cutoff grid), verify
(identity residual table), flow (trajectory export), bhft (fixed-trace
sweep), bops (bi-orthogonal data table), oracle (quadrature/MC reference
values).  Configuration comes from flags or a JSON document (flags win).
Every record carries the full parameter tuple, route, and library version;
numeric columns round-trip at 17 significant digits.

Exit codes: 0 success, 1 error, 2 precision-degraded.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import numpy as np

from . import __version__, dd, ensembles, flow as flowmod, oracles
from .bops import _dd_gram, build_state, recurrence_coeffs
from .kernels import anti_incidence_residuals, cd_bilinear, cd_form_00, kernel_sum, sigma_tau
from .lax import build_lax, pairwise_trace_residuals, residue_invariants, schlesinger_residuals
from .params import DeformPoint, ModelParams, PrecisionWarning

_FMT = "%.17g"


def _fmt(v) -> str:
    if isinstance(v, complex):
        if v.imag == 0:
            return _FMT % v.real
        return f"{_FMT % v.real}{'+' if v.imag >= 0 else '-'}{_FMT % abs(v.imag)}j"
    if isinstance(v, float):
        return _FMT % v
    return str(v)


def _write_records(records, columns, out, fmt):
    lines = []
    if fmt == "csv":
        lines.append(",".join(columns))
        for rec in records:
            lines.append(",".join(_fmt(rec[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps([{c: (rec[c] if not isinstance(rec[c], (float, complex))
                                else float(_fmt(rec[c])) if not isinstance(rec[c], complex)
                                else _fmt(rec[c]))
                            for c in columns} for rec in records], indent=1) + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _base_parser(sub):
    sub.add_argument("--m", type=int, default=None)
    sub.add_argument("--a", type=float, default=None)
    sub.add_argument("--b", type=float, default=None)
    sub.add_argument("--xi", type=float, default=None)
    sub.add_argument("--psi", type=float, default=None)
    sub.add_argument("--s", type=float, action="append", default=None)
    sub.add_argument("--t", type=float, action="append", default=None)
    sub.add_argument("--route", default=None,
                     choices=["determinant", "pfaffian", "flow", "laplace", "oracle"])
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", default=None)
    sub.add_argument("--format", dest="fmt", default=None, choices=["csv", "json"])
    sub.add_argument("--config", default=None, help="JSON config; flags override it")


_DEFAULTS = {"m": 2, "a": 0.0, "b": 0.0, "xi": 1.0, "psi": 1.0, "s": [1.0],
             "t": [1.0], "route": "determinant", "seed": 12345, "out": None,
             "fmt": "csv", "n": None, "tol": 1e-8, "n_samples": 100000,
             "s0": 1.0, "t0": 1.0, "s1": None, "t1": None, "nmax": 4,
             "perturb": False}


def _merge_config(args) -> dict:
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = json.load(fh)
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        cfg.update(loaded)
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if isinstance(cfg["s"], (int, float)):
        cfg["s"] = [float(cfg["s"])]
    if isinstance(cfg["t"], (int, float)):
        cfg["t"] = [float(cfg["t"])]
    return cfg


def _params(cfg) -> ModelParams:
    return ModelParams(cfg["m"], cfg["a"], cfg["b"], cfg["xi"], cfg["psi"])


def _grid(cfg):
    return [(s, t) for s in cfg["s"] for t in cfg["t"]]


def _record_base(cfg, s, t):
    return {"s": s, "t": t, "xi": cfg["xi"], "psi": cfg["psi"], "m": cfg["m"],
            "a": cfg["a"], "b": cfg["b"], "route": cfg["route"],
            "version": __version__}


_GAP_COLUMNS = ["s", "t", "xi", "psi", "m", "a", "b", "Z", "est_error",
                "std_error", "route", "version"]


def cmd_gap(cfg) -> int:
    p = _params(cfg)
    route = cfg["route"]

    def one(point):
        s, t = point
        rec = _record_base(cfg, s, t)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if route == "laplace":  # the fixed-trace route has no s cutoff
                r = ensembles.z_bhft(p, t)
            else:
                d = DeformPoint(s, t)
                if route == "determinant":
                    r = ensembles.z_cl2m(p, d)
                elif route == "pfaffian":
                    r = ensembles.z_ubh(p, s)
                elif route == "flow":
                    r = ensembles.z_cl2m_flow(p, d)
                else:
                    r = (oracles.quad_gap_small_m(p, d) if p.m <= 2 else
                         oracles.mc_gap(p, d, cfg["n_samples"], cfg["seed"]))
            warned = any(issubclass(w.category, PrecisionWarning) for w in caught)
        rec["Z"] = r.value
        if route == "oracle":
            rec["est_error"] = rec["std_error"] = r.std_error
        else:
            rec["est_error"] = r.est_error
            rec["std_error"] = 0.0
        return rec, warned

    results = [one(point) for point in _grid(cfg)]
    records = [r for r, _ in results]
    degraded = any(w for _, w in results)
    _write_records(records, _GAP_COLUMNS, cfg["out"], cfg["fmt"])
    return 2 if degraded else 0


def cmd_bhft(cfg) -> int:
    # one row per t, with an empty s column
    return cmd_gap(dict(cfg, route="laplace", s=[""]))


def cmd_bops(cfg) -> int:
    p = _params(cfg)
    d = DeformPoint(cfg["s"][0], cfg["t"][0])
    records = []
    for n in range(cfg["nmax"] + 1):
        st = build_state(p, d, n)
        rec = _record_base(cfg, d.s, d.t)
        rec.update({"n": n, "S_n": st.S_triple[1], "pi_n": st.pi_triple[1],
                    "eta_n": st.eta_triple[1], "pi_eta": st.pi_triple[1] * st.eta_triple[1],
                    "X_nn": st.Xnn, "Y_nn": st.Ynn})
        if n >= 1:
            (r2, r1, r0, rm1), _ = recurrence_coeffs(st)
            rec.update({"r2": r2, "r1": r1, "r0": r0, "rm1": rm1})
        else:
            rec.update({"r2": "", "r1": "", "r0": "", "rm1": ""})
        records.append(rec)
    cols = ["n", "s", "t", "xi", "psi", "a", "b", "S_n", "pi_n", "eta_n",
            "pi_eta", "X_nn", "Y_nn", "r2", "r1", "r0", "rm1", "version"]
    _write_records(records, cols, cfg["out"], cfg["fmt"])
    return 0


def cmd_flow(cfg) -> int:
    p = _params(cfg)
    n = cfg["n"] if cfg["n"] is not None else p.m
    start = DeformPoint(cfg["s0"], cfg["t0"])
    end = DeformPoint(cfg["s1"] if cfg["s1"] is not None else cfg["s"][0],
                      cfg["t1"] if cfg["t1"] is not None else cfg["t"][0])
    fs0 = flowmod.from_moments(p, start, n)
    traj = flowmod.integrate(fs0, [(start.s, start.t), (end.s, end.t)], tol=cfg["tol"])
    table = flowmod.trajectory_table(traj)
    cols = (["s", "t"] + list(flowmod.VAR_NAMES)
            + [f"resid_{i}" for i in range(1, 9)])
    records = [{c: row[i] for i, c in enumerate(cols)} for row in table]
    for rec in records:
        rec["version"] = __version__
    _write_records(records, cols + ["version"], cfg["out"], cfg["fmt"])
    return 0


def cmd_oracle(cfg) -> int:
    cfg = dict(cfg, route="oracle")
    return cmd_gap(cfg)


_VERIFY_TOLS = {
    "rank1_cauchy": 1e-10,
    "cd_three_way": 1e-9,
    "anti_incidence": 1e-9,
    "constraints": 1e-9,
    "lax_invariants": 1e-9,
    "pairwise_traces": 1e-9,
    "schlesinger": 1e-5,
    "fk_bridge": 1e-9,
    "sigma_reconstruction": 1e-6,
}


def verify_residuals(p: ModelParams, d: DeformPoint, nmax: int = 3,
                     perturb: bool = False) -> dict:
    """Max residuals of the named identity suites at one deformation point.

    rank1_cauchy compares the Gram with the transpose of its species-swapped
    twin, j, k < 4.  Rows j >= 1 of a Gram come from the rank-1 Cauchy fill
    M_{j+1,k} + M_{j,k+1} = alpha_j beta_k and the twin's row 0 from the
    closed forms, so agreement checks the relation against the closed forms.
    """
    out = {}
    gram = _dd_gram(p, d, 4)[0]
    twin = _dd_gram(p.swapped(), d.swapped(), 4)[0]
    out["rank1_cauchy"] = max(
        abs(dd.unwrap(gram[j][k]) - dd.unwrap(twin[k][j])) / max(abs(dd.unwrap(gram[j][k])), 1e-30)
        for j in range(4) for k in range(4))
    rng = np.random.default_rng(0)
    r = 0.0
    for n in range(1, nmax + 1):
        st = build_state(p, d, n)
        for _ in range(3):
            x, y = rng.uniform(0.2, 2.0, size=2)
            ks = kernel_sum(0, 0, n, x, y, p, d)
            r = max(r, abs(ks - cd_form_00(x, y, st)) / max(abs(ks), 1.0),
                    abs(ks - cd_bilinear(0, 0, x, y, st)) / max(abs(ks), 1.0))
    out["cd_three_way"] = r
    r = 0.0
    for n in range(1, nmax + 1):
        st = build_state(p, d, n)
        r = max(r, float(anti_incidence_residuals(n, 0.6, st).max()))
    out["anti_incidence"] = r
    r = 0.0
    for n in range(1, nmax + 1):
        fs = flowmod.from_moments(p, d, n)
        if perturb:
            eb = fs.bundle.copy()
            eb.X *= 1.001
            fs = flowmod.FlowState(eb, fs.logZ)
        r = max(r, float(np.abs(flowmod.constraint_residuals(fs)).max()))
    out["constraints"] = r
    r_inv = r_pair = 0.0
    for n in range(1, nmax + 1):
        st = build_state(p, d, n)
        lb = build_lax(st)
        r_inv = max(r_inv, max(abs(v) for v in residue_invariants(lb, p.a, p.b).values()))
        r_pair = max(r_pair, max(abs(v) for v in pairwise_trace_residuals(st, lb).values()))
    out["lax_invariants"] = r_inv
    out["pairwise_traces"] = r_pair
    out["schlesinger"] = max(schlesinger_residuals(p, d, min(2, nmax)).values())
    out["fk_bridge"] = ensembles.fk_bridge_residual(
        min(p.m, 4), p.a, p.xi if p.xi else 1.0, d.s)
    sig, tau = sigma_tau(build_state(p, d, max(2, min(nmax, 3))))
    h = 1e-5
    n = max(2, min(nmax, 3))
    zp = math.log(abs(ensembles.z_cl2m(ModelParams(n, p.a, p.b, p.xi, p.psi),
                                       DeformPoint(d.s + h, d.t)).value))
    zm = math.log(abs(ensembles.z_cl2m(ModelParams(n, p.a, p.b, p.xi, p.psi),
                                       DeformPoint(d.s - h, d.t)).value))
    sig_fd = d.s * (zp - zm) / (2 * h)
    out["sigma_reconstruction"] = abs(sig - sig_fd) / max(abs(sig), 1e-3)
    return out


def cmd_verify(cfg) -> int:
    p = _params(cfg)
    d = DeformPoint(cfg["s"][0], cfg["t"][0])
    res = verify_residuals(p, d, nmax=min(cfg["nmax"], 3), perturb=cfg["perturb"])
    ok = True
    rows = []
    for name, val in res.items():
        tol = _VERIFY_TOLS.get(name, 1e-9)
        passed = val <= tol
        ok = ok and passed
        rows.append({"identity": name, "max_residual": val, "tolerance": tol,
                     "status": "pass" if passed else "FAIL"})
    _write_records(rows, ["identity", "max_residual", "tolerance", "status"],
                   cfg["out"], cfg["fmt"])
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bhgap",
        description="Gap probabilities for Bures-Hall and Cauchy-Laguerre ensembles")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("gap", "verify", "flow", "bhft", "bops", "oracle"):
        sp = subs.add_parser(name)
        _base_parser(sp)
        if name == "flow":
            sp.add_argument("--n", type=int, default=None)
            sp.add_argument("--tol", type=float, default=None)
            sp.add_argument("--s0", type=float, default=None)
            sp.add_argument("--t0", type=float, default=None)
            sp.add_argument("--s1", type=float, default=None)
            sp.add_argument("--t1", type=float, default=None)
        if name == "oracle":
            sp.add_argument("--n-samples", dest="n_samples", type=int, default=None)
        if name in ("bops", "verify"):
            sp.add_argument("--nmax", type=int, default=None)
        if name == "verify":
            sp.add_argument("--perturb", action="store_true", default=None)
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        handler = {"gap": cmd_gap, "verify": cmd_verify, "flow": cmd_flow,
                   "bhft": cmd_bhft, "bops": cmd_bops, "oracle": cmd_oracle}[args.command]
        return handler(cfg)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
