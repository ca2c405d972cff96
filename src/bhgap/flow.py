"""The closed constrained dynamical system in the deformation variables (s, t).

The 23-variable state is the evaluation bundle (four boundary triples, the
pi/eta triples, X, Y, and the three norms) plus log Z bookkeeping.  The
right-hand sides are assembled purely from the current state, which carries
a, b, xi and psi: coupling kernels off anti-incidence come from the G-matrix
bilinears, the two anti-incidence kernels from the finite limit formulas,
the brackets from ``bops.brackets``.  An infinite cutoff zeroes that side's
boundary values, brackets and kernels, so each flow's right-hand side is
finite at the other variable's infinite cutoff and raises DomainError at its
own.

Constraints are monitored, not projected, by default: they are conserved by
the exact dynamics, so drift is a discretization diagnostic.  An optional
least-squares projection onto the four linear relations is available.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, lax
from .bops import EvalBundle, brackets, build_state, deformation_weights, eval_bundle, zdet
from .params import INF, DeformPoint, DomainError, ModelParams


class FlowAbort(RuntimeError):
    """Adaptive flow could not proceed (constraint drift or genericity loss)."""


@dataclass
class FlowState:
    """Evaluation bundle plus log Z at one point of a deformation path."""

    bundle: EvalBundle
    logZ: float

    @property
    def n(self) -> int:
        return self.bundle.n

    @property
    def s(self) -> float:
        return self.bundle.s

    @property
    def t(self) -> float:
        return self.bundle.t

    def vector(self) -> np.ndarray:
        eb = self.bundle
        return np.concatenate([eb.p, eb.q, eb.p1, eb.q1, eb.piv, eb.etav,
                               [eb.X, eb.Y], eb.sv, [self.logZ]])

    @staticmethod
    def from_vector(v: np.ndarray, template: EvalBundle, s: float, t: float) -> "FlowState":
        eb = EvalBundle(template.n, s, t, template.a, template.b,
                        template.xi, template.psi,
                        v[0:3].copy(), v[3:6].copy(), v[6:9].copy(), v[9:12].copy(),
                        v[12:15].copy(), v[15:18].copy(), float(v[18]), float(v[19]),
                        v[20:23].copy())
        return FlowState(eb, float(v[23]))


VAR_NAMES = (["P_np1_s", "P_n_s", "P_nm1_s",
              "Q_np1_t", "Q_n_t", "Q_nm1_t",
              "P1_np1_mt", "P1_n_mt", "P1_nm1_mt",
              "Q1_np1_ms", "Q1_n_ms", "Q1_nm1_ms",
              "pi_np1", "pi_n", "pi_nm1",
              "eta_np1", "eta_n", "eta_nm1",
              "X_nn", "Y_nn", "S_np1", "S_n", "S_nm1", "logZ"])


def from_moments(p: ModelParams, d: DeformPoint, n: int) -> FlowState:
    """Initial state from the moment route; log Z_n = log(h_0 ... h_{n-1})
    comes from the factorization that gives the state's norms."""
    st = build_state(p, d, n)
    lz = math.log(zdet(p, d, n)) if n else 0.0
    return FlowState(eval_bundle(st), lz)


# ---------------------------------------------------------------------------
# coefficient matrices of the total-derivative equations
# ---------------------------------------------------------------------------

def _a0_plus(eb: EvalBundle, br, wT: float) -> np.ndarray:
    n, a, b, s = eb.n, eb.a, eb.b, eb.s
    rp, rm = br.rp, br.rm
    pr_u, pr_d = eb.piv[0] / eb.piv[1], eb.piv[2] / eb.piv[1]
    return np.array([
        [n + 1.0 - rp * pr_u, pr_u * (eb.Y + s), rm * pr_u],
        [-rp, eb.Y + s - n - a - b - 1.0, rm],
        [-rp * pr_d, -pr_d * (eb.X - s) + wT * eb.p1[2] * eb.q[1], rm * pr_d - n - a - b],
    ])


def _a0_minus(eb: EvalBundle, br, wS: float) -> np.ndarray:
    n, a, b, t = eb.n, eb.a, eb.b, eb.t
    rp, rm = br.rp, br.rm
    pr_u, pr_d = eb.piv[0] / eb.piv[1], eb.piv[2] / eb.piv[1]
    return np.array([
        [n + 1.0 + a + t - rp * pr_u, pr_u * (eb.Y - t), rm * pr_u],
        [-rp, eb.Y - n - b - 1.0, rm],
        [-rp * pr_d, -pr_d * (eb.X + t) + wS * eb.p[2] * eb.q1[1], rm * pr_d - n - b + t],
    ])


def _d0_plus(eb: EvalBundle, br, wS: float) -> np.ndarray:
    n, a, b, t = eb.n, eb.a, eb.b, eb.t
    rp, rm = br.rp, br.rm
    er_u, er_d = eb.etav[0] / eb.etav[1], eb.etav[2] / eb.etav[1]
    return np.array([
        [n + 1.0 - rp * er_u, er_u * (eb.X + t), rm * er_u],
        [-rp, eb.X + t - n - a - b - 1.0, rm],
        [-rp * er_d, -er_d * (eb.Y - t) + wS * eb.p[1] * eb.q1[2], rm * er_d - n - a - b],
    ])


def _d0_minus(eb: EvalBundle, br, wT: float) -> np.ndarray:
    n, a, b, s = eb.n, eb.a, eb.b, eb.s
    rp, rm = br.rp, br.rm
    er_u, er_d = eb.etav[0] / eb.etav[1], eb.etav[2] / eb.etav[1]
    return np.array([
        [n + 1.0 + b + s - rp * er_u, er_u * (eb.X - s), rm * er_u],
        [-rp, eb.X - n - a - 1.0, rm],
        [-rp * er_d, -er_d * (eb.Y + s) + wT * eb.p1[1] * eb.q[2], rm * er_d + s - n - a],
    ])


def _kernels_from_state(eb: EvalBundle, lb) -> dict:
    # a kernel whose boundary point sits at an infinite cutoff is zero, like
    # the boundary values there
    pe = eb.piv[1] * eb.etav[1]
    s, t = eb.s, eb.t
    k00 = k11 = k01_n = k10_n = 0.0
    if s != INF and t != INF:
        k00 = eb.p @ kernels.gmatrix(eb, s, t) @ eb.q / (pe * (s + t))
        k11 = eb.p1 @ kernels.gmatrix(eb, -t, -s) @ eb.q1 / (pe * (-t - s))
    if s != INF:
        k01_n = kernels.kernel01_limit(eb, lb)
    if t != INF:
        k10_n = kernels.kernel10_limit(eb, lb)
    return {"k00": k00, "k11": k11, "k01_n": k01_n, "k10_n": k10_n,
            "k01": k01_n - eb.p[1] * eb.q1[1], "k10": k10_n - eb.p1[1] * eb.q[1]}


def rhs_total_s(fs: FlowState, lb=None, kv=None) -> np.ndarray:
    """d/ds of the 24-component state vector along the s-flow; raises
    DomainError at an infinite s."""
    eb = fs.bundle
    if eb.s == INF:
        raise DomainError("the s-flow needs a finite s cutoff")
    if lb is None:
        lb = lax.build_lax(eb)
    if kv is None:
        kv = _kernels_from_state(eb, lb)
    s = eb.s
    ws, wt, wS, wT = deformation_weights(eb)
    br = lb.br
    rp, rm = br.rp, br.rm
    adiag = 0.5 * wS * np.diag([eb.p[0] * eb.q1[0], -eb.p[1] * eb.q1[1],
                                -eb.p[2] * eb.q1[2]])
    dp = ((_a0_plus(eb, br, wT) + adiag) @ eb.p - wT * kv["k00"] * eb.p1) / s
    dq = lb.B_inf0b @ eb.q + ws * kv["k00"] * eb.q1
    dp1 = lb.B_inf0 @ eb.p1 + ws * kv["k11"] * eb.p
    dq1 = ((_d0_minus(eb, br, wT) + adiag) @ eb.q1 - wT * kv["k11"] * eb.q) / s
    dpi = lb.B_inf0 @ eb.piv - ws / eb.etav[1] * br.brx_q1 * eb.p
    deta = lb.B_inf0b @ eb.etav - ws / eb.piv[1] * br.bry_p * eb.q1
    dX = ws * (-rp * eb.p[0] * eb.q1[1] + rm * eb.p[1] * eb.q1[2])
    dY = ws * (-rp * eb.p[1] * eb.q1[0] + rm * eb.p[2] * eb.q1[1])
    dS = 0.5 * ws * eb.sv * eb.p * eb.q1
    dlz = -ws * kv["k01"]
    return np.concatenate([dp, dq, dp1, dq1, dpi, deta, [dX, dY], dS, [dlz]])


def rhs_total_t(fs: FlowState, lb=None, kv=None) -> np.ndarray:
    """d/dt of the 24-component state vector along the t-flow; raises
    DomainError at an infinite t."""
    eb = fs.bundle
    if eb.t == INF:
        raise DomainError("the t-flow needs a finite t cutoff")
    if lb is None:
        lb = lax.build_lax(eb)
    if kv is None:
        kv = _kernels_from_state(eb, lb)
    t = eb.t
    ws, wt, wS, wT = deformation_weights(eb)
    br = lb.br
    rp, rm = br.rp, br.rm
    ddiag = 0.5 * wT * np.diag([eb.p1[0] * eb.q[0], -eb.p1[1] * eb.q[1],
                                -eb.p1[2] * eb.q[2]])
    dp = lb.C_inf0 @ eb.p + wt * kv["k00"] * eb.p1
    dq = ((_d0_plus(eb, br, wS) + ddiag) @ eb.q - wS * kv["k00"] * eb.q1) / t
    dp1 = ((_a0_minus(eb, br, wS) + ddiag) @ eb.p1 - wS * kv["k11"] * eb.p) / t
    dq1 = lb.C_inf0b @ eb.q1 + wt * kv["k11"] * eb.q
    dpi = lb.C_inf0 @ eb.piv - wt / eb.etav[1] * br.brx_q * eb.p1
    deta = lb.C_inf0b @ eb.etav - wt / eb.piv[1] * br.bry_p1 * eb.q
    dX = wt * (-rp * eb.p1[0] * eb.q[1] + rm * eb.p1[1] * eb.q[2])
    dY = wt * (-rp * eb.p1[1] * eb.q[0] + rm * eb.p1[2] * eb.q[1])
    dS = 0.5 * wt * eb.sv * eb.p1 * eb.q
    dlz = -wt * kv["k10"]
    return np.concatenate([dp, dq, dp1, dq1, dpi, deta, [dX, dY], dS, [dlz]])


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------

def constraint_residuals(fs: FlowState) -> np.ndarray:
    """The eight constraint residuals, each normalized by its largest term."""
    eb = fs.bundle
    n, a, b, s, t = eb.n, eb.a, eb.b, eb.s, eb.t
    _, _, wS, wT = deformation_weights(eb)
    # at an infinite cutoff that side's boundary values are zero and enter
    # only through the vanishing weight: its brackets and bilinear are zero
    br = brackets(eb)
    rp, rm = br.rp, br.rm
    pe = eb.piv[1] * eb.etav[1]
    out = np.zeros(8)

    def norm(vals):
        return max(max(abs(v) for v in vals), 1.0)

    # (1) X + Y = pi_n eta_n
    terms = [eb.X, eb.Y, pe]
    out[0] = (eb.X + eb.Y - pe) / norm(terms)
    # (2) pi_n eta_n = 2n+a+b+1 + deformation terms
    t2 = [pe, 2 * n + a + b + 1.0, wS * eb.p[1] * eb.q1[1], wT * eb.p1[1] * eb.q[1]]
    out[1] = (pe - t2[1] - t2[2] - t2[3]) / norm(t2)
    # (3) X evaluation
    t3 = [eb.X, rp * eb.piv[0] * eb.etav[1], rm * eb.piv[1] * eb.etav[2],
          wS * rp * eb.p[0] * eb.q1[1], wS * rm * eb.p[1] * eb.q1[2],
          wT * rp * eb.p1[0] * eb.q[1], wT * rm * eb.p1[1] * eb.q[2]]
    out[2] = (eb.X - (t3[1] - t3[2] - (t3[3] - t3[4]) - (t3[5] - t3[6]))) / norm(t3)
    # (4) Y evaluation
    t4 = [eb.Y, rp * eb.piv[1] * eb.etav[0], rm * eb.piv[2] * eb.etav[1],
          wS * rp * eb.p[1] * eb.q1[0], wS * rm * eb.p[2] * eb.q1[1],
          wT * rp * eb.p1[1] * eb.q[0], wT * rm * eb.p1[2] * eb.q[1]]
    out[3] = (eb.Y - (t4[1] - t4[2] - (t4[3] - t4[4]) - (t4[5] - t4[6]))) / norm(t4)
    # (5) X vs eta ratios
    t5 = [eb.X, n + a, rp * eb.etav[0] / eb.etav[1], rm * eb.etav[2] / eb.etav[1],
          wS / pe * eb.q1[1] * br.bry_p, wT / pe * eb.q[1] * br.bry_p1]
    out[4] = (eb.X - t5[1] - t5[2] + t5[3] + t5[4] + t5[5]) / norm(t5)
    # (6) Y vs pi ratios
    t6 = [eb.Y, n + b, rp * eb.piv[0] / eb.piv[1], rm * eb.piv[2] / eb.piv[1],
          wS / pe * eb.p[1] * br.brx_q1, wT / pe * eb.p1[1] * br.brx_q]
    out[5] = (eb.Y - t6[1] - t6[2] + t6[3] + t6[4] + t6[5]) / norm(t6)
    # (7)+(8) bilinear orthogonality at anti-incidence
    if s != INF:
        g_s = kernels.gmatrix(eb, s, -s)
        v7 = eb.p @ g_s @ eb.q1
        out[6] = v7 / norm([abs(eb.p).max() * abs(g_s @ eb.q1).max()])
    if t != INF:
        g_t = kernels.gmatrix(eb, -t, t)
        v8 = eb.p1 @ g_t @ eb.q
        out[7] = v8 / norm([abs(eb.p1).max() * abs(g_t @ eb.q).max()])
    return out


def constraint_linear_system(fs: FlowState):
    """The four X/Y relations as a linear system in (pi_{n+1}, pi_{n-1},
    eta_{n+1}, eta_{n-1}); the paper proves it has rank three."""
    eb = fs.bundle
    n, a, b = eb.n, eb.a, eb.b
    _, _, wS, wT = deformation_weights(eb)
    br = brackets(eb)
    rp, rm = br.rp, br.rm
    pe = eb.piv[1] * eb.etav[1]
    A = np.zeros((4, 4))
    rhs = np.zeros(4)
    # unknown order: pi_{n+1}, pi_{n-1}, eta_{n+1}, eta_{n-1}
    A[0, 0] = rp * eb.etav[1]
    A[0, 3] = -rm * eb.piv[1]
    rhs[0] = (eb.X + wS * (rp * eb.p[0] * eb.q1[1] - rm * eb.p[1] * eb.q1[2])
              + wT * (rp * eb.p1[0] * eb.q[1] - rm * eb.p1[1] * eb.q[2]))
    A[1, 2] = rp * eb.piv[1]
    A[1, 1] = -rm * eb.etav[1]
    rhs[1] = (eb.Y + wS * (rp * eb.p[1] * eb.q1[0] - rm * eb.p[2] * eb.q1[1])
              + wT * (rp * eb.p1[1] * eb.q[0] - rm * eb.p1[2] * eb.q[1]))
    A[2, 2] = rp / eb.etav[1]
    A[2, 3] = -rm / eb.etav[1]
    rhs[2] = eb.X - n - a + wS / pe * eb.q1[1] * br.bry_p + wT / pe * eb.q[1] * br.bry_p1
    A[3, 0] = rp / eb.piv[1]
    A[3, 1] = -rm / eb.piv[1]
    rhs[3] = eb.Y - n - b + wS / pe * eb.p[1] * br.brx_q1 + wT / pe * eb.p1[1] * br.brx_q
    return A, rhs


def project_constraints(fs: FlowState) -> FlowState:
    """Least-squares correction of the four +-1 neighbors onto the linear
    constraint manifold (optional; drift is monitored by default).

    Rows are weighted by their term scale so the normalized residuals are
    what gets minimized; the system has rank three, so the minimal-norm
    correction is used."""
    A, rhs = constraint_linear_system(fs)
    eb = fs.bundle
    cur = np.array([eb.piv[0], eb.piv[2], eb.etav[0], eb.etav[2]])
    w = 1.0 / np.maximum(np.abs(A).max(axis=1) * np.abs(cur).max(), 1e-300)
    delta, *_ = np.linalg.lstsq(A * w[:, None], (rhs - A @ cur) * w, rcond=None)
    new = cur + delta
    eb2 = eb.copy()
    eb2.piv = np.array([new[0], eb.piv[1], new[1]])
    eb2.etav = np.array([new[2], eb.etav[1], new[3]])
    return FlowState(eb2, fs.logZ)


def rhs_decomposition_residual(fs: FlowState) -> float:
    """Total = partial + spectral-chain consistency of the flow right-hand
    sides, checked componentwise on the boundary triples."""
    eb = fs.bundle
    lb = lax.build_lax(eb)
    qb = lax.q_side_lax(eb)
    kv = _kernels_from_state(eb, lb)
    s, t, a, b = eb.s, eb.t, eb.a, eb.b
    ws, wt, _, _ = deformation_weights(eb)
    tot_s = rhs_total_s(fs, lb, kv)
    tot_t = rhs_total_t(fs, lb, kv)
    worst = 0.0
    # s-flow, P(s): total = partial + d/dx
    partial = (lb.B_inf0 + ws * kv["k01_n"] * np.eye(3)) @ eb.p
    chain = lax.deriv_at_s(lb, s, t) @ eb.p
    got = tot_s[0:3]
    worst = max(worst, np.abs(got - partial - chain).max()
                / max(np.abs(got).max(), 1.0))
    # s-flow, Q1(-s): total = partial - d/dy with the e^y y^-b gauge stripped
    partial = (lb.B_inf0b + ws * kv["k01_n"] * np.eye(3)) @ eb.q1
    chain_g = lax.deriv_at_mt(qb, t, s) @ eb.q1 - (1.0 + b / s) * eb.q1
    got = tot_s[9:12]
    worst = max(worst, np.abs(got - partial + chain_g).max()
                / max(np.abs(got).max(), 1.0))
    # t-flow, Q(t): total = partial + d/dy
    partial = (lb.C_inf0b + wt * kv["k10_n"] * np.eye(3)) @ eb.q
    chain = lax.deriv_at_s(qb, t, s) @ eb.q
    got = tot_t[3:6]
    worst = max(worst, np.abs(got - partial - chain).max()
                / max(np.abs(got).max(), 1.0))
    # t-flow, P1(-t): total = partial - d/dx with the e^x x^-a gauge stripped
    partial = (lb.C_inf0 + wt * kv["k10_n"] * np.eye(3)) @ eb.p1
    chain_g = lax.deriv_at_mt(lb, s, t) @ eb.p1 - (1.0 + a / t) * eb.p1
    got = tot_t[6:9]
    worst = max(worst, np.abs(got - partial + chain_g).max()
                / max(np.abs(got).max(), 1.0))
    return float(worst)


# ---------------------------------------------------------------------------
# adaptive integration
# ---------------------------------------------------------------------------

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
_MAX_STEPS = 100000  # step attempts per path segment


def _path_segments(path):
    pts = [(float(s), float(t)) for s, t in path]
    if len(pts) < 2:
        return []
    return list(zip(pts[:-1], pts[1:]))


def integrate(fs0: FlowState, path, tol: float = 1e-8, project: bool = False):
    """Integrate the flow along a piecewise-linear (s,t) path with an
    embedded Dormand-Prince 4/5 pair.

    At every accepted step the eight constraint residuals are evaluated; a
    step whose worst residual exceeds 100*tol is rejected and halved.  Below
    the floor step (1e-12 of the segment) the flow aborts with the offending
    constraint, and after 100,000 step attempts on one segment it aborts too.
    A NaN error estimate or residual fails its guard like an oversized one.
    A segment that is not finite, such as one along an infinite cutoff,
    raises DomainError.
    """
    init_res = np.abs(constraint_residuals(fs0)).max()
    if not init_res <= 1e-8:
        raise FlowAbort(f"initial state violates constraints ({init_res:.2e})")
    traj = [fs0]
    segs = _path_segments(path)
    if not segs:
        return traj
    template = fs0.bundle
    for (s0, t0), (s1, t1) in segs:
        ds, dt = s1 - s0, t1 - t0
        seg_len = math.hypot(ds, dt)
        if seg_len == 0:
            continue
        if not math.isfinite(seg_len):
            raise DomainError(f"path segment ({s0}, {t0}) -> ({s1}, {t1}) is not finite")
        floor = 1e-12 * seg_len

        def f(u, y):
            fs = FlowState.from_vector(y, template, s0 + u * ds, t0 + u * dt)
            lb = lax.build_lax(fs.bundle)
            kv = _kernels_from_state(fs.bundle, lb)
            out = np.zeros_like(y)
            if ds:
                out += ds * rhs_total_s(fs, lb, kv)
            if dt:
                out += dt * rhs_total_t(fs, lb, kv)
            return out

        u = 0.0
        y = traj[-1].vector()
        h = 0.1
        steps = 0
        while u < 1.0 - 1e-14:
            if steps >= _MAX_STEPS:
                raise FlowAbort("step budget exhausted")
            h = min(h, 1.0 - u)
            k = [f(u, y)]
            for i in range(1, 7):
                yi = y + h * sum(_DP_A[i][j] * k[j] for j in range(i))
                k.append(f(u + _DP_C[i] * h, yi))
            karr = np.array(k)
            y5 = y + h * (_DP_B5 @ karr)
            y4 = y + h * (_DP_B4 @ karr)
            scale = np.max(np.abs(y)) + 1.0
            err = np.max(np.abs(y5 - y4)) / scale
            if not err <= tol:
                h = max(0.5 * h, floor)
                if h <= floor:
                    raise FlowAbort(f"step size underflow (err {err:.2e})")
                steps += 1
                continue
            cand = FlowState.from_vector(y5, template, s0 + (u + h) * ds,
                                         t0 + (u + h) * dt)
            res = np.abs(constraint_residuals(cand))
            if not res.max() <= 100 * tol:
                h = 0.5 * h
                if h <= floor:
                    raise FlowAbort(
                        f"constraint {int(res.argmax())} drifted to {res.max():.2e}")
                steps += 1
                continue
            if project:
                cand = project_constraints(cand)
            u += h
            y = cand.vector()
            traj.append(cand)
            steps += 1
            if err > 0:
                h = min(2.0 * h, 0.9 * h * (tol / err) ** 0.2)
            else:
                h = 2.0 * h
    return traj


# ---------------------------------------------------------------------------
# G-matrix total-derivative check
# ---------------------------------------------------------------------------

def g_derivative_check(fs: FlowState, p: ModelParams):
    """Max-norm residuals of the displayed total derivatives of the
    anti-incidence G-matrices (s- and t-versions), central differences of
    step 1e-4 on the moment route against the closed right-hand sides."""
    eb = fs.bundle
    s, t = eb.s, eb.t
    h = 1e-4
    ws, wt, wS, wT = deformation_weights(eb)
    pe = eb.piv[1] * eb.etav[1]
    lb = lax.build_lax(eb)
    kv = _kernels_from_state(eb, lb)

    def g_of(ss, tt, x, y):
        st = build_state(p, DeformPoint(ss, tt), eb.n)
        return kernels.gmatrix(st, x, y)

    # s-version at (s, -s)
    fd = (g_of(s + h, t, s + h, -(s + h)) - g_of(s - h, t, s - h, -(s - h))) / (2 * h) * s
    tot_s = rhs_total_s(fs, lb, kv)
    dlog_pe = s * (tot_s[18] + tot_s[19]) / pe
    adiag = 0.5 * wS * np.diag([eb.p[0] * eb.q1[0], -eb.p[1] * eb.q1[1],
                                -eb.p[2] * eb.q1[2]])
    a_plus = _a0_plus(eb, lb.br, wT) + adiag
    d_minus = _d0_minus(eb, lb.br, wT) + adiag
    g_ss = kernels.gmatrix(eb, s, -s)
    rhs = ((s - eb.a) * g_ss + dlog_pe * g_ss
           - a_plus.T @ g_ss - g_ss @ d_minus
           - wT / (pe * (s + t)) * np.outer(g_ss @ eb.q,
                                            kernels.gmatrix(eb, -t, -s).T @ eb.p1)
           + wT / (pe * (s + t)) * np.outer(kernels.gmatrix(eb, s, t) @ eb.q,
                                            g_ss.T @ eb.p1))
    res_s = np.abs(fd - rhs).max() / max(np.abs(rhs).max(), 1.0)
    # t-version at (-t, t)
    fd = (g_of(s, t + h, -(t + h), t + h) - g_of(s, t - h, -(t - h), t - h)) / (2 * h) * t
    tot_t = rhs_total_t(fs, lb, kv)
    dlog_pe = t * (tot_t[18] + tot_t[19]) / pe
    ddiag = 0.5 * wT * np.diag([eb.p1[0] * eb.q[0], -eb.p1[1] * eb.q[1],
                                -eb.p1[2] * eb.q[2]])
    a_minus = _a0_minus(eb, lb.br, wS) + ddiag
    d_plus = _d0_plus(eb, lb.br, wS) + ddiag
    g_tt = kernels.gmatrix(eb, -t, t)
    rhs = ((t - eb.b) * g_tt + dlog_pe * g_tt
           - a_minus.T @ g_tt - g_tt @ d_plus
           - wS / (pe * (s + t)) * np.outer(kernels.gmatrix(eb, -t, -s) @ eb.q1,
                                            g_tt.T @ eb.p)
           + wS / (pe * (s + t)) * np.outer(g_tt @ eb.q1,
                                            kernels.gmatrix(eb, s, t).T @ eb.p))
    res_t = np.abs(fd - rhs).max() / max(np.abs(rhs).max(), 1.0)
    return float(res_s), float(res_t)


def trajectory_table(traj):
    """Rows of (s, t, 23 components, logZ, 8 residuals) for export."""
    rows = []
    for fs in traj:
        res = constraint_residuals(fs)
        rows.append(np.concatenate([[fs.s, fs.t], fs.vector(), res]))
    return np.array(rows)
