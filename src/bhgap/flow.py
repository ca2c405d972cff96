"""The closed constrained dynamical system in the deformation variables (s, t).

The 23-variable state is the evaluation bundle (four boundary triples, the
pi/eta triples, X, Y, and the three norms) plus log Z bookkeeping.  Both
right-hand sides come from one plain-float function, ``rhs_total``, of the
24-vector, n, a, b, xi, psi, (s, t) and a direction (ds, dt); the numpy
``rhs_total_s`` and ``rhs_total_t`` are calls of it.  It expands the coupling
kernels off anti-incidence (G-matrix bilinears), the two anti-incidence
kernels (finite limit formulas) and the brackets (``bops.bracket_terms``)
into the products the flow reads; the Lax and kernel-limit assembly remains
for the identity checks.  An infinite cutoff zeroes that side's boundary
values, brackets and kernels, so each flow's right-hand side is finite at
the other variable's infinite cutoff and raises DomainError at its own.

The eight constraint residuals likewise come from one plain-float function,
``residuals``, of the 24-vector, which reads the weights, brackets and
G-matrix products ``rhs_total`` reads; ``constraint_residuals`` is a call of
it.  ``integrate`` runs the first-same-as-last Dormand-Prince 4/5 pair with
a per-component relative error (absolute in log Z) on vectors, and builds a
FlowState only for an accepted step.  Constraints are monitored, not
projected: they are conserved by the exact dynamics, so drift is a
discretization diagnostic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, lax
from .bops import (EvalBundle, bracket_terms, brackets, build_state, cutoff_weights,
                   deformation_weights, eval_bundle, zdet)
from .params import INF, DeformPoint, DomainError, GenericityError, ModelParams


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
    comes from the factorization that gives the state's norms.  The flow
    carries a real log Z, so it needs real xi and psi."""
    if isinstance(p.xi, complex) or isinstance(p.psi, complex):
        raise DomainError(f"the flow route needs real xi and psi, got xi={p.xi}, psi={p.psi}")
    st = build_state(p, d, n)
    lz = math.log(zdet(p, d, n)) if n else 0.0
    return FlowState(eval_bundle(st), lz)


# ---------------------------------------------------------------------------
# the right-hand side
# ---------------------------------------------------------------------------

def _a0_plus(n, a, b, s, pr_u, pr_d, X, Y, rp, rm, c):
    """A_0^+ of the s-flow's P(s) equation; pr_u, pr_d = pi_n+1/pi_n,
    pi_n-1/pi_n and c = wT P1_n-1(-t) Q_n(t)."""
    return ((n + 1.0 - rp * pr_u, pr_u * (Y + s), rm * pr_u),
            (-rp, Y + s - n - a - b - 1.0, rm),
            (-rp * pr_d, -pr_d * (X - s) + c, rm * pr_d - n - a - b))


def _a0_minus(n, a, b, t, pr_u, pr_d, X, Y, rp, rm, c):
    """A_0^- of the t-flow's P1(-t) equation; c = wS P_n-1(s) Q1_n(-s)."""
    return ((n + 1.0 + a + t - rp * pr_u, pr_u * (Y - t), rm * pr_u),
            (-rp, Y - n - b - 1.0, rm),
            (-rp * pr_d, -pr_d * (X + t) + c, rm * pr_d - n - b + t))


def _d0_plus(n, a, b, t, er_u, er_d, X, Y, rp, rm, c):
    """D_0^+ of the t-flow's Q(t) equation; er_u, er_d = eta_n+1/eta_n,
    eta_n-1/eta_n and c = wS P_n(s) Q1_n-1(-s)."""
    return ((n + 1.0 - rp * er_u, er_u * (X + t), rm * er_u),
            (-rp, X + t - n - a - b - 1.0, rm),
            (-rp * er_d, -er_d * (Y - t) + c, rm * er_d - n - a - b))


def _d0_minus(n, a, b, s, er_u, er_d, X, Y, rp, rm, c):
    """D_0^- of the s-flow's Q1(-s) equation; c = wT P1_n(-t) Q_n-1(t)."""
    return ((n + 1.0 + b + s - rp * er_u, er_u * (X - s), rm * er_u),
            (-rp, X - n - a - 1.0, rm),
            (-rp * er_d, -er_d * (Y + s) + c, rm * er_d + s - n - a))


def _mv(m, v):
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    v0, v1, v2 = v
    return (m00 * v0 + m01 * v1 + m02 * v2,
            m10 * v0 + m11 * v1 + m12 * v2,
            m20 * v0 + m21 * v1 + m22 * v2)


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _gvec(rp, rm, X, Y, x, y, w):
    """G_n(x, y) w, with the G-matrix of ``kernels.gmatrix`` written in the
    norm ratios rp = S_n/S_n+1, rm = S_n-1/S_n."""
    w0, w1, w2 = w
    return (rp * (rp * w0 + (Y - y) * w1 - rm * w2),
            rp * (X - x) * w0 + (X + y) * (Y + x) * w1 + rm * (Y + x) * w2,
            rm * (-rp * w0 + (X + y) * w1 + rm * w2))


def _spectral(m, hd, d, w, k, v, x):
    """((M + hd diag(d0, -d1, -d2)) w - k v) / x: the P(s) and Q1(-s)
    equations of the s-flow, the Q(t) and P1(-t) ones of the t-flow."""
    m0, m1, m2 = _mv(m, w)
    return ((m0 + hd * d[0] * w[0] - k * v[0]) / x,
            (m1 - hd * d[1] * w[1] - k * v[1]) / x,
            (m2 - hd * d[2] * w[2] - k * v[2]) / x)


def _corner(h, d, c, w, k, v):
    """B w + k v, where B, one of B_inf0, B_inf0b, C_inf0 and C_inf0b, is
    h diag(d0, -d1, -d2) with -2h c in its (n-1, n) corner."""
    return (h * d[0] * w[0] + k * v[0],
            -h * d[1] * w[1] + k * v[1],
            -h * (2.0 * c * w[1] + d[2] * w[2]) + k * v[2])


def rhs_total(y, n, a, b, xi, psi, s, t, ds, dt) -> list:
    """ds d/ds + dt d/dt of the 24-component state vector y at (s, t), in
    plain floats: the one source of the flow's right-hand sides.

    The coupling kernels off anti-incidence come from G-matrix bilinears and
    the two anti-incidence kernels from their finite limit formulas, both
    expanded into the products the flow reads; ``rhs_decomposition_residual``
    and the tests check them against the Lax and kernel-limit assembly.  A
    direction whose coefficient is zero is not evaluated.  An infinite
    cutoff zeroes that side's weights, brackets and kernels, as it zeroes its
    boundary values in y; a nonzero ds at an infinite s, or dt at an
    infinite t, raises DomainError.
    """
    if n < 1:
        raise DomainError("the flow needs n >= 1")
    if ds and s == INF:
        raise DomainError("the s-flow needs a finite s cutoff")
    if dt and t == INF:
        raise DomainError("the t-flow needs a finite t cutoff")
    # P(s), Q(t), P1(-t), Q1(-s), pi, eta and S ordered [n+1, n, n-1]
    p, q, p1, q1 = y[0:3], y[3:6], y[6:9], y[9:12]
    piv, etav, X, Y, sv = y[12:15], y[15:18], y[18], y[19], y[20:23]
    pin, etn = piv[1], etav[1]
    pe = pin * etn
    if pe == 0:
        raise GenericityError("pi_n eta_n vanished", index=n)
    ws, wt, wS, wT = cutoff_weights(s, t, a, b, xi, psi)
    br = bracket_terms(sv, p, q, p1, q1, X, Y, s, t)
    rp, rm = br.rp, br.rm
    pr_u, pr_d = piv[0] / pin, piv[2] / pin
    er_u, er_d = etav[0] / etn, etav[2] / etn
    fin_s, fin_t = s != INF, t != INF
    # G(s, -s) Q1(-s), G(-t, t) Q(t) and the two off-anti-incidence kernels
    gs = _gvec(rp, rm, X, Y, s, -s, q1) if fin_s else (0.0, 0.0, 0.0)
    gt = _gvec(rp, rm, X, Y, -t, t, q) if fin_t else (0.0, 0.0, 0.0)
    k00 = k11 = cross = 0.0
    if fin_s and fin_t:
        k00 = _dot(p, _gvec(rp, rm, X, Y, s, t, q)) / (pe * (s + t))
        k11 = _dot(p1, _gvec(rp, rm, X, Y, -t, -s, q1)) / (pe * (-t - s))
        # the A_s and A_mt terms of the anti-incidence limit formulas
        cross = _dot(p1, gs) * _dot(p, gt) / (pe * (s + t))
    # A_sigma and the middle row of the anti-incidence limit formulas; the
    # limits K01_n(s, -s), K10_n(-t, t) enter shifted to n-1
    a10 = pr_u * Y + (wS * p[0] * br.brx_q1 + wT * p1[0] * br.brx_q) / pe
    am10 = -pr_d * X + (wS * p[2] * br.bry_q1 + wT * p1[2] * br.bry_q) / pe
    sigma = ((n + 1.0 - rp * pr_u, a10, rm * pr_u),
             (-rp, -a - 1.0 + rp * pr_u - rm * pr_d, rm),
             (-rp * pr_d, am10, -n - a - b + rm * pr_d))
    mid = (pr_u, 1.0, pr_d + sv[1] / sv[2])
    out = [0.0] * 24
    if ds:
        h, hd = 0.5 * ws, 0.5 * wS
        d = (p[0] * q1[0], p[1] * q1[1], p[2] * q1[2])
        cb, cbb = p[2] * q1[1], p[1] * q1[2]  # corners of B_inf0, B_inf0b
        k01 = ((p[1] * _dot(mid, gs) + _dot(_mv(sigma, p), gs) / s - wT * cross / s)
               / pe - p[1] * q1[1])
        a0 = _a0_plus(n, a, b, s, pr_u, pr_d, X, Y, rp, rm, wT * p1[2] * q[1])
        d0 = _d0_minus(n, a, b, s, er_u, er_d, X, Y, rp, rm, wT * p1[1] * q[2])
        out_s = (*_spectral(a0, hd, d, p, wT * k00, p1, s),
                 *_corner(h, d, cbb, q, ws * k00, q1),
                 *_corner(h, d, cb, p1, ws * k11, p),
                 *_spectral(d0, hd, d, q1, wT * k11, q, s),
                 *_corner(h, d, cb, piv, -ws / etn * br.brx_q1, p),
                 *_corner(h, d, cbb, etav, -ws / pin * br.bry_p, q1),
                 ws * (-rp * p[0] * q1[1] + rm * p[1] * q1[2]),
                 ws * (-rp * p[1] * q1[0] + rm * p[2] * q1[1]),
                 h * sv[0] * d[0], h * sv[1] * d[1], h * sv[2] * d[2],
                 -ws * k01)
        out = [ds * v for v in out_s]
    if dt:
        h, hd = 0.5 * wt, 0.5 * wT
        d = (p1[0] * q[0], p1[1] * q[1], p1[2] * q[2])
        cc, ccb = p1[2] * q[1], p1[1] * q[2]  # corners of C_inf0, C_inf0b
        k10 = ((p1[1] * _dot(mid, gt) - _dot(_mv(sigma, p1), gt) / t - wS * cross / t)
               / pe - p1[1] * q[1])
        d0 = _d0_plus(n, a, b, t, er_u, er_d, X, Y, rp, rm, wS * p[1] * q1[2])
        a0 = _a0_minus(n, a, b, t, pr_u, pr_d, X, Y, rp, rm, wS * p[2] * q1[1])
        out_t = (*_corner(h, d, cc, p, wt * k00, p1),
                 *_spectral(d0, hd, d, q, wS * k00, q1, t),
                 *_spectral(a0, hd, d, p1, wS * k11, p, t),
                 *_corner(h, d, ccb, q1, wt * k11, q),
                 *_corner(h, d, cc, piv, -wt / etn * br.brx_q, p1),
                 *_corner(h, d, ccb, etav, -wt / pin * br.bry_p1, q),
                 wt * (-rp * p1[0] * q[1] + rm * p1[1] * q[2]),
                 wt * (-rp * p1[1] * q[0] + rm * p1[2] * q[1]),
                 h * sv[0] * d[0], h * sv[1] * d[1], h * sv[2] * d[2],
                 -wt * k10)
        out = [o + dt * v for o, v in zip(out, out_t)]
    return out


def _state_args(fs: FlowState) -> tuple:
    """The state's leading arguments of ``rhs_total`` and ``residuals``."""
    eb = fs.bundle
    return fs.vector().tolist(), eb.n, eb.a, eb.b, eb.xi, eb.psi, eb.s, eb.t


def rhs_total_s(fs: FlowState) -> np.ndarray:
    """d/ds of the 24-component state vector along the s-flow: ``rhs_total``
    in the direction (1, 0).  Raises DomainError at an infinite s."""
    return np.array(rhs_total(*_state_args(fs), 1.0, 0.0))


def rhs_total_t(fs: FlowState) -> np.ndarray:
    """d/dt of the 24-component state vector along the t-flow: ``rhs_total``
    in the direction (0, 1).  Raises DomainError at an infinite t."""
    return np.array(rhs_total(*_state_args(fs), 0.0, 1.0))


def _kernels_from_state(eb: EvalBundle, lb) -> dict:
    """The coupling kernels from the G-matrix bilinears and the Lax bundle's
    anti-incidence limit formulas, for the identity checks."""
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


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------

def _scale(*terms) -> float:
    """The largest |term|, at least 1: a residual's normalizer."""
    return max(*map(abs, terms), 1.0)


def residuals(y, n, a, b, xi, psi, s, t) -> list:
    """The eight constraint residuals of the 24-component state vector y at
    (s, t) in plain floats, each normalized by its largest term (at least 1),
    from the weights, brackets and G-matrix products ``rhs_total`` reads.  An
    infinite cutoff zeroes that side's boundary values, brackets and bilinear
    residual.  A NaN in y gives a NaN residual."""
    p, q, p1, q1 = y[0:3], y[3:6], y[6:9], y[9:12]
    piv, etav, X, Y, sv = y[12:15], y[15:18], y[18], y[19], y[20:23]
    _, _, wS, wT = cutoff_weights(s, t, a, b, xi, psi)
    br = bracket_terms(sv, p, q, p1, q1, X, Y, s, t)
    rp, rm = br.rp, br.rm
    pe = piv[1] * etav[1]
    # (2) pi_n eta_n = 2n+a+b+1 + deformation terms, (3) and (4) the X and Y
    # evaluations, (5) X against the eta ratios, (6) Y against the pi ratios
    t2 = (pe, 2 * n + a + b + 1.0, wS * p[1] * q1[1], wT * p1[1] * q[1])
    t3 = (X, rp * piv[0] * etav[1], rm * piv[1] * etav[2], wS * rp * p[0] * q1[1],
          wS * rm * p[1] * q1[2], wT * rp * p1[0] * q[1], wT * rm * p1[1] * q[2])
    t4 = (Y, rp * piv[1] * etav[0], rm * piv[2] * etav[1], wS * rp * p[1] * q1[0],
          wS * rm * p[2] * q1[1], wT * rp * p1[1] * q[0], wT * rm * p1[2] * q[1])
    t5 = (X, n + a, rp * etav[0] / etav[1], rm * etav[2] / etav[1],
          wS / pe * q1[1] * br.bry_p, wT / pe * q[1] * br.bry_p1)
    t6 = (Y, n + b, rp * piv[0] / piv[1], rm * piv[2] / piv[1],
          wS / pe * p[1] * br.brx_q1, wT / pe * p1[1] * br.brx_q)
    out = [(X + Y - pe) / _scale(X, Y, pe),  # (1) X + Y = pi_n eta_n
           (pe - t2[1] - t2[2] - t2[3]) / _scale(*t2),
           (X - (t3[1] - t3[2] - (t3[3] - t3[4]) - (t3[5] - t3[6]))) / _scale(*t3),
           (Y - (t4[1] - t4[2] - (t4[3] - t4[4]) - (t4[5] - t4[6]))) / _scale(*t4),
           (X - t5[1] - t5[2] + t5[3] + t5[4] + t5[5]) / _scale(*t5),
           (Y - t6[1] - t6[2] + t6[3] + t6[4] + t6[5]) / _scale(*t6), 0.0, 0.0]
    # (7) and (8): bilinear orthogonality at anti-incidence
    if s != INF:
        g = _gvec(rp, rm, X, Y, s, -s, q1)
        out[6] = _dot(p, g) / _scale(max(map(abs, p)) * max(map(abs, g)))
    if t != INF:
        g = _gvec(rp, rm, X, Y, -t, t, q)
        out[7] = _dot(p1, g) / _scale(max(map(abs, p1)) * max(map(abs, g)))
    return out


def constraint_residuals(fs: FlowState) -> np.ndarray:
    """``residuals`` of the state, as an array."""
    return np.array(residuals(*_state_args(fs)))


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


def rhs_decomposition_residual(fs: FlowState) -> float:
    """Total = partial + spectral-chain consistency of the flow right-hand
    sides, checked componentwise on the boundary triples."""
    eb = fs.bundle
    lb = lax.build_lax(eb)
    qb = lax.q_side_lax(eb)
    kv = _kernels_from_state(eb, lb)
    s, t, a, b = eb.s, eb.t, eb.a, eb.b
    ws, wt, _, _ = deformation_weights(eb)
    tot_s = rhs_total_s(fs)
    tot_t = rhs_total_t(fs)
    worst = 0.0
    # (total, coefficient matrix, weight times kernel limit, triple, chain
    # term): total = partial + chain, where partial = (B + w k I) v
    for got, mat, wk, v, chain in (
            # s-flow, P(s): the chain term is d/dx
            (tot_s[0:3], lb.B_inf0, ws * kv["k01_n"], eb.p, lax.deriv_at_s(lb, s, t) @ eb.p),
            # s-flow, Q1(-s): -d/dy with the e^y y^-b gauge stripped
            (tot_s[9:12], lb.B_inf0b, ws * kv["k01_n"], eb.q1,
             (1.0 + b / s) * eb.q1 - lax.deriv_at_mt(qb, t, s) @ eb.q1),
            # t-flow, Q(t): d/dy
            (tot_t[3:6], lb.C_inf0b, wt * kv["k10_n"], eb.q, lax.deriv_at_s(qb, t, s) @ eb.q),
            # t-flow, P1(-t): -d/dx with the e^x x^-a gauge stripped
            (tot_t[6:9], lb.C_inf0, wt * kv["k10_n"], eb.p1,
             (1.0 + a / t) * eb.p1 - lax.deriv_at_mt(lb, s, t) @ eb.p1)):
        partial = (mat + wk * np.eye(3)) @ v
        worst = max(worst, np.abs(got - partial - chain).max() / max(np.abs(got).max(), 1.0))
    return float(worst)


# ---------------------------------------------------------------------------
# adaptive integration
# ---------------------------------------------------------------------------

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
# stage rows a_i; the last row is the fifth-order weights, so stage 7 is
# evaluated at y5 and serves as the next step's stage 1
_DP_A = [
    None,
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
# fifth- minus fourth-order weights over the seven stages: y5 - y4 = h E K
_DP_E = (np.append(_DP_A[6], 0.0)
         - np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                     -92097 / 339200, 187 / 2100, 1 / 40]))
_MAX_STEPS = 100000  # step attempts per path segment


def integrate(fs0: FlowState, path, tol: float = 1e-8):
    """Integrate the flow along a piecewise-linear (s,t) path with the
    embedded Dormand-Prince 4/5 pair, first-same-as-last.

    Along a segment the derivative is ``rhs_total`` in the segment's
    direction.  An attempt evaluates it six times: stage 7 is taken at the
    fifth-order solution y5 and, once the step is accepted, reused as the
    next step's stage 1; a rejected attempt keeps its stage 1.  Stage 1 is
    evaluated afresh at the start of each segment.

    The step error is max_i |y5_i - y4_i| / max(|y_i|, |y5_i|), a component
    that is zero at both ends counting zero, except for log Z, whose error
    is absolute: its absolute error is the relative error of Z.  A step is
    accepted when that is at most tol.  Then ``residuals`` evaluates the
    eight constraints on y5 as plain floats; a step whose worst residual
    exceeds 100*tol is rejected and halved.  An attempt works on vectors
    only: a FlowState is built for each accepted step, none for a rejected
    one.  Below the floor step (1e-12 of the segment) the flow aborts with
    the offending constraint, and after 100,000 step attempts on one
    segment it aborts too.  A NaN error estimate or residual fails its guard
    like an oversized one.  A segment that is not finite, such as one along
    an infinite cutoff, raises DomainError.
    """
    init_res = np.abs(constraint_residuals(fs0)).max()
    if not init_res <= 1e-8:
        raise FlowAbort(f"initial state violates constraints ({init_res:.2e})")
    traj = [fs0]
    pts = [(float(s), float(t)) for s, t in path]
    template = fs0.bundle
    n, a, b = template.n, float(template.a), float(template.b)
    xi, psi = float(template.xi), float(template.psi)
    stages = np.empty((7, 24))
    y = fs0.vector()
    for (s0, t0), (s1, t1) in zip(pts, pts[1:]):
        ds, dt = s1 - s0, t1 - t0
        seg_len = math.hypot(ds, dt)
        if seg_len == 0:
            continue
        if not math.isfinite(seg_len):
            raise DomainError(f"path segment ({s0}, {t0}) -> ({s1}, {t1}) is not finite")
        floor = 1e-12 * seg_len

        def f(u, y):
            return rhs_total(y.tolist(), n, a, b, xi, psi, s0 + u * ds, t0 + u * dt, ds, dt)

        u = 0.0
        h = 0.1
        steps = 0
        k1 = None
        while u < 1.0 - 1e-14:
            if k1 is None:
                k1 = f(u, y)
            if steps >= _MAX_STEPS:
                raise FlowAbort("step budget exhausted")
            h = min(h, 1.0 - u)
            stages[0] = k1
            for i in range(1, 6):
                stages[i] = f(u + _DP_C[i] * h, y + h * (_DP_A[i] @ stages[:i]))
            y5 = y + h * (_DP_A[6] @ stages[:6])
            k7 = f(u + h, y5)
            stages[6] = k7
            # a component zero at both ends counts zero; log Z is absolute
            scale = np.maximum(np.abs(y), np.abs(y5))
            scale[scale == 0.0] = np.inf
            scale[-1] = 1.0
            err = np.max(np.abs(h * (_DP_E @ stages)) / scale)
            if not err <= tol:
                h = max(0.5 * h, floor)
                if h <= floor:
                    raise FlowAbort(f"step size underflow (err {err:.2e})")
                steps += 1
                continue
            s, t = s0 + (u + h) * ds, t0 + (u + h) * dt
            res = np.abs(residuals(y5.tolist(), n, a, b, xi, psi, s, t))
            if not res.max() <= 100 * tol:
                h = 0.5 * h
                if h <= floor:
                    raise FlowAbort(
                        f"constraint {int(res.argmax())} drifted to {res.max():.2e}")
                steps += 1
                continue
            u += h
            y = y5
            traj.append(FlowState.from_vector(y5, template, s, t))
            steps += 1
            k1 = k7
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
    n, a, b, s, t, X, Y = eb.n, eb.a, eb.b, eb.s, eb.t, eb.X, eb.Y
    h = 1e-4
    _, _, wS, wT = deformation_weights(eb)
    pe = eb.piv[1] * eb.etav[1]
    br = brackets(eb)
    pr_u, pr_d = eb.piv[0] / eb.piv[1], eb.piv[2] / eb.piv[1]
    er_u, er_d = eb.etav[0] / eb.etav[1], eb.etav[2] / eb.etav[1]

    def g_of(ss, tt, x, y):
        st = build_state(p, DeformPoint(ss, tt), n)
        return kernels.gmatrix(st, x, y)

    # s-version at (s, -s)
    fd = (g_of(s + h, t, s + h, -(s + h)) - g_of(s - h, t, s - h, -(s - h))) / (2 * h) * s
    tot_s = rhs_total_s(fs)
    dlog_pe = s * (tot_s[18] + tot_s[19]) / pe
    adiag = 0.5 * wS * np.diag([eb.p[0] * eb.q1[0], -eb.p[1] * eb.q1[1],
                                -eb.p[2] * eb.q1[2]])
    a_plus = np.array(_a0_plus(n, a, b, s, pr_u, pr_d, X, Y, br.rp, br.rm,
                               wT * eb.p1[2] * eb.q[1])) + adiag
    d_minus = np.array(_d0_minus(n, a, b, s, er_u, er_d, X, Y, br.rp, br.rm,
                                 wT * eb.p1[1] * eb.q[2])) + adiag
    g_ss = kernels.gmatrix(eb, s, -s)
    rhs = ((s - a) * g_ss + dlog_pe * g_ss
           - a_plus.T @ g_ss - g_ss @ d_minus
           - wT / (pe * (s + t)) * np.outer(g_ss @ eb.q,
                                            kernels.gmatrix(eb, -t, -s).T @ eb.p1)
           + wT / (pe * (s + t)) * np.outer(kernels.gmatrix(eb, s, t) @ eb.q,
                                            g_ss.T @ eb.p1))
    res_s = np.abs(fd - rhs).max() / max(np.abs(rhs).max(), 1.0)
    # t-version at (-t, t)
    fd = (g_of(s, t + h, -(t + h), t + h) - g_of(s, t - h, -(t - h), t - h)) / (2 * h) * t
    tot_t = rhs_total_t(fs)
    dlog_pe = t * (tot_t[18] + tot_t[19]) / pe
    ddiag = 0.5 * wT * np.diag([eb.p1[0] * eb.q[0], -eb.p1[1] * eb.q[1],
                                -eb.p1[2] * eb.q[2]])
    a_minus = np.array(_a0_minus(n, a, b, t, pr_u, pr_d, X, Y, br.rp, br.rm,
                                 wS * eb.p[2] * eb.q1[1])) + ddiag
    d_plus = np.array(_d0_plus(n, a, b, t, er_u, er_d, X, Y, br.rp, br.rm,
                               wS * eb.p[1] * eb.q1[2])) + ddiag
    g_tt = kernels.gmatrix(eb, -t, t)
    rhs = ((t - b) * g_tt + dlog_pe * g_tt
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
