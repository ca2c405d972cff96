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
it.  ``from_moments`` reads the start off the hi-fi Gram, its Stieltjes seeds
included (``bops.eval_bundle``), so the start meets the constraints to
rounding.  ``integrate`` runs the first-same-as-last Dormand-Prince 8(5,3)
pair (DOP853) with a per-component relative error (absolute in log Z) on
vectors, and builds a FlowState only for an accepted step.  Constraints are
monitored, not projected: they are conserved by the exact dynamics, so their
drift is a discretization diagnostic, carried on each state as the evidence
behind ``z_cl2m_flow``'s est_error.
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
    """Evaluation bundle plus log Z at one point of a deformation path, and
    ``drift``: the worst constraint residual of ``integrate``'s path up to
    it, its start included (0 for a state not reached by ``integrate``)."""

    bundle: EvalBundle
    logZ: float
    drift: float = 0.0

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
    def from_vector(v: np.ndarray, template: EvalBundle, s: float, t: float,
                    drift: float) -> "FlowState":
        eb = EvalBundle(template.n, s, t, template.a, template.b,
                        template.xi, template.psi,
                        v[0:3].copy(), v[3:6].copy(), v[6:9].copy(), v[9:12].copy(),
                        v[12:15].copy(), v[15:18].copy(), float(v[18]), float(v[19]),
                        v[20:23].copy())
        return FlowState(eb, float(v[23]), drift)


VAR_NAMES = (["P_np1_s", "P_n_s", "P_nm1_s",
              "Q_np1_t", "Q_n_t", "Q_nm1_t",
              "P1_np1_mt", "P1_n_mt", "P1_nm1_mt",
              "Q1_np1_ms", "Q1_n_ms", "Q1_nm1_ms",
              "pi_np1", "pi_n", "pi_nm1",
              "eta_np1", "eta_n", "eta_nm1",
              "X_nn", "Y_nn", "S_np1", "S_n", "S_nm1", "logZ"])


def from_moments(p: ModelParams, d: DeformPoint, n: int) -> FlowState:
    """Initial state from the moment route; log Z_n = log(h_0 ... h_{n-1})
    comes from the factorization that gives the state's norms, and every
    value from the one hi-fi Gram (``bops._gram``).  The flow carries a real
    log Z, so it needs real xi and psi."""
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

# Dormand-Prince 8(5,3), the DOP853 tableau of Hairer, Norsett & Wanner,
# Solving ODEs I, sec. II.10, without its dense-output stages: nodes c_i,
# stage rows a_i (row i has i entries) and eighth-order weights b.  The
# solution's derivative serves as the next step's stage 1
_C = (0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
      0.118350341907227396726757197510, 0.281649658092772603273242802490,
      0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
      0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0)
_A = [np.array(row) for row in (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1))]
_B = np.array((5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
               4.45031289275240888144113950566, 1.89151789931450038304281599044,
               -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
               -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
               4.47106157277725905176885569043e-2))
# the fifth-order (E5) and third-order (E3) error weights over the 12 stages
_E5 = np.array((0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
                -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
                0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
                0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
                -0.2235530786388629525884427845e-1))
_E3 = _B - np.array((0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                     0.0, 0.733846688281611857341361741547, 0.0, 0.0,
                     0.220588235294117647058823529412e-1))
_MAX_STEPS = 100000  # step attempts per path segment
_DRIFT_GUARD = 1e-6  # worst constraint residual an accepted step may have


def _step_factor(err: float, tol: float) -> float:
    """The next step over this one: 0.9 (tol/err)^(1/8) within [0.2, 10],
    10 at a zero error and 0.2 at a NaN one."""
    if err == 0:
        return 10.0
    fac = 0.9 * (tol / err) ** 0.125
    return min(fac, 10.0) if fac >= 0.2 else 0.2


def integrate(fs0: FlowState, path, tol: float = 1e-8):
    """Integrate the flow along a piecewise-linear (s,t) path with the
    Dormand-Prince 8(5,3) pair (DOP853), first-same-as-last.

    Along a segment the derivative is ``rhs_total`` in the segment's
    direction.  An attempt evaluates it twelve times: eleven stages and the
    derivative at the eighth-order solution y8, which, once the step is
    accepted, is the next step's stage 1; a rejected attempt keeps its
    stage 1.  Stage 1 is evaluated afresh at the start of each segment.

    The step error is Hairer's combination e5^2 / sqrt(e5^2 + 0.01 e3^2) of
    the fifth- and third-order estimates, each the max over components of
    |h E K_i| / max(|y_i|, |y8_i|), a component that is zero at both ends
    counting zero, except for log Z, whose error is absolute: its absolute
    error is the relative error of Z.  A step is accepted when that is at
    most tol, and the next step is ``_step_factor`` times this one.  Then
    ``residuals`` evaluates the eight constraints on y8 as plain floats; a
    step whose worst residual exceeds 1e-6 is rejected and halved: the
    constraints are conserved by the exact flow, so their drift is global
    discretization error.  An attempt works on vectors only: a FlowState is
    built for each accepted step, none for a rejected one, and carries the
    worst residual along the path so far, the start's included, as
    ``drift``.  Below the floor step (1e-12 of the segment) the flow aborts
    with the offending constraint, and after 100,000 step attempts on one
    segment it aborts too.  A NaN error estimate or residual fails its guard
    like an oversized one.  A segment that is not finite, such as one along
    an infinite cutoff, raises DomainError.
    """
    init_res = np.abs(constraint_residuals(fs0)).max()
    if not init_res <= 1e-8:
        raise FlowAbort(f"initial state violates constraints ({init_res:.2e})")
    drift = max(init_res, fs0.drift)
    traj = [fs0]
    pts = [(float(s), float(t)) for s, t in path]
    template = fs0.bundle
    n, a, b = template.n, float(template.a), float(template.b)
    xi, psi = float(template.xi), float(template.psi)
    stages = np.empty((12, 24))
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
            steps += 1
            h = min(h, 1.0 - u)
            stages[0] = k1
            for i in range(1, 12):
                stages[i] = f(u + _C[i] * h, y + h * (_A[i] @ stages[:i]))
            y8 = y + h * (_B @ stages)
            k13 = f(u + h, y8)
            # a component zero at both ends counts zero; log Z is absolute
            scale = np.maximum(np.abs(y), np.abs(y8))
            scale[scale == 0.0] = np.inf
            scale[-1] = 1.0
            e5 = h * np.max(np.abs(_E5 @ stages) / scale)
            e3 = h * np.max(np.abs(_E3 @ stages) / scale)
            err = e5 * e5 / math.sqrt(e5 * e5 + 0.01 * e3 * e3) if e5 or e3 else 0.0
            fac = _step_factor(err, tol)
            if not err <= tol:
                h = max(fac * h, floor)
                if h <= floor:
                    raise FlowAbort(f"step size underflow (err {err:.2e})")
                continue
            s, t = s0 + (u + h) * ds, t0 + (u + h) * dt
            res = np.abs(residuals(y8.tolist(), n, a, b, xi, psi, s, t))
            if not res.max() <= _DRIFT_GUARD:
                h = 0.5 * h
                if h <= floor:
                    raise FlowAbort(
                        f"constraint {int(res.argmax())} drifted to {res.max():.2e}")
                continue
            u += h
            y = y8
            drift = max(drift, res.max())
            traj.append(FlowState.from_vector(y8, template, s, t, drift))
            k1 = k13
            h = fac * h
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
