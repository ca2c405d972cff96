"""Spectral polynomials, residue matrices of the (x; s, t) Lax triple, and
their invariant / compatibility checks.

Everything is assembled from the 23-variable evaluation bundle; the Q-side
spectral data is produced by the species exchange (x<->y, s<->t, a<->b,
xi<->psi, P<->Q) through the same code path.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bops import (BopsState, EvalBundle, brackets, build_state, deformation_weights,
                   eval_bundle)
from .kernels import gmatrix
from .params import DomainError, GenericityError


@dataclass
class LaxBundle:
    """Residue matrices at one (n, s, t); A_0 = A_sigma - A_s - A_mt.

    B_inf0, B_inf0b, C_inf0 and C_inf0b are the diagonal-plus-corner parts of
    B_inf and C_inf, which ``flow.rhs_decomposition_residual`` reads.
    """

    n: int
    A_inf: np.ndarray
    A_s: np.ndarray
    A_mt: np.ndarray
    A_sigma: np.ndarray
    A_0: np.ndarray
    B_s: np.ndarray
    B_inf: np.ndarray
    C_mt: np.ndarray
    C_inf: np.ndarray
    B_inf0: np.ndarray
    B_inf0b: np.ndarray
    C_inf0: np.ndarray
    C_inf0b: np.ndarray


def _as_bundle(state_or_eb) -> EvalBundle:
    if isinstance(state_or_eb, BopsState):
        return eval_bundle(state_or_eb)
    return state_or_eb


def build_lax(state_or_eb) -> LaxBundle:
    """Assemble all residue matrices of the spectral and deformation equations."""
    eb = _as_bundle(state_or_eb)
    if eb.n < 1:
        raise DomainError("residue matrices need n >= 1")
    n, s, t, a, b = eb.n, eb.s, eb.t, eb.a, eb.b
    piv, etav = eb.piv, eb.etav
    pe = piv[1] * etav[1]
    if pe == 0:
        raise GenericityError("pi_n eta_n vanished", index=n)
    ws, wt, wS, wT = deformation_weights(eb)
    A_inf = np.array([[0.0, piv[0] / piv[1], 0.0],
                      [0.0, 1.0, 0.0],
                      [0.0, piv[2] / piv[1], 0.0]])
    A_s = (-ws / pe * np.outer(eb.p, gmatrix(eb, s, -s) @ eb.q1)
           if ws != 0.0 else np.zeros((3, 3)))
    A_mt = (wt / pe * np.outer(eb.p1, gmatrix(eb, -t, t) @ eb.q)
            if wt != 0.0 else np.zeros((3, 3)))
    br = brackets(eb)
    rp, rm = br.rp, br.rm
    a10 = (piv[0] / piv[1] * eb.Y
           + wS / pe * eb.p[0] * br.brx_q1
           + wT / pe * eb.p1[0] * br.brx_q)
    am10 = (-piv[2] / piv[1] * eb.X
            + wS / pe * eb.p[2] * br.bry_q1
            + wT / pe * eb.p1[2] * br.bry_q)
    A_sigma = np.array([
        [n + 1.0 - rp * piv[0] / piv[1], a10, rm * piv[0] / piv[1]],
        [-rp, -a - 1.0 + rp * piv[0] / piv[1] - rm * piv[2] / piv[1], rm],
        [-rp * piv[2] / piv[1], am10, -n - a - b + rm * piv[2] / piv[1]],
    ])
    A_0 = A_sigma - A_s - A_mt
    psv, p1v, q1v, qtv = eb.p, eb.p1, eb.q1, eb.q
    B_inf0 = 0.5 * ws * np.array([
        [psv[0] * q1v[0], 0.0, 0.0],
        [0.0, -psv[1] * q1v[1], 0.0],
        [0.0, -2.0 * psv[2] * q1v[1], -psv[2] * q1v[2]],
    ])
    B_inf0b = 0.5 * ws * np.array([
        [psv[0] * q1v[0], 0.0, 0.0],
        [0.0, -psv[1] * q1v[1], 0.0],
        [0.0, -2.0 * psv[1] * q1v[2], -psv[2] * q1v[2]],
    ])
    C_inf0 = 0.5 * wt * np.array([
        [p1v[0] * qtv[0], 0.0, 0.0],
        [0.0, -p1v[1] * qtv[1], 0.0],
        [0.0, -2.0 * p1v[2] * qtv[1], -p1v[2] * qtv[2]],
    ])
    C_inf0b = 0.5 * wt * np.array([
        [p1v[0] * qtv[0], 0.0, 0.0],
        [0.0, -p1v[1] * qtv[1], 0.0],
        [0.0, -2.0 * p1v[1] * qtv[2], -p1v[2] * qtv[2]],
    ])
    col = np.zeros((3, 3))
    col[:, 1] = psv
    B_inf = B_inf0 - ws / pe * br.brx_q1 * col
    col1 = np.zeros((3, 3))
    col1[:, 1] = p1v
    C_inf = C_inf0 - wt / pe * br.brx_q * col1
    return LaxBundle(n, A_inf, A_s, A_mt, A_sigma, A_0, -A_s, B_inf, A_mt.copy(), C_inf,
                     B_inf0, B_inf0b, C_inf0, C_inf0b)


def q_side_lax(state_or_eb) -> LaxBundle:
    """Residue matrices D of the Q-system via the species exchange."""
    eb = _as_bundle(state_or_eb)
    swapped = EvalBundle(eb.n, eb.t, eb.s, eb.b, eb.a, eb.psi, eb.xi,
                         eb.q.copy(), eb.p.copy(), eb.q1.copy(), eb.p1.copy(),
                         eb.etav.copy(), eb.piv.copy(), eb.Y, eb.X, eb.sv.copy())
    return build_lax(swapped)


def rational_a(bundle: LaxBundle, x, s, t) -> np.ndarray:
    """The rational spectral matrix A_n(x) with poles at 0, s, -t."""
    return (bundle.A_0 / x + bundle.A_s / (x - s) + bundle.A_mt / (x + t)
            + bundle.A_inf)


def lambda2(m: np.ndarray) -> float:
    """Second invariant: sum of principal 2x2 minors."""
    tr = np.trace(m)
    return 0.5 * (tr * tr - np.trace(m @ m))


def spectral_polys(state_or_eb, x):
    """(Theta+, Theta-, Omega) of the polynomial spectral derivative
    x(x-s)(x+t) dP_n/dx = Theta+ P_{n+1} + Omega P_n + Theta- P_{n-1}."""
    eb = _as_bundle(state_or_eb)
    s, t = eb.s, eb.t
    pe = eb.piv[1] * eb.etav[1]
    br = brackets(eb)
    rp, rm = br.rp, br.rm
    _, _, wS, wT = deformation_weights(eb)
    cs = wS * eb.p[1]
    ct = wT * eb.p1[1]
    q1, qt = eb.q1, eb.q
    X, Y = eb.X, eb.Y
    thp = rp * (-(x - s) * (x + t) - cs * (x + t) / pe * br.bry_q1
                - ct * (x - s) / pe * br.bry_q)
    thm = rm * ((x - s) * (x + t) + cs * (x + t) / pe * br.brx_q1
                + ct * (x - s) / pe * br.brx_q)
    om = ((x - s) * (x + t) * (x + Y - eb.n - eb.a - eb.b - 1.0)
          - cs * (x + t) / pe * (rp * (X - x) * q1[0] + (Y + x) * (X - s) * q1[1]
                                 + rm * (Y + x) * q1[2])
          - ct * (x - s) / pe * (rp * (X - x) * qt[0] + (Y + x) * (X + t) * qt[1]
                                 + rm * (Y + x) * qt[2]))
    return thp, thm, om


def deriv_at_s(bundle: LaxBundle, s, t) -> np.ndarray:
    """Coefficient matrix of d/dx at the singular point x = s:
    [1 + A^(s)] (A^inf + A^0/s + A^(-t)/(s+t))."""
    core = bundle.A_inf + bundle.A_0 / s + bundle.A_mt / (s + t)
    return (np.eye(3) + bundle.A_s) @ core


def deriv_at_mt(bundle: LaxBundle, s, t) -> np.ndarray:
    """Coefficient matrix of d/dx at the singular point x = -t."""
    core = bundle.A_inf - bundle.A_0 / t - bundle.A_s / (s + t)
    return (np.eye(3) + bundle.A_mt) @ core


def residue_invariants(bundle: LaxBundle, a: float, b: float) -> dict:
    """Trace / second-invariant / determinant residuals of the residue matrices,
    each scaled by the matching power of the matrix magnitude."""
    def sc(m, power):
        return max(np.abs(m).max(), 1.0) ** power

    out = {
        "tr_A0": (np.trace(bundle.A_0) - (-2 * a - b)) / sc(bundle.A_0, 1),
        "tr_As": np.trace(bundle.A_s) / sc(bundle.A_s, 1),
        "tr_Amt": np.trace(bundle.A_mt) / sc(bundle.A_mt, 1),
        "tr_Ainf": np.trace(bundle.A_inf) - 1.0,
        "lam2_A0": (lambda2(bundle.A_0) - a * (a + b)) / sc(bundle.A_0, 2),
        "lam2_As": lambda2(bundle.A_s) / sc(bundle.A_s, 2),
        "lam2_Amt": lambda2(bundle.A_mt) / sc(bundle.A_mt, 2),
        "lam2_Ainf": lambda2(bundle.A_inf),
        "det_A0": np.linalg.det(bundle.A_0) / sc(bundle.A_0, 3),
        "det_As": np.linalg.det(bundle.A_s) / sc(bundle.A_s, 3),
        "det_Amt": np.linalg.det(bundle.A_mt) / sc(bundle.A_mt, 3),
        "det_Ainf": np.linalg.det(bundle.A_inf),
        "tr_Ainf_Asigma": (np.trace(bundle.A_inf @ bundle.A_sigma) + a + 1.0)
                          / sc(bundle.A_sigma, 1),
    }
    return out


def pairwise_trace_residuals(state_or_eb, bundle: LaxBundle | None = None) -> dict:
    """Direct matrix-product traces against their displayed closed forms."""
    eb = _as_bundle(state_or_eb)
    if bundle is None:
        bundle = build_lax(eb)
    s, t = eb.s, eb.t
    pe = eb.piv[1] * eb.etav[1]
    ws, wt, _, _ = deformation_weights(eb)
    g_s = gmatrix(eb, s, -s)
    g_t = gmatrix(eb, -t, t)
    out = {}
    want = -ws * eb.p[1] / (eb.piv[1] * pe) * (eb.piv @ g_s @ eb.q1)
    out["Ainf_As"] = np.trace(bundle.A_inf @ bundle.A_s) - want
    want = wt * eb.p1[1] / (eb.piv[1] * pe) * (eb.piv @ g_t @ eb.q)
    out["Ainf_Amt"] = np.trace(bundle.A_inf @ bundle.A_mt) - want
    want = -ws * wt / pe ** 2 * (eb.p1 @ g_s @ eb.q1) * (eb.p @ g_t @ eb.q)
    out["As_Amt"] = np.trace(bundle.A_s @ bundle.A_mt) - want
    want = -ws / pe * (eb.p @ bundle.A_sigma.T @ g_s @ eb.q1)
    out["Asigma_As"] = np.trace(bundle.A_sigma @ bundle.A_s) - want
    want = wt / pe * (eb.p1 @ bundle.A_sigma.T @ g_t @ eb.q)
    out["Asigma_Amt"] = np.trace(bundle.A_sigma @ bundle.A_mt) - want
    return out


def d_from_a_check(x, state: BopsState) -> float:
    """Residual of the exchange identity tying the Q-side spectral matrix
    D_n(-x) to the G-conjugated A_n(x) plus trace and constant corrections."""
    eb = _as_bundle(state)
    bundle = build_lax(eb)
    qb = q_side_lax(eb)
    s, t, a, b = eb.s, eb.t, eb.a, eb.b
    n = eb.n
    ax = rational_a(bundle, x, s, t)
    dx = rational_a(qb, -x, t, s)   # D_n at argument -x (poles at 0, t, -s)
    g = gmatrix(eb, x, -x)
    tr_d = 1.0 + (a + 2.0 * b) / x
    tr_a = 1.0 - (2.0 * a + b) / x
    pe = eb.piv[1] * eb.etav[1]
    rp = eb.sv[0] / eb.sv[1]
    corr = np.array([
        [-1.0, rp * (eb.X - x), eb.sv[0] * eb.sv[2] / eb.sv[1] ** 2],
        [0.0, 0.0, 0.0],
        [-eb.sv[1] ** 2 / (eb.sv[0] * eb.sv[2]), -eb.sv[1] / eb.sv[2] * (eb.Y + x), 1.0],
    ])
    rhs = (np.linalg.solve(g, ax.T @ g)
           + (tr_d - tr_a) / 3.0 * np.eye(3)
           + corr / pe)
    scale = max(np.abs(dx).max(), np.abs(rhs).max(), 1.0)
    return float(np.abs(dx - rhs).max() / scale)


def spectral_ode_residual(state: BopsState, x) -> float:
    """x(x-s)(x+t) dP/dx vs the spectral polynomials, by central differences
    of step 1e-6."""
    eb = _as_bundle(state)
    h = 1e-6
    thp, thm, om = spectral_polys(eb, x)
    polys = [state.p_polys[2], state.p_polys[1], state.p_polys[0]]
    dpn = (polys[1](x + h) - polys[1](x - h)) / (2 * h)
    lhs = x * (x - eb.s) * (x + eb.t) * dpn
    rhs = thp * polys[0](x) + om * polys[1](x) + thm * (polys[2](x) if polys[2] else 0.0)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def schlesinger_residuals(p, d, n: int) -> dict:
    """Finite-difference vs commutator residuals of every displayed
    compatibility equation; Richardson-refined central differences.

    The relative step 1e-3 balances the h^2 truncation against the
    quadrature-level noise of rebuilt bundles (which grows like 1/h below
    ~1e-3).
    """
    from .params import DeformPoint

    s, t = d.s, d.t
    h = 1e-3 * max(1.0, abs(s))
    ht = 1e-3 * max(1.0, abs(t))

    def bb(ss, tt):
        return build_lax(eval_bundle(build_state(p, DeformPoint(ss, tt), n)))

    b0 = bb(s, t)

    def dmat(attr, which, step):
        if which == "s":
            b_pp, b_mm = bb(s + step, t), bb(s - step, t)
            b_p2, b_m2 = bb(s + 2 * step, t), bb(s - 2 * step, t)
        else:
            b_pp, b_mm = bb(s, t + step), bb(s, t - step)
            b_p2, b_m2 = bb(s, t + 2 * step), bb(s, t - 2 * step)
        d1 = (getattr(b_pp, attr) - getattr(b_mm, attr)) / (2 * step)
        d2 = (getattr(b_p2, attr) - getattr(b_m2, attr)) / (4 * step)
        return (4.0 * d1 - d2) / 3.0

    def com(xm, ym):
        return xm @ ym - ym @ xm

    st_sum = s + t
    checks = {}
    checks["AB_comp"] = b0.A_s + b0.B_s - com(b0.B_s, b0.A_s)
    checks["AC_comp"] = -b0.A_mt + b0.C_mt - com(b0.C_mt, b0.A_mt)
    checks["AB_comp_0s"] = (dmat("A_0", "s", h)
                            - com(b0.B_inf, b0.A_0) + com(b0.B_s, b0.A_0) / s)
    checks["AB_comp_ss"] = (dmat("A_s", "s", h)
                            - com(b0.B_inf, b0.A_s) - com(b0.B_s, b0.A_inf)
                            - com(b0.B_s, b0.A_0) / s - com(b0.B_s, b0.A_mt) / st_sum)
    checks["AB_comp_-ts"] = (dmat("A_mt", "s", h)
                             - com(b0.B_inf, b0.A_mt) + com(b0.B_s, b0.A_mt) / st_sum)
    checks["AB_comp_inftys"] = dmat("A_inf", "s", h) - com(b0.B_inf, b0.A_inf)
    checks["AC_comp_0t"] = (dmat("A_0", "t", ht)
                            - com(b0.C_inf, b0.A_0) - com(b0.C_mt, b0.A_0) / t)
    checks["AC_comp_st"] = (dmat("A_s", "t", ht)
                            - com(b0.C_inf, b0.A_s) - com(b0.C_mt, b0.A_s) / st_sum)
    checks["AC_comp_-tt"] = (dmat("A_mt", "t", ht)
                             - com(b0.C_inf, b0.A_mt) - com(b0.C_mt, b0.A_inf)
                             + com(b0.C_mt, b0.A_0) / t + com(b0.C_mt, b0.A_s) / st_sum)
    checks["AC_comp_inftyt"] = dmat("A_inf", "t", ht) - com(b0.C_inf, b0.A_inf)
    checks["BC_comp_st"] = (dmat("B_s", "t", ht)
                            - com(b0.C_inf, b0.B_s) - com(b0.C_mt, b0.B_s) / st_sum)
    checks["BC_comp_-ts"] = (dmat("C_mt", "s", h)
                             - com(b0.B_inf, b0.C_mt) - com(b0.C_mt, b0.B_s) / st_sum)
    checks["BC_comp_inftyt-inftys"] = (dmat("B_inf", "t", ht) - dmat("C_inf", "s", h)
                                       - com(b0.C_inf, b0.B_inf))
    return {k: float(np.abs(v).max()) for k, v in checks.items()}
