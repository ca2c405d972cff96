"""Reproducing kernels, the Christoffel-Darboux G-matrix, anti-incidence identities.

Kernel values come three ways: the direct sum over the orthonormal pairs,
the Christoffel-Darboux form with intertwined polynomials, and the 3x3
G-matrix bilinear form.  At anti-incidence points (x, -x) the bilinear
numerator vanishes with (x+y); those values are produced by the finite
limit formulas built from the spectral residue matrices, never by naive
division.
"""
from __future__ import annotations

import numpy as np

from .bops import (BopsState, EvalBundle, assoc1, build_state, deformation_weights,
                   eval_bundle, intertwined)
from .params import INF, DomainError


def _xy(state_or_eb):
    if isinstance(state_or_eb, BopsState):
        st = state_or_eb
        return st.svec, st.Xnn, st.Ynn, st.pi_triple[1], st.eta_triple[1], st.n
    eb = state_or_eb
    return eb.sv, eb.X, eb.Y, eb.piv[1], eb.etav[1], eb.n


def gmatrix(state_or_eb, x, y) -> np.ndarray:
    """The 3x3 matrix G_n(x, y) of the kernel bilinear form."""
    sv, X, Y, _, _, n = _xy(state_or_eb)
    sp, sn, sm = sv[0], sv[1], sv[2]
    rm = sm / sn if n >= 1 else 0.0
    return np.array([
        [sn ** 2 / sp ** 2, sn / sp * (Y - y), -sm / sp],
        [sn / sp * (X - x), (X + y) * (Y + x), rm * (Y + x)],
        [-sm / sp, rm * (X + y), rm ** 2],
    ])


def pvec(state: BopsState, x, mu: int = 0) -> np.ndarray:
    """(P_{n+1}, P_n, P_{n-1}) at x (mu=0) or the first-type associated values (mu=1)."""
    polys = [state.p_polys[2], state.p_polys[1], state.p_polys[0]]
    if mu == 0:
        return np.array([c(x) if c else 0.0 for c in polys])
    return np.array([assoc1(c, x, state.params, state.point, "x") if c else 0.0
                     for c in polys])


def qvec(state: BopsState, y, nu: int = 0) -> np.ndarray:
    polys = [state.q_polys[2], state.q_polys[1], state.q_polys[0]]
    if nu == 0:
        return np.array([c(y) if c else 0.0 for c in polys])
    return np.array([assoc1(c, y, state.params, state.point, "y") if c else 0.0
                     for c in polys])


def kernel_sum(mu: int, nu: int, n: int, x, y, p, d):
    """K^(mu,nu)_n(x, y) by direct summation (the (1,1) kernel carries +1/(x+y))."""
    if mu not in (0, 1) or nu not in (0, 1):
        raise DomainError("kernel indices must be 0 or 1")
    out = 0.0
    for l in range(n + 1):
        st = build_state(p, d, l)
        pl = st.p_polys[1](x) if mu == 0 else assoc1(st.p_polys[1], x, p, d, "x")
        ql = st.q_polys[1](y) if nu == 0 else assoc1(st.q_polys[1], y, p, d, "y")
        out += pl * ql
    if mu == 1 and nu == 1:
        if x + y == 0:
            raise DomainError("K^(1,1) direct sum undefined at anti-incidence x = -y")
        out += 1.0 / (x + y)
    return out


def cd_bilinear(mu: int, nu: int, x, y, state: BopsState):
    """K^(mu,nu)_n(x,y) from the G-matrix bilinear form; needs x + y != 0."""
    if state.n < 1:
        raise DomainError("bilinear form needs n >= 1")
    if x + y == 0:
        raise DomainError("anti-incidence input: use the limit formulas")
    num = pvec(state, x, mu) @ gmatrix(state, x, y) @ qvec(state, y, nu)
    pe = state.pi_triple[1] * state.eta_triple[1]
    return num / (pe * (x + y))


def cd_form_00(x, y, state: BopsState):
    """K^(0,0)_n by the Christoffel-Darboux evaluation with intertwined polynomials."""
    sn, sp = state.S_triple[1], state.S_triple[2]
    v = (intertwined(state, "hatP", x) * intertwined(state, "checkQ", y)
         + sn / sp * (state.p_polys[1](x) * state.q_polys[2](y)
                      + state.p_polys[2](x) * state.q_polys[1](y)))
    return v / (x + y)


def cubic_curve_eval(x, y, lam, state: BopsState):
    """Residual of det(G_n - lam I) against the displayed cubic spectral curve."""
    if state.n < 1:
        raise DomainError("cubic curve needs n >= 1")
    sv = state.svec
    sn_sq = (sv[1] / sv[0]) ** 2
    sm_sq = (sv[2] / sv[1]) ** 2
    pe = state.pi_triple[1] * state.eta_triple[1]
    g = gmatrix(state, x, y)
    lhs = np.linalg.det(g - lam * np.eye(3))
    rhs = (-lam ** 3
           + (sn_sq + sm_sq + (state.Ynn + x) * (state.Xnn + y)) * lam ** 2
           - pe * sn_sq * (x + y) * lam
           - pe ** 2 * (sv[2] / sv[0]) ** 2)
    return lhs - rhs


def anti_incidence_residuals(n: int, x, state: BopsState) -> np.ndarray:
    """Left-minus-right of the four 0/1-indexed anti-incidence identities.

    The associated transforms are boundary-singular on the positive axis, so
    each identity is evaluated at an argument where both of its transforms
    sit off their cuts: (00) and (01) at (x, -x) with x > 0, (10) at the
    mirror (-x, x), and (11) at the complex offset x + i max(1, x).  Each
    residual is scaled by the largest intermediate magnitude.
    """
    if state.n != n:
        state = build_state(state.params, state.point, n)
    xp = abs(x)
    sn, sp = state.S_triple[1], state.S_triple[2]
    r = sn / sp

    def resid(mu, nu, z):
        pv = pvec(state, z, mu)
        qv = qvec(state, -z, nu)
        hp = intertwined(state, "hatP" if mu == 0 else "hatP1", z)
        cq = intertwined(state, "checkQ" if nu == 0 else "checkQ1", -z)
        lhs = hp * cq + r * (pv[1] * qv[0] + pv[0] * qv[1])
        rhs = 0.0
        if (mu, nu) == (0, 1):
            rhs = hp
        elif (mu, nu) == (1, 0):
            rhs = cq
        elif (mu, nu) == (1, 1):
            rhs = hp + cq
        scale = max(abs(hp * cq), abs(r * pv[1] * qv[0]), abs(r * pv[0] * qv[1]),
                    abs(rhs), 1.0)
        return abs(lhs - rhs) / scale

    zc = complex(xp, max(1.0, xp))
    return np.array([resid(0, 0, xp), resid(0, 1, xp), resid(1, 0, -xp),
                     resid(1, 1, zc)])


# ---------------------------------------------------------------------------
# anti-incidence limits and the sigma functions
# ---------------------------------------------------------------------------

def _mid_matrix(eb: EvalBundle) -> np.ndarray:
    pi1, pi, pim = eb.piv
    sm_ratio = eb.sv[1] / eb.sv[2]
    return np.array([[0.0, 0.0, 0.0],
                     [pi1 / pi, 1.0, pim / pi + sm_ratio],
                     [0.0, 0.0, 0.0]])


def kernel01_limit(eb: EvalBundle, lax_bundle) -> float:
    """K^(0,1)_n(s, -s) by the finite anti-incidence limit formula."""
    pe = eb.piv[1] * eb.etav[1]
    s, t = eb.s, eb.t
    core = _mid_matrix(eb) + lax_bundle.A_sigma.T / s
    if t != INF:  # else the A_mt term's weight is zero
        core = core - t / (s * (s + t)) * lax_bundle.A_mt.T
    g = gmatrix(eb, s, -s)
    return eb.p @ core @ g @ eb.q1 / pe


def kernel10_limit(eb: EvalBundle, lax_bundle) -> float:
    """K^(1,0)_n(-t, t) by the finite anti-incidence limit formula."""
    pe = eb.piv[1] * eb.etav[1]
    s, t = eb.s, eb.t
    core = _mid_matrix(eb) - lax_bundle.A_sigma.T / t
    if s != INF:  # else the A_s term's weight is zero
        core = core + s / (t * (s + t)) * lax_bundle.A_s.T
    g = gmatrix(eb, -t, t)
    return eb.p1 @ core @ g @ eb.q / pe


def sigma_tau(state_or_eb):
    """(sigma_n, tau_n) = (s dlogZ/ds, t dlogZ/dt) through the kernel limits."""
    from . import lax as _lax

    if isinstance(state_or_eb, BopsState):
        if state_or_eb.n == 0:
            return 0.0, 0.0
        eb = eval_bundle(state_or_eb)
    else:
        eb = state_or_eb
        if eb.n == 0:
            return 0.0, 0.0
    _, _, wS, wT = deformation_weights(eb)
    if wS == 0.0 and wT == 0.0:
        return 0.0, 0.0
    lax_bundle = _lax.build_lax(eb)
    sigma = tau = 0.0
    if wS != 0.0:
        k01 = kernel01_limit(eb, lax_bundle) - eb.p[1] * eb.q1[1]  # limit at n, shifted to n-1
        sigma = -wS * k01
    if wT != 0.0:
        k10 = kernel10_limit(eb, lax_bundle) - eb.p1[1] * eb.q[1]
        tau = -wT * k10
    return sigma, tau
