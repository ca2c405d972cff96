"""Public gap-probability routes: determinant (two-matrix model), Pfaffian
(one-species ensemble), deformation flow, and fixed-trace Laplace inversion.

The Pfaffian sign is that of the undeformed limit, (-1)^(m(m-1)/2) in closed
form, never a printed sign convention.  The fixed-trace inversion expands the
transform in the generating variable: the k-th coefficient is entire with
exponential type k*t, so it is inverted at the shifted time 1 - k*t where its
Bromwich integrand decays (coefficients with k*t >= 1 contribute exactly zero
at unit trace).  Every shifted time shares one hyperbolic contour
(Weideman & Trefethen, Math. Comp. 76, 2007), so a node's coefficient solve
serves every coefficient, and each contour's nodes are evaluated as one
batch.  The value comes from one hyperbola V, and its error evidence from a
second, independent hyperbola E at the same node count; both step up in
node count while they disagree.  All contour
evaluations use exponentially rescaled matrix elements, so no large
exponentials appear.
"""
from __future__ import annotations

import cmath
import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import dd, plinalg
from .bimoments import ubh_pf_border_rescaled, ubh_pf_element_rescaled
from .params import ContourError, DeformPoint, DomainError, ModelParams, PrecisionWarning
from .specfun import log_gamma


class Route(enum.Enum):
    DETERMINANT = "determinant"
    PFAFFIAN = "pfaffian"
    FLOW = "flow"
    LAPLACE = "laplace"


@dataclass(frozen=True)
class GapResult:
    value: complex
    route: Route
    est_error: float


def c_cl2m(p: ModelParams) -> float:
    """C^C-L2M by log-gamma accumulation."""
    m, a, b = p.m, p.a, p.b
    lg = 0.0
    for i in range(1, m):
        lg += 2.0 * log_gamma(i + 1.0)
    for k in range(m):
        lg += log_gamma(a + 1.0 + k) + log_gamma(b + 1.0 + k)
    for i in range(1, m + 1):
        lg += log_gamma(a + b + i) - log_gamma(m + a + b + i)
    return math.exp(lg)


def c_ubh(p: ModelParams) -> float:
    """C^UB-H by log-gamma accumulation."""
    m, a = p.m, p.a
    lg = 0.5 * m * math.log(math.pi) + log_gamma(m + 1.0) - m * (2 * a + m) * math.log(2.0)
    for i in range(1, m + 1):
        lg += log_gamma(float(i)) + log_gamma(2 * a + i + 1.0) - log_gamma(a + i + 0.5)
    return math.exp(lg)


def c_bhft(p: ModelParams) -> float:
    """C^B-HFT by log-gamma accumulation."""
    m, a = p.m, p.a
    lg = (0.5 * m * math.log(math.pi) - m * (2 * a + m) * math.log(2.0)
          - log_gamma(m + 1.0) - log_gamma(0.5 * m * (2 * a + m + 1)))
    for i in range(1, m + 1):
        lg += log_gamma(i + 1.0) + log_gamma(2 * a + i + 1.0) - log_gamma(a + i + 0.5)
    return math.exp(lg)


def _warn_precision(est_rel: float, what: str):
    if est_rel > 1e-6:
        warnings.warn(f"{what}: estimated relative error {est_rel:.2e} exceeds 1e-6",
                      PrecisionWarning)


def _warn_range(val, est: float, what: str, *gen) -> None:
    """PrecisionWarning when a gap probability, the value at real generating
    variables gen in [0, 1], lies outside [-est, 1 + est]."""
    if (all(not isinstance(g, complex) and 0.0 <= g <= 1.0 for g in gen)
            and not -est <= val <= 1.0 + est):
        warnings.warn(f"{what} value {val:.6g} lies outside [0, 1] beyond its estimated"
                      f" error {est:.2e}", PrecisionWarning)


def z_cl2m(p: ModelParams, d: DeformPoint) -> GapResult:
    """Two-matrix-model gap generating function by the moment determinant.

    The Gram comes from the structurally consistent compensated construction
    and the determinant is taken in the same arithmetic: the gap value is a
    massive cancellation of complete-gamma atoms once the cutoffs cut deep,
    and a bare float64 determinant of rounded entries loses all digits there.
    The determinant is the pivoted one: the unpivoted factorization the
    bi-orthogonal data read is stable only where the Gram is totally
    positive, which fails for complex xi or psi.  DomainError for
    a + b + 1 <= 0, where the weight is not integrable at the origin.
    """
    from .bops import _dd_gram, _require_integrable

    _require_integrable(p)
    c = c_cl2m(p)

    def go(hi_fidelity):
        mdd = _dd_gram(p, d, p.m, hi_fidelity)[0]
        det = plinalg.dd_lu_det(mdd)
        return (det if isinstance(det, float) else dd.unwrap(det)) / c

    val = go(False)
    deep = abs(val) < 1e-4 and not (isinstance(p.xi, complex) or isinstance(p.psi, complex))
    if deep:
        val = go(True)
    est = abs(val) * (1e-11 if not deep else 1e-10)
    _warn_precision(est / max(abs(val), 1e-300), "z_cl2m determinant")
    _warn_range(val, est, "z_cl2m", p.xi, p.psi)
    if isinstance(val, complex) and val.imag == 0:
        val = val.real
    return GapResult(val, Route.DETERMINANT, est)


def _ubh_pf_dd(p: ModelParams, s: float, hi_fidelity: bool = False):
    """DD Pfaffian of the one-species element matrix, with the elements taken
    as differences of the consistent equal-species Gram."""
    from .bops import _dd_gram

    m = p.m
    eq = ModelParams(m, p.a, p.a, p.xi, p.xi)
    d = DeformPoint(s, s)
    size = m + 1 if m % 2 == 0 else m + 2
    mdd, aldd, _, iscx, _ = _dd_gram(eq, d, size, hi_fidelity and not isinstance(p.xi, complex))
    zero = dd.wrap(0.0, iscx)
    if m % 2 == 0:
        mat = [[zero for _ in range(m)] for _ in range(m)]
        for j in range(m):
            for k in range(j + 1, m):
                v = mdd[j + 1][k] - mdd[j][k + 1]
                mat[j][k] = v
                mat[k][j] = -v
    else:
        mat = [[zero for _ in range(m + 1)] for _ in range(m + 1)]
        for j in range(m):
            mat[0][j + 1] = aldd[j]
            mat[j + 1][0] = -aldd[j]
            for k in range(j + 1, m):
                v = mdd[j + 1][k] - mdd[j][k + 1]
                mat[j + 1][k + 1] = v
                mat[k + 1][j + 1] = -v
    pf = plinalg.dd_pfaffian(mat)
    return pf if isinstance(pf, float) else dd.unwrap(pf)


def _pf_sign(m: int) -> float:
    """Overall Pfaffian sign, fixed so the generating function -> 1 as xi -> 0.

    The undeformed element matrix is the Gamma-scaled (j-k)/(2a+2+j+k), with
    a positive border for odd m; by Schur's Pfaffian identity its Pfaffian
    has sign (-1)^(m(m-1)/2) for every a.
    """
    return -1.0 if (m * (m - 1) // 2) % 2 else 1.0


def z_ubh(p: ModelParams, s: float | None = None) -> GapResult:
    """One-species gap generating function by the skew Pfaffian route."""
    ss = s if s is not None else 1.0
    pref = math.exp(log_gamma(p.m + 1.0)) / c_ubh(p)
    sgn = _pf_sign(p.m)
    val = pref * _ubh_pf_dd(p, ss) / sgn
    deep = abs(val) < 1e-2 and not isinstance(p.xi, complex)
    if deep:
        val = pref * _ubh_pf_dd(p, ss, hi_fidelity=True) / sgn
    est = abs(val) * (1e-11 if not deep else 1e-10)
    _warn_precision(est / max(abs(val), 1e-300), "z_ubh pfaffian")
    _warn_range(val, est, "z_ubh", p.xi)
    if isinstance(val, complex) and val.imag == 0:
        val = val.real
    return GapResult(val, Route.PFAFFIAN, est)


def z_cl2m_flow(p: ModelParams, d: DeformPoint) -> GapResult:
    """Determinant route transported by the constrained deformation flow.

    The flow starts from a moment-route seed at (s, t) = (1, 1), read off the
    hi-fi Gram with its Stieltjes seeds (``flow.from_moments``), and runs
    along the straight path to d with ``flow.integrate`` at tolerance 1e-11:
    first-same-as-last DOP853 steps on the one right-hand side
    ``flow.rhs_total``, each step's error relative per component and
    absolute in log Z, which is relative in the value.  A step whose worst
    constraint residual exceeds 1e-6 is rejected, and the flow aborts
    (FlowAbort) where halving the step cannot keep it below that.

    The constraints are conserved by the exact flow, so their drift is the
    evidence of the path's global error: est_error is |value| max(1e-8,
    10 drift), with drift the worst residual along the path, start
    included, and a PrecisionWarning above 1e-6 relative.  xi and psi must
    be real (DomainError otherwise)."""
    from . import flow as _flow

    c = c_cl2m(p)
    fs0 = _flow.from_moments(p, DeformPoint(1.0, 1.0), p.m)
    end = _flow.integrate(fs0, [(1.0, 1.0), (d.s, d.t)], tol=1e-11)[-1]
    val = math.exp(end.logZ) / c
    est_rel = max(1e-8, 10.0 * end.drift)
    _warn_precision(est_rel, "z_cl2m_flow")
    est = abs(val) * est_rel
    _warn_range(val, est, "z_cl2m_flow", p.xi, p.psi)
    return GapResult(val, Route.FLOW, est)


# ---------------------------------------------------------------------------
# fixed-trace route (shared hyperbolic contour)
# ---------------------------------------------------------------------------

def _pf_poly_values(m: int, a: float, z, us: np.ndarray) -> np.ndarray:
    """Rescaled Pfaffians at the bookkeeping values u (standing for xi e^-z)
    at one node z or an array of nodes: every node's matrices at every u,
    bordered for odd m, as one stack with one Pfaffian call.  The result's
    axes are z's, then u's."""
    off = m % 2
    idx = np.arange(m)
    zu = np.asarray(z)[..., None]  # a u axis after z's
    mats = np.zeros(np.shape(z) + (len(us), m + off, m + off), dtype=complex)
    if off:
        border = ubh_pf_border_rescaled(idx, m, a, zu, us[:, None])
        mats[..., 0, 1:] = border
        mats[..., 1:, 0] = -border
    blocks = ubh_pf_element_rescaled(idx[:, None], idx, m, a, zu, us[:, None, None])
    # the lower triangle mirrors the upper one exactly
    mats[..., off:, off:] = np.where(idx[:, None] < idx, blocks, -blocks.swapaxes(-1, -2))
    return plinalg.pfaffian(mats, check_skew=False)


def _xi_coefficients(m: int, a: float, z) -> np.ndarray:
    """Coefficients p_k with Pf(M(xi)) = sum_k xi^k e^{-k z} p_k(z), at one
    node z or an array of nodes (then one row per node).  Each node's
    Vandermonde system is its own solve, as a stack."""
    us = np.arange(m + 1, dtype=float)
    vals = _pf_poly_values(m, a, z, us)
    vand = np.vander(us, m + 1, increasing=True)
    return np.linalg.solve(vand, vals[..., None])[..., 0]


# (alpha, mu/N, h*N) of the two hyperbolas s(u) = mu (1 + sin(iu - alpha)) at
# N + 1 nodes u_j = j h: the value contour V and the estimate contour E.  Both
# parameters differ between the families, and mu grows with N, so a call at
# another node count (such as the benchmark's nodes=40 reference) evaluates
# neither contour of the default call
_VALUE_CONTOUR = (0.75, 1.0, 2.6)
_ESTIMATE_CONTOUR = (0.8, 1.1, 2.5)


def _talbot_sum(transforms, rs: np.ndarray, contour, nodes: int) -> np.ndarray:
    """Inverse Laplace transforms at the times rs of the coefficient
    transforms F_k(s) = transforms(s)[k], all from one trapezoid rule on the
    hyperbola s(u) = mu (1 + sin(iu - alpha)) (Weideman & Trefethen, Math.
    Comp. 76, 2007): f_k(r_k) = (h/pi) Im sum_j' e^(s_j r_k) F_k(s_j) s'(u_j),
    j = 0..nodes, half weight at j = 0; the lower half of the contour is the
    conjugate of the upper.  transforms is called once, on the list of all
    nodes s_j, and returns one row of coefficient transforms per node; the
    weighted sum then runs node by node.  The name is kept from the
    fixed-Talbot rule this replaced: `perfbench/tracer.py` counts contour
    sums under it."""
    alpha, mu_per_node, h_nodes = contour
    mu, h = mu_per_node * nodes, h_nodes / nodes
    ws = [complex(-alpha, j * h) for j in range(nodes + 1)]
    ss = [mu * (1.0 + cmath.sin(w)) for w in ws]
    tot = np.zeros(len(rs), dtype=complex)
    for j, (w, s, f) in enumerate(zip(ws, ss, transforms(ss))):
        term = f * (1j * mu * cmath.cos(w)) * np.exp(s * rs)
        tot += 0.5 * term if j == 0 else term
    return h / math.pi * tot.imag


def z_bhft(p: ModelParams, t: float | None = None, nodes: int = 32) -> GapResult:
    """Fixed-trace gap generating function at unit trace by Laplace inversion
    on one hyperbolic contour shared by every generating-variable coefficient.

    The k-th coefficient is inverted at the shifted time 1 - k*t (zero
    contribution when k*t >= 1); one node's coefficient solve serves every
    active k.  The value comes from the contour V at `nodes` + 1 nodes, and
    est_error is its distance to an independent contour E at the same node
    count, summed over the coefficients.  While that distance exceeds 1e-6
    max(1, |value|) both contours step up by 8 nodes, at most twice; past
    that the result warns, and a distance above 10 max(1, |value|) raises
    ContourError.  mu grows with the node count, and with it the roundoff
    of e^(s_0 r) at the contour's nearest point s_0 = mu (1 - sin alpha), so
    in binary64 more nodes stop helping; m >= 5 is not resolved.

    At t >= 1 the value is exactly 1, with no contour work: no eigenvalue
    exceeds the unit trace.  DomainError unless t > 0 and nodes is an
    integer >= 1.
    """
    rtol = 1e-6
    tt = t if t is not None else 1.0
    if not tt > 0:
        raise DomainError(f"cutoff must be positive, got {tt}")
    if isinstance(nodes, bool) or not isinstance(nodes, (int, np.integer)) or nodes < 1:
        raise DomainError(f"nodes must be an integer >= 1, got {nodes!r}")
    if tt >= 1.0:
        return GapResult(1.0, Route.LAPLACE, 0.0)
    m, a, xi = p.m, p.a, p.xi
    kappa = 0.5 * m * (m + 2 * a + 1)
    cu = c_ubh(p)
    scale = cu / (math.exp(log_gamma(m + 1.0)) * c_bhft(p))
    pref = math.exp(log_gamma(m + 1.0)) / cu
    sgn = _pf_sign(m)
    n_active = sum(1 for k in range(m + 1) if 1.0 - k * tt > 1e-9)
    rs = 1.0 - tt * np.arange(n_active)

    def transforms(ss: list) -> np.ndarray:
        coef = _xi_coefficients(m, a, np.array([s * tt for s in ss]))[:, :n_active]
        return sgn * pref * coef * np.array([s ** (-kappa) for s in ss])[:, None]

    w = xi ** np.arange(n_active)
    for nn in (nodes, nodes + 8, nodes + 16):
        vals = _talbot_sum(transforms, rs, _VALUE_CONTOUR, nn)
        dist = scale * float(np.abs(vals - _talbot_sum(transforms, rs, _ESTIMATE_CONTOUR, nn)).sum())
        val = scale * complex(w @ vals).real
        if dist <= rtol * max(1.0, abs(val)):
            break
    if dist > 10.0 * max(1.0, abs(val)):
        raise ContourError(f"contour inversion diverging (value-to-estimate distance {dist:.2e})")
    if dist > rtol * max(1.0, abs(val)):
        warnings.warn(f"contour inversion stalled at {dist:.2e}", PrecisionWarning)
    est = dist + 1e-12
    if val < -est:
        warnings.warn(f"z_bhft value {val:.3e} is negative beyond its estimated error"
                      f" {est:.2e}", PrecisionWarning)
    return GapResult(val, Route.LAPLACE, est)


def fk_bridge_residual(m: int, a: float, xi: float, s: float) -> float:
    """Relative residual of the normalized squared-Pfaffian identity
    z_ubh(s)^2 = z_cl2m(s, s; m, a, a+1; xi, xi)."""
    pu = ModelParams(m, a, 0.0, xi, 0.0)
    zu = z_ubh(pu, s).value
    pc = ModelParams(m, a, a + 1.0, xi, xi)
    zc = z_cl2m(pc, DeformPoint(s, s)).value
    return abs(zu * zu - zc) / max(abs(zu * zu), 1e-300)
