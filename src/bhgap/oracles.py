"""Independent ground-truth generators: deterministic tensor quadrature for
small m and importance-sampling Monte Carlo up to m = 4.

These never touch the closed forms they are used to check: bi-moments come
from 2D panel quadrature of the defining integral, small-m gap probabilities
from direct 2D/4D (or simplex-sliced 1D) quadrature of the joint density,
and the Monte Carlo route reweights i.i.d. gamma draws by the squared
Vandermonde over Cauchy-product weight.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .params import DeformPoint, DomainError, ModelParams

_GL_CACHE: dict = {}


@dataclass(frozen=True)
class OracleEstimate:
    value: float
    std_error: float  # 0 for deterministic quadrature (error bound instead)
    n_samples: int

    def __post_init__(self):
        if self.std_error < 0:
            raise DomainError("std_error must be >= 0")


def _gauss_legendre(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _axis_nodes(cut: float, U: float, expo: float, pts_per_panel: int,
                corner: float = 1e-12):
    """Composite Gauss-Legendre nodes/weights on [0, U] with a panel edge at
    the cutoff, geometric grading into the origin down to ``corner`` (the
    bare 1/(x+y) kernel needs ~1e-12; integrands whose corner is killed by
    Vandermonde factors can use a coarse grading), and a u^expo endpoint
    substitution."""
    edges = [0.0]
    graded = min(cut if cut < U else 1.0, 1.0)
    frac = 0.3
    while frac > corner:
        edges.append(graded * frac)
        frac *= 0.08
    if cut < U:
        edges.append(cut)
        edges.append(min(cut + 4.0, U))
        edges.append(min(cut + 14.0, U))
    edges.append(U)
    edges = sorted(set(e for e in edges if 0.0 <= e <= U))
    x, w = _gauss_legendre(pts_per_panel)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        if lo == 0.0 and expo < 0.0:
            # u = v^(1/(1+expo)) absorbs the algebraic endpoint singularity:
            # u^expo du = q dv exactly
            q = 1.0 / (1.0 + expo)
            vhi = hi ** (1.0 + expo)
            v = 0.5 * vhi * (x + 1.0)
            nodes.append(v ** q)
            weights.append(0.5 * vhi * w * q)
        else:
            u = 0.5 * (hi - lo) * (x + 1.0) + lo
            nodes.append(u)
            weights.append(0.5 * (hi - lo) * w * u ** expo)
    return np.concatenate(nodes), np.concatenate(weights)


def _truncation(cut: float, a: float, b: float) -> float:
    base = cut if np.isfinite(cut) else 0.0
    return base + 40.0 + 10.0 * max(a, b, 1.0)


def _deform_factor(nodes: np.ndarray, cut: float, gen: complex) -> np.ndarray:
    if gen == 0 or not np.isfinite(cut):
        return np.ones_like(nodes, dtype=complex if isinstance(gen, complex) else float)
    return 1.0 - gen * (nodes > cut)


def quad_bimoment(j: int, k: int, p: ModelParams, d: DeformPoint) -> OracleEstimate:
    """Deformed bi-moment by tensor panel quadrature of the defining integral,
    panels split exactly at the cutoffs; the 24 points per panel are doubled
    up to three times, until two levels agree."""
    A, B = p.a + j, p.b + k
    if not (A > -1 and B > -1 and A + B + 1 > 0):
        raise DomainError(f"non-integrable bi-moment exponents ({A}, {B})")
    U1 = _truncation(d.s, A, A)
    U2 = _truncation(d.t, B, B)

    def level(npts):
        x, wx = _axis_nodes(d.s, U1, A, npts)
        y, wy = _axis_nodes(d.t, U2, B, npts)
        wx = wx * np.exp(-x) * _deform_factor(x, d.s, p.xi)
        wy = wy * np.exp(-y) * _deform_factor(y, d.t, p.psi)
        ker = 1.0 / (x[:, None] + y[None, :])
        return wx @ ker @ wy

    prev = level(24)
    for i in range(1, 4):
        cur = level(24 * 2 ** i)
        err = abs(cur - prev)
        prev = cur
        if err <= 1e-10 * max(abs(cur), 1e-300):
            break
    val = prev if isinstance(prev, complex) else float(prev)
    if isinstance(val, complex) and val.imag == 0:
        val = val.real
    return OracleEstimate(val, 0.0, 0)


@lru_cache(maxsize=64)
def _cl2m_norm_quad_m1(a: float, b: float) -> float:
    return math.gamma(a + 1) * math.gamma(b + 1) / (a + b + 1)


def quad_gap_small_m(p: ModelParams, d: DeformPoint, ensemble: str = "cl2m") -> OracleEstimate:
    """Direct quadrature of the gap generating function.

    cl2m: m = 1 (2D) or m = 2 (4D tensor); bhft: fixed-trace m <= 2 with the
    trace delta resolved on the simplex slice (rho_2 = 1 - rho_1).
    """
    if ensemble == "bhft":
        return _quad_bhft(p, d)
    if ensemble != "cl2m":
        raise DomainError(f"ensemble must be 'cl2m' or 'bhft', got {ensemble!r}")
    if p.m == 1:
        num = quad_bimoment(0, 0, p, d)
        return OracleEstimate(num.value / _cl2m_norm_quad_m1(p.a, p.b), 0.0, 0)
    if p.m == 2:
        return _quad_cl2m_m2(p, d)
    raise DomainError(f"quadrature oracle limited to m <= 2, got m={p.m}")


def _quad_cl2m_m2(p: ModelParams, d: DeformPoint) -> OracleEstimate:
    """m = 2 gap integral on a tensor grid of 144-point panels.

    The y-pair sum collapses analytically: for u_i(y) = w(y)/(x_i + y),
    sum_{ab} (y_a - y_b)^2 u1_a u2_a u1_b u2_b = 2 (S0 S2 - S1^2) with the
    moments S_k of the elementwise product, so the cost is O(nx^2 ny) and the
    corner grading can go deep.
    """
    from scipy.integrate import quad as _squad

    U1 = _truncation(d.s, p.a, p.a)
    U2 = _truncation(d.t, p.b, p.b)

    def level(npts):
        y, wy = _axis_nodes(d.t, U2, p.b, npts, corner=1e-9)
        wyv = wy * np.exp(-y) * _deform_factor(y, d.t, p.psi)
        y2v = y * y

        def ymoments(x1, x2):
            pair = wyv / ((x1 + y) * (x2 + y))
            s0 = pair.sum()
            s1 = pair @ y
            s2 = pair @ y2v
            return 2.0 * (s0 * s2 - s1 * s1)

        def wxf(x):
            df = 1.0 - p.xi * (x > d.s) if p.xi != 0 and np.isfinite(d.s) else 1.0
            return x ** p.a * math.exp(-x) * df

        xpts = [pt for pt in (d.s,) if np.isfinite(pt) and 0 < pt < U1]

        def inner(x1):
            f = lambda x2: wxf(x2) * (x1 - x2) ** 2 * ymoments(x1, x2)
            tot = 0.0
            edges = [0.0] + sorted(set(xpts + [x1])) + [U1]
            for lo, hi in zip(edges[:-1], edges[1:]):
                if hi > lo:
                    tot += _squad(f, lo, hi, epsabs=1e-11, epsrel=1e-9,
                                  limit=200, full_output=1)[0]
            return wxf(x1) * tot

        tot = 0.0
        edges = [0.0] + xpts + [U1]
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi > lo:
                tot += _squad(inner, lo, hi, epsabs=1e-10, epsrel=1e-8,
                              limit=200, full_output=1)[0]
        return tot

    val = level(144)
    c = _cl2m_norm(p.m, p.a, p.b)
    # val is the full ordered 4D integral; the density carries 1/(m!)^2 = 1/4
    return OracleEstimate(val / (4.0 * c), 0.0, 0)


def _cl2m_norm(m, a, b):
    out = 1.0
    for i in range(1, m):
        out *= math.factorial(i) ** 2
    for k in range(m):
        out *= math.gamma(a + 1 + k) * math.gamma(b + 1 + k)
    for i in range(1, m + 1):
        out *= math.gamma(a + b + i) / math.gamma(m + a + b + i)
    return out


def _quad_bhft(p: ModelParams, d: DeformPoint) -> OracleEstimate:
    """Fixed-trace generating function at trace 1; the delta leaves 0 (m=1)
    or 1 (m=2) integration variables."""
    from scipy.integrate import quad as _squad

    t, xi = d.t, p.xi
    if p.m == 1:
        return OracleEstimate(1.0 - xi.real * (t < 1.0), 0.0, 0)
    if p.m != 2:
        raise DomainError("fixed-trace quadrature oracle supports m <= 2")
    a = p.a
    c = _bhft_norm(2, a)

    def f(r):
        fac = (1 - xi * (r > t)) * (1 - xi * ((1 - r) > t))
        return (fac * (1 - 2 * r) ** 2 * (r * (1 - r)) ** a).real

    pts = sorted({0.0, 0.5, 1.0, min(max(t, 0.0), 1.0), min(max(1 - t, 0.0), 1.0)})
    tot = 0.0
    err = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        v, e = _squad(f, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
        tot += v
        err += e
    return OracleEstimate(tot / (2.0 * c), 0.0, 0)


def _bhft_norm(m, a):
    kappa = 0.5 * m * (2 * a + m + 1)
    lg = (0.5 * m * math.log(math.pi) - m * (2 * a + m) * math.log(2.0)
          - math.lgamma(m + 1) - math.lgamma(kappa))
    for i in range(1, m + 1):
        lg += math.lgamma(i + 1) + math.lgamma(2 * a + i + 1) - math.lgamma(a + i + 0.5)
    return math.exp(lg)


def mc_gap(p: ModelParams, d: DeformPoint, n_samples: int = 10 ** 6,
           seed: int = 12345) -> OracleEstimate:
    """Importance-sampling Monte Carlo for the gap generating function.

    Draws x ~ Gamma(a+1), y ~ Gamma(b+1) i.i.d., weights by the squared
    Vandermondes over the Cauchy product (nonnegative on the orthant), and
    returns the ratio estimator deformed/undeformed with a jackknife standard
    error over 100 batches.  Philox keyed on the seed makes runs reproducible.
    A PrecisionWarning flags fewer than 100 effective samples, (sum w)^2 /
    sum w^2 over all weights.
    """
    if p.m > 4:
        raise DomainError("Monte Carlo oracle supports m <= 4")
    rng = np.random.Generator(np.random.Philox(key=seed))
    batches = 100
    m = p.m
    per = max(n_samples // batches, 1)
    num_b = np.empty(batches)
    den_b = np.empty(batches)
    w2sum = 0.0
    for bi in range(batches):
        x = rng.gamma(p.a + 1.0, size=(per, m))
        y = rng.gamma(p.b + 1.0, size=(per, m))
        w = np.ones(per)
        for i in range(m):
            for k in range(i + 1, m):
                w *= (x[:, k] - x[:, i]) ** 2 * (y[:, k] - y[:, i]) ** 2
        for i in range(m):
            for k in range(m):
                w /= x[:, i] + y[:, k]
        if np.any(w < 0):
            raise DomainError("negative Monte Carlo weight (should be impossible)")
        fac = np.ones(per, dtype=complex if isinstance(p.xi, complex) else float)
        if p.xi != 0 and np.isfinite(d.s):
            fac = fac * np.prod(1.0 - p.xi * (x > d.s), axis=1)
        if p.psi != 0 and np.isfinite(d.t):
            fac = fac * np.prod(1.0 - p.psi * (y > d.t), axis=1)
        num_b[bi] = np.sum(w * fac).real
        den_b[bi] = np.sum(w)
        w2sum += np.sum(w * w)
    num, den = num_b.sum(), den_b.sum()
    ess = den ** 2 / max(w2sum, 1e-300)
    ratio = num / den
    # jackknife over batches
    jk = (num - num_b) / (den - den_b)
    se = math.sqrt((batches - 1) / batches * np.sum((jk - jk.mean()) ** 2))
    est = OracleEstimate(float(ratio), float(se), per * batches)
    if ess < 100:
        import warnings

        from .params import PrecisionWarning
        warnings.warn(f"effective sample size {ess:.1f} < 100", PrecisionWarning)
    return est
