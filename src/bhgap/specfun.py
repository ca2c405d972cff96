"""Gamma, upper incomplete gamma, and the two-variable extension Gamma2.

Gamma(a, z) at real z follows the classic series / modified-Lentz
continued-fraction split.  Negative orders are reached either directly (the
continued fraction does not involve Gamma(a)) or by downward recurrence at
integer order.  At complex z (principal branch, cut along (-inf, 0]) it is
e^-z times the scaled e^z Gamma(a, z) below.

Gamma2(a; x, y) = int_x^inf e^-u u^a (u+y)^-1 du is evaluated by adaptive
quadrature after the shift u = x + v, with an analytic bound for the dropped
tail.  Scaled variants e^z * f(z) exist for Laplace-contour work where the
bare values would overflow.  There, for Re z < 0.5 and for orders far below
-|z|, e^z Gamma(a, z) is the tau integral int_0^inf e^-tau (z+tau)^(a-1) dtau
taken by one fixed composite Gauss-Kronrod rule (`_gup_tau_rule`, no
adaptive quadrature, one batch for all of a contour's nodes);
e^z Gamma2(a; z, z) stays adaptive, one call per node.

The boxed int_0^x e^-u u^a (u+y)^-1 du has one panel set for both of its
precisions: `gamma2_boxed` (Kronrod, float64) and `gamma2_boxed_dd` (one
Gauss-Legendre level, double-double).  The latter is a batch: every boxed
seed and weight power c^(a+1) e^-c of one hi-fi Gram in one array pass of
the table-driven `dd.vln` and `dd.vexp`, since numpy's per-call cost
outweighs the work on a few hundred nodes.

Every incomplete gamma and Gamma2 function returns a SpecFunResult carrying
the value and an absolute error estimate, so callers can propagate
tolerances instead of assuming them; `gamma2_boxed_dd`, whose one caller
reads none, returns bare DDs.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import dd
from .params import INF, DomainError, PoleError

_EPS = 2.22e-16
_EULER = 0.5772156649015328606
_MAXITER = 600


@dataclass(frozen=True)
class SpecFunResult:
    value: complex
    est_abs_error: float

    def __post_init__(self):
        v = complex(self.value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise DomainError("special function produced a non-finite value")
        if not (math.isfinite(self.est_abs_error) and self.est_abs_error >= 0):
            raise DomainError("error estimate must be finite and >= 0")


def _is_nonpos_int(a: float) -> bool:
    return a <= 1e-12 and abs(a - round(a)) < 1e-12


def gamma(a: float) -> float:
    """Euler gamma for real a not in {0, -1, -2, ...}."""
    if _is_nonpos_int(a):
        raise PoleError(f"gamma pole at a={a}")
    return math.gamma(a)


def log_gamma(a: float) -> float:
    if _is_nonpos_int(a):
        raise PoleError(f"log-gamma pole at a={a}")
    return math.lgamma(a)


def _on_cut(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0


def _powc(z: complex, p: complex) -> complex:
    """Principal z**p; works for complex z off the cut."""
    if z == 0:
        return 0.0
    return cmath.exp(p * cmath.log(z))


# ---------------------------------------------------------------------------
# upper incomplete gamma
# ---------------------------------------------------------------------------

def _lower_series(a: float, z: complex) -> tuple[complex, float]:
    """gamma_lower(a, z) by the standard ascending series; a not a nonpositive integer."""
    ap = a
    dl = 1.0 / a
    sm = dl
    for _ in range(_MAXITER):
        ap += 1.0
        dl *= z / ap
        sm += dl
        if abs(dl) < abs(sm) * _EPS:
            break
    val = sm * _powc(z, a) * cmath.exp(-z)
    return val, abs(val) * 8 * _EPS + abs(dl)


def _upper_series(a: float, z: complex) -> tuple[complex, float]:
    """Gamma(a, z) = Gamma(a) - gamma_lower(a, z) by the ascending series;
    a > 0, or fractional a; free of cancellation for |z| < a + 1."""
    low, lerr = _lower_series(a, z)
    g = math.gamma(a)
    return g - low, lerr + (abs(g) + abs(low)) * _EPS


def _cf_scaled(a: float, z: complex) -> tuple[complex, float]:
    """Continued fraction C with Gamma(a, z) = e^-z z^a C (modified Lentz)."""
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    delta = 0.0
    for i in range(1, _MAXITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h, abs(h) * 8 * _EPS
    return h, abs(h) * (abs(delta - 1.0) + 8 * _EPS)


def _e1(z: complex) -> tuple[complex, float]:
    """Exponential integral E1(z) = Gamma(0, z) by its ascending series, for
    |z| < 2 (its callers' range), z off the cut."""
    tot = -_EULER - cmath.log(z)
    u = 1.0 + 0j
    for k in range(1, _MAXITER):
        u *= -z / k
        tot -= u / k
        if abs(u) < (abs(tot) + 1.0) * _EPS * k:
            break
    return tot, (abs(tot) + abs(u)) * 8 * _EPS


def _recurse_down_scaled(a0: float, z: complex, steps: int,
                         base: tuple[complex, float]) -> tuple[complex, float]:
    """From e^z Gamma(a0, z) walk down: e^z Gamma(A-1,z) = (e^z Gamma(A,z) - z^(A-1)) / (A-1)."""
    val, err = base
    A = a0
    for _ in range(steps):
        term = _powc(z, A - 1.0)
        val = (val - term) / (A - 1.0)
        err = (err + (abs(term) + abs(val)) * _EPS) / abs(A - 1.0)
        A -= 1.0
    return val, err


def _gup_base_scaled(a0: float, z: complex) -> tuple[complex, float]:
    """e^z Gamma(a0, z) for the fractional base order a0 in [-0.25, 1)."""
    ez = cmath.exp(z)
    if abs(z) < 1.0 and (z.imag != 0.0 or z.real > 0.0):
        if _is_nonpos_int(a0):
            v, e = _e1(z)
        else:
            v, e = _upper_series(a0, z)
        return ez * v, abs(ez) * e
    cf, cerr = _cf_scaled(a0, z)
    za = _powc(z, a0)
    return za * cf, abs(za) * cerr


def _gup_small_z(a: float, z: complex) -> tuple[complex, float]:
    """Gamma(a, z) for |z| small or order well below -|z|, via the stable
    downward recurrence from the fractional base order."""
    if a >= -0.25:
        if _is_nonpos_int(a):
            return _e1(z)  # a == 0 is the only case here
        return _upper_series(a, z)
    steps = int(math.ceil(-a - 0.25))
    a0 = a + steps
    sval, serr = _recurse_down_scaled(a0, z, steps, _gup_base_scaled(a0, z))
    emz = cmath.exp(-z)
    return emz * sval, abs(emz) * serr


# Gauss-Kronrod 21-point rule on [-1, 1] with its embedded 10-point
# Gauss-Legendre rule (QUADPACK's qk21; Piessens et al., 1983): the
# nonnegative abscissae in descending order and their Kronrod and Gauss
# weights (zero where an abscissa is not a Gauss node)
_XK21 = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
         0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
         0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
         0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
         0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WK21 = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
         0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
         0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
         0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
         0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
         0.149445554002916905664936468389821)
_WG10 = (0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
         0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
         0.0, 0.295524224714752870173892994651338, 0.0)
# the rule on [0, 2], ascending: the offsets 1 + x (exact for x <= -1/2),
# the Kronrod weights, and the Kronrod-minus-Gauss weights
_GK_T = 1.0 + np.array(tuple(-x for x in _XK21[:-1]) + _XK21[::-1])
_GK_W = np.array(_WK21[:-1] + _WK21[::-1])
_GK_D = _GK_W - np.array(_WG10[:-1] + _WG10[::-1])
# the widest tau panel: the scale on which e^-tau is resolved
_TAU_PANEL = 8.0


def _tau_edges(tstar: float, s: float, top: float) -> np.ndarray:
    """Panel edges on [0, >= top]: a panel at distance d from tstar is
    max(d, s) wide, at most _TAU_PANEL, so the panels grade geometrically
    toward tstar at the scale s.  Neighbouring edges near tstar are within a
    factor 2 of each other, so their differences are exact."""
    right, x = [tstar], tstar
    while x < top:
        x += min(max(x - tstar, s), _TAU_PANEL)
        right.append(x)
    left, x = [], tstar
    while x > 0.0:
        x -= min(max(tstar - x, s), _TAU_PANEL)
        left.append(max(x, 0.0))
    return np.array(left[::-1] + right)


def _gup_tau_rule(cs, zs) -> tuple[list, list]:
    """e^z Gamma(c, z) = int_0^inf e^-tau (z+tau)^(c-1) dtau, z off the cut,
    by one fixed composite Gauss-Kronrod rule, for every pair (c, z) of cs
    and zs: the values and error estimates as two lists.

    The integrand is analytic except at tau = -z, so on panels no wider than
    their distance from it the rule converges geometrically (Trefethen, SIAM
    Review 50, 2008); the panels grade toward tstar = max(-Re z, 0) at the
    scale |z + tstar|.  Each node is an offset v from its panel's left edge
    e, and the integrand is e^-e exp((c-1) log((z+e) + v) - v): z + e is
    exact near tstar, so z + tau keeps its relative accuracy however close
    tau comes to -z, and e^-tau never meets the rounding of a large tau.
    The error estimate is the embedded Gauss rule's distance to the Kronrod
    value, per panel, plus the rounding of the exponents and the tail past
    the last edge.

    The panels of all pairs share one pass of the elementwise logarithms
    and exponentials.  The rule's matrix-vector products run per pair: a
    BLAS product's last bit can depend on a row's place in its matrix (for
    |f| @ w in about 40% of slices), and a pair's value and error must not
    depend on the batch it came in."""
    edges, scales = [], []
    for c, z in zip(cs, zs):
        tstar = max(-z.real, 0.0)
        scales.append(abs(complex(z.real + tstar, z.imag)))
        edges.append(_tau_edges(tstar, scales[-1], tstar + 45.0 + 10.0 * abs(c)))
    panels = [len(e) - 1 for e in edges]
    rows = np.cumsum([0] + panels)
    left = np.concatenate([e[:-1] for e in edges])
    h = np.concatenate([0.5 * np.diff(e) for e in edges])[:, None]
    v = h * _GK_T
    lw = np.repeat(np.array(cs) - 1.0, panels)[:, None] * np.log(
        (np.repeat(np.array(zs), panels) + left)[:, None] + v)
    f = h * np.exp(-left)[:, None] * np.exp(lw - v)
    vals, errs = [], []
    for c, z, e, s, r0, r1 in zip(cs, zs, edges, scales, rows, rows[1:]):
        fp = f[r0:r1]
        top = e[-1]
        vals.append(complex((fp @ _GK_W).sum()))
        # each exponent lw - v is off by eps times its size, at most
        # |c-1| (|ln|z+tau|| + pi) + v with |z+tau| in [s, |z| + top] and v
        # below a panel width
        size = abs(c - 1.0) * (max(abs(math.log(s)), math.log(abs(z) + top)) + math.pi) + _TAU_PANEL
        err = float(np.abs(fp @ _GK_D).sum()) + _EPS * (size + 4.0) * float((np.abs(fp) @ _GK_W).sum())
        # past top >= tstar, |z + tau| grows no faster than tau and
        # (c-1)/|z + top| < 1/2, so the tail is at most 2 e^-top |z + top|^(c-1)
        errs.append(err + 2.0 * math.exp(-top + (c - 1.0) * math.log(abs(z + top))))
    return vals, errs


def _cf_is_safe(a: float, z: complex) -> bool:
    """The Legendre continued fraction degrades for orders well below -|z|."""
    return a >= 0.0 or abs(z) >= 1.5 * (-a) + 2.0


def gamma_upper(a: float, z: complex) -> SpecFunResult:
    """Principal-branch Gamma(a, z); a real (any sign), z off (-inf, 0].
    Complex z is e^-z times ``gamma_upper_scaled``."""
    z = complex(z)
    if z == 0:
        if a > 0:
            return SpecFunResult(math.gamma(a), math.gamma(a) * 2 * _EPS)
        raise DomainError(f"gamma_upper(a={a}, 0) diverges for a <= 0")
    if _on_cut(z):
        raise DomainError(f"gamma_upper branch cut: z={z}")
    if z.imag == 0.0:
        x = z.real
        if x >= max(1.0, a + 1.0) and _cf_is_safe(a, z):
            cf, cerr = _cf_scaled(a, x)
            pref = math.exp(-x + a * math.log(x))
            v = pref * cf
            return SpecFunResult(v, pref * cerr + abs(v) * 4 * _EPS)
        if a > 1e-12 and x < a + 1.0:
            low, lerr = _lower_series(a, x)
            g = math.gamma(a)
            v = g - low.real
            return SpecFunResult(v, lerr + (abs(g) + abs(low)) * _EPS)
        v, err = _gup_small_z(a, x)  # a <= 0 (or ~0) with x small, or deep negative order
        return SpecFunResult(v.real, err)  # its zero imaginary part dropped
    r = gamma_upper_scaled(a, z)
    emz = cmath.exp(-z)
    return SpecFunResult(emz * r.value, abs(emz) * r.est_abs_error)


def gamma_upper_scaled(a, z):
    """e^z Gamma(a, z), stable on Laplace contours where Re z << 0.

    a and z may also be equal-length sequences of orders and points: the
    result is then a list with one SpecFunResult per pair, and every pair
    that takes the tau rule is evaluated in one `_gup_tau_rule` batch."""
    if np.ndim(z) == 0:
        return gamma_upper_scaled([a], [z])[0]
    a, z = list(a), [complex(x) for x in z]
    out, tau = [None] * len(z), []
    for i, (ai, zi) in enumerate(zip(a, z)):
        if _on_cut(zi):
            raise DomainError(f"gamma_upper branch cut: z={zi}")
        if zi.real >= 0.5:
            if ai > 1e-12 and abs(zi) < ai + 1.0:  # the continued fraction fails here
                ez = cmath.exp(zi)
                v, err = _upper_series(ai, zi)
                out[i] = SpecFunResult(ez * v, abs(ez) * err + abs(ez * v) * 4 * _EPS)
                continue
            if _cf_is_safe(ai, zi):
                cf, cerr = _cf_scaled(ai, zi)
                za = _powc(zi, ai)
                v = za * cf
                out[i] = SpecFunResult(v, abs(za) * cerr + abs(v) * 4 * _EPS)
                continue
        tau.append(i)
    if tau:
        vals, errs = _gup_tau_rule([a[i] for i in tau], [z[i] for i in tau])
        for i, v, err in zip(tau, vals, errs):
            out[i] = SpecFunResult(v, err)
    return out


# ---------------------------------------------------------------------------
# Gamma2
# ---------------------------------------------------------------------------

def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on first call: scipy is most of the
    package's import time, and only the adaptive Gamma2 quadratures use it."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def _quad_c(f, lo: float, hi: float, want_imag: bool = True):
    """Integrate a complex-valued integrand over [lo, hi] (two real quads).

    The imaginary part's quad revisits nearly every abscissa of the real
    part's, so f is called once per abscissa and the two quads read its
    values from one dict.  Tolerances sit at the QUADPACK roundoff floor;
    full_output suppresses the roundoff warning and the returned error
    estimate stays honest.
    """
    seen = {}

    def real(x: float) -> float:
        fx = seen[x] = f(x)
        return fx.real

    def imag(x: float) -> float:
        fx = seen.get(x)
        return (f(x) if fx is None else fx).imag

    re, ere = quad(real, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=400, full_output=1)[:2]
    if want_imag:
        im, eim = quad(imag, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=400, full_output=1)[:2]
    else:
        im, eim = 0.0, 0.0
    return re + 1j * im, ere + eim


@functools.lru_cache(maxsize=100000)
def _gamma2_cached(a: float, x: float, y: complex) -> SpecFunResult:
    yc = complex(y)
    is_real = yc.imag == 0.0
    if is_real and x + yc.real <= 0.0:
        raise DomainError(f"gamma2 pole on the path: x+y = {x + yc.real} <= 0")

    want_imag = not is_real

    def f(u: float) -> complex:
        return math.exp(-u) * u ** a / (u + yc) if u > 0 else 0.0

    V = x + 45.0 + 10.0 * max(abs(a), 1.0)
    val = 0j
    err = 0.0
    # the first panel handles an integrable u^a endpoint singularity at x = 0:
    # u = w^q with q = 1/(1+a) absorbs u^a du = q dw exactly
    if x == 0.0 and a < 0.0:
        q = 1.0 / (1.0 + a)

        def g(w: float) -> complex:
            u = w ** q
            return math.exp(-u) * q / (u + yc) if w > 0 else q / yc

        v0, e0 = _quad_c(g, 0.0, 1.0, want_imag)
    else:
        v0, e0 = _quad_c(f, x, x + 1.0, want_imag)
    val += v0
    err += e0
    v1, e1 = _quad_c(f, x + 1.0, V, want_imag)
    val += v1
    err += e1
    tail = 2.0 * math.exp(-V) * V ** a / abs(V + yc)
    err += tail
    if is_real:
        return SpecFunResult(val.real, err)
    return SpecFunResult(val, err)


def gamma2(a: float, x: float, y: complex) -> SpecFunResult:
    """Gamma2(a; x, y) = int_x^inf e^-u u^a (u+y)^-1 du.

    Needs x >= 0, a > -1 when x = 0, and x + y > 0 for real y (otherwise the
    pole at u = -y sits on the integration path).  x = +inf returns 0.
    Adaptive quadrature rather than a DD chain, because y may be complex:
    the Stieltjes seeds of `bops.assoc1` are evaluated at complex z by
    `kernels.anti_incidence_residuals`.
    """
    if x == INF:
        return SpecFunResult(0.0, 0.0)
    if not x >= 0.0:
        raise DomainError(f"gamma2 needs x >= 0, got {x}")
    if x == 0.0 and not a > -1.0:
        raise DomainError(f"gamma2(a={a}; 0, y) diverges for a <= -1")
    return _gamma2_cached(float(a), float(x), complex(y))


@functools.lru_cache(maxsize=1)
def _gl32_dd():
    """32-point Gauss-Legendre rule in double-double, as (hi, lo) arrays:
    numpy's float64 nodes, which cap every integral at ~1e-16, each take two
    Newton steps on P_32, and the weights are 2 (1 - x^2) / (32 P_31(x))^2."""
    one, n = (1.0, 0.0), (32.0, 0.0)

    def legendre(x):  # (P_31(x), P_32(x)) by the three-term recurrence
        p0, p1 = one, x
        for k in range(2, 33):
            p0, p1 = p1, dd.vdiv(dd.vadd(dd.vmul(dd.vmul((2.0 * k - 1.0, 0.0), x), p1),
                                         dd.vmul((1.0 - k, 0.0), p0)), (float(k), 0.0))
        return p0, p1

    x = (np.polynomial.legendre.leggauss(32)[0], np.zeros(32))
    for _ in range(2):  # P_32' = 32 (x P_32 - P_31) / (x^2 - 1)
        p31, p32 = legendre(x)
        step = dd.vdiv(dd.vmul(p32, dd.vadd(dd.vmul(x, x), (-1.0, 0.0))),
                       dd.vmul(n, dd.vadd(dd.vmul(x, p32), (-p31[0], -p31[1]))))
        x = dd.vadd(x, (-step[0], -step[1]))
    q = dd.vmul(n, legendre(x)[0])
    w = dd.vdiv(dd.vmul((2.0, 0.0), dd.vadd(one, dd.vmul((-x[0], -x[1]), x))), dd.vmul(q, q))
    return x, w


def _boxed_panels(x: float, y: float) -> tuple[float, list]:
    """The panels of int_0^x u^a e^-u / (u+y) du shared by gamma2_boxed and
    gamma2_boxed_dd: the end c = min(x/64, y/2) of the first panel [0, c],
    where the series in c/y <= 1/2 converges, and the edges of the rest,
    doubling from c to x/2, then 0.75 x and x.  Each graded panel is no
    wider than its distance from the endpoint power at u = 0."""
    c = min(x / 64.0, y / 2.0)
    edges = [c]
    while edges[-1] < x / 2.0:
        edges.append(min(edges[-1] * 2.0, x / 2.0))
    return c, sorted(set(edges + [0.75 * x, x]))


# _dd_gram asks for at most two seeds per Gram, and a seed is reused only
# inside one point: z_ubh's equal-species Gram asks for (a, s, s) twice and a
# flow seed's few Grams share theirs.  Every benchmark point draws new
# cutoffs, so 4,096 entries (~1.5 MB) keep every reuse while a long sweep's
# memory stays flat
@functools.lru_cache(maxsize=4096)
def _gamma2_boxed_cached(a: float, x: float, y: float) -> SpecFunResult:
    """gamma2_boxed_dd's panels in float64: its first-panel series, then the
    21-point Kronrod rule on each graded panel as one numpy expression, and
    one exactly rounded fsum of every term.  The error estimate is the
    embedded 10-point Gauss rule's distance per panel, the rounding of the
    series' alternating terms, and (8 + |a|) eps for the exponent a ln u - u,
    whose rounding comes back a-fold."""
    c, edges = _boxed_panels(x, y)
    # int_0^c u^a e^-u/(u+y) du = c^(a+1) / y sum_n (-1)^n t_n / (a+n+1) with
    # t_n = (c/y)^n sum_{k<=n} y^k/k! = (c/y) t_(n-1) + c^n/n!
    rho, t, cpow = c / y, 1.0, 1.0
    acc = tot = 1.0 / (a + 1.0)
    for n in range(1, 400):
        cpow *= c / n
        t = rho * t + cpow
        term = t / (a + 1.0 + n)
        acc = acc + term if n % 2 == 0 else acc - term
        tot += term
        if term <= 1e-17 * acc:
            break
    scale = c ** (a + 1.0) / y
    h = 0.5 * np.diff(edges)[:, None]
    u = np.array(edges[:-1])[:, None] + h * _GK_T
    f = h * np.exp(a * np.log(u) - u) / (u + y)
    val = math.fsum((f * _GK_W).ravel().tolist() + [scale * acc])
    err = float(np.abs(f @ _GK_D).sum()) + 4.0 * _EPS * scale * tot
    return SpecFunResult(val, err + (8.0 + abs(a)) * _EPS * abs(val))


def gamma2_boxed(a: float, x: float, y: float) -> SpecFunResult:
    """int_0^x e^-u u^a (u+y)^-1 du for finite x, the boxed companion of
    gamma2 (gamma2(a;0,y) = gamma2_boxed(a,x,y) + gamma2(a;x,y)).

    The float64 seed of the lo-fi Gram (`bops._dd_gram` without
    hi_fidelity); kept until every Gram is built in double-double.  One
    fixed rule on gamma2_boxed_dd's panels, within ~4e-15 relative of
    30-digit values for a <= 34 and x, y in [0.3, 35].  At cutoffs of several
    hundred the first panel's alternating series loses digits (7e-12 at
    x = y = 700), and est_abs_error covers it."""
    if not (0.0 <= x < INF and y > 0.0):
        raise DomainError(f"gamma2_boxed needs finite x >= 0 and y > 0, got ({x}, {y})")
    if not a > -1.0:
        raise DomainError(f"gamma2_boxed diverges for a <= -1, got a={a}")
    if x == 0.0:
        return SpecFunResult(0.0, 0.0)
    return _gamma2_boxed_cached(float(a), float(x), float(y))


def _first_panel_dd(ea: dd.DD, c: float, y: float, cpow: dd.DD) -> dd.DD:
    """int_0^c u^ea e^-u / (u+y) du in DD for 0 < c <= y/2, given
    cpow = c^(ea+1) e^-c.

    1/(u+y) = sum_n (-u)^n / y^(n+1) makes it the alternating sum
    sum_n (-1)^n gamma(ea+n+1, c) / y^(n+1), whose terms fall by at least
    rho = c/y <= 1/2 each (gamma(A+1, c) <= c gamma(A, c)), so it cancels
    by at most a factor 2.  With gamma(A, c) = c^A e^-c g(A) it is
    cpow / y sum_n (-rho)^n g(ea+n+1), summed by Horner from the top order
    down; g(A) = sum_k c^k / (A (A+1) ... (A+k)) is seeded by that series
    at the top order and runs down by g(A) = (1 + c g(A+1)) / A, which
    shrinks relative errors.
    """
    one, cdd, ydd = dd.DD(1.0), dd.DD(c), dd.DD(y)
    rho = cdd / ydd
    # the terms after the first `top` are below 2 rho^top <= 1e-34 of the sum
    top = math.ceil(79.0 / -math.log(c / y))
    a1 = ea + one
    big = a1 + dd.DD(float(top))
    term = g = one / big
    # the seed's terms grow while k < c - big, so its cap grows with c
    k, cap = 0, 400 + 2 * int(c)
    while abs(float(term)) > 1e-34 * abs(float(g)) and k < cap:
        k += 1
        term = term * cdd / (big + dd.DD(float(k)))
        g = g + term
    acc = g
    for n in range(top - 1, -1, -1):
        g = (one + cdd * g) / (a1 + dd.DD(float(n)))
        acc = g - rho * acc
    return cpow * acc / ydd


# a batch serves one hi-fi Gram, which _dd_gram caches itself, and every
# benchmark point draws new cutoffs: batches repeat only inside one point, and
# 64 entries keep a long sweep's memory flat
@functools.lru_cache(maxsize=64)
def gamma2_boxed_dd(seeds: tuple, weights: tuple = ()) -> tuple:
    """The double-double special-function values of one hi-fi Gram, in one
    array pass: for each (a, x, y, shift) in seeds the boxed Gamma2 seed
    int_0^x u^(a+shift) e^-u / (u+y) du, then for each (a, c) in weights the
    weight power c^(a+1) e^-c, as DDs in that order.  A seed listed twice is
    evaluated once.

    Deep-truncation determinants amplify these values by ~1e6, past the
    float64 evaluation floor (~3e-16); the shift is summed in DD, as the
    float64 a + shift is itself rounded.  A seed runs on `_boxed_panels`
    (gamma2_boxed's too): `_first_panel_dd` on [0, c], then one level of
    32-point Gauss-Legendre on the graded panels; a halved level moves the
    value by <= 5e-31 relative.  Every power and exponential is
    e^(A ln v - v): at the nodes v = u with A = a + shift, at each first
    panel's end v = c with A = a + shift + 1 and at each weight's base with
    A = a + 1, so one `dd.vln` and one `dd.vexp`, each by table, evaluate
    them all.  A weight's exponent stays above -700, where vexp flushes to
    zero, for a > -1 and 1 <= c <= 700; c e^(a ln c - c) would not.  A seed
    is within 1e-28 of 40-digit mpmath for x <= 700 (a in [-0.5, 1.1],
    shift 0 or 5-40, y in [0.05, 700]; 3e-32 at x = y = 700).
    """
    for a, x, y, shift in seeds:
        if not (x > 0.0 and y > 0.0 and a + shift > -1.0):
            raise DomainError(f"gamma2_boxed_dd domain: a={a}, shift={shift}, x={x}, y={y}")
    for a, c in weights:
        if not (0.0 < c < INF and a > -1.0):
            raise DomainError(f"gamma2_boxed_dd weight domain: a={a}, c={c}")
    nodes, gl_weights = _gl32_dd()
    one = dd.DD(1.0)
    uniq = list(dict.fromkeys(seeds))
    ea = [dd.DD(a) + dd.DD(float(shift)) for a, _, _, shift in uniq]
    # one row per graded panel of every seed: its edges, its seed's y and
    # a + shift; seed i owns rows[i]:rows[i + 1]
    ends, cols, rows = [], [], [0]
    for e, (_, x, y, _) in zip(ea, uniq):
        c, edges = _boxed_panels(x, y)
        ends.append(c)
        cols += [(l, r, y, e.hi, e.lo) for l, r in zip(edges[:-1], edges[1:])]
        rows.append(len(cols))
    lo, hi, ya, eh, el = np.array(cols).reshape(-1, 5).T[:, :, None]
    d, s = dd.vadd((hi, 0.0), (-lo, 0.0)), dd.vadd((hi, 0.0), (lo, 0.0))
    h = (0.5 * d[0], 0.5 * d[1])
    u = dd.vadd((0.5 * s[0], 0.5 * s[1]), dd.vmul(h, nodes))

    # e^(A ln v - v) as one flat batch: the nodes, then the first panels'
    # ends and the weights' bases
    ends += [c for _, c in weights]
    expo = [e + one for e in ea] + [dd.DD(a) + one for a, _ in weights]
    v = (np.append(u[0], ends), np.append(u[1], np.zeros(len(ends))))
    A = (np.append(np.broadcast_to(eh, u[0].shape), [e.hi for e in expo]),
         np.append(np.broadcast_to(el, u[0].shape), [e.lo for e in expo]))
    f = dd.vexp(dd.vadd(dd.vmul(A, dd.vln(v)), (-v[0], -v[1])))

    n = u[0].size
    fu = (f[0][:n].reshape(u[0].shape), f[1][:n].reshape(u[0].shape))
    g = dd.vdiv(dd.vmul(dd.vmul(h, gl_weights), fu), dd.vadd(u, (ya, 0.0)))
    pw = [dd.DD(ph, pl) for ph, pl in zip(f[0][n:], f[1][n:])]
    value = {seed: dd.vsum((g[0][r0:r1], g[1][r0:r1])) + _first_panel_dd(e, c, seed[2], p)
             for seed, e, c, p, r0, r1 in zip(uniq, ea, ends, pw, rows, rows[1:])}
    return tuple(value[seed] for seed in seeds) + tuple(pw[len(uniq):])


def gamma2_diag_scaled(a: float, z: complex) -> SpecFunResult:
    """e^z Gamma2(a; z, z) = int_0^inf e^-tau (z+tau)^a (2z+tau)^-1 dtau.

    Complex z off (-inf, 0]; the stable diagonal needed on Laplace contours.
    """
    z = complex(z)
    if _on_cut(z):
        raise DomainError(f"gamma2_diag_scaled branch point: z={z}")
    pts = [0.0]
    for c in (-z.real, -2.0 * z.real):
        if c > 0:
            pts.append(c)
    hi = max(pts) + 45.0 + 10.0 * max(abs(a), 1.0)
    pts.append(hi)
    pts = sorted(set(pts))

    z2 = 2.0 * z

    def f(tau: float) -> complex:
        return cmath.exp(a * cmath.log(z + tau) - tau) / (z2 + tau)

    val = 0j
    err = 0.0
    for lo, up in zip(pts[:-1], pts[1:]):
        v, e = _quad_c(f, lo, up)
        val += v
        err += e
    err += 2.0 * abs(f(hi))
    return SpecFunResult(val, err)
