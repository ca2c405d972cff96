"""Gamma, upper incomplete gamma, and the two-variable extension Gamma2.

Gamma(a, z) follows the classic series / modified-Lentz continued-fraction
split; complex z is supported on the principal branch (cut along (-inf, 0]).
Negative orders are reached either directly (the continued fraction does not
involve Gamma(a)) or by downward recurrence at integer order.

Gamma2(a; x, y) = int_x^inf e^-u u^a (u+y)^-1 du is evaluated by adaptive
quadrature after the shift u = x + v, with an analytic bound for the dropped
tail.  Scaled variants e^z * f(z) exist for Laplace-contour work where the
bare values would overflow.  There, for Re z < 0.5 and for orders far below
-|z|, e^z Gamma(a, z) is the tau integral int_0^inf e^-tau (z+tau)^(a-1) dtau
taken by one fixed composite Gauss-Kronrod rule (`_gup_tau_rule`, no
adaptive quadrature); e^z Gamma2(a; z, z) stays adaptive.

Every public function returns a SpecFunResult carrying the value and an
absolute error estimate, so callers can propagate tolerances instead of
assuming them.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

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
    """Exponential integral E1(z) = Gamma(0, z), |z| modest, z off the cut."""
    if abs(z) <= 30.0:
        tot = -_EULER - cmath.log(z)
        u = 1.0 + 0j
        for k in range(1, _MAXITER):
            u *= -z / k
            tot -= u / k
            if abs(u) < (abs(tot) + 1.0) * _EPS * k:
                break
        return tot, (abs(tot) + abs(u)) * 8 * _EPS
    cf, err = _cf_scaled(0.0, z)
    val = cmath.exp(-z) * cf
    return val, err * abs(cmath.exp(-z))


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


def _gup_tau_rule(c: float, z: complex) -> tuple[complex, float]:
    """e^z Gamma(c, z) = int_0^inf e^-tau (z+tau)^(c-1) dtau, z off the cut,
    by one fixed composite Gauss-Kronrod rule.

    The integrand is analytic except at tau = -z, so on panels no wider than
    their distance from it the rule converges geometrically (Trefethen, SIAM
    Review 50, 2008); the panels grade toward tstar = max(-Re z, 0) at the
    scale |z + tstar|.  Each node is an offset v from its panel's left edge
    e, and the integrand is e^-e exp((c-1) log((z+e) + v) - v): z + e is
    exact near tstar, so z + tau keeps its relative accuracy however close
    tau comes to -z, and e^-tau never meets the rounding of a large tau.
    The error estimate is the embedded Gauss rule's distance to the Kronrod
    value, per panel, plus the rounding of the exponents and the tail past
    the last edge."""
    tstar = max(-z.real, 0.0)
    s = abs(complex(z.real + tstar, z.imag))
    e = _tau_edges(tstar, s, tstar + 45.0 + 10.0 * abs(c))
    top = e[-1]
    h = 0.5 * np.diff(e)[:, None]
    v = h * _GK_T
    lw = (c - 1.0) * np.log((z + e[:-1])[:, None] + v)
    f = h * np.exp(-e[:-1])[:, None] * np.exp(lw - v)
    val = complex((f @ _GK_W).sum())
    # each exponent lw - v is off by eps times its size, at most
    # |c-1| (|ln|z+tau|| + pi) + v with |z+tau| in [s, |z| + top] and v below
    # a panel width
    size = abs(c - 1.0) * (max(abs(math.log(s)), math.log(abs(z) + top)) + math.pi) + _TAU_PANEL
    err = float(np.abs(f @ _GK_D).sum()) + _EPS * (size + 4.0) * float((np.abs(f) @ _GK_W).sum())
    # past top >= tstar, |z + tau| grows no faster than tau and
    # (c-1)/|z + top| < 1/2, so the tail is at most 2 e^-top |z + top|^(c-1)
    tail = 2.0 * math.exp(-top + (c - 1.0) * math.log(abs(z + top)))
    return val, err + tail


def _cf_is_safe(a: float, z: complex) -> bool:
    """The Legendre continued fraction degrades for orders well below -|z|."""
    return a >= 0.0 or abs(z) >= 1.5 * (-a) + 2.0


def gamma_upper(a: float, z: complex) -> SpecFunResult:
    """Principal-branch Gamma(a, z); a real (any sign), z off (-inf, 0]."""
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
            return _as_real(v, pref * cerr + abs(v) * 4 * _EPS)
        if a > 1e-12 and x < a + 1.0:
            low, lerr = _lower_series(a, x)
            g = math.gamma(a)
            v = g - low.real
            return _as_real(v, lerr + (abs(g) + abs(low)) * _EPS)
        v, err = _gup_small_z(a, x)  # a <= 0 (or ~0) with x small, or deep negative order
        return _as_real(v, err)
    # complex z
    if z.real >= 0.5:
        if a > 1e-12 and abs(z) < a + 1.0:  # the continued fraction fails here
            v, err = _upper_series(a, z)
            return SpecFunResult(v, err + abs(v) * 4 * _EPS)
        if _cf_is_safe(a, z):
            cf, cerr = _cf_scaled(a, z)
            pref = cmath.exp(-z + a * cmath.log(z))
            v = pref * cf
            return SpecFunResult(v, abs(pref) * cerr + abs(v) * 4 * _EPS)
        v, err = _gup_small_z(a, z)
        return SpecFunResult(v, err + abs(v) * 4 * _EPS)
    if abs(z) <= 2.0:
        v, err = _gup_small_z(a, z)
        return SpecFunResult(v, err + abs(v) * 4 * _EPS)
    sv, serr = _gup_tau_rule(a, z)
    emz = cmath.exp(-z)
    return SpecFunResult(emz * sv, abs(emz) * serr)


def gamma_upper_scaled(a: float, z: complex) -> SpecFunResult:
    """e^z Gamma(a, z), stable on Laplace contours where Re z << 0."""
    z = complex(z)
    if _on_cut(z):
        raise DomainError(f"gamma_upper branch cut: z={z}")
    if z.real >= 0.5:
        if a > 1e-12 and abs(z) < a + 1.0:  # as in gamma_upper
            ez = cmath.exp(z)
            v, err = _upper_series(a, z)
            return SpecFunResult(ez * v, abs(ez) * err + abs(ez * v) * 4 * _EPS)
        if _cf_is_safe(a, z):
            cf, cerr = _cf_scaled(a, z)
            za = _powc(z, a)
            v = za * cf
            return SpecFunResult(v, abs(za) * cerr + abs(v) * 4 * _EPS)
    v, err = _gup_tau_rule(a, z)
    return SpecFunResult(v, err)


def _as_real(v: complex, err: float) -> SpecFunResult:
    v = complex(v)
    if v.imag == 0.0:
        return SpecFunResult(v.real, err)
    return SpecFunResult(v, err)


# ---------------------------------------------------------------------------
# Gamma2
# ---------------------------------------------------------------------------

def _quad_c(f, lo: float, hi: float, want_imag: bool = True):
    """Integrate a complex-valued integrand over [lo, hi] (two real quads).

    Tolerances sit at the QUADPACK roundoff floor; full_output suppresses the
    roundoff warning and the returned error estimate stays honest.
    """
    re, ere = quad(lambda x: complex(f(x)).real, lo, hi,
                   epsabs=1e-15, epsrel=1e-13, limit=400, full_output=1)[:2]
    if want_imag:
        im, eim = quad(lambda x: complex(f(x)).imag, lo, hi,
                       epsabs=1e-15, epsrel=1e-13, limit=400, full_output=1)[:2]
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
    """int_0^x e^-u u^a (u+y)^-1 du, the boxed companion of gamma2
    (gamma2(a;0,y) = gamma2_boxed(a,x,y) + gamma2(a;x,y)).

    The float64 seed of the lo-fi Gram (`bops._dd_gram` without
    hi_fidelity); kept until every Gram is built in double-double.  One
    fixed rule on gamma2_boxed_dd's panels, within ~4e-15 relative of
    30-digit values for a <= 34 and x, y in [0.3, 35].  At cutoffs of several
    hundred the first panel's alternating series loses digits (7e-12 at
    x = y = 700), and est_abs_error covers it."""
    if not (x >= 0.0 and y > 0.0):
        raise DomainError(f"gamma2_boxed needs x >= 0, y > 0, got ({x}, {y})")
    if not a > -1.0:
        raise DomainError(f"gamma2_boxed diverges for a <= -1, got a={a}")
    if x == 0.0:
        return SpecFunResult(0.0, 0.0)
    if x == INF:
        return gamma2(a, 0.0, y)
    return _gamma2_boxed_cached(float(a), float(x), float(y))


@functools.lru_cache(maxsize=20000)
def gamma2_boxed_dd(a: float, x: float, y: float, shift: int = 0):
    """int_0^x u^(a+shift) e^-u / (u+y) du evaluated entirely in double-double.

    Deep-truncation determinants amplify this one seed by ~1e6, so the
    float64 evaluation floor (~3e-16) is not good enough for 1e-9 contracts;
    the shift is summed in DD, as the float64 a + shift is itself rounded.
    On `_boxed_panels` (gamma2_boxed's too): the first panel's series, then
    32-point Gauss-Legendre, halved until two levels agree to 1e-21.
    """
    if not (x > 0.0 and y > 0.0 and a + shift > -1.0):
        raise DomainError(f"gamma2_boxed_dd domain: a={a}, shift={shift}, x={x}, y={y}")
    nodes, weights = _gl32_dd()
    ydd = dd.DD(y)
    ea = dd.DD(a) + dd.DD(float(shift))

    # first panel [0, c] by the series int_0^c u^a e^-u/(u+y) du =
    # c^(a+1) sum_n (-1)^n u_n (c/y)^n / (y (a+n+1)), u_n = sum_{k<=n} y^k/k!,
    # which is exact DD arithmetic (the quadrature route is blocked by the
    # fractional-power derivative singularity at the origin); a is ea here
    c, u_edges = _boxed_panels(x, y)
    cdd = dd.DD(c)
    rho = cdd / ydd
    un = dd.DD(1.0)
    ypow = dd.DD(1.0)
    rpow = dd.DD(1.0)
    a1 = ea + dd.DD(1.0)
    acc0 = un / a1
    n = 0
    while n < 400:
        n += 1
        ypow = ypow * ydd / dd.DD(float(n))
        un = un + ypow
        rpow = rpow * rho
        term = un * rpow / (a1 + dd.DD(float(n)))
        acc0 = acc0 + term if n % 2 == 0 else acc0 - term
        if abs(float(term)) <= 1e-34 * abs(float(acc0)):
            break
    first = cdd * dd.dd_pow(cdd, ea) * acc0 / ydd

    # every panel of a level is one (panels, 32) batch; the integrand is
    # exp(ea ln u - u) / (u + y)
    xn, wn = (nodes[0][None, :], nodes[1][None, :]), (weights[0][None, :], weights[1][None, :])
    eav = (ea.hi, ea.lo)

    def level(eh, el):  # the edges' hi and lo parts
        lo, hi = (eh[:-1, None], el[:-1, None]), (eh[1:, None], el[1:, None])
        d, s = dd.vadd(hi, (-lo[0], -lo[1])), dd.vadd(hi, lo)
        h = (0.5 * d[0], 0.5 * d[1])
        u = dd.vadd((0.5 * s[0], 0.5 * s[1]), dd.vmul(h, xn))
        f = dd.vexp(dd.vadd(dd.vmul(eav, dd.vln(u)), (-u[0], -u[1])))
        return dd.vsum(dd.vdiv(dd.vmul(dd.vmul(h, wn), f), dd.vadd(u, (y, 0.0)))) + first

    eh, el = np.array(u_edges), np.zeros(len(u_edges))
    prev = level(eh, el)
    err = math.inf
    for _ in range(3):
        mh, ml = dd.vadd((eh[:-1], el[:-1]), (eh[1:], el[1:]))
        at = np.arange(1, len(eh))
        eh, el = np.insert(eh, at, 0.5 * mh), np.insert(el, at, 0.5 * ml)
        cur = level(eh, el)
        diff = prev - cur
        err = abs(diff.hi + diff.lo)
        prev = cur
        if err <= 1e-21 * abs(float(cur)):
            break
    return prev, err


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

    def f(tau: float) -> complex:
        return cmath.exp(a * cmath.log(z + tau) - tau) / (2.0 * z + tau)

    val = 0j
    err = 0.0
    for lo, up in zip(pts[:-1], pts[1:]):
        v, e = _quad_c(f, lo, up)
        val += v
        err += e
    err += 2.0 * abs(f(hi))
    return SpecFunResult(val, err)
