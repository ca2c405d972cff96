"""Closed-form deformed bi-moments and the unconstrained Bures-Hall Pfaffian elements.

The bi-moment M_{j,k}(s,t;a,b;xi,psi) depends on the exponents only through
a+j and b+k, so everything is memoized on the shifted pair.  The +inf
sentinel in (s, t) short-circuits to the undeformed Laguerre formulas.

For the Laplace-inversion path the cutoff argument z is complex with
Re z << 0 possible; the UBH elements are then assembled from exponentially
rescaled blocks (one factor e^-z per power of the generating variable), so
no large exponentials ever appear in floating point.  A contour node z of
the m-dimensional matrix needs three special-function families at the
orders j < m: e^z Gamma(a+1+j, z), e^z Gamma(-a-1-j, z) and
e^z Gamma2(a+j; z, z).  Each family is one series, continued-fraction,
fixed-rule or (for Gamma2) adaptive-quadrature value, extended to the other
orders by an exact three-term recurrence run in its stable direction
(`_node_ladders`).  `_node_blocks` turns them into numpy arrays from which
the rescaled element and border functions build all of a node's matrices
at once.  No z recurs across nodes, so its cache, keyed by (m, a, z), holds
one node.
"""
from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .params import INF, DeformPoint, DomainError, ModelParams
from .specfun import (
    gamma_lower,
    gamma,
    gamma2,
    gamma2_diag_scaled,
    gamma_upper,
    gamma_upper_scaled,
)


@functools.lru_cache(maxsize=100000)
def _alpha_shifted(A: float, xi: complex, s) -> complex:
    """Deformed univariate moment Gamma(A+1) - xi Gamma(A+1, s).

    Assembled as (1 - xi) Gamma + xi gamma_lower: for cutoffs well below the
    order the direct subtraction would cancel to nothing.
    """
    if xi == 0 or s == INF:
        return gamma(A + 1.0)
    val = (1.0 - xi) * gamma(A + 1.0) + xi * gamma_lower(A + 1.0, s).value
    if isinstance(val, complex) and val.imag == 0.0:
        return val.real
    return val


def alpha_moment(j: int, p: ModelParams, d: DeformPoint) -> complex:
    """x-species deformed moment of order j."""
    if j < 0:
        raise DomainError(f"moment order must be >= 0, got {j}")
    return _alpha_shifted(p.a + j, p.xi, d.s)


def beta_moment(k: int, p: ModelParams, d: DeformPoint) -> complex:
    """y-species mirror of alpha_moment."""
    if k < 0:
        raise DomainError(f"moment order must be >= 0, got {k}")
    return _alpha_shifted(p.b + k, p.psi, d.t)


@functools.lru_cache(maxsize=100000)
def _bimoment_shifted(A: float, B: float, s, t, xi: complex, psi: complex) -> complex:
    if not (A > -1.0 and B > -1.0):
        raise DomainError(f"bimoment needs shifted exponents > -1, got ({A}, {B})")
    if A + B + 1.0 <= 0.0:
        raise DomainError(
            f"bimoment diverges at the origin for A+B+1 = {A + B + 1.0} <= 0")
    xi_off = xi == 0 or s == INF
    psi_off = psi == 0 or t == INF
    val = _alpha_shifted(A, 0.0 if xi_off else xi, s) * _alpha_shifted(B, 0.0 if psi_off else psi, t)
    if not xi_off:
        inner = gamma(B + 1.0) * math.exp(s) * s ** B * gamma_upper(-B, s).value
        if not psi_off:
            inner = inner - psi * gamma2(B, t, s).value
        val = val + xi * s ** (A + 1.0) * math.exp(-s) * inner
    if not psi_off:
        inner = gamma(A + 1.0) * math.exp(t) * t ** A * gamma_upper(-A, t).value
        if not xi_off:
            inner = inner - xi * gamma2(A, s, t).value
        val = val + psi * t ** (B + 1.0) * math.exp(-t) * inner
    return val / (A + B + 1.0)


def bimoment(j: int, k: int, p: ModelParams, d: DeformPoint) -> complex:
    """Deformed bi-moment M_{j,k}(s,t;a,b;xi,psi) by the closed form."""
    if j < 0 or k < 0:
        raise DomainError("bimoment indices must be >= 0")
    v = _bimoment_shifted(p.a + j, p.b + k, d.s, d.t, complex(p.xi), complex(p.psi))
    if v.imag == 0.0:
        return v.real
    return v


# ---------------------------------------------------------------------------
# unconstrained Bures-Hall (single species; uses a, xi, s only)
# ---------------------------------------------------------------------------

def ubh_pf_border(j: int, p: ModelParams, d: DeformPoint) -> complex:
    """Border entry for odd dimension; equals the deformed univariate moment."""
    return alpha_moment(j, p, d)


def _node_ladders(m: int, a: float, z: complex):
    """The special functions of one contour node at the orders j < m:
    pos[j] = e^z Gamma(a+1+j, z), neg[j] = e^z Gamma(-a-1-j, z) and
    g2[j] = e^z Gamma2(a+j; z, z), built from three values by the exact
    three-term relations (DLMF 8.8.1; the second from
    u^(A+1)/(u+z) = u^A - z u^A/(u+z))

        e^z Gamma(A+1, z)     = A e^z Gamma(A, z) + z^A,
        e^z Gamma2(A+1; z, z) = e^z Gamma(A+1, z) - z e^z Gamma2(A; z, z).

    pos and g2 run upward from a+1 and a.  neg starts at the j* whose order
    magnitude a+1+j* is nearest |z| and runs away from it in both directions
    (Gautschi, SIAM Review 9, 1967): upward in the order for j < j*, where
    |z| > |A| damps errors by |A|/|z| per step, and downward for j > j*,
    where |A| > |z| damps them by |z|/|A-1|.  At m = 1 only pos[0] is needed
    (the border), and only it is computed."""
    pos = [gamma_upper_scaled(a + 1.0, z).value]
    if m == 1:
        return pos, [], []
    logz = cmath.log(z)
    for j in range(1, m):
        pos.append((a + j) * pos[-1] + cmath.exp((a + j) * logz))
    g2 = [gamma2_diag_scaled(a, z).value]
    for j in range(1, m):
        g2.append(pos[j - 1] - z * g2[-1])
    top = min(max(round(abs(z) - a - 1.0), 0), m - 1)
    neg = [0j] * m
    neg[top] = gamma_upper_scaled(-a - 1.0 - top, z).value
    for j in range(top - 1, -1, -1):  # order A = -a-2-j up to A + 1
        A = -a - 2.0 - j
        neg[j] = A * neg[j + 1] + cmath.exp(A * logz)
    for j in range(top + 1, m):  # order A + 1 = -a-j down to A
        A = -a - 1.0 - j
        neg[j] = (neg[j - 1] - cmath.exp(A * logz)) / A
    return pos, neg, g2


@functools.lru_cache(maxsize=1)
def _node_blocks(m: int, a: float, z: complex):
    """(g, pos, E0, E1, E2) of one contour node as read-only numpy arrays:
    the border entries g[j] - u pos[j], with g[j] = Gamma(a+1+j) and the
    ladder pos of `_node_ladders`, and the m x m element blocks,
    M_jk = E0[j, k] + u E1[j, k] + u^2 E2[j, k] with u = xi e^-z.  Each block
    is purely algebraic in z (no large exponentials) and skew up to
    rounding, with a zero diagonal; at m = 1 they are a single zero.

    Keyed by (m, a, z) and holding one node: no z recurs across nodes, and
    the elements and border entries of a node, at all of its m + 1
    bookkeeping values u, read the same arrays."""
    pos, neg, g2 = _node_ladders(m, a, z)
    g = np.array([gamma(a + 1.0 + j) for j in range(m + 1)])  # Gamma(a+1+j), j <= m
    gp = np.array(pos)
    if m == 1:
        e0 = e1 = e2 = np.zeros((1, 1))
    else:
        idx = np.arange(m)
        zp = np.exp((a + 1.0 + np.arange(m + 1)) * cmath.log(z))  # z^(a+1+j), j <= m
        # columns; x * y.T is the outer product of x and y
        gm, gpc, g2c = g[:m, None], gp[:, None], np.array(g2)[:, None]
        zm, zq = zp[:m, None], zp[1:, None]
        gn = g[1:] * np.array(neg)
        jk = np.subtract.outer(idx, idx)
        den = 2.0 * a + 2.0 + np.add.outer(idx, idx)
        e0 = jk * (gm * gm.T) / den
        e1 = (-jk * (gm * gpc.T + gpc * gm.T) + 2.0 * (zm * zm.T) * np.subtract.outer(gn, gn)) / den
        e2 = (jk * (gpc * gpc.T) + 2.0 * (zm * gpc.T - gpc * zm.T + g2c * zq.T - zq * g2c.T)) / den
        # vectorized complex products may round x y and y x differently, so
        # only E2's diagonal can be nonzero; it is zero by definition
        np.fill_diagonal(e2, 0.0)
    out = (g[:m], gp, e0, e1, e2)
    for arr in out:
        arr.flags.writeable = False
    return out


def ubh_pf_element(j: int, k: int, p: ModelParams, d: DeformPoint) -> complex:
    """Skew Pfaffian matrix element M^UB-H_{j,k} of the one-species ensemble.

    The closed form carries an overall factor 1/(2a+2+j+k) relative to the
    raw three-block numerator; the diagonal vanishes identically.
    """
    if j == k:
        return 0.0
    if d.s == INF or p.xi == 0:
        return (j - k) * gamma(p.a + 1.0 + j) * gamma(p.a + 1.0 + k) / (2.0 * p.a + 2.0 + j + k)
    z = d.s
    _, _, e0, e1, e2 = _node_blocks(max(p.m, j + 1, k + 1), p.a,
                                    complex(z) if isinstance(z, complex) else float(z))
    u = p.xi * cmath.exp(-complex(z)) if isinstance(z, complex) else p.xi * math.exp(-z)
    v = e0[j, k] + u * e1[j, k] + u * u * e2[j, k]
    if isinstance(v, complex) and v.imag == 0.0:
        return v.real
    return v


def ubh_pf_element_rescaled(j, k, m: int, a: float, z: complex, u):
    """Elements M_jk of the m-dimensional matrix at the bookkeeping variable
    u standing for xi e^-z (Laplace path).  j, k and u broadcast: index
    arrays and an array of u give a whole stack of matrices at once."""
    _, _, e0, e1, e2 = _node_blocks(m, a, z)
    return e0[j, k] + u * e1[j, k] + u * u * e2[j, k]


def ubh_pf_border_rescaled(j, m: int, a: float, z: complex, u):
    """Border entries Gamma(a+1+j) - u e^z Gamma(a+1+j, z) of the odd-m
    matrix; j and u broadcast as in `ubh_pf_element_rescaled`."""
    g, pos, _, _, _ = _node_blocks(m, a, z)
    return g[j] - u * pos[j]


def ubh_pf_matrix(p: ModelParams, d: DeformPoint) -> np.ndarray:
    """The Pfaffian matrix: m x m for even m, bordered (m+1) x (m+1) for odd m."""
    m = p.m
    if m % 2 == 0:
        out = np.zeros((m, m), dtype=complex)
        for j in range(m):
            for k in range(j + 1, m):
                out[j, k] = ubh_pf_element(j, k, p, d)
                out[k, j] = -out[j, k]
    else:
        out = np.zeros((m + 1, m + 1), dtype=complex)
        for j in range(m):
            out[0, j + 1] = ubh_pf_border(j, p, d)
            out[j + 1, 0] = -out[0, j + 1]
            for k in range(j + 1, m):
                out[j + 1, k + 1] = ubh_pf_element(j, k, p, d)
                out[k + 1, j + 1] = -out[j + 1, k + 1]
    if np.all(out.imag == 0.0):
        return out.real
    return out


def clear_caches() -> None:
    _alpha_shifted.cache_clear()
    _bimoment_shifted.cache_clear()
    _node_blocks.cache_clear()
