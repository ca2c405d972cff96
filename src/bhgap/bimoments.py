"""Closed-form deformed bi-moments and the unconstrained Bures-Hall Pfaffian elements.

The bi-moment M_{j,k}(s,t;a,b;xi,psi) depends on the exponents only through
a+j and b+k, so everything is memoized on the shifted pair.  The +inf
sentinel in (s, t) short-circuits to the undeformed Laguerre formulas.

For the Laplace-inversion path the cutoff argument z is complex with
Re z << 0 possible; the UBH elements are then assembled from exponentially
rescaled blocks (one factor e^-z per power of the generating variable), so
no large exponentials ever appear in floating point.  A contour node z needs
three special-function values per order j (e^z Gamma(a+1+j, z),
e^z Gamma(-a-1-j, z), e^z Gamma2(a+j; z, z)); each is computed once per
(order, node) and shared by every block and border entry at that node.  No z
recurs across nodes, so reuse happens only within a node, and the caches
are bounded to hold one whole node up to m = 30 (`_NODE_M`).
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


def _is_zero(x) -> bool:
    return x == 0


def _powc(z: complex, p: float) -> complex:
    if isinstance(z, complex):
        return cmath.exp(p * cmath.log(z))
    return z ** p


@functools.lru_cache(maxsize=100000)
def _alpha_shifted(A: float, xi: complex, s) -> complex:
    """Deformed univariate moment Gamma(A+1) - xi Gamma(A+1, s).

    Assembled as (1 - xi) Gamma + xi gamma_lower: for cutoffs well below the
    order the direct subtraction would cancel to nothing.
    """
    if _is_zero(xi) or s == INF:
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
    xi_off = _is_zero(xi) or s == INF
    psi_off = _is_zero(psi) or t == INF
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


# The Laplace-path caches hold one whole contour node up to this m; a smaller
# bound would make a node's cyclic lookups evict each other.  Past about
# m = 30 a node's float Pfaffian overflows anyway.
_NODE_M = 30


@functools.lru_cache(maxsize=3 * _NODE_M)
def _node_value(fn, order: float, z: complex) -> complex:
    """fn(order, z).value, computed once per (function, order, node); a node
    at m orders needs 3m entries."""
    return fn(order, z).value


@functools.lru_cache(maxsize=_NODE_M * (_NODE_M - 1) // 2)
def _ubh_blocks(j: int, k: int, a: float, z: complex):
    """Element blocks (E0, E1, E2) with M_jk = (E0 + u E1 + u^2 E2) / (2a+2+j+k),
    u = xi e^-z.  Each block is purely algebraic in z (no large exponentials).

    Each special-function value is looked up in `_node_value`, one per order
    and node.  The cache holds the m(m-1)/2 blocks of one node for
    m <= _NODE_M, which the node's m + 1 bookkeeping values u reuse."""
    gj, gk = gamma(a + 1.0 + j), gamma(a + 1.0 + k)
    Gj = _node_value(gamma_upper_scaled, a + 1.0 + j, z)
    Gk = _node_value(gamma_upper_scaled, a + 1.0 + k, z)
    Gmj = _node_value(gamma_upper_scaled, -a - 1.0 - j, z)
    Gmk = _node_value(gamma_upper_scaled, -a - 1.0 - k, z)
    G2j = _node_value(gamma2_diag_scaled, a + float(j), z)
    G2k = _node_value(gamma2_diag_scaled, a + float(k), z)
    e0 = (j - k) * gj * gk
    e1 = ((j - k) * (-gj * Gk - gk * Gj)
          + 2.0 * _powc(z, 2 * a + 2 + j + k) * (gamma(a + 2.0 + j) * Gmj - gamma(a + 2.0 + k) * Gmk))
    e2 = ((j - k) * Gj * Gk
          + 2.0 * (_powc(z, a + 1 + j) * Gk - _powc(z, a + 1 + k) * Gj
                   + _powc(z, a + 2 + k) * G2j - _powc(z, a + 2 + j) * G2k))
    den = 2.0 * a + 2.0 + j + k
    return e0 / den, e1 / den, e2 / den


def ubh_pf_element(j: int, k: int, p: ModelParams, d: DeformPoint) -> complex:
    """Skew Pfaffian matrix element M^UB-H_{j,k} of the one-species ensemble.

    The closed form carries an overall factor 1/(2a+2+j+k) relative to the
    raw three-block numerator; the diagonal vanishes identically.
    """
    if j == k:
        return 0.0
    if d.s == INF or _is_zero(p.xi):
        return (j - k) * gamma(p.a + 1.0 + j) * gamma(p.a + 1.0 + k) / (2.0 * p.a + 2.0 + j + k)
    z = d.s
    e0, e1, e2 = _ubh_blocks(j, k, p.a, complex(z) if isinstance(z, complex) else float(z))
    u = p.xi * cmath.exp(-complex(z)) if isinstance(z, complex) else p.xi * math.exp(-z)
    v = e0 + u * e1 + u * u * e2
    if isinstance(v, complex) and v.imag == 0.0:
        return v.real
    return v


def ubh_pf_element_rescaled(j: int, k: int, a: float, z: complex, u: complex) -> complex:
    """Element at bookkeeping variable u standing for xi e^-z (Laplace path)."""
    if j == k:
        return 0.0
    e0, e1, e2 = _ubh_blocks(j, k, a, z)
    return e0 + u * e1 + u * u * e2


def ubh_pf_border_rescaled(j: int, a: float, z: complex, u: complex) -> complex:
    return gamma(a + 1.0 + j) - u * _node_value(gamma_upper_scaled, a + 1.0 + j, z)


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
    _ubh_blocks.cache_clear()
    _node_value.cache_clear()
