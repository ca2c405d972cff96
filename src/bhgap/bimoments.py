"""Exponentially rescaled Pfaffian elements of the one-species (Bures-Hall)
ensemble at complex cutoffs, for the fixed-trace Laplace inversion.

Every deformed bi-moment at a real cutoff comes from one source, the
double-double Gram `bops._dd_gram`; this module holds only what that Gram
cannot serve, the contour nodes.  There the cutoff argument z is complex
with Re z << 0 possible, so the elements are assembled from exponentially
rescaled blocks (one factor e^-z per power of the generating variable) and
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

import numpy as np

from .specfun import gamma, gamma2_diag_scaled, gamma_upper_scaled


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


def clear_caches() -> None:
    _node_blocks.cache_clear()
