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
(`_node_ladders`).  `_node_blocks` turns the ladders of a whole contour into
stacked numpy arrays from which the rescaled element and border functions
build all of its matrices at once.  No contour recurs, so its cache, keyed
by (m, a, nodes), holds one contour: the element and border calls of an
odd-m contour share it.
"""
from __future__ import annotations

import cmath
import functools

import numpy as np

from .specfun import gamma, gamma2_diag_scaled, gamma_upper_scaled


def _node_ladders(m: int, a: float, zs: list):
    """The special functions of the contour nodes zs at the orders j < m,
    one row per node: pos[i][j] = e^z Gamma(a+1+j, z), neg[i][j] =
    e^z Gamma(-a-1-j, z) and g2[i][j] = e^z Gamma2(a+j; z, z) at z = zs[i],
    built from three values per node by the exact three-term relations
    (DLMF 8.8.1; the second from u^(A+1)/(u+z) = u^A - z u^A/(u+z))

        e^z Gamma(A+1, z)     = A e^z Gamma(A, z) + z^A,
        e^z Gamma2(A+1; z, z) = e^z Gamma(A+1, z) - z e^z Gamma2(A; z, z).

    pos and g2 run upward from a+1 and a.  neg starts at the j* whose order
    magnitude a+1+j* is nearest |z| and runs away from it in both directions
    (Gautschi, SIAM Review 9, 1967): upward in the order for j < j*, where
    |z| > |A| damps errors by |A|/|z| per step, and downward for j > j*,
    where |A| > |z| damps them by |z|/|A-1|.  The incomplete-gamma values of
    all nodes are one `gamma_upper_scaled` call; Gamma2 is one adaptive
    call per node, and the ladders run in complex scalars.  At m = 1 only
    pos[i][0] is needed (the border), and only it is computed."""
    n = len(zs)
    if m == 1:
        return [[r.value] for r in gamma_upper_scaled([a + 1.0] * n, zs)], [], []
    tops = [min(max(round(abs(z) - a - 1.0), 0), m - 1) for z in zs]
    seeds = gamma_upper_scaled([a + 1.0] * n + [-a - 1.0 - top for top in tops], zs + zs)
    pos, neg, g2 = [], [], []
    for z, top, p0, q0 in zip(zs, tops, seeds, seeds[n:]):
        logz = cmath.log(z)
        p = [p0.value]
        for j in range(1, m):
            p.append((a + j) * p[-1] + cmath.exp((a + j) * logz))
        g = [gamma2_diag_scaled(a, z).value]
        for j in range(1, m):
            g.append(p[j - 1] - z * g[-1])
        q = [0j] * m
        q[top] = q0.value
        for j in range(top - 1, -1, -1):  # order A = -a-2-j up to A + 1
            A = -a - 2.0 - j
            q[j] = A * q[j + 1] + cmath.exp(A * logz)
        for j in range(top + 1, m):  # order A + 1 = -a-j down to A
            A = -a - 1.0 - j
            q[j] = (q[j - 1] - cmath.exp(A * logz)) / A
        pos.append(p)
        neg.append(q)
        g2.append(g)
    return pos, neg, g2


@functools.lru_cache(maxsize=1)
def _node_blocks(m: int, a: float, zs: tuple):
    """(g, pos, E0, E1, E2) of the contour nodes zs as read-only numpy
    arrays: the border entries g[j] - u pos[i, j], with g[j] = Gamma(a+1+j)
    and the ladder pos of `_node_ladders`, and the m x m element blocks of
    node i, M_jk = E0[j, k] + u E1[i, j, k] + u^2 E2[i, j, k] with
    u = xi e^-z.  Each block is purely algebraic in z (no large
    exponentials) and skew up to rounding, with a zero diagonal; at m = 1
    they are a single zero.  Every product keeps the operand order of one
    node's outer products, x[j] times y[k]: vectorized complex products may
    round x y and y x differently.

    Keyed by (m, a, zs) and holding one contour: no contour recurs, and the
    elements and border entries of its nodes, at all of their m + 1
    bookkeeping values u, read the same arrays."""
    pos, neg, g2 = _node_ladders(m, a, list(zs))
    g = np.array([gamma(a + 1.0 + j) for j in range(m + 1)])  # Gamma(a+1+j), j <= m
    gp = np.array(pos)
    if m == 1:
        e0 = np.zeros((1, 1))
        e1 = e2 = np.zeros((len(zs), 1, 1))
    else:
        idx = np.arange(m)
        logz = np.array([cmath.log(z) for z in zs])[:, None]
        zp = np.exp((a + 1.0 + np.arange(m + 1)) * logz)  # z^(a+1+j), j <= m
        # x[j] y[k] is xc * yr, with the columns xc and rows yr of one node
        gm = g[:m, None]
        gpc, gpr = gp[:, :, None], gp[:, None, :]
        g2c, g2r = np.array(g2)[:, :, None], np.array(g2)[:, None, :]
        zmc, zmr = zp[:, :m, None], zp[:, None, :m]
        zqc, zqr = zp[:, 1:, None], zp[:, None, 1:]
        gn = g[1:] * np.array(neg)
        jk = np.subtract.outer(idx, idx)
        den = 2.0 * a + 2.0 + np.add.outer(idx, idx)
        e0 = jk * (gm * gm.T) / den
        e1 = (-jk * (gm * gpr + gpc * gm.T)
              + 2.0 * (zmc * zmr) * (gn[:, :, None] - gn[:, None, :])) / den
        e2 = (jk * (gpc * gpr) + 2.0 * (zmc * gpr - gpc * zmr + g2c * zqr - zqc * g2r)) / den
        # only E2's diagonal can be nonzero; it is zero by definition
        e2[:, idx, idx] = 0.0
    out = (g[:m], gp, e0, e1, e2)
    for arr in out:
        arr.flags.writeable = False
    return out


def _blocks(m: int, a: float, z):
    """`_node_blocks` at the nodes z, a scalar or an array of any shape,
    with z's axes leading pos, E1 and E2."""
    z = np.asarray(z, dtype=complex)
    g, pos, e0, e1, e2 = _node_blocks(m, a, tuple(z.ravel().tolist()))
    lead = lambda arr: arr.reshape(z.shape + arr.shape[1:])
    return g, lead(pos), e0, lead(e1), lead(e2)


def ubh_pf_element_rescaled(j, k, m: int, a: float, z, u):
    """Elements M_jk of the m-dimensional matrix at the bookkeeping variable
    u standing for xi e^-z (Laplace path), at one node z or an array of
    nodes.  The u-dependent blocks carry z's axes, then those of j and k,
    and u broadcasts against them: index arrays, an array of nodes and an
    array of u give a whole stack of matrices at once."""
    _, _, e0, e1, e2 = _blocks(m, a, z)
    return e0[j, k] + u * e1[..., j, k] + u * u * e2[..., j, k]


def ubh_pf_border_rescaled(j, m: int, a: float, z, u):
    """Border entries Gamma(a+1+j) - u e^z Gamma(a+1+j, z) of the odd-m
    matrix; j, z and u broadcast as in `ubh_pf_element_rescaled`."""
    g, pos, _, _, _ = _blocks(m, a, z)
    return g[j] - u * pos[..., j]


def clear_caches() -> None:
    _node_blocks.cache_clear()
