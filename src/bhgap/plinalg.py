"""Determinants, triangular factorizations and Pfaffians.

The moment routes take their pivoted-LU determinant, unpivoted LDU
factorization and Parlett-Reid Pfaffian over compensated double-double
(DD/CDD) scalars.  The float64 Pfaffian serves the Laplace-contour
evaluations, one stack of matrices per contour node.  Both Pfaffians are
skew tridiagonalizations with partial pivoting and exact sign tracking
through the permutation parity.
"""
from __future__ import annotations

import math

import numpy as np

from . import dd
from .params import DomainError


def dd_lu_det(A):
    """Pivoted LU determinant over DD/CDD scalars; returns a DD/CDD (or 0.0)."""
    n = len(A)
    A = [row[:] for row in A]
    det = None
    sign = 1
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(A[i][k]))
        if abs(A[p][k]) == 0.0:
            return 0.0
        if p != k:
            A[p], A[k] = A[k], A[p]
            sign = -sign
        piv = A[k][k]
        det = piv if det is None else det * piv
        tail = A[k][k:]
        for row in A[k + 1:]:
            f = row[k] / piv
            row[k:] = [x - f * y for x, y in zip(row[k:], tail)]
    if det is None:
        return 1.0
    return det if sign > 0 else -det


def dd_ldu(A):
    """Unpivoted LDU factorization A = L diag(h) U over DD/CDD scalars, stable
    on totally positive matrices (de Boor & Pinkus, Numer. Math. 1977).

    Returns (h, linv, uinv, zero): the pivots, the rows of L^-1 and the
    columns of U^-1 cut at the diagonal, and the index of the first zero
    pivot (None if none).  Elimination stops there, so the result is then
    the factorization of the leading zero x zero block.
    """
    n = len(A)
    A = [row[:] for row in A]
    cx = n > 0 and isinstance(A[0][0], dd.CDD)
    linv = [[dd.wrap(float(c == i), cx) for c in range(i + 1)] for i in range(n)]
    uinv = [row[:] for row in linv]
    h = []
    for k in range(n):
        piv = A[k][k]
        if abs(piv) == 0.0:
            return h, linv[:k], uinv[:k], k
        h.append(piv)
        tail = A[k][k + 1:]
        for i in range(k + 1, n):
            f = A[i][k] / piv
            A[i][k + 1:] = [x - f * y for x, y in zip(A[i][k + 1:], tail)]
            linv[i][:k + 1] = [x - f * y for x, y in zip(linv[i], linv[k])]
        for j in range(k + 1, n):
            f = A[k][j] / piv
            uinv[j][:k + 1] = [x - f * y for x, y in zip(uinv[j], uinv[k])]
    return h, linv, uinv, None


def dd_pfaffian(A):
    """Parlett-Reid Pfaffian over DD/CDD entries; returns DD/CDD (or 0.0)."""
    n = len(A)
    A = [row[:] for row in A]
    pf = None
    sign = 1
    for k in range(0, n - 2, 2):
        p = max(range(k + 1, n), key=lambda i: abs(A[i][k]))
        if p != k + 1:
            A[p], A[k + 1] = A[k + 1], A[p]
            for row in A:
                row[p], row[k + 1] = row[k + 1], row[p]
            sign = -sign
        piv = A[k + 1][k]
        if abs(piv) == 0.0:
            return 0.0
        pf = A[k][k + 1] if pf is None else pf * A[k][k + 1]
        for i in range(k + 2, n):
            f = A[i][k] / piv
            A[i] = [x - f * y for x, y in zip(A[i], A[k + 1])]
            for row in A:
                row[i] = row[i] - f * row[k + 1]
    out = A[n - 2][n - 1] if pf is None else pf * A[n - 2][n - 1]
    return out if sign > 0 else -out


def _scalar_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y elementwise, a complex product rounded part by part as for
    Python and numpy scalars.  numpy's vectorized complex multiply may fuse
    a multiply and an add, so its last bit can depend on an entry's place in
    the array; this keeps each Pfaffian independent of its stack."""
    if not np.iscomplexobj(x):
        return x * y
    out = np.empty(x.shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def pfaffian(mat, check_skew: bool = True):
    """Pfaffian of an even-order skew-symmetric matrix, or of every matrix
    of a stack (..., n, n) (Parlett-Reid).

    The stack is eliminated in one pass, each matrix with its own pivots,
    by the same operations in the same order as a single matrix.  The sign
    is tracked exactly through the permutation parity, so pf(M)^2 = det(M)
    holds including sign conventions; a matrix that meets a zero pivot has
    Pfaffian 0.  A single matrix gives a scalar, a stack an array of the
    leading shape.
    """
    a = np.asarray(mat)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    n = a.shape[-1]
    if n % 2:
        raise DomainError(f"pfaffian needs even order, got {n}")
    if check_skew:
        scale = np.linalg.norm(a, axis=(-2, -1))
        if np.any(np.linalg.norm(a + np.swapaxes(a, -1, -2), axis=(-2, -1)) > 1e-10 * scale):
            raise DomainError("matrix fails the skew-symmetry check")
    A = a.reshape((math.prod(a.shape[:-2]), n, n)).astype(complex if np.iscomplexobj(a) else float)
    b = np.arange(len(A))
    odd = np.zeros(len(A), dtype=bool)
    live = np.ones(len(A), dtype=bool)
    sup = []  # super-diagonal of the skew tridiagonal factor
    for k in range(0, n - 2, 2):
        p = np.argmax(np.abs(A[:, k + 1:, k]), axis=1) + k + 1
        perm = np.tile(np.arange(n), (len(A), 1))
        perm[b, k + 1], perm[b, p] = p, k + 1
        A = A[b[:, None, None], perm[:, :, None], perm[:, None, :]]
        odd ^= p != k + 1
        piv = A[:, k + 1, k]
        live &= piv != 0
        # a dead matrix's column below the pivot is zero, so dividing it by 1
        # eliminates nothing and keeps its entries finite
        piv = np.where(live, piv, 1.0)
        sup.append(A[:, k, k + 1])
        for i in range(k + 2, n):
            f = (A[:, i, k] / piv)[:, None]
            A[:, i, :] -= f * A[:, k + 1, :]
            A[:, :, i] -= f * A[:, :, k + 1]
    if n:
        sup.append(A[:, n - 2, n - 1])
    pf = sup[0] if sup else np.ones(len(A))
    for d in sup[1:]:
        pf = _scalar_product(pf, d)
    return np.where(live, np.where(odd, -pf, pf), 0.0).reshape(a.shape[:-2])[()]
