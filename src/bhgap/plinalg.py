"""Determinants, triangular factorizations and Pfaffians.

The moment routes take their pivoted-LU determinant, unpivoted LDU
factorization and Parlett-Reid Pfaffian over compensated double-double
(DD/CDD) scalars.  The float64 Pfaffian serves the Laplace-contour
evaluations.  Both Pfaffians are skew tridiagonalizations with partial
pivoting and exact sign tracking through the permutation parity.
"""
from __future__ import annotations

import numpy as np

from . import dd
from .params import DomainError


def _as_matrix(mat) -> np.ndarray:
    a = np.asarray(mat)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    return a


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
        det = A[k][k] if det is None else det * A[k][k]
        for i in range(k + 1, n):
            f = A[i][k] / A[k][k]
            for j in range(k, n):
                A[i][j] = A[i][j] - f * A[k][j]
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
        for i in range(k + 1, n):
            f = A[i][k] / piv
            for j in range(k + 1, n):
                A[i][j] = A[i][j] - f * A[k][j]
            for c in range(k + 1):
                linv[i][c] = linv[i][c] - f * linv[k][c]
        for j in range(k + 1, n):
            f = A[k][j] / piv
            for c in range(k + 1):
                uinv[j][c] = uinv[j][c] - f * uinv[k][c]
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
            for j in range(n):
                A[i][j] = A[i][j] - f * A[k + 1][j]
            for row in A:
                row[i] = row[i] - f * row[k + 1]
    out = A[n - 2][n - 1] if pf is None else pf * A[n - 2][n - 1]
    return out if sign > 0 else -out


def pfaffian(mat, check_skew: bool = True):
    """Pfaffian of an even-order skew-symmetric matrix (Parlett-Reid).

    The sign is tracked exactly through the permutation parity, so pf(M)^2 =
    det(M) holds including sign conventions.
    """
    a = _as_matrix(mat)
    n = a.shape[0]
    if n % 2:
        raise DomainError(f"pfaffian needs even order, got {n}")
    if n == 0:
        return 1.0
    if check_skew:
        scale = np.linalg.norm(a)
        if scale > 0 and np.linalg.norm(a + a.T) > 1e-10 * scale:
            raise DomainError("matrix fails the skew-symmetry check")
    A = a.astype(complex) if np.iscomplexobj(a) else a.astype(float)
    pf = 1.0 + 0j if np.iscomplexobj(a) else 1.0
    for k in range(0, n - 2, 2):
        p = int(np.argmax(np.abs(A[k + 1:, k]))) + k + 1
        if p != k + 1:
            A[[k + 1, p], :] = A[[p, k + 1], :]
            A[:, [k + 1, p]] = A[:, [p, k + 1]]
            pf = -pf
        piv = A[k + 1, k]
        if piv == 0:
            return 0.0
        pf *= A[k, k + 1]  # super-diagonal of the skew tridiagonal factor
        for i in range(k + 2, n):
            f = A[i, k] / piv
            A[i, :] -= f * A[k + 1, :]
            A[:, i] -= f * A[:, k + 1]
    return pf * A[n - 2, n - 1]
