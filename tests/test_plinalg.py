import enum
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bhgap import dd
from bhgap.params import DomainError
from bhgap.plinalg import dd_ldu, dd_lu_det, dd_pfaffian, pfaffian


class Precision(enum.Enum):
    """The two working precisions of the package's Pfaffians: float64 for
    the Laplace-contour Pfaffian, double-double for the moment routes."""

    STANDARD = "standard"
    EXTENDED = "extended"


def random_skew(n, rng, iscomplex=False):
    a = rng.standard_normal((n, n))
    if iscomplex:
        a = a + 1j * rng.standard_normal((n, n))
    return a - a.T


def as_dd(a):
    """DD/CDD matrix (or vector) from a numpy array, an exact embedding."""
    a = np.asarray(a)
    iscomplex = np.iscomplexobj(a)
    if a.ndim == 1:
        return [dd.wrap(v, iscomplex) for v in a]
    return [[dd.wrap(v, iscomplex) for v in row] for row in a]


def from_dd(v):
    return v if isinstance(v, float) else dd.unwrap(v)


def dd_det(a):
    return from_dd(dd_lu_det(as_dd(a)))


def ldu_parts(a):
    """(h, L^-1, U^-1, zero) of dd_ldu as numpy arrays."""
    h, linv, uinv, zero = dd_ldu(as_dd(a))
    n = len(h)
    L = np.zeros((n, n), dtype=np.asarray(a).dtype)
    U = np.zeros((n, n), dtype=L.dtype)
    for i in range(n):
        L[i, :i + 1] = [dd.unwrap(v) for v in linv[i]]
        U[:i + 1, i] = [dd.unwrap(v) for v in uinv[i]]
    return np.array([dd.unwrap(v) for v in h]), L, U, zero


def test_det_empty_is_one():
    assert dd_lu_det([]) == 1.0


def test_det_diag():
    assert abs(dd_det(np.diag([2.0, 3.0])) - 6.0) < 1e-14


def test_det_undeformed_moment_2x2():
    # M_jk = Gamma(j+1)Gamma(k+1)/(j+k+1) at a=b=0: det = 1*(1/3) - (1/2)^2 = 1/12,
    # exact up to the float64 rounding of the stored 1/3
    m = np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
    assert abs(dd_det(m) - 1.0 / 12.0) < 5e-17


def test_pfaffian_2x2():
    c = 3.7
    assert abs(pfaffian(np.array([[0.0, c], [-c, 0.0]])) - c) < 1e-14


def test_pfaffian_block_4x4():
    a, b = 2.5, -1.25
    m = np.zeros((4, 4))
    m[0, 1], m[1, 0] = a, -a
    m[2, 3], m[3, 2] = b, -b
    assert abs(pfaffian(m) - a * b) < 1e-14


def test_pfaffian_rejects_odd_and_asym():
    with pytest.raises(DomainError):
        pfaffian(np.zeros((3, 3)))
    with pytest.raises(DomainError):
        pfaffian(np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("precision", [Precision.STANDARD, Precision.EXTENDED])
@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_pf_squared_is_det(n, precision):
    rng = np.random.default_rng(1234 + n)
    m = random_skew(n, rng)
    if precision is Precision.EXTENDED:
        pf = from_dd(dd_pfaffian(as_dd(m)))
        d = dd_det(m)
    else:
        pf = pfaffian(m)
        d = np.linalg.det(m)
    assert abs(pf * pf - d) <= 1e-11 * abs(d)


def test_pf_squared_is_det_complex():
    rng = np.random.default_rng(7)
    m = random_skew(6, rng, iscomplex=True)
    pf = pfaffian(m)
    d = np.linalg.det(m)
    assert abs(pf * pf - d) <= 1e-12 * abs(d)


def test_pfaffian_sign_tracked():
    # canonical 2x2 blocks with known sign, shuffled by a similarity permutation
    rng = np.random.default_rng(5)
    m = np.zeros((6, 6))
    vals = [1.0, -2.0, 3.0]
    for i, v in enumerate(vals):
        m[2 * i, 2 * i + 1], m[2 * i + 1, 2 * i] = v, -v
    perm = rng.permutation(6)
    p = np.eye(6)[perm]
    sign = np.linalg.det(p)
    got = pfaffian(p @ m @ p.T)
    assert abs(got - sign * np.prod(vals)) < 1e-12


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_pfaffian_stack_matches_single_calls(n):
    # one pass over a stack, each member pivoted on its own: member 1's first
    # sub-diagonal entry is tiny, so it swaps rows at the first step, member
    # 2 is scaled up, and member 4 has a zero first row and column
    rng = np.random.default_rng(40 + n)
    stack = np.array([random_skew(n, rng, iscomplex=True) for _ in range(6)])
    stack[1, 0, 1], stack[1, 1, 0] = 1e-3, -1e-3
    stack[2] *= 1e3
    stack[4, 0, :] = stack[4, :, 0] = 0.0
    got = pfaffian(stack)
    want = np.array([pfaffian(mat) for mat in stack])
    scale = np.linalg.norm(stack, axis=(1, 2)) ** (n // 2)
    assert got.shape == (6,)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)
    assert np.all(np.abs(got * got - np.linalg.det(stack)) <= 1e-12 * scale ** 2)
    assert (got == 0).tolist() == [False, False, False, False, True, False]


def test_pfaffian_stack_shape_and_checks():
    rng = np.random.default_rng(9)
    stack = np.array([random_skew(4, rng) for _ in range(6)]).reshape(2, 3, 4, 4)
    got = pfaffian(stack)
    assert got.shape == (2, 3)
    assert got[1, 2] == pfaffian(stack[1, 2])
    stack[0, 1, 0, 1] += 1.0
    with pytest.raises(DomainError):
        pfaffian(stack)
    assert pfaffian(np.zeros((3, 0, 0))).tolist() == [1.0, 1.0, 1.0]


@given(st.integers(2, 5).map(lambda k: 2 * k))
@settings(max_examples=20, deadline=None)
def test_det_multiplicative(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    lhs = dd_det(a @ b)
    rhs = dd_det(a) * dd_det(b)
    assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), abs(rhs))


def test_ldu_empty():
    assert dd_ldu([]) == ([], [], [], None)


def test_ldu_reconstructs_and_multiplies_to_det():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6))
    h, L, U, zero = ldu_parts(a)
    assert zero is None
    assert np.allclose(np.diag(L), 1.0) and np.allclose(np.diag(U), 1.0)
    assert np.abs(L @ a @ U - np.diag(h)).max() <= 1e-12 * np.abs(a).max()
    d = dd_det(a)
    assert abs(np.prod(h) - d) <= 1e-12 * abs(d)


def test_ldu_zero_pivot_reports_index():
    # the second pivot is 4 - 2*2 = 0: the result is the leading 1x1 block's
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [1.0, 1.0, 1.0]])
    h, L, U, zero = ldu_parts(a)
    assert zero == 1
    assert h.tolist() == [1.0] and L.tolist() == [[1.0]] and U.tolist() == [[1.0]]
    assert dd_ldu(as_dd(np.array([[0.0, 1.0], [1.0, 0.0]])))[3] == 0


def test_solve_monic_p2_vs_bordered_determinant():
    # undeformed a=b=0 moments; the monic p2 coefficients (row 2 of L^-1)
    # must match the bordered-determinant cofactor expansion
    M = np.array([[math.gamma(j + 1) * math.gamma(k + 1) / (j + k + 1)
                   for k in range(3)] for j in range(3)])
    _, L, _, _ = ldu_parts(M)
    z2 = np.linalg.det(M[:2, :2])
    cof = []
    for j in range(3):
        rows = [r for r in range(3) if r != j]
        cof.append((-1) ** (j + 2) * np.linalg.det(M[np.ix_(rows, [0, 1])]) / z2)
    assert np.allclose(L[2], cof, rtol=1e-12)


def test_complex_solve_and_det():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h, L, U, _ = ldu_parts(a)
    assert np.abs(L @ a @ U - np.diag(h)).max() <= 1e-12 * np.abs(a).max()
    d = dd_det(a)
    assert isinstance(d, complex)
    assert abs(d - np.linalg.det(a)) <= 1e-12 * abs(d)


def test_extended_mode_beats_float_on_vandermonde():
    # nodes k/8 are exact in binary, so the reference product is exact too
    from fractions import Fraction

    n = 9
    nodes = [Fraction(k, 8) for k in range(n)]
    v = np.vander([float(x) for x in nodes], increasing=True)
    exact = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            exact *= nodes[j] - nodes[i]
    exact = float(exact)
    err_dd = abs(dd_det(v) - exact) / abs(exact)
    err_f = abs(np.linalg.det(v) - exact) / abs(exact)
    assert err_dd < 1e-14
    assert err_dd <= err_f
