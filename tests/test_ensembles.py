import math
import warnings

import numpy as np
import pytest

from bhgap import dd
from bhgap.ensembles import (
    Route,
    _pf_sign,
    _xi_coefficients,
    fk_bridge_residual,
    normalizations,
    z_bhft,
    z_cl2m,
    z_cl2m_flow,
    z_ubh,
)
from bhgap.oracles import quad_gap_small_m
from bhgap.params import DeformPoint, INF, ModelParams, PrecisionWarning
from bhgap.plinalg import dd_pfaffian


def test_normalizations_m1():
    p = ModelParams(m=1, a=0.4, b=0.9)
    c_cl2m, c_ubh, c_bhft = normalizations(p)
    assert abs(c_cl2m - math.gamma(1.4) * math.gamma(1.9) / (0.4 + 0.9 + 1)) < 1e-14
    assert abs(c_ubh - math.gamma(1.4)) < 1e-14 * math.gamma(1.4)


@pytest.mark.parametrize("a", [-0.4, 0.0, 1.3])
def test_bhft_norm_m1_is_one(a):
    p = ModelParams(m=1, a=a)
    assert abs(normalizations(p)[2] - 1.0) < 1e-12


def test_undeformed_det_consistency():
    for m in range(1, 7):
        p = ModelParams(m=m, a=0.3, b=0.8, xi=0.0, psi=0.0)
        z = z_cl2m(p, DeformPoint(INF, INF))
        assert abs(z.value - 1.0) <= 1e-8
        assert z.route is Route.DETERMINANT


def test_z_cl2m_xi_zero_exact():
    p = ModelParams(m=3, a=0.0, b=1.0, xi=0.0, psi=0.0)
    assert abs(z_cl2m(p, DeformPoint(1.0, 1.0)).value - 1.0) <= 1e-10


def test_z_cl2m_inf_cutoffs():
    p = ModelParams(m=2, a=0.0, b=1.0, xi=0.7, psi=0.9)
    assert abs(z_cl2m(p, DeformPoint(INF, INF)).value - 1.0) <= 1e-10


def test_z_cl2m_m1_against_oracle():
    p = ModelParams(m=1, a=0.0, b=0.0, xi=1.0, psi=1.0)
    d = DeformPoint(1.0, 1.0)
    got = z_cl2m(p, d).value
    want = quad_gap_small_m(p, d).value
    assert abs(got - want) <= 1e-8 * max(abs(want), 1.0)


def test_z_cl2m_m2_against_oracle():
    p = ModelParams(m=2, a=0.5, b=0.2, xi=1.0, psi=0.6)
    d = DeformPoint(1.0, 1.4)
    got = z_cl2m(p, d).value
    want = quad_gap_small_m(p, d).value
    assert abs(got - want) <= 1e-7 * max(abs(want), 1.0)


def test_probability_range_on_unit_diagonal():
    p = ModelParams(m=3, a=0.5, b=0.5, xi=1.0, psi=1.0)
    for s in (0.5, 1.0, 2.0, 5.0):
        v = z_cl2m(p, DeformPoint(s, s)).value
        assert -1e-9 <= v.real if isinstance(v, complex) else v >= -1e-9
        assert (v.real if isinstance(v, complex) else v) <= 1.0 + 1e-9


def test_z_ubh_xi_zero_is_one():
    for m in (1, 2, 3, 4, 5):
        p = ModelParams(m=m, a=0.5, b=0.0, xi=0.0)
        z = z_ubh(p, 1.0)
        assert abs(z.value - 1.0) <= 1e-10
        assert z.route is Route.PFAFFIAN


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("aa", [-0.4, 0.5])
def test_fk_bridge(m, aa):
    for xi in (0.3, 1.0):
        for s in (0.5, 2.0):
            assert fk_bridge_residual(m, aa, xi, s) <= 1e-9


def test_z_ubh_tiny_value_is_not_flagged():
    # ~5e-16 and correct: its FK-bridge partner agrees far inside est_error,
    # so no PrecisionWarning may fire
    with warnings.catch_warnings():
        warnings.simplefilter("error", PrecisionWarning)
        r = z_ubh(ModelParams(5, 0.5, 0.0, 1.0, 0.0), 0.5)
        zc = z_cl2m(ModelParams(5, 0.5, 1.5, 1.0, 1.0), DeformPoint(0.5, 0.5)).value
    assert 0.0 < r.value < 1e-15
    assert abs(r.value - math.sqrt(zc)) <= r.est_error <= 1e-9 * r.value


def test_printed_bridge_constant_differs_by_2_to_m():
    # the 2^m-scaled variant fails by exactly (2^m - 1): the normalized
    # generating functions already agree without the constant
    m, aa, xi, s = 3, 0.5, 1.0, 1.0
    pu = ModelParams(m, aa, 0.0, xi, 0.0)
    zu = z_ubh(pu, s).value
    pc = ModelParams(m, aa, aa + 1.0, xi, xi)
    zc = z_cl2m(pc, DeformPoint(s, s)).value
    lhs = abs(zu * zu - 2 ** m * zc) / abs(zu * zu)
    assert abs(lhs - (2 ** m - 1)) <= 1e-6


def undeformed_pf_matrix(m, a):
    """Closed-form undeformed element matrix of z_ubh, Gamma(a+1+j)
    Gamma(a+1+k) (j-k)/(2a+2+j+k), bordered by Gamma(a+1+j) for odd m."""
    g = [math.gamma(a + 1 + j) for j in range(m)]
    inner = [[g[j] * g[k] * (j - k) / (2 * a + 2 + j + k) for k in range(m)]
             for j in range(m)]
    if m % 2:
        inner = [[0.0] + g] + [[-g[j]] + inner[j] for j in range(m)]
    return [[dd.DD(v) for v in row] for row in inner]


@pytest.mark.parametrize("m", range(1, 11))
def test_pf_sign_closed_form(m):
    for a in (-0.7, 0.0, 0.5, 3.7):
        pf = float(dd_pfaffian(undeformed_pf_matrix(m, a)))
        assert pf * _pf_sign(m) > 0
    if m <= 6:  # the fixed-trace route's undeformed coefficient
        assert _xi_coefficients(m, 0.5, complex(5.0))[0].real * _pf_sign(m) > 0


def test_z_ubh_monotone_in_s():
    p = ModelParams(m=3, a=0.5, b=0.0, xi=1.0)
    vals = [z_ubh(p, s).value for s in np.linspace(0.5, 4.0, 8)]
    diffs = np.diff([v.real if isinstance(v, complex) else v for v in vals])
    assert np.all(diffs >= -1e-10)


def test_z_ubh_polynomial_in_xi():
    # degree-m polynomial: fit on xi in {0..3}, predict two held-out points
    m, aa, s = 3, 0.5, 1.5
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    ys = np.array([z_ubh(ModelParams(m, aa, 0.0, x, 0.0), s).value for x in xs], dtype=float)
    coef = np.linalg.solve(np.vander(xs, m + 1, increasing=True), ys)
    for xh in (0.5, 2.5):
        pred = np.polynomial.polynomial.polyval(xh, coef)
        got = z_ubh(ModelParams(m, aa, 0.0, xh, 0.0), s).value
        assert abs(pred - got) <= 1e-8 * max(abs(got), 1.0)


def test_z_bhft_m1_plateaus():
    for a in (-0.4, 0.5):
        p = ModelParams(m=1, a=a, xi=0.6)
        assert abs(z_bhft(p, 0.3).value - 0.4) <= 1e-6
        assert abs(z_bhft(p, 0.7).value - 0.4) <= 1e-6
        assert abs(z_bhft(p, 1.5).value - 1.0) <= 1e-6
        assert z_bhft(p, 1.5).route is Route.LAPLACE


def test_z_bhft_m2_thresholds():
    p = ModelParams(m=2, a=0.5, xi=1.0)
    assert abs(z_bhft(p, 0.2).value) <= 1e-5
    assert abs(z_bhft(p, 0.4).value) <= 1e-5
    assert abs(z_bhft(p, 1.0).value - 1.0) <= 1e-5


@pytest.mark.parametrize("t", [0.55, 0.7, 0.9])
def test_z_bhft_m2_vs_simplex_quadrature(t):
    p = ModelParams(m=2, a=0.5, xi=1.0)
    got = z_bhft(p, t).value
    want = quad_gap_small_m(p, DeformPoint(1.0, t), ensemble="bhft").value
    assert abs(got - want) <= 1e-5


def test_z_bhft_monotone_grid():
    p = ModelParams(m=2, a=0.5, xi=1.0)
    ts = np.linspace(0.2, 1.1, 12)
    vals = [z_bhft(p, float(t)).value for t in ts]
    assert np.all(np.diff(vals) >= -1e-6)


def test_z_bhft_m3_saturation():
    p = ModelParams(m=3, a=0.2, xi=1.0)
    assert abs(z_bhft(p, 1.2).value - 1.0) <= 1e-6


# (m, a, xi, t) -> (value, est_error), recorded from the order-recurrence
# node ladders; m = 3 has a border.  Each value lies within the previous
# recording's est_error of a 30-digit mpmath evaluation of the same
# discretization (nodes and node counts, special functions, Pfaffian,
# Vandermonde solve and Talbot sum all in mpmath)
BHFT_GOLDEN = {
    (1, 0.5, 0.6, 0.3): (0.40000000000606306, 8.739432423394135e-12),
    (2, 0.1, 0.6, 0.46): (0.3998611457494316, 8.366457276970999e-12),
    (3, 0.5, 0.7, 0.31): (0.2589625322893516, 5.3321295675163354e-12),
    (4, 0.9, 0.8, 0.6): (0.6032421843273504, 1.4154388190791522e-10),
    (4, 0.9, 0.8, 0.26): (0.11018942958535996, 6.473646995659515e-11),
}


@pytest.mark.parametrize("key", list(BHFT_GOLDEN))
def test_z_bhft_golden_values(key):
    m, a, xi, t = key
    with warnings.catch_warnings():
        warnings.simplefilter("error", PrecisionWarning)
        r = z_bhft(ModelParams(m=m, a=a, xi=xi), t)
    assert (r.value, r.est_error) == BHFT_GOLDEN[key]


def test_z_bhft_negative_value_warns():
    # m = 6 is past what the binary64 coefficient solve resolves: the value
    # lies below zero by more than its est_error, which may not pass quietly
    with pytest.warns(PrecisionWarning, match="negative"):
        r = z_bhft(ModelParams(6, 0.5, 0.0, 1.0, 0.0), 0.3)
    assert r.value < -r.est_error


def test_flow_route_matches_determinant():
    p = ModelParams(m=2, a=0.0, b=1.0, xi=1.0, psi=1.0)
    d = DeformPoint(1.6, 1.2)
    got = z_cl2m_flow(p, d).value
    want = z_cl2m(p, d).value
    assert abs(got - want) <= 1e-6 * max(abs(want), 1e-6)
    assert z_cl2m_flow(p, d).route is Route.FLOW


# (m, s, t) -> (value, est_error) at a = 0.3, b = 0.7, xi = 1, psi = 0.6,
# flowed from (1, 1).  The two m = 4 targets sit where the flow misses z_cl2m
# by 0.87 and 0.99 of the benchmark's 1e-8 tolerance, so a reordered
# floating-point expression in the flow, Lax or kernel layers shows here
FLOW_GOLDEN = {
    (2, 3.4, 0.6): (0.28177313666131537, 2.8177313666131537e-09),
    (3, 2.5, 3.3): (0.08410760933951907, 8.410760933951906e-10),
    (4, 2.183616934054415, 1.1926985565215407): (0.0005920193429140178, 5.920193429140178e-12),
    (4, 2.245594913748194, 1.1872097417053438): (0.0007194654470850916, 7.194654470850916e-12),
    (5, 2.3, 1.1): (3.3600614754827443e-06, 3.3600614754827445e-14),
}


@pytest.mark.parametrize("key", list(FLOW_GOLDEN))
def test_z_cl2m_flow_golden_values(key):
    m, s, t = key
    r = z_cl2m_flow(ModelParams(m, 0.3, 0.7, 1.0, 0.6), DeformPoint(s, t))
    assert (r.value, r.est_error) == FLOW_GOLDEN[key]
