import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bhgap import dd
from bhgap.params import DomainError, PoleError
from bhgap.specfun import (
    gamma,
    gamma2,
    gamma2_boxed_dd,
    gamma2_diag_scaled,
    gamma_upper,
    gamma_upper_scaled,
)

mp.mp.dps = 30


def mp_gup(a, z):
    return complex(mp.gammainc(mp.mpf(a), mp.mpmathify(z), mp.inf))


def mp_gamma2(a, x, y):
    f = lambda u: mp.e ** (-u) * u ** mp.mpf(a) / (u + y)
    return complex(mp.quad(f, [x, x + 1, x + 10, x + 80]))


def relerr(got, want):
    return abs(complex(got) - complex(want)) / max(abs(complex(want)), 1e-300)


def test_gamma_classics():
    assert gamma(1.0) == 1.0
    assert relerr(gamma(0.5), math.sqrt(math.pi)) < 1e-15
    assert gamma(5.0) == 24.0


def test_gamma_pole():
    for a in (0.0, -1.0, -4.0):
        with pytest.raises(PoleError):
            gamma(a)


@pytest.mark.parametrize("a", [-6.5, -2.0, -0.5, 0.0, 0.5, 1.0, 3.7, 12.0, 20.0])
@pytest.mark.parametrize("z", [1e-6, 1e-3, 0.3, 1.0, 4.5, 20.0, 100.0])
def test_gamma_upper_real_grid(a, z):
    got = gamma_upper(a, z)
    want = mp_gup(a, z)
    assert relerr(got.value, want) < 1e-12


def test_gamma_upper_exponential_case():
    for x in (0.1, 1.0, 7.0):
        assert relerr(gamma_upper(1.0, x).value, math.exp(-x)) < 1e-14


def test_gamma_upper_zero_limit():
    assert relerr(gamma_upper(2.5, 0.0).value, math.gamma(2.5)) < 1e-14
    with pytest.raises(DomainError):
        gamma_upper(-0.5, 0.0)


def test_gamma_upper_branch_cut_rejected():
    with pytest.raises(DomainError):
        gamma_upper(1.0, -2.0)


def test_gamma_upper_negative_order_quadrature_oracle():
    # direct adaptive quadrature of int_1^inf u^-1.5 e^-u du
    want = mp.quad(lambda u: u ** mp.mpf(-1.5) * mp.e ** (-u), [1, 10, 80])
    assert relerr(gamma_upper(-0.5, 1.0).value, complex(want)) < 1e-12


@pytest.mark.parametrize("z", [
    complex(3.0, 1.0), complex(0.7, -2.0), complex(-2.0, 0.5),
    complex(-8.0, 2.0), complex(-20.0, 1.0), complex(-60.0, 4.0),
])
@pytest.mark.parametrize("a", [-3.5, -1.0, 0.0, 1.5, 6.0])
def test_gamma_upper_complex_talbot_region(a, z):
    got = gamma_upper(a, z)
    want = mp_gup(a, z)
    assert relerr(got.value, want) < 1e-10


@pytest.mark.parametrize("z", [complex(5.0, 0.0), complex(2.0, 3.0), complex(-15.0, 1.5), complex(-40.0, 2.5)])
@pytest.mark.parametrize("a", [-4.5, 0.5, 3.0])
def test_gamma_upper_scaled(a, z):
    want = complex(mp.e ** mp.mpmathify(z) * mp.gammainc(mp.mpf(a), mp.mpmathify(z), mp.inf))
    assert relerr(gamma_upper_scaled(a, z).value, want) < 1e-10


@pytest.mark.parametrize("a, z", [
    (12.5, complex(2.0, 1.0)), (8.5, complex(1.24, 0.377)), (8.5, complex(0.6, 1.5)),
])
def test_gamma_upper_complex_below_order(a, z):
    # Re z >= 0.5 and |z| < a + 1: the continued fraction converged to a
    # wrong value here (2.3e-9 off at (12.5, 2 + i)) with a 2.7e-15 error claim
    want = complex(mp.gammainc(mp.mpf(a), mp.mpmathify(z), mp.inf))
    want_scaled = complex(mp.e ** mp.mpmathify(z) * mp.gammainc(mp.mpf(a), mp.mpmathify(z), mp.inf))
    for got, w in ((gamma_upper(a, z), want), (gamma_upper_scaled(a, z), want_scaled)):
        assert relerr(got.value, w) <= 1e-14
        assert abs(got.value - w) <= got.est_abs_error


def test_gamma_upper_scaled_quadrature_is_quiet():
    # the call inside z_bhft(ModelParams(3, 0.5, 0, 0.7, 0), 0.26) whose
    # QUADPACK roundoff warning used to escape
    a, z = 3.5, complex(-4.229193424847858, 10.210176124166827)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gamma_upper_scaled(a, z)
    want = complex(mp.e ** mp.mpmathify(z) * mp.gammainc(mp.mpf(a), mp.mpmathify(z), mp.inf))
    assert relerr(got.value, want) <= 1e-14


@pytest.mark.parametrize("a, z", [(-4.9, complex(-224.0, 44.6)), (-6.5, complex(-569.0, 113.0))])
def test_gamma_upper_scaled_tiny_values(a, z):
    # far left of the Laplace contours e^z Gamma(a, z) is tiny; an absolute
    # quadrature tolerance of 1e-14 left these 2.3e-6 and 1.0e-2 off
    want = complex(mp.e ** mp.mpmathify(z) * mp.gammainc(mp.mpf(a), mp.mpmathify(z), mp.inf))
    got = gamma_upper_scaled(a, z)
    assert relerr(got.value, want) <= 1e-13
    assert abs(got.value - want) <= got.est_abs_error


@given(
    a=st.floats(-5.0, 15.0),
    z=st.floats(0.05, 60.0),
)
@settings(max_examples=60, deadline=None)
def test_gamma_upper_recurrence_real(a, z):
    # Gamma(a+1, z) = a Gamma(a, z) + z^a e^-z
    lhs = gamma_upper(a + 1.0, z).value
    rhs = a * gamma_upper(a, z).value + z ** a * math.exp(-z)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-12)


@pytest.mark.parametrize("z", [complex(1.5, 2.0), complex(-4.0, 1.0)])
def test_gamma_upper_recurrence_complex(z):
    import cmath
    for a in (-1.3, 0.7, 2.0):
        lhs = gamma_upper(a + 1.0, z).value
        rhs = a * gamma_upper(a, z).value + cmath.exp(a * cmath.log(z) - z)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_gamma2_reduces_to_gamma_upper():
    for a in (-0.5, 0.0, 1.5):
        for x in (0.1, 1.0, 5.0):
            assert relerr(gamma2(a, x, 0.0).value, gamma_upper(a, x).value) < 1e-11


def test_gamma2_x_zero_closed_form():
    # Gamma2(a; 0, y) = Gamma(1+a) y^a e^{+y} Gamma(-a, y)
    for a in (-0.5, 0.25, 0.5, 1.5):
        for y in (0.5, 2.0):
            want = math.gamma(1 + a) * y ** a * math.exp(y) * mp_gup(-a, y).real
            assert relerr(gamma2(a, 0.0, y).value, want) < 1e-10


def test_gamma2_quadrature_oracle():
    got = gamma2(0.5, 1.0, 2.0)
    want = mp_gamma2(0.5, 1.0, 2.0)
    assert relerr(got.value, want) < 1e-12
    assert got.est_abs_error < 1e-10 * abs(want) + 1e-14


@pytest.mark.parametrize("a", [-0.5, 0.0, 1.5])
@pytest.mark.parametrize("x", [0.1, 1.0, 5.0])
@pytest.mark.parametrize("y", [0.5, 2.0])
def test_gamma2_shift_identity(a, x, y):
    lhs = gamma2(a + 1.0, x, y).value + y * gamma2(a, x, y).value
    rhs = gamma_upper(a + 1.0, x).value
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_gamma2_x_derivative():
    a, x, y, h = 0.5, 1.0, 2.0, 1e-5
    fd = (gamma2(a, x + h, y).value - gamma2(a, x - h, y).value) / (2 * h)
    want = -x ** a * math.exp(-x) / (x + y)
    assert relerr(fd, want) < 1e-6


def test_gamma2_y_derivative():
    a, x, y, h = 0.5, 1.0, 2.0, 1e-5
    fd = (gamma2(a, x, y + h).value - gamma2(a, x, y - h).value) / (2 * h)
    want = ((a + y) / y * gamma2(a, x, y).value
            - a / y * gamma_upper(a, x).value
            - x ** a * math.exp(-x) / (x + y))
    assert relerr(fd, want) < 1e-6


def test_gamma2_domain_errors():
    with pytest.raises(DomainError):
        gamma2(0.5, 1.0, -3.0)  # pole on the path
    with pytest.raises(DomainError):
        gamma2(-1.5, 0.0, 1.0)  # non-integrable at the origin


def test_gamma2_inf_sentinel():
    assert gamma2(0.5, math.inf, 1.0).value == 0.0


def test_gamma2_complex_y():
    a, x = 0.5, 1.0
    y = complex(-0.3, 1.7)
    want = mp_gamma2(a, x, y)
    assert relerr(gamma2(a, x, y).value, want) < 1e-11


@pytest.mark.parametrize("a,x,y,shift", [(0.073, 1.02, 2.177, 0), (0.872, 2.177, 1.02, 0),
                                         (0.534, 0.938, 1.003, 15),
                                         (0.7, 3.4, 1.1, 28),  # _dd_gram top seed, m = 8
                                         (0.3, 20.0, 0.05, 0), (0.3, 0.05, 20.0, 0)])
def test_gamma2_boxed_dd_reaches_dd_precision(a, x, y, shift):
    # a float64 quadrature rule or a float64 sum a + shift would stop at ~1e-16
    got, _ = gamma2_boxed_dd(a, x, y, shift)
    with mp.workdps(40):
        e = mp.mpf(a) + shift
        want = mp.quad(lambda u: u ** e * mp.exp(-u) / (u + mp.mpf(y)), [0, mp.mpf(x)])
        assert abs((mp.mpf(got.hi) + mp.mpf(got.lo)) / want - 1) <= 1e-28


def test_gamma2_boxed_dd_evaluates_levels_as_arrays(monkeypatch):
    # the quadrature levels run on the array kernels: the only scalar exp
    # and pow left are the first panel's c^a (one dd_pow, two dd_exp)
    calls = {"dd_exp": 0, "dd_pow": 0}
    for name in calls:
        def counted(*args, _fn=getattr(dd, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(dd, name, counted)
    gamma2_boxed_dd.cache_clear()
    gamma2_boxed_dd(0.7, 3.4, 1.1, 28)
    assert calls == {"dd_exp": 2, "dd_pow": 1}


@pytest.mark.parametrize("z", [complex(4.0, 0.5), complex(-6.0, 1.0), complex(-35.0, 3.0)])
def test_gamma2_diag_scaled(z):
    a = 0.75
    f = lambda tau: mp.e ** (-tau) * (z + tau) ** mp.mpf(a) / (2 * z + tau)
    want = complex(mp.quad(f, [0, abs(z.real), 2 * abs(z.real) + 5, 2 * abs(z.real) + 80]))
    assert relerr(gamma2_diag_scaled(a, z).value, want) < 1e-10


def test_error_estimates_are_finite_and_positive():
    r = gamma_upper(0.5, 2.0)
    assert r.est_abs_error >= 0.0 and math.isfinite(r.est_abs_error)
    r = gamma2(0.5, 1.0, 2.0)
    assert r.est_abs_error >= 0.0 and math.isfinite(r.est_abs_error)
