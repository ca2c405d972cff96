import cmath
import math
import random
import warnings
from collections import Counter

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from bhgap import bops, dd, ensembles, specfun
from bhgap.params import DeformPoint, DomainError, ModelParams, PoleError
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


def mp_gup_scaled(a, z):
    zz = mp.mpmathify(z)
    return complex(mp.exp(zz) * mp.gammainc(mp.mpf(a), zz, mp.inf))


def quad_tau_scaled(c, z):
    """e^z Gamma(c, z) by adaptive QUADPACK quadrature of the tau integral
    on [0, -Re z] and on to the truncation point, relative tolerance 1e-12:
    the evaluation the fixed tau rule replaced, kept as the reference it must
    not fall behind."""
    f = lambda tau: cmath.exp((c - 1.0) * cmath.log(z + tau) - tau)
    pts = sorted({0.0, max(-z.real, 0.0)})
    pts.append(pts[-1] + 45.0 + 10.0 * abs(c))
    val = 0j
    for lo, up in zip(pts[:-1], pts[1:]):
        for unit, part in ((1.0, lambda x: f(x).real), (1j, lambda x: f(x).imag)):
            val += unit * quad(part, lo, up, epsabs=0.0, epsrel=1e-12, limit=300, full_output=1)[0]
    return val


def test_gamma_upper_scaled_real_below_order():
    # Re z >= 0.5 with an order well below -|z|: the neg[3] seed of the
    # m = 4, a = 0.9, t = 0.86 value contour at s_0 t, 1.0e-12 off by
    # downward recursion from the fractional base order
    a, z = -4.9, 8.761301324157845
    want = mp_gup_scaled(a, z)
    got = gamma_upper_scaled(a, z)
    assert relerr(got.value, want) <= 1e-14
    assert abs(got.value - want) <= got.est_abs_error


def hyperbola_nodes(contour, t, nodes):
    """The nodes z = s_j t, j = 0..nodes, of one of z_bhft's hyperbolas."""
    alpha, mu_per_node, h_nodes = contour
    mu, h = mu_per_node * nodes, h_nodes / nodes
    return [mu * (1.0 + cmath.sin(complex(-alpha, j * h))) * t for j in range(nodes + 1)]


@pytest.mark.parametrize("m, a", [(2, 0.1), (3, 0.5), (4, 0.9)])
def test_gamma_upper_scaled_on_fixed_trace_contours(m, a):
    # every argument with Re z < 0.5 at which a node of the value or the
    # estimate contour, at 32, 40 and 48 nodes, calls gamma_upper_scaled:
    # e^z Gamma(a+1, z) and the negative-order seed; m, a and the t band
    # centres are the fixed-trace benchmark's
    worst = 0.0
    for t in (0.26, 0.315, 0.375, 0.465, 0.605, 0.855):
        for nodes in (32, 40, 48):
            for contour in (ensembles._VALUE_CONTOUR, ensembles._ESTIMATE_CONTOUR):
                for z in hyperbola_nodes(contour, t, nodes):
                    if z.real >= 0.5:
                        continue
                    top = min(max(round(abs(z) - a - 1.0), 0), m - 1)
                    for order in (a + 1.0, -a - 1.0 - top):
                        want = mp_gup_scaled(order, z)
                        got = gamma_upper_scaled(order, z)
                        assert abs(got.value - want) <= got.est_abs_error, (order, z)
                        worst = max(worst, relerr(got.value, want))
    assert worst <= 1e-13


def test_gamma_upper_scaled_off_contour_grid():
    # a seeded grid off the contours, down to |Im z| = 1e-3 next to the cut,
    # where the integrand peaks sharply at tau = -Re z: the fixed rule never
    # falls behind adaptive quadrature and never misses its own estimate
    rng = random.Random(2024)
    cases = [(-4.45, complex(-19.5, -0.007))]
    for _ in range(80):
        y = 10.0 ** rng.uniform(-3.0, math.log10(200.0)) * rng.choice((-1.0, 1.0))
        cases.append((rng.uniform(-6.0, 2.5), complex(rng.uniform(-150.0, 0.5), y)))
    for c, z in cases:
        want = mp_gup_scaled(c, z)
        got = gamma_upper_scaled(c, z)
        err = abs(got.value - want)
        assert err <= max(10.0 * abs(quad_tau_scaled(c, z) - want), 1e-13 * abs(want)), (c, z)
        assert err <= got.est_abs_error, (c, z)


def test_gamma_upper_scaled_batch_is_bitwise_pair_by_pair():
    # a batch shares one pass of the tau rule's logarithms and exponentials
    # among its pairs; each pair's value and error keep the bits of the same
    # call on that pair alone, on every branch
    rng = random.Random(7)
    pairs = [(rng.uniform(-6.0, 2.5), complex(rng.uniform(-150.0, 12.0), rng.uniform(-40.0, 40.0)))
             for _ in range(60)]
    pairs += [(3.5, complex(1.2, 0.4)), (1.5, complex(6.0, 2.0)), (-4.9, 8.761301324157845)]
    batch = gamma_upper_scaled([c for c, _ in pairs], [z for _, z in pairs])
    for (c, z), got in zip(pairs, batch):
        one = gamma_upper_scaled(c, z)
        assert (got.value, got.est_abs_error) == (one.value, one.est_abs_error), (c, z)


def test_quad_c_calls_its_integrand_once_per_abscissa():
    # the real and imaginary quads share the integrand's values; both parts
    # and their error estimates are those of two independent quads
    z, a = complex(-6.0, 1.0), 0.75
    calls = Counter()

    def f(tau):
        calls[tau] += 1
        return cmath.exp(a * cmath.log(z + tau) - tau) / (2.0 * z + tau)

    got = specfun._quad_c(f, 6.0, 12.0)
    assert calls and max(calls.values()) == 1
    kw = dict(epsabs=1e-15, epsrel=1e-13, limit=400, full_output=1)
    re, ere = quad(lambda x: f(x).real, 6.0, 12.0, **kw)[:2]
    im, eim = quad(lambda x: f(x).imag, 6.0, 12.0, **kw)[:2]
    assert got == (re + 1j * im, ere + eim)


def test_gamma_upper_scaled_never_calls_quad(monkeypatch):
    # e^z Gamma(a, z) is adaptive-quadrature free on every branch: series,
    # continued fraction and the fixed tau rule (Re z < 0.5, or an order far
    # below -|z|); only Gamma2 still integrates adaptively
    def refuse(*args, **kwargs):
        raise AssertionError("specfun.quad called")

    monkeypatch.setattr(specfun, "quad", refuse)
    for a, z in [(3.5, complex(1.2, 0.4)), (1.5, complex(6.0, 2.0)), (-4.9, 8.761301324157845),
                 (-4.5, complex(2.0, 7.0)), (1.9, complex(0.3, 1e-3)), (-2.5, complex(-30.0, 8.0)),
                 (-4.9, complex(-224.0, 44.6)), (-6.5, complex(-569.0, 113.0))]:
        assert relerr(gamma_upper_scaled(a, z).value, mp_gup_scaled(a, z)) <= 1e-13
    assert relerr(gamma_upper(1.5, complex(-20.0, 3.0)).value,
                  mp_gup(1.5, complex(-20.0, 3.0))) <= 1e-12


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
    with pytest.raises(DomainError):
        specfun.gamma2_boxed(0.5, math.inf, 1.0)  # that is gamma2(a; 0, y)


def test_gamma2_inf_sentinel():
    assert gamma2(0.5, math.inf, 1.0).value == 0.0


def test_gamma2_complex_y():
    a, x = 0.5, 1.0
    y = complex(-0.3, 1.7)
    want = mp_gamma2(a, x, y)
    assert relerr(gamma2(a, x, y).value, want) < 1e-11


def mp_boxed_dd_relerr(got, a, x, y, shift):
    # the reference takes u = w^q, q = 1/(1 + a + shift), which absorbs the
    # endpoint power u^(a+shift) du = q dw that tanh-sinh resolves poorly; the
    # w range splits at the images of u = 1, 4, 16, ..., which keeps the peak
    # of a large a + shift inside one short piece
    with mp.workdps(40):
        q = 1 / (mp.mpf(a) + shift + 1)
        cuts = [mp.mpf(u) ** (1 / q) for u in (1, 4, 16, 64, 256) if u < x]
        want = mp.quad(lambda w: q * mp.exp(-w ** q) / (w ** q + mp.mpf(y)),
                       [0] + cuts + [mp.mpf(x) ** (1 / q)])
        return abs((mp.mpf(got.hi) + mp.mpf(got.lo)) / want - 1)


def boxed_dd(a, x, y, shift=0):
    return gamma2_boxed_dd(((a, x, y, shift),))[0]


@pytest.mark.parametrize("a,x,y,shift", [(0.073, 1.02, 2.177, 0), (0.872, 2.177, 1.02, 0),
                                         (0.534, 0.938, 1.003, 15),
                                         (0.7, 3.4, 1.1, 28),  # _dd_gram top seed, m = 8
                                         (0.7, 3.4, 1.1, 36),  # K - 1 at size 12
                                         (-0.5, 1.3, 2.1, 0),  # the edge z_ubh supports
                                         (0.3, 20.0, 0.05, 0), (0.3, 0.05, 20.0, 0),
                                         (0.3, 700.0, 0.05, 0), (0.3, 0.05, 700.0, 0)])
def test_gamma2_boxed_dd_reaches_dd_precision(a, x, y, shift):
    # a float64 quadrature rule or a float64 sum a + shift would stop at ~1e-16
    assert mp_boxed_dd_relerr(boxed_dd(a, x, y, shift), a, x, y, shift) <= 1e-28


def test_gamma2_boxed_dd_first_panel_cancels_at_700():
    # at x = y = 700 the first panel ends at c = 700/64; a series in u_n =
    # sum_{k<=n} y^k/k! cancelled terms 1.5e4 times its sum there (2.2e-28
    # off) and 5e-26 at (11.72, 656.6, 222.2).  The sum of lower gammas
    # alternates with terms falling by c/y <= 1/2, so it cancels by <= 2
    assert mp_boxed_dd_relerr(boxed_dd(0.3, 700.0, 700.0), 0.3, 700.0, 700.0, 0) <= 1e-28
    assert mp_boxed_dd_relerr(boxed_dd(11.72, 656.6, 222.2), 11.72, 656.6, 222.2, 0) <= 1e-28


def test_gamma2_boxed_dd_evaluates_levels_as_arrays(monkeypatch):
    # one hi-fi Gram is one batch: both seeds, the first panels' powers and
    # the weight powers take one vln and one vexp, and no scalar exp or pow
    # is left
    calls = {"dd_exp": 0, "dd_pow": 0, "vexp": 0, "vln": 0, "gamma2_boxed_dd": 0}
    for mod, name in ((dd, "dd_exp"), (dd, "dd_pow"), (dd, "vexp"), (dd, "vln"),
                      (bops, "gamma2_boxed_dd")):
        def counted(*args, _fn=getattr(mod, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(mod, name, counted)
    gamma2_boxed_dd.cache_clear()
    bops.clear_caches()
    bops._dd_gram(ModelParams(8, 0.7, 0.3, 1.0, 1.0), DeformPoint(3.4, 1.1), 8, True)
    assert calls == {"dd_exp": 0, "dd_pow": 0, "vexp": 1, "vln": 1, "gamma2_boxed_dd": 1}


@pytest.mark.parametrize("seeds", [
    ((0.3, 2.4, 1.9, 0), (0.7, 1.9, 2.4, 28)),  # a z_cl2m Gram's pair
    ((0.3, 2.5, 2.5, 0), (0.3, 2.5, 2.5, 0)),  # z_ubh's equal species
    ((0.3, 700.0, 700.0, 0), (11.72, 656.6, 222.2, 0), (-0.5, 1.3, 2.1, 0))])
def test_gamma2_boxed_dd_batch_is_its_seeds_alone(seeds):
    weights = ((0.3, 2.4), (-0.9, 650.0))
    gamma2_boxed_dd.cache_clear()
    got = gamma2_boxed_dd(seeds, weights)
    alone = [gamma2_boxed_dd((seed,))[0] for seed in seeds]
    alone += [gamma2_boxed_dd((), (wt,))[0] for wt in weights]
    assert [(v.hi, v.lo) for v in got] == [(v.hi, v.lo) for v in alone]
    with mp.workdps(40):  # the weights are c^(a+1) e^-c
        for (a, c), v in zip(weights, got[len(seeds):]):
            want = mp.mpf(c) ** (mp.mpf(a) + 1) * mp.exp(-mp.mpf(c))
            assert abs((mp.mpf(v.hi) + mp.mpf(v.lo)) / want - 1) <= 1e-30


def test_gamma2_boxed_evaluates_levels_as_arrays(monkeypatch):
    # every Kronrod node of every panel is one numpy batch, so no node takes
    # a scalar exp
    calls = {"exp": 0}

    def counted(x, _fn=math.exp):
        calls["exp"] += 1
        return _fn(x)

    monkeypatch.setattr(specfun.math, "exp", counted)
    specfun._gamma2_boxed_cached.cache_clear()
    specfun.gamma2_boxed(0.7, 3.4, 1.1)
    assert calls["exp"] == 0


def test_gamma2_boxed_matches_dd_rule():
    # the float rule runs on the DD rule's panels, so the two differ by
    # float64 rounding alone; both take the same float order, since a float
    # a + shift is itself rounded by up to 1e-14 relative in u^(a+shift)
    rng = random.Random(3)
    for i in range(40):
        a = rng.uniform(-0.4, 1.1) + (rng.randint(10, 33) if i % 2 else 0)
        x, y = rng.uniform(0.3, 35), rng.uniform(0.3, 35)
        v = boxed_dd(a, x, y)
        want = v.hi + v.lo
        got = specfun.gamma2_boxed(a, x, y)
        err = abs(got.value - want)
        assert err <= (4 + abs(a)) * 2.22e-16 * want, (a, x, y)
        assert err <= got.est_abs_error, (a, x, y)


def test_gamma2_boxed_cache_is_bounded():
    # a sweep of new points must not keep every seed it evaluated, and the
    # one reuse, z_ubh's equal-species Gram asking for (a, s, s) twice, hits
    specfun._gamma2_boxed_cached.cache_clear()
    bops.clear_caches()
    for i in range(20):
        ensembles.z_ubh(ModelParams(3, 0.3, 0.0, 1.0), 8.0 + 0.01 * i)
    info = specfun._gamma2_boxed_cached.cache_info()
    assert info.hits == 20 and info.currsize == 20
    assert info.maxsize is not None and info.maxsize <= 4096


# a in [0, 1] and the shifted seed orders b + K - 1 of the lo-fi Gram
@pytest.mark.parametrize("a", [0.0, 0.31, 0.725, 1.0, 13.4, 21.9, 32.7])
def test_gamma2_boxed_against_mpmath(a):
    # the worst point of the grid is 2.6e-15 off (the v-substituted rule
    # before the Kronrod one was 2.24e-12 off at a = 1, x = 32.77, y = 0.3)
    for x in (0.3, 1.152, 7.5, 32.77):
        for y in (0.3, 1.152, 7.5, 32.77):
            got = specfun.gamma2_boxed(a, x, y)
            am, ym = mp.mpf(a), mp.mpf(y)
            cuts = {mp.mpf(0), mp.mpf(x) / 64, mp.mpf(x) / 8, mp.mpf(x) / 2, mp.mpf(x)}
            want = mp.quad(lambda u: u ** am * mp.exp(-u) / (u + ym),
                           sorted(cuts | ({am} if a < x else set())))
            err = abs(got.value - want)
            assert err <= 1e-14 * want, (a, x, y)
            assert err <= got.est_abs_error, (a, x, y)


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
