import math
import warnings
from collections import Counter

import numpy as np
import pytest

from bhgap import bimoments, dd, ensembles, plinalg, specfun
from bhgap.bimoments import ubh_pf_border_rescaled, ubh_pf_element_rescaled
from bhgap.ensembles import (
    Route,
    _pf_sign,
    _xi_coefficients,
    c_bhft,
    c_cl2m,
    c_ubh,
    fk_bridge_residual,
    z_bhft,
    z_cl2m,
    z_cl2m_flow,
    z_ubh,
)
from bhgap.bops import build_state, zdet
from bhgap.oracles import quad_gap_small_m
from bhgap.params import DeformPoint, DomainError, INF, ModelParams, PrecisionWarning
from bhgap.plinalg import dd_pfaffian, pfaffian
from bhgap.specfun import SpecFunResult


def test_normalizations_m1():
    p = ModelParams(m=1, a=0.4, b=0.9)
    assert abs(c_cl2m(p) - math.gamma(1.4) * math.gamma(1.9) / (0.4 + 0.9 + 1)) < 1e-14
    assert abs(c_ubh(p) - math.gamma(1.4)) < 1e-14 * math.gamma(1.4)


@pytest.mark.parametrize("a", [-0.4, 0.0, 1.3])
def test_bhft_norm_m1_is_one(a):
    p = ModelParams(m=1, a=a)
    assert abs(c_bhft(p) - 1.0) < 1e-12


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
@pytest.mark.parametrize("aa", [-0.7, -0.5, -0.4, 0.5])
def test_fk_bridge(m, aa):
    # for a <= -0.5 the two-species M_00 diverges; neither side reads it
    for xi in (0.3, 1.0):
        for s in (0.5, 2.0):
            assert fk_bridge_residual(m, aa, xi, s) <= 1e-9


@pytest.mark.parametrize("a, b", [(-0.7, -0.6), (-0.5, -0.5)])
def test_divergent_two_species_weight_raises(a, b):
    # a + b + 1 <= 0: M_00 = int int x^a y^b e^(-x-y) / (x+y) diverges at the
    # origin, so no route that reads it may return a value
    p, d = ModelParams(2, a, b, 1.0, 1.0), DeformPoint(1.0, 1.0)
    for call in (lambda: z_cl2m(p, d), lambda: build_state(p, d, 1),
                 lambda: zdet(p, d, 2), lambda: z_cl2m_flow(p, DeformPoint(2.0, 2.0))):
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("c", [300.0, 450.0, 600.0, 690.0, 700.0])
def test_large_cutoffs_give_one(m, c):
    # the Gram's boxed-gamma seed series needs about c + 12 sqrt(c) terms
    zc = z_cl2m(ModelParams(m, 0.3, 0.7, 1.0, 1.0), DeformPoint(c, c)).value
    zu = z_ubh(ModelParams(m, 0.3, 0.0, 1.0), c).value
    assert abs(zc - 1.0) <= 1e-13
    assert abs(zu - 1.0) <= 1e-13


@pytest.mark.parametrize("c", [701.0, 720.0, 760.0, 1000.0, 2000.0])
def test_cutoffs_above_700_raise(c):
    # past 700 e^-c leaves the normal floats: the Gram would return Z - 1 =
    # -1.2e-11 at 720, 0 at 760 and NaN at 1,000 without a word
    for call in (lambda: z_cl2m(ModelParams(2, 0.3, 0.7, 1.0, 1.0), DeformPoint(c, c)),
                 lambda: z_cl2m(ModelParams(2, 0.3, 0.7, 0.5, 1.0), DeformPoint(c, c)),
                 lambda: z_cl2m(ModelParams(2, 0.3, 0.7, 0.5, 1.0), DeformPoint(2.0, c)),
                 lambda: z_ubh(ModelParams(2, 0.3, 0.0, 1.0), c),
                 lambda: build_state(ModelParams(2, 0.3, 0.7, 1.0, 1.0), DeformPoint(c, 1.0), 1)):
        with pytest.raises(DomainError):
            call()


def test_z_ubh_tiny_value_is_not_flagged():
    # ~5e-16 and correct: its FK-bridge partner agrees far inside est_error,
    # so no PrecisionWarning may fire
    with warnings.catch_warnings():
        warnings.simplefilter("error", PrecisionWarning)
        r = z_ubh(ModelParams(5, 0.5, 0.0, 1.0, 0.0), 0.5)
        zc = z_cl2m(ModelParams(5, 0.5, 1.5, 1.0, 1.0), DeformPoint(0.5, 0.5)).value
    assert 0.0 < r.value < 1e-15
    assert abs(r.value - math.sqrt(zc)) <= r.est_error <= 1e-9 * r.value


@pytest.mark.parametrize("call, value", [
    (lambda: z_cl2m(ModelParams(14, 0.3, 0.7, 1, 1), DeformPoint(30, 40)), 121162.8),
    (lambda: z_ubh(ModelParams(14, 0.3, 0, 1), 30.0), -4924.8),
])
def test_gap_value_outside_unit_interval_warns(call, value):
    # the lo-fi Gram loses every digit at m = 14; a probability far outside
    # [-est_error, 1 + est_error] may not pass quietly, and is returned as is
    with pytest.warns(PrecisionWarning, match="outside"):
        r = call()
    assert abs(r.value - value) < 0.1 and r.est_error < 1e-5


def test_gap_value_inside_unit_interval_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", PrecisionWarning)
        r = z_cl2m(ModelParams(10, 0.3, 0.7, 1, 1), DeformPoint(30, 40))
    assert abs(r.value - 0.99469) < 1e-5


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


# (m, a, xi, t) -> (value, est_error), recorded on the shared hyperbolic
# contour; m = 3 has a border.  Each value lies within its est_error of a
# 30-digit mpmath evaluation of the same discretization (value contour at
# 33 nodes, special functions, Pfaffian, Vandermonde solve and trapezoid
# sum all in mpmath), and m = 1, 2 also of the exact plateau and the
# simplex oracle
BHFT_GOLDEN = {
    (1, 0.5, 0.6, 0.3): (0.40000000000022595, 1.503761683292372e-12),
    (2, 0.1, 0.6, 0.46): (0.39986114574760473, 1.6537904171685228e-12),
    (3, 0.5, 0.7, 0.31): (0.2589625322874222, 1.0339369412349371e-12),
    (4, 0.9, 0.8, 0.6): (0.6032421843445653, 2.9334712829638354e-10),
    (4, 0.9, 0.8, 0.26): (0.11018942964037837, 1.5181134398999714e-09),
}


@pytest.mark.parametrize("key", list(BHFT_GOLDEN))
def test_z_bhft_golden_values(key):
    m, a, xi, t = key
    with warnings.catch_warnings():
        warnings.simplefilter("error", PrecisionWarning)
        r = z_bhft(ModelParams(m=m, a=a, xi=xi), t)
    assert (r.value, r.est_error) == BHFT_GOLDEN[key]


# deep points, where z_cl2m and z_ubh return the hi-fi Gram's value: it reads
# no float gamma2_boxed seed, so these pin the Gram's assembly bit for bit.
# (m, a, b, s, t) -> z_cl2m at xi = psi = 1, one with s < t
DEEP_CL2M_GOLDEN = {
    (4, 0.3, 0.7, 2.4, 1.9): (9.811594030577945e-06, 9.811594030577945e-16),
    (6, 0.2, 0.5, 4.1, 5.3): (5.227929318065673e-06, 5.227929318065673e-16),
    (8, 0.534, 0.2, 6.4, 5.1): (6.244052638561302e-11, 6.244052638561302e-21),
}
# (m, a, s) -> z_ubh at xi = 1
DEEP_UBH_GOLDEN = {
    (4, 0.3, 2.5): (0.003489917556338808, 3.489917556338808e-13),
    (7, 0.9, 5.2): (1.764866681107557e-06, 1.764866681107557e-16),
}


def test_deep_golden_values():
    for (m, a, b, s, t), want in DEEP_CL2M_GOLDEN.items():
        r = z_cl2m(ModelParams(m, a, b, 1.0, 1.0), DeformPoint(s, t))
        assert (r.value, r.est_error) == want
    for (m, a, s), want in DEEP_UBH_GOLDEN.items():
        r = z_ubh(ModelParams(m, a, 0.0, 1.0), s)
        assert (r.value, r.est_error) == want


@pytest.mark.parametrize("m, a, xi, t", [
    (1, -0.4, 0.6, 0.7), (2, 0.1, 0.6, 0.26), (2, 0.5, 1.0, 0.55), (2, 0.9, 0.8, 0.86),
])
def test_z_bhft_small_m_vs_simplex_quadrature_tight(m, a, xi, t):
    p = ModelParams(m=m, a=a, xi=xi)
    got = z_bhft(p, t).value
    want = quad_gap_small_m(p, DeformPoint(t, t), ensemble="bhft").value
    assert abs(got - want) <= 1e-10


def _record_nodes(monkeypatch):
    """Count the coefficient solves of z_bhft and record their nodes."""
    zs = []

    def recorded(m, a, z):
        zs.append(z)
        return _xi_coefficients(m, a, z)

    monkeypatch.setattr(ensembles, "_xi_coefficients", recorded)
    return zs


def test_z_bhft_one_solve_per_node(monkeypatch):
    # every active coefficient reads the same node: one solve per node of
    # the value and estimate contours, 2 (N + 1) for a first-rung result
    zs = _record_nodes(monkeypatch)
    r = z_bhft(ModelParams(3, 0.5, 0.0, 0.7, 0.0), 0.26)
    assert r.est_error <= 1e-6
    assert len(zs) <= 2 * (32 + 1)


def test_z_bhft_default_and_nodes40_share_no_node(monkeypatch):
    # nodes=40 is the benchmark's reference for m >= 3: it must evaluate
    # neither of the default call's contours
    zs = _record_nodes(monkeypatch)
    p = ModelParams(4, 0.9, 0.0, 0.8, 0.0)
    z_bhft(p, 0.46)
    default = set(zs)
    zs.clear()
    z_bhft(p, 0.46, nodes=40)
    assert len(default) == 2 * (32 + 1)
    assert not default & set(zs)


def test_z_bhft_small_shifted_time():
    # t = 0.332 leaves the last coefficient at r = 1 - 3t = 0.004, where its
    # Bromwich integrand barely decays along the contour
    p = ModelParams(3, 0.5, 0.0, 0.7, 0.0)
    r = z_bhft(p, 0.332)
    assert abs(r.value - z_bhft(p, 0.332, nodes=48).value) <= r.est_error


def test_z_bhft_negative_value_warns():
    # m = 6 is past what binary64 resolves on the contours: the value and
    # estimate contours still disagree after both escalation steps, and the
    # value lies below zero by more than its est_error; neither may pass quietly
    with pytest.warns(PrecisionWarning) as record:
        r = z_bhft(ModelParams(6, 0.5, 0.0, 1.0, 0.0), 0.3)
    messages = " ".join(str(w.message) for w in record)
    assert "stalled" in messages and "negative" in messages
    assert r.value < -r.est_error


def pf_values_by_matrix(m, a, z, us):
    """A node's Pfaffians one matrix and one element call at a time, the
    lower triangle and the border's column negated copies."""
    size = m + m % 2
    off = size - m
    out = []
    for u in us:
        mat = np.zeros((size, size), dtype=complex)
        for j in range(m):
            if off:
                mat[0, j + 1] = ubh_pf_border_rescaled(j, m, a, z, u)
                mat[j + 1, 0] = -mat[0, j + 1]
            for k in range(j + 1, m):
                mat[j + off, k + off] = ubh_pf_element_rescaled(j, k, m, a, z, u)
                mat[k + off, j + off] = -mat[j + off, k + off]
        out.append(pfaffian(mat, check_skew=False))
    return np.array(out)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_xi_coefficients_match_matrix_by_matrix(m):
    # a node builds its m + 1 matrices as one stack with one Pfaffian call;
    # the same special-function values give the same coefficients
    us = np.arange(m + 1, dtype=float)
    vand = np.vander(us, m + 1, increasing=True)
    for z in (complex(0.3, 0.4), complex(-12.5, 20.1), complex(2.0, 7.0)):
        got = _xi_coefficients(m, 0.5, z)
        want = np.linalg.solve(vand, pf_values_by_matrix(m, 0.5, z, us))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_fixed_trace_node_keeps_traced_layers(monkeypatch):
    # the benchmark's traced fixed-trace run needs specfun.quad calls and
    # reads the element and Pfaffian layers: each node makes one element
    # call and one Pfaffian call, and reaches quad only through Gamma2
    calls = Counter()

    def count(mod, name):
        fn = getattr(mod, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)

    for mod, name in ((ensembles, "_xi_coefficients"), (ensembles, "ubh_pf_element_rescaled"),
                      (plinalg, "pfaffian"), (specfun, "quad")):
        count(mod, name)
    p = ModelParams(3, 0.5, 0.0, 0.7, 0.0)
    z_bhft(p, 0.46)
    nodes = calls["_xi_coefficients"]
    assert nodes > 0 and calls["ubh_pf_element_rescaled"] == calls["pfaffian"] == nodes
    assert calls["quad"] > 0
    calls.clear()
    monkeypatch.setattr(bimoments, "gamma2_diag_scaled", lambda a, z: SpecFunResult(0.5j, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionWarning)  # the stub's value is meaningless
        z_bhft(p, 0.46)
    assert calls["_xi_coefficients"] > 0 and calls["quad"] == 0


def test_flow_route_matches_determinant():
    p = ModelParams(m=2, a=0.0, b=1.0, xi=1.0, psi=1.0)
    d = DeformPoint(1.6, 1.2)
    got = z_cl2m_flow(p, d).value
    want = z_cl2m(p, d).value
    assert abs(got - want) <= 1e-6 * max(abs(want), 1e-6)
    assert z_cl2m_flow(p, d).route is Route.FLOW


# (m, s, t) -> (value, est_error) at a = 0.3, b = 0.7, xi = 1, psi = 0.6,
# flowed from (1, 1).  They sit 1.1e-10 to 3.4e-9 from the hi-fi determinant;
# a reordered floating-point expression in the flow's right-hand side, a
# change to its step control or to the start's float Gamma2 seeds shows here
FLOW_GOLDEN = {
    (2, 3.4, 0.6): (0.28177313720721625, 2.8177313720721628e-09),
    (3, 2.5, 3.3): (0.084107609612897, 8.410760961289699e-10),
    (4, 2.183616934054415, 1.1926985565215407): (0.0005920193470264256, 5.920193470264255e-12),
    (4, 2.245594913748194, 1.1872097417053438): (0.0007194654527875015, 7.194654527875015e-12),
    (5, 2.3, 1.1): (3.3600615788510182e-06, 3.3600615788510184e-14),
}


@pytest.mark.parametrize("key", list(FLOW_GOLDEN))
def test_z_cl2m_flow_golden_values(key):
    m, s, t = key
    r = z_cl2m_flow(ModelParams(m, 0.3, 0.7, 1.0, 0.6), DeformPoint(s, t))
    assert (r.value, r.est_error) == FLOW_GOLDEN[key]


@pytest.mark.parametrize("m, s, t", [
    (3, 3.480055780781107, 2.2239286319753666),
    (3, 3.409129784045822, 3.4321753682272655),
    (4, 2.3222708530122245, 2.3600473412392464),
    (5, 2.3, 1.1),
])
def test_flow_matches_determinant_where_the_absolute_norm_missed(m, s, t):
    # the flow's step error is relative per component and absolute in log Z;
    # an error normed by the largest component plus one misses z_cl2m here by
    # 1.1e-8 to 3.4e-8
    p = ModelParams(m, 0.3, 0.7, 1.0, 0.6)
    d = DeformPoint(s, t)
    want = z_cl2m(p, d).value
    assert abs(z_cl2m_flow(p, d).value - want) <= 5e-9 * want
