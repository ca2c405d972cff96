import numpy as np
import pytest

from bhgap.ensembles import z_bhft, z_cl2m
from bhgap.oracles import OracleEstimate, mc_gap, quad_bimoment, quad_gap_small_m
from bhgap.bops import inner_product
from bhgap.params import DeformPoint, DomainError, ModelParams, PrecisionWarning

P = ModelParams(m=2, a=0.0, b=1.0, xi=1.0, psi=1.0)
D = DeformPoint(1.0, 1.0)


def test_quad_bimoment_undeformed_unit():
    p0 = ModelParams(m=1, a=0.0, b=0.0, xi=0.0, psi=0.0)
    est = quad_bimoment(0, 0, p0, D)
    assert abs(est.value - 1.0) <= 1e-10
    assert est.std_error == 0.0


@pytest.mark.parametrize("jk", [(0, 0), (3, 2), (4, 4)])
def test_quad_bimoment_matches_closed_form(jk):
    j, k = jk
    p = ModelParams(m=2, a=-0.5, b=1.5, xi=1.0, psi=0.5)
    d = DeformPoint(0.5, 2.0)
    got = quad_bimoment(j, k, p, d).value
    want = inner_product(p, d, [1.0], [1.0], j, k)
    assert abs(got - want) <= 1e-9 * abs(want)


def test_quad_bimoment_rejects_divergent():
    bad = ModelParams(m=1, a=-0.5, b=-0.5, xi=0.5, psi=0.5)
    with pytest.raises(DomainError):
        quad_bimoment(0, 0, bad, D)


def test_quad_gap_m1_trivial():
    p = ModelParams(m=1, a=0.3, b=0.6, xi=0.0, psi=0.0)
    assert abs(quad_gap_small_m(p, D).value - 1.0) <= 1e-9


def test_quad_gap_m2_vs_determinant():
    p = ModelParams(m=2, a=0.5, b=0.2, xi=1.0, psi=0.6)
    d = DeformPoint(1.0, 1.4)
    got = quad_gap_small_m(p, d).value
    want = z_cl2m(p, d).value
    assert abs(got - want) <= 1e-7


def test_quad_gap_rejects_unknown_ensemble():
    # "ubh" is not an oracle ensemble; it used to return the cl2m value
    p = ModelParams(m=2, a=-0.7, b=0.0, xi=1.0, psi=1.0)
    with pytest.raises(DomainError):
        quad_gap_small_m(p, D, "ubh")


def test_quad_gap_rejects_large_m():
    p = ModelParams(m=3, a=0.0, b=0.0, xi=1.0, psi=1.0)
    with pytest.raises(DomainError):
        quad_gap_small_m(p, D)


def test_bhft_slice_threshold():
    p = ModelParams(m=2, a=0.5, xi=1.0)
    assert abs(quad_gap_small_m(p, DeformPoint(1.0, 0.4), "bhft").value) == 0.0
    v = quad_gap_small_m(p, DeformPoint(1.0, 0.7), "bhft").value
    assert abs(v - z_bhft(p, 0.7).value) <= 1e-5


def test_mc_trivial_ratio():
    p0 = ModelParams(m=2, a=0.0, b=1.0, xi=0.0, psi=0.0)
    est = mc_gap(p0, D, n_samples=20000, seed=7)
    assert est.value == 1.0
    assert est.std_error == 0.0


def test_mc_reproducible():
    a1 = mc_gap(P, D, n_samples=50000, seed=42)
    a2 = mc_gap(P, D, n_samples=50000, seed=42)
    assert a1 == a2
    a3 = mc_gap(P, D, n_samples=50000, seed=43)
    assert a3.value != a1.value


def test_mc_m2_vs_quadrature():
    p = ModelParams(m=2, a=0.5, b=0.2, xi=1.0, psi=0.6)
    d = DeformPoint(1.0, 1.4)
    est = mc_gap(p, d, n_samples=200000, seed=11)
    want = quad_gap_small_m(p, d).value
    assert abs(est.value - want) <= 3.0 * est.std_error


def test_mc_m3_vs_determinant():
    p = ModelParams(m=3, a=0.0, b=1.0, xi=1.0, psi=1.0)
    d = DeformPoint(1.5, 1.5)
    est = mc_gap(p, d, n_samples=400000, seed=5)
    want = z_cl2m(p, d).value
    assert abs(est.value - want) <= 3.0 * est.std_error
    assert est.n_samples == 400000


def test_mc_warns_on_small_effective_sample():
    # 100 draws have fewer than 100 effective samples unless every weight is
    # equal, so the pooled estimate must warn
    p = ModelParams(m=2, a=0.5, b=0.2, xi=1.0, psi=0.6)
    with pytest.warns(PrecisionWarning, match="effective sample size"):
        mc_gap(p, DeformPoint(1.0, 1.4), n_samples=100, seed=11)


def test_oracle_estimate_validation():
    with pytest.raises(DomainError):
        OracleEstimate(1.0, -1.0, 0)
