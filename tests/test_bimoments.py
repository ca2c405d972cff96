import cmath
import math
from collections import Counter

import mpmath as mp
import numpy as np
import pytest

from bhgap import bimoments, bops, dd, ensembles
from bhgap.bimoments import ubh_pf_border_rescaled, ubh_pf_element_rescaled
from bhgap.params import INF, DeformPoint, DomainError, ModelParams
from bhgap.specfun import SpecFunResult

mp.mp.dps = 25


def mp_bimoment(j, k, p, d):
    """Independent 2D quadrature of the deformed bi-moment."""
    A, B = mp.mpf(p.a + j), mp.mpf(p.b + k)
    s, t, xi, psi = d.s, d.t, p.xi, p.psi
    U = 50

    def inner(x):
        f = lambda y: y ** B * mp.e ** (-y) / (x + y)
        v = mp.quad(f, [0, min(t, U), U])
        if psi:
            v -= psi * mp.quad(f, [t, U])
        return v

    g = lambda x: x ** A * mp.e ** (-x) * inner(x)
    v = mp.quad(g, [0, min(s, U), U])
    if xi:
        v -= xi * mp.quad(g, [s, U])
    return complex(v)


D = DeformPoint(1.0, 1.0)


def bimoment(j, k, p, d):
    """The Gram entry M_jk."""
    return bops.inner_product(p, d, [1.0], [1.0], j, k)


def alpha_moment(j, p, d):
    """The x-species deformed moment alpha_j of the Gram's chain."""
    return dd.unwrap(bops._dd_gram(p, d, 1)[1][j])


def ubh_element(j, k, a, xi, s):
    """The one-species element M_jk at a real cutoff s, from the rescaled
    blocks with u = xi e^-s."""
    return ubh_pf_element_rescaled(j, k, max(j, k) + 1, a, complex(s), xi * math.exp(-s))


def equal_species_difference(j, k, a, xi, s):
    """M_{j+1,k} - M_{j,k+1} of the equal-species Gram."""
    p, d = ModelParams(m=2, a=a, b=a, xi=xi, psi=xi), DeformPoint(s, s)
    return bimoment(j + 1, k, p, d) - bimoment(j, k + 1, p, d)


def test_alpha_moment_deformation_off():
    p0 = ModelParams(m=2, a=0.3, b=0.0, xi=0.0)
    assert abs(alpha_moment(2, p0, D) - math.gamma(0.3 + 3)) < 1e-14


def test_alpha_moment_inf_sentinel():
    p1 = ModelParams(m=2, a=0.3, b=0.0, xi=0.7)
    dinf = DeformPoint(INF, INF)
    assert abs(alpha_moment(1, p1, dinf) - math.gamma(0.3 + 2)) < 1e-14


def test_alpha_moment_exponential_case():
    p1 = ModelParams(m=1, a=0.0, b=0.0, xi=1.0)
    got = alpha_moment(0, p1, DeformPoint(1.0, 1.0))
    assert abs(got - (1.0 - math.exp(-1.0))) < 1e-14


def test_bimoment_undeformed_closed_form():
    p0 = ModelParams(m=2, a=0.4, b=-0.2, xi=0.0, psi=0.0)
    for j, k in [(0, 0), (2, 1)]:
        want = math.gamma(p0.a + j + 1) * math.gamma(p0.b + k + 1) / (p0.a + p0.b + j + k + 1)
        assert abs(bimoment(j, k, p0, D) - want) < 1e-13 * abs(want)


def test_bimoment_inf_limit_ignores_xi():
    p1 = ModelParams(m=2, a=0.4, b=-0.2, xi=0.9, psi=0.3)
    dinf = DeformPoint(INF, INF)
    want = math.gamma(p1.a + 1) * math.gamma(p1.b + 1) / (p1.a + p1.b + 1)
    assert abs(bimoment(0, 0, p1, dinf) - want) < 1e-13


@pytest.mark.parametrize("jk", [(0, 0), (1, 2), (3, 0)])
@pytest.mark.parametrize("ab", [(0.0, 1.0), (-0.5, 1.5)])
def test_bimoment_vs_quadrature(jk, ab):
    j, k = jk
    p = ModelParams(m=2, a=ab[0], b=ab[1], xi=1.0, psi=0.5)
    d = DeformPoint(1.0, 2.0)
    got = bimoment(j, k, p, d)
    want = mp_bimoment(j, k, p, d)
    assert abs(got - want) <= 1e-10 * abs(want)


def test_bimoment_matrix_order1_and_2():
    p0 = ModelParams(m=2, a=0.0, b=0.0, xi=0.0, psi=0.0)
    assert bimoment(0, 0, p0, D) == 1.0
    m2 = [[bimoment(j, k, p0, D) for k in range(2)] for j in range(2)]
    assert np.allclose(m2, [[1.0, 0.5], [0.5, 1.0 / 3.0]], rtol=1e-13)


def test_bimoment_origin_divergence_rejected():
    bad = ModelParams(m=1, a=-0.5, b=-0.5, xi=0.5, psi=0.5)
    with pytest.raises(DomainError):
        bimoment(0, 0, bad, D)


@pytest.mark.parametrize("ab", [(-0.5, 0.0), (0.0, 1.5), (1.5, -0.5)])
@pytest.mark.parametrize("xps", [(0.0, 0.5), (0.5, 1.0), (1.0, 1.0)])
@pytest.mark.parametrize("st", [(0.5, 2.0), (2.0, 0.5)])
def test_rank1_cauchy_identity(ab, xps, st):
    # rows j >= 1 come from the rank-1 fill M_{j+1,k} + M_{j,k+1} =
    # alpha_j beta_k, and the swapped Gram's row 0 from the closed forms, so
    # the swapped transpose checks the relation against the closed forms
    p = ModelParams(m=2, a=ab[0], b=ab[1], xi=xps[0], psi=xps[1])
    d = DeformPoint(*st)
    for j in range(4):
        for k in range(4):
            want = bimoment(j, k, p, d)
            got = bimoment(k, j, p.swapped(), d.swapped())
            assert abs(got - want) <= 1e-10 * max(abs(want), 1e-30)


def test_species_exchange():
    p = ModelParams(m=2, a=-0.5, b=1.5, xi=0.7, psi=0.2)
    d = DeformPoint(0.5, 2.0)
    for j, k in [(0, 1), (2, 3), (1, 1)]:
        assert abs(bimoment(k, j, p.swapped(), d.swapped()) - bimoment(j, k, p, d)) <= 1e-12


def test_mixed_partials_law():
    p = ModelParams(m=2, a=0.3, b=0.8, xi=0.9, psi=0.6)
    h = 1e-4
    s, t = 1.3, 0.9

    def m_at(ss, tt):
        return bimoment(0, 0, p, DeformPoint(ss, tt))

    fd = (m_at(s + h, t + h) - m_at(s + h, t - h) - m_at(s - h, t + h) + m_at(s - h, t - h)) / (4 * h * h)
    want = p.xi * p.psi * s ** p.a * t ** p.b * math.exp(-s - t) / (s + t)
    assert abs(fd - want) <= 1e-5 * abs(want)


def test_ubh_diagonal_vanishes():
    assert ubh_element(2, 2, 0.0, 1.0, 1.0) == 0.0


def test_ubh_undeformed_reduction():
    a, j, k = 0.5, 0, 1
    want = (j - k) * math.gamma(a + 1 + j) * math.gamma(a + 1 + k) / (2 * a + 2 + j + k)
    assert abs(ubh_element(j, k, a, 0.0, 1.0) - want) <= 1e-13 * abs(want)


def test_ubh_element_vs_bimoment_difference():
    # M^UB-H_jk = N_{j+1,k} - N_{j,k+1} with equal-species deformed bi-moments
    for j, k in [(0, 1), (1, 2), (0, 3)]:
        got = ubh_element(j, k, 0.5, 1.0, 1.0)
        want = equal_species_difference(j, k, 0.5, 1.0, 1.0)
        assert abs(got - want) <= 1e-11 * abs(want)


def test_ubh_element_vs_quadrature():
    a, s, xi = 0.5, 1.0, 1.0
    w = lambda x: (1 - xi * (x > s)) * x ** mp.mpf(a) * mp.e ** (-x)
    U = 50

    def elem(j, k):
        inner = lambda x: mp.quad(lambda y: w(y) * (x - y) / (x + y) * y ** k, [0, s, U])
        return complex(mp.quad(lambda x: w(x) * x ** j * inner(x), [0, s, U]))

    got = ubh_element(0, 1, a, xi, s)
    assert abs(got - elem(0, 1)) <= 1e-8 * abs(elem(0, 1))


def test_ubh_skew_symmetry_and_matrix():
    a, xi, s = 0.5, 0.8, 2.0
    u = xi * math.exp(-s)
    idx = np.arange(4)
    m = ubh_pf_element_rescaled(idx[:, None], idx, 4, a, complex(s), u)
    assert m.shape == (4, 4)
    assert np.linalg.norm(m + m.T) <= 1e-11 * np.linalg.norm(m)
    # the odd-m border is the deformed univariate moment alpha_j
    p3 = ModelParams(m=3, a=a, b=a, xi=xi, psi=xi)
    border = ubh_pf_border_rescaled(np.arange(3), 3, a, complex(s), u)
    for j in range(3):
        want = alpha_moment(j, p3, DeformPoint(s, s))
        assert abs(border[j] - want) <= 1e-13 * abs(want)


def test_ubh_rescaled_consistency_at_real_z():
    # with u = xi e^-z the rescaled element reproduces the Gram difference
    a, z, xi = 0.5, 1.5, 0.7
    got = ubh_element(0, 1, a, xi, z)
    want = equal_species_difference(0, 1, a, xi, z)
    assert abs(got - want) <= 1e-12 * abs(want)


# contour nodes on both sides of Re z = 0.5, where gamma_upper_scaled leaves
# the series and continued fraction for the tau rule
NODES = [complex(0.3, 0.4), complex(-12.5, 20.1), complex(2.0, 7.0), complex(9.0, 0.5)]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 30])
def test_node_evaluates_each_special_function_once_per_order(monkeypatch, m):
    # a node needs e^z Gamma(a+1+j, z), e^z Gamma(-a-1-j, z) and
    # e^z Gamma2(a+j; z, z) for j < m, and computes one value of each family;
    # the m = 1 border needs the first only.  A contour's incomplete gammas
    # are one batched call, its Gamma2 values one call per node
    calls, values = Counter(), Counter()

    def counted(fn):
        def wrapped(order, z):
            calls[fn.__name__] += 1
            values[fn.__name__] += np.size(z)
            return fn(order, z)
        return wrapped

    for name in ("gamma_upper_scaled", "gamma2_diag_scaled"):
        monkeypatch.setattr(bimoments, name, counted(getattr(bimoments, name)))
    bimoments.clear_caches()
    bimoments._node_blocks(m, 0.5, tuple(NODES))
    n = len(NODES)
    want = (n, 0) if m == 1 else (2 * n, n)
    assert (values["gamma_upper_scaled"], values["gamma2_diag_scaled"]) == want
    assert calls["gamma_upper_scaled"] == 1


def test_laplace_caches_hold_at_most_one_contour(monkeypatch):
    # no contour recurs, so nothing older than a contour is kept
    fake = lambda order, z: SpecFunResult(complex(order, 1.0), 0.0)
    monkeypatch.setattr(bimoments, "gamma_upper_scaled",
                        lambda orders, zs: [fake(o, z) for o, z in zip(orders, zs)])
    monkeypatch.setattr(bimoments, "gamma2_diag_scaled", fake)
    bimoments.clear_caches()
    for i in range(200):
        ensembles._xi_coefficients(5, 0.5, np.array(NODES) + 0.01j * i)
    assert bimoments._node_blocks.cache_info().currsize <= 1
    bimoments.clear_caches()
    assert bimoments._node_blocks.cache_info().currsize == 0


def talbot_nodes(m, a, t, nodes=32):
    """The fixed-Talbot nodes z = s t that z_bhft's coefficient k = 1 used at
    nodes points, at r = 1 - t, before the route moved to one hyperbola."""
    rv = 2.0 * nodes / (5.0 * (1.0 - t))
    out = [complex(rv, 0.0) * t]
    for i in range(1, nodes):
        th = math.pi * i / nodes
        out.append(rv * th * complex(math.cos(th) / math.sin(th), 1.0) * t)
    return out


def hyperbola_nodes(contour, t, nodes=32):
    """The nodes z = s_j t, j = 0..nodes, of one of z_bhft's hyperbolas;
    j = 0 is the point nearest the origin, s_0 t."""
    alpha, mu_per_node, h_nodes = contour
    mu, h = mu_per_node * nodes, h_nodes / nodes
    return [mu * (1.0 + cmath.sin(complex(-alpha, j * h))) * t for j in range(nodes + 1)]


def mp_ladders(m, a, z):
    """40-digit e^z Gamma(a+1+j, z), e^z Gamma(-a-1-j, z), e^z Gamma2(a+j; z, z)."""
    with mp.workdps(40):
        zz, aa = mp.mpc(z), mp.mpf(a)
        ez = mp.exp(zz)
        pos = [ez * mp.gammainc(aa + 1 + j, zz) for j in range(m)]
        neg = [ez * mp.gammainc(-aa - 1 - j, zz) for j in range(m)]
        # e^z Gamma2(A; z, z) = int_0^inf e^-tau (z+tau)^A / (2z+tau) dtau
        # (the path avoids the pole at tau = -2z, which lies off the real axis
        # or, for real z > 0, at negative tau)
        brk = sorted({0, *(c for c in (-zz.real, -2 * zz.real) if c > 0)})
        g2 = [mp.quad(lambda tau: mp.exp(-tau) * (zz + tau) ** (aa + j) / (2 * zz + tau),
                      brk + [brk[-1] + 60, mp.inf])
              for j in range(m)]
        return [[complex(v) for v in f] for f in (pos, neg, g2)]


LADDER_NODES = [  # (m, a, z): nodes of fixed-trace contours and two fixed points
    *[(m, a, z) for m, a, t in [(2, 0.1, 0.46), (4, 0.9, 0.26), (8, 0.5, 0.1)]
      for z in talbot_nodes(m, a, t)[::4]],
    # every fourth node of the value and estimate hyperbolas, from s_0 t out
    # to |z| ~ 200 (m = 2, t = 0.86), close to the origin (m = 4, t = 0.26),
    # and at m = 4, t = 0.86, whose real s_0 t needs e^z Gamma(-4.9, z) at an
    # order far below -|z|
    *[(m, a, z) for m, a, t in [(2, 0.1, 0.86), (4, 0.9, 0.26), (4, 0.9, 0.86)]
      for contour in (ensembles._VALUE_CONTOUR, ensembles._ESTIMATE_CONTOUR)
      for z in hyperbola_nodes(contour, t)[::4]],
    (12, 0.1, complex(0.7, 0.2)),
    (12, -0.5, complex(-1.0, 2.5)),
]


def test_ladder_nodes_cover_both_directions():
    # the fixture reaches Re z >= 0.5, Re z < 0, and both directions of the
    # negative-order ladder (|z| < a + m puts its start above j = 0)
    zs = [z for _, _, z in LADDER_NODES]
    assert any(z.real >= 0.5 for z in zs) and any(z.real < 0 for z in zs)
    tops = [round(abs(z) - a - 1.0) for m, a, z in LADDER_NODES]
    assert any(0 < top < m - 1 for top, (m, _, _) in zip(tops, LADDER_NODES))


@pytest.mark.parametrize("m, a, z", LADDER_NODES)
def test_node_ladders_match_mpmath(m, a, z):
    got = [family[0] for family in bimoments._node_ladders(m, a, [z])]
    want = mp_ladders(m, a, z)
    for fam, g, w in zip(("pos", "neg", "g2"), got, want):
        for j in range(m):
            assert abs(g[j] - w[j]) <= 1e-12 * abs(w[j]), (fam, j)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_contour_batch_is_bitwise_node_by_node(m):
    # a contour's coefficients are one batch; each node's row must carry the
    # bits of the same call at that node alone, or a node's value would
    # depend on its contour.  The value hyperbola at t = 0.46 runs from the
    # continued fraction (Re z >= 0.5) into the tau rule (Re z < 0.5), and
    # odd m reads the border
    zs = hyperbola_nodes(ensembles._VALUE_CONTOUR, 0.46) + NODES
    assert any(z.real >= 0.5 for z in zs) and any(z.real < 0.5 for z in zs)
    got = ensembles._xi_coefficients(m, 0.5, np.array(zs))
    for z, row in zip(zs, got):
        assert row.tobytes() == ensembles._xi_coefficients(m, 0.5, z).tobytes(), z
