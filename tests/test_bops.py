import math

import mpmath as mp
import numpy as np
import pytest

from bhgap import bops, dd, plinalg, specfun
from bhgap.bops import (
    assoc1,
    build_state,
    eval_bundle,
    inner_product,
    intertwined,
    poly_coeffs,
    recurrence_coeffs,
    stieltjes_f1,
    undeformed_reference,
    zdet,
)
from bhgap.ensembles import z_cl2m
from bhgap.params import INF, DeformPoint, DomainError, ModelParams

mp.mp.dps = 25

P = ModelParams(m=2, a=0.0, b=1.0, xi=1.0, psi=1.0)
D = DeformPoint(1.0, 1.0)
P0 = ModelParams(m=2, a=0.0, b=0.0, xi=0.0, psi=0.0)
DINF = DeformPoint(INF, INF)


def coeff_arrays(p, d, n):
    return poly_coeffs(p, d, n, "x"), poly_coeffs(p, d, n, "y")


def test_undeformed_n0_basics():
    st = build_state(P0, DINF, 0)
    assert abs(st.S_triple[1] - 1.0) < 1e-14
    assert abs(st.pi_triple[1] - 1.0) < 1e-13
    assert abs(st.eta_triple[1] - 1.0) < 1e-13
    assert abs(st.Xnn - 0.5) < 1e-13


def test_undeformed_pi_eta_product():
    for a, b in [(-0.5, 0.0), (0.0, 0.0), (1.5, 0.3)]:
        p = ModelParams(m=2, a=a, b=b, xi=0.0, psi=0.0)
        for n in range(4):
            st = build_state(p, DINF, n)
            want = 2 * n + a + b + 1
            assert abs(st.pi_triple[1] * st.eta_triple[1] - want) < 1e-10 * want


def test_undeformed_s_ratio():
    st = build_state(P0, DINF, 0)
    assert abs((st.S_triple[2] / st.S_triple[1]) ** 2 - 12.0) < 1e-10


def test_undeformed_closed_forms_match():
    for a, b in [(-0.5, 0.0), (0.0, 0.0), (1.5, 0.3)]:
        ref = undeformed_reference(5, a, b)
        p = ModelParams(m=2, a=a, b=b, xi=0.0, psi=0.0)
        for n in range(6):
            st = build_state(p, DINF, n)
            assert abs(st.pi_triple[1] - ref["pi"][n]) <= 1e-9 * abs(ref["pi"][n])
            assert abs(st.eta_triple[1] - ref["eta"][n]) <= 1e-9 * abs(ref["eta"][n])
            assert abs(st.Xnn - ref["X"][n]) <= 1e-9 * abs(ref["X"][n])
            assert abs(st.Ynn - ref["Y"][n]) <= 1e-9 * abs(ref["Y"][n])
            assert abs(st.S_triple[1] - ref["S"][n]) <= 1e-9 * abs(ref["S"][n])


def test_orthonormality():
    for j in range(6):
        cj = poly_coeffs(P, D, j, "x")
        for k in range(6):
            ck = poly_coeffs(P, D, k, "y")
            ip = inner_product(P, D, cj, ck)
            assert abs(ip - (1.0 if j == k else 0.0)) <= 1e-9


def test_xy_constraint_on_state():
    st = build_state(P, D, 2)
    assert abs(st.Xnn + st.Ynn - st.pi_triple[1] * st.eta_triple[1]) < 1e-11


def test_rank_one_operator_identity():
    # (X + Y^T)_{jk} = pi_j eta_k via moment bilinears
    for j in range(4):
        cj = poly_coeffs(P, D, j, "x")
        stj = build_state(P, D, j)
        for k in range(4):
            ck = poly_coeffs(P, D, k, "y")
            stk = build_state(P, D, k)
            xjk = inner_product(P, D, cj, ck, xshift=1)
            ykj = inner_product(P, D, cj, ck, yshift=1)
            want = stj.pi_triple[1] * stk.eta_triple[1]
            assert abs(xjk + ykj - want) <= 1e-9 * max(abs(want), 1.0)


def test_recurrence_coefficient_formulas():
    st = build_state(P, D, 1)
    (r2, r1, r0, rm1), (s2, s1, s0, sm1) = recurrence_coeffs(st)
    st2 = build_state(P, D, 2)
    # r_{n,2} = S_{n+1}/(S_{n+2} pi_{n+1})
    assert abs(r2 - st2.S_triple[1] / (st2.S_triple[2] * st.pi_triple[2])) < 1e-11
    # s_{n,-1} = (pi_n/eta_n) r_{n,-1}
    assert abs(sm1 - st.pi_triple[1] / st.eta_triple[1] * rm1) < 1e-13


@pytest.mark.parametrize("x", [0.3, 1.7])
def test_four_term_recurrence_pointwise(x):
    for n in range(1, 5):
        st = build_state(P, D, n)
        (r2, r1, r0, rm1), _ = recurrence_coeffs(st)
        pc = [poly_coeffs(P, D, n + d, "x") for d in (-1, 0, 1, 2)]
        vals = [np.polynomial.polynomial.polyval(x, c) for c in pc]
        lhs = x * (vals[2] / st.pi_triple[2] - vals[1] / st.pi_triple[1])
        rhs = r2 * vals[3] + r1 * vals[2] + r0 * vals[1] + rm1 * vals[0]
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-9 * scale


def test_q_recurrence_pointwise():
    y = 0.9
    for n in range(1, 4):
        st = build_state(P, D, n)
        _, (s2, s1, s0, sm1) = recurrence_coeffs(st)
        qc = [poly_coeffs(P, D, n + d, "y") for d in (-1, 0, 1, 2)]
        vals = [np.polynomial.polynomial.polyval(y, c) for c in qc]
        lhs = y * (vals[2] / st.eta_triple[2] - vals[1] / st.eta_triple[1])
        rhs = s2 * vals[3] + s1 * vals[2] + s0 * vals[1] + sm1 * vals[0]
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)


def test_second_order_difference_equation():
    # (x - X_nn) P_n - (S_n/S_n+1) P_n+1 + (S_n-1/S_n) P_n-1 + pi_n hatP_{n-1} = 0
    x = 1.234
    for n in range(1, 5):
        st = build_state(P, D, n)
        stm = build_state(P, D, n - 1)
        hat_prev = intertwined(stm, "hatP", x)
        val = ((x - st.Xnn) * st.p_polys[1](x)
               - st.S_triple[1] / st.S_triple[2] * st.p_polys[2](x)
               + (st.S_triple[0] / st.S_triple[1] if n else 0.0) * (st.p_polys[0](x) if n else 0.0)
               + st.pi_triple[1] * hat_prev)
        assert abs(val) <= 1e-9 * max(abs(st.p_polys[2](x)), 1.0)


def test_subleading_coefficient_sum():
    # S_{n+1,n}/S_{n+1} = -sum_{l<=n} X_ll
    for n in range(3):
        c = poly_coeffs(P, D, n + 1, "x")
        got = c[-2] / c[-1]
        want = -sum(build_state(P, D, l).Xnn for l in range(n + 1))
        assert abs(got - want) <= 1e-9 * max(abs(want), 1.0)


def test_stieltjes_f1_closed_form_at_a0():
    # xi = 0, a = 0: f1(-t) = -e^t Gamma(0, t)
    p = ModelParams(m=2, a=0.0, b=0.0, xi=0.0, psi=0.0)
    t = 1.3
    want = -math.exp(t) * float(mp.gammainc(0, t, mp.inf))
    assert abs(stieltjes_f1(-t, p, D) - want) <= 1e-12 * abs(want)


def test_stieltjes_f1_deformed_vs_quadrature():
    p = ModelParams(m=2, a=0.5, b=0.0, xi=1.0, psi=0.0)
    d = DeformPoint(1.0, 1.0)
    z = -2.0
    f = lambda x: x ** mp.mpf(p.a) * mp.e ** (-x) / (z - x)
    want = complex(mp.quad(f, [0, d.s, 50]) - p.xi * mp.quad(f, [d.s, 50])).real
    assert abs(stieltjes_f1(z, p, d) - want) <= 1e-10 * abs(want)


def test_stieltjes_rejects_support():
    with pytest.raises(DomainError):
        stieltjes_f1(0.5, P, D)


def test_assoc1_constant_poly():
    st = build_state(P, D, 0)
    z = -1.1
    got = assoc1(st.p_polys[1], z, P, D, "x")
    want = st.p_polys[1].coeffs[0] * stieltjes_f1(z, P, D)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_species_names_are_checked():
    # any name but "x" used to select the y species
    st = build_state(P, D, 1)
    with pytest.raises(DomainError):
        assoc1(st.p_polys[1], -1.1, P, D, "z")
    with pytest.raises(DomainError):
        poly_coeffs(P, D, 1, "X")


def test_assoc1_vs_quadrature():
    p0 = ModelParams(m=2, a=0.0, b=0.0, xi=0.0, psi=0.0)
    st = build_state(p0, DINF, 2)
    z = -1.0
    got = assoc1(st.p_polys[1], z, p0, DINF, "x")
    c = st.p_polys[1].coeffs
    f = lambda x: (c[0] + c[1] * x + c[2] * x * x) * mp.e ** (-x) / (z - x)
    want = complex(mp.quad(f, [0, 50])).real
    assert abs(got - want) <= 1e-11 * abs(want)


def test_assoc1_large_z_asymptote():
    st = build_state(P, D, 2)
    z = -1e4
    got = assoc1(st.p_polys[1], z, P, D, "x") * z
    assert abs(got - st.pi_triple[1]) <= 1e-3 * abs(st.pi_triple[1])


def test_intertwined_sum_forms():
    st = build_state(P, D, 2)
    for z in (0.4, 2.2):
        hat_sum = -sum(build_state(P, D, l).eta_triple[1]
                       * poly_value(P, D, l, z, "x") for l in range(3))
        assert abs(intertwined(st, "hatP", z) - hat_sum) <= 1e-10 * max(abs(hat_sum), 1.0)
        chk_sum = -sum(build_state(P, D, l).pi_triple[1]
                       * poly_value(P, D, l, z, "y") for l in range(3))
        assert abs(intertwined(st, "checkQ", z) - chk_sum) <= 1e-10 * max(abs(chk_sum), 1.0)


def poly_value(p, d, n, z, species):
    c = poly_coeffs(p, d, n, species)
    return np.polynomial.polynomial.polyval(z, c)


def test_intertwined_assoc_sum_form():
    # the Cauchy transform of hatP_n is -sum eta_l P1_l and coincides with the
    # three-term substitution value (unit included)
    st = build_state(P, D, 2)
    z = -1.3
    hat1_sum = -sum(build_state(P, D, l).eta_triple[1]
                    * assoc1(poly_coeffs(P, D, l, "x"), z, P, D, "x") for l in range(3))
    got = intertwined(st, "hatP1", z)
    assert abs(got - hat1_sum) <= 1e-10 * max(abs(hat1_sum), 1.0)


def test_checkq0_single_term():
    st = build_state(P, D, 0)
    y = 0.7
    got = intertwined(st, "checkQ", y)
    want = -st.pi_triple[1] * st.q_polys[1](y)
    assert abs(got - want) <= 1e-11 * max(abs(want), 1.0)


def test_undeformed_a_b_halfint_state():
    p = ModelParams(m=2, a=-0.5, b=1.5, xi=0.0, psi=0.0)
    st = build_state(p, DINF, 3)
    ref = undeformed_reference(3, p.a, p.b)
    assert abs(st.pi_triple[1] * st.eta_triple[1] - ref["pi_eta"][3]) < 1e-9 * ref["pi_eta"][3]


def test_zdet_positive_region():
    assert zdet(P, D, 0) == 1.0
    assert zdet(P, D, 3) > 0


def gram_block_det(p, d, m, size, hi_fidelity=False):
    """Pivoted DD determinant of the leading m x m block of _dd_gram(p, d, size)."""
    M = bops._dd_gram(p, d, size, hi_fidelity)[0]
    return dd.unwrap(plinalg.dd_lu_det([row[:m] for row in M[:m]]))


@pytest.mark.parametrize("k", [1, 3, 5])
def test_zdet_is_pivot_product_of_gram(k):
    # zdet factorizes the hi-fi Gram of real xi and psi (bops._gram)
    want = gram_block_det(P, D, k, k, hi_fidelity=True)
    assert abs(zdet(P, D, k) - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("m,s,t", [(6, 1.1, 2.2), (8, 1.1, 3.4)])
def test_gram_block_independent_of_size(m, s, t):
    # at s <= t the boxed shift chain runs upward from its low-order seed, so
    # the leading block cannot depend on how many chain steps follow it
    p = ModelParams(m, 0.3, 0.7, 1.0, 0.6)
    d = DeformPoint(s, t)
    want = gram_block_det(p, d, m, m)
    assert abs(gram_block_det(p, d, m, m + 8) - want) <= 1e-12 * abs(want)


def test_gram_swap_twin_off_diagonal():
    # the species exchange runs the boxed shift chain the other way, from the
    # other seed; the lo-fi Gram determinant is z_cl2m's first pass
    p = ModelParams(6, 0.3, 0.7, 1.0, 0.6)
    d = DeformPoint(1.1, 3.4)
    z = gram_block_det(p, d, 6, 6)
    twin = gram_block_det(p.swapped(), d.swapped(), 6, 6)
    assert abs(z - twin) <= 1e-6 * abs(z)
    assert build_state(p, d, 5).S_triple[2] > 0


def test_gram_cache_is_bounded():
    # a sweep of new points must not keep every Gram it built
    bops.clear_caches()
    for i in range(100):
        z_cl2m(ModelParams(2, 0.3, 0.7, 1.0, 0.6), DeformPoint(2.0 + 0.01 * i, 3.0))
    assert bops._dd_gram.cache_info().currsize <= 64


@pytest.mark.parametrize("m,a,b,s,t", [(6, 0.073, 0.872, 1.020, 2.177),
                                       (8, 0.135, 0.534, 1.003, 0.938)])
def test_hifi_gram_swap_twin(m, a, b, s, t):
    # z_cl2m's deep pass: the rank-1 row fill amplifies row-0 errors by ~1e8
    # in the s < t order, and the near-diagonal downward shift chain keeps
    # its top seed's error, so both orders agree only with DD-accurate boxed
    # seeds and weight powers
    p, d = ModelParams(m, a, b, 1.0, 1.0), DeformPoint(s, t)
    z = dd.unwrap(plinalg.dd_lu_det(bops._dd_gram(p, d, m, True)[0]))
    twin = dd.unwrap(plinalg.dd_lu_det(bops._dd_gram(p.swapped(), d.swapped(), m, True)[0]))
    assert abs(z - twin) <= 1e-12 * abs(z)


def test_zero_coefficient_corners_are_not_built(monkeypatch):
    # the float Gamma(-c, y) seeds G2s0 and c0t enter only the blocks with
    # coefficients xi (1 - psi) and (1 - xi) psi, so xi = 1 drops c0t and
    # psi = 1 drops G2s0
    calls = []

    def counted(*args):
        calls.append(args)
        return specfun.gamma_upper(*args)

    monkeypatch.setattr(bops, "gamma_upper", counted)
    d = DeformPoint(1.3, 2.1)
    for xi, psi, want in [(1.0, 1.0, 0), (1.0, 0.6, 1), (0.6, 0.6, 2)]:
        calls.clear()
        bops.clear_caches()
        bops._dd_gram(ModelParams(3, 0.3, 0.7, xi, psi), d, 3)
        assert len(calls) == want, (xi, psi)


# (m, a, b, xi, psi, s, t) -> the hi-fi Gram's entries, row by row, as (hi, lo)
# or (re hi, re lo, im hi, im lo).  The real keys carry the last bits of the
# batched DD seeds and weight powers: every entry of the first is within
# 7.6e-32 relative of 45-digit mpmath, and every entry of the second within
# 4.2e-31 of a 45-digit replay that keeps its float64 Gamma(b+1) and G2s0
HIFI_GRAM_GOLDEN = {
    (3, 0.3, 0.7, 1.0, 1.0, 2.4, 1.9): [
        (0.31801876593563144, -2.3827785748443058e-17),
        (0.2408209793067441, 2.9321334772600288e-18),
        (0.2597529984293947, 1.5968864793299518e-17),
        (0.21721034632363295, -3.717715681392252e-18),
        (0.17708256781665935, 6.232675702350407e-18),
        (0.19713399955197902, 1.9318947478617436e-18),
        (0.24939573852375155, 8.73382415044418e-18),
        (0.20960868815714273, 1.297310724464202e-17),
        (0.23673715418789992, -1.1622049799271256e-17),
    ],
    (3, 0.3, 0.7, 1.0, 0.6, 1.1, 2.2): [
        (0.27547957873922796, 1.0409536588836686e-17),
        (0.249789864044674, -1.3610577868613983e-17),
        (0.38949174956528626, 8.27190911144559e-18),
        (0.12210824284039583, 4.802785261171009e-18),
        (0.11842456632871676, -3.719162255637446e-18),
        (0.19071030615126083, 6.0178965702447775e-18),
        (0.07874070882676777, 5.559348731171546e-20),
        (0.07856630033103329, 2.4737396215414615e-18),
        (0.128483129059146, 3.290399436779832e-18),
    ],
    (3, 0.2, 0.5, (0.5+0.3j), 0.0, 1.3, 0.9): [
        (0.43614029914418095, 2.572718372591699e-17, -0.025506124615996738, 9.361607718420017e-20),
        (0.40195856931191887, 2.5500826763042078e-17, -0.030060145620770362, 1.0689753469053287e-18),
        (0.7221601750801071, 2.9010177449858775e-17, -0.06152502702044152, 1.425095189396208e-19),
        (0.2707947164914146, -2.5280586389892184e-17, -0.0545113998714886, -1.6210595328479072e-18),
        (0.2869697536248931, 2.68313343411239e-17, -0.06533229121794693, 2.4988111541001258e-18),
        (0.5533774930752102, 3.3424082740466215e-17, -0.13542155232171763, 3.0463214613639163e-18),
        (0.35488519133761987, 8.535192186140043e-18, -0.13542296217365615, -6.6062054917911635e-18),
        (0.4094049243685592, 1.96257070504297e-17, -0.165711327765687, 4.6703748399139845e-18),
        (0.8317250976632923, -3.4927042115873745e-17, -0.3489321024625799, 2.737612860885784e-17),
    ],
}


@pytest.mark.parametrize("key", list(HIFI_GRAM_GOLDEN))
def test_hifi_gram_golden(key):
    # skipping the zero-coefficient blocks changes no bit of the Gram
    m, a, b, xi, psi, s, t = key
    M = bops._dd_gram(ModelParams(m, a, b, xi, psi), DeformPoint(s, t), m, True)[0]
    got = [(e.re.hi, e.re.lo, e.im.hi, e.im.lo) if isinstance(e, dd.CDD) else (e.hi, e.lo)
           for row in M for e in row]
    assert repr(got) == repr(HIFI_GRAM_GOLDEN[key])


# (a, s, t) -> the hi-fi Gram at m = 2, b = 0.3, xi = psi = 1, as built with
# scalar weight powers s s^a e^-s.  A weight folded as s e^(a ln s - s)
# flushes to zero where a ln s - s < -700, so at s = 700 for every a < 0, and
# leaves a Gram of ~1e-299.  At a cutoff of 700 the weight s^(a+1) e^-s ~
# 1e-304 has a subnormal lo part and only ~20 digits, which every entry
# inherits through the boxed chains: these values and the batch's are at most
# 1.04e-20 and 6.4e-21 from 45-digit mpmath, so they agree within 2e-20
HIFI_GRAM_AT_700 = {
    (-0.5, 700.0, 690.0): [(1.988406739678645, -1.3525041896779217e-17),
                           (1.1488572273698836, 8.700599809876477e-17),
                           (0.44186816437303217, 2.4427212137971485e-17),
                           (0.3692755373688912, 3.362271472282568e-18)],
    (-0.5, 690.0, 700.0): [(1.988406739678645, -1.352380668346615e-17),
                           (1.1488572273698836, 8.70067117775679e-17),
                           (0.44186816437303217, 2.4427486629818844e-17),
                           (0.3692755373688912, 3.3625008690407404e-18)],
    (-0.9, 700.0, 690.0): [(21.345235946598397, -1.4160320849884233e-15),
                           (7.928230494450832, -3.800383453816574e-16),
                           (0.6098638841885254, -3.133970182519249e-17),
                           (0.4624801121762984, 7.482959908742534e-18)],
    (-0.9, 690.0, 700.0): [(21.345235946598397, -1.4156745927589055e-15),
                           (7.928230494450832, -3.799055625535508e-16),
                           (0.6098638841885254, -3.132948776149196e-17),
                           (0.4624801121762984, 7.490705573715187e-18)],
}


@pytest.mark.parametrize("key", list(HIFI_GRAM_AT_700))
def test_hifi_gram_weights_do_not_underflow_at_700(key):
    a, s, t = key
    M = bops._dd_gram(ModelParams(2, a, 0.3, 1.0, 1.0), DeformPoint(s, t), 2, True)[0]
    for e, (hi, lo) in zip((e for row in M for e in row), HIFI_GRAM_AT_700[key]):
        assert e.hi != 0.0
        assert abs((e.hi - hi) + (e.lo - lo)) <= 2e-20 * hi


# s -> twice the worst relative error of the hi-fi alpha chain against
# 45-digit mpmath with the series summed wholly in DD, over the a and m below
BOXED_CHAIN_BOUND = {0.3: 1.6e-31, 1.0: 1.6e-31, 5.0: 1.1e-31, 30.0: 3.6e-31,
                     120.0: 1.2e-30, 300.0: 3.0e-30, 600.0: 6.2e-30, 672.0: 5.6e-30}


@pytest.mark.parametrize("s", list(BOXED_CHAIN_BOUND))
def test_boxed_chain_matches_mpmath(s):
    # at xi = psi = 1 the alpha chain is the boxed chain gamma_lower(a+1+j, s),
    # seeded at its top order by the series whose small terms run in float64
    worst = 0.0
    for a in (-0.5, 0.3, 1.1):
        for m in (2, 6, 10):
            alpha = bops._dd_gram(ModelParams(m, a, 0.7, 1.0, 1.0), DeformPoint(s, 2.0), m, True)[1]
            with mp.workdps(45):
                for j, e in enumerate(alpha):
                    want = mp.gammainc(mp.mpf(a) + 1 + j, 0, mp.mpf(s))
                    worst = max(worst, abs((mp.mpf(e.hi) + mp.mpf(e.lo)) / want - 1))
    assert worst <= BOXED_CHAIN_BOUND[s]


def test_eval_bundle_contents():
    st = build_state(P, D, 2)
    eb = eval_bundle(st)
    assert eb.p[1] == pytest.approx(st.p_polys[1](D.s))
    assert eb.q1[1] == pytest.approx(assoc1(st.q_polys[1], -D.s, P, D, "y"))
    assert eb.X == st.Xnn and eb.Y == st.Ynn
