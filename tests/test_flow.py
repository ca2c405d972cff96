import math

import numpy as np
import pytest

from bhgap import bops, flow, kernels, lax
from bhgap.bops import EvalBundle, brackets, build_state, deformation_weights, eval_bundle, zdet
from bhgap.ensembles import c_cl2m, z_cl2m, z_cl2m_flow
from bhgap.flow import (
    FlowAbort,
    FlowState,
    constraint_linear_system,
    constraint_residuals,
    from_moments,
    g_derivative_check,
    integrate,
    rhs_decomposition_residual,
    rhs_total,
    rhs_total_s,
    rhs_total_t,
    trajectory_table,
)
from bhgap.params import INF, DeformPoint, DomainError, ModelParams

P = ModelParams(m=2, a=0.0, b=1.0, xi=1.0, psi=1.0)
D = DeformPoint(1.0, 1.0)


def fd_vector(p, d, n, which, h=1e-5):
    if which == "s":
        fp = from_moments(p, DeformPoint(d.s + h, d.t), n)
        fm = from_moments(p, DeformPoint(d.s - h, d.t), n)
    else:
        fp = from_moments(p, DeformPoint(d.s, d.t + h), n)
        fm = from_moments(p, DeformPoint(d.s, d.t - h), n)
    return (fp.vector() - fm.vector()) / (2 * h)


@pytest.mark.parametrize("which", ["s", "t"])
def test_rhs_matches_moment_route_fd(which):
    p = ModelParams(m=2, a=0.0, b=1.0, xi=1.0, psi=1.0)
    fs = from_moments(p, D, 2)
    rhs = rhs_total_s(fs) if which == "s" else rhs_total_t(fs)
    num = fd_vector(p, D, 2, which)
    scale = np.maximum(np.abs(rhs), 1.0)
    assert np.max(np.abs(num - rhs) / scale) <= 1e-5


def test_rhs_deformation_off_structure():
    p0 = ModelParams(m=2, a=0.3, b=0.7, xi=0.0, psi=0.0)
    fs = from_moments(p0, D, 2)
    rhs = rhs_total_s(fs)
    # all xi/psi-prefactored couplings vanish; only the spectral parts of the
    # s-locked evaluations P(s) and Q1(-s) survive
    assert np.all(rhs[np.r_[3:9, 12:24]] == 0.0)
    assert np.any(rhs[0:3] != 0.0) and np.any(rhs[9:12] != 0.0)
    rhs_t = rhs_total_t(fs)
    assert np.all(rhs_t[np.r_[0:3, 9:24]] == 0.0)
    assert np.any(rhs_t[3:6] != 0.0) and np.any(rhs_t[6:9] != 0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_constraints_on_fresh_states(n):
    for d in (D, DeformPoint(0.8, 1.2), DeformPoint(1.5, 0.8), DeformPoint(0.7, 0.7)):
        fs = from_moments(P, d, n)
        res = np.abs(constraint_residuals(fs))
        assert res.max() <= 1e-9, (n, d, res)
    # extreme aspect ratios sit near the seed-sensitivity floor but stay small
    for d in (DeformPoint(0.5, 2.0), DeformPoint(2.0, 0.5)):
        fs = from_moments(P, d, n)
        assert np.abs(constraint_residuals(fs)).max() <= 5e-9


def test_constraints_xi_zero_reduction():
    p0 = ModelParams(m=2, a=0.3, b=0.7, xi=0.0, psi=0.0)
    fs = from_moments(p0, D, 2)
    eb = fs.bundle
    # pi_n eta_n = 2n+a+b+1 exactly when the deformation is off
    assert abs(eb.piv[1] * eb.etav[1] - (2 * 2 + p0.a + p0.b + 1)) <= 1e-10


def test_constraint_system_rank_three():
    fs = from_moments(P, D, 2)
    A, rhs = constraint_linear_system(fs)
    sv = np.linalg.svd(A, compute_uv=False)
    assert sv[2] > 1e-6 * sv[0]
    assert sv[3] <= 1e-9 * sv[0]
    # and the current neighbors satisfy the system
    eb = fs.bundle
    cur = np.array([eb.piv[0], eb.piv[2], eb.etav[0], eb.etav[2]])
    assert np.abs(A @ cur - rhs).max() <= 1e-9 * max(np.abs(rhs).max(), 1.0)


def test_rhs_decomposition_consistency():
    for n in (1, 2):
        fs = from_moments(P, D, n)
        assert rhs_decomposition_residual(fs) <= 1e-8


def test_zero_length_path_identity():
    fs = from_moments(P, D, 2)
    traj = integrate(fs, [(D.s, D.t), (D.s, D.t)], tol=1e-8)
    assert len(traj) == 1
    assert traj[0] is fs


def test_flow_endpoint_matches_moment_route():
    n = 2
    fs0 = from_moments(P, D, n)
    traj = integrate(fs0, [(1.0, 1.0), (2.0, 1.0)], tol=1e-9)
    end = traj[-1]
    ref = from_moments(P, DeformPoint(2.0, 1.0), n)
    got, want = end.vector(), ref.vector()
    scale = np.maximum(np.abs(want), 1.0)
    assert np.max(np.abs(got[:23] - want[:23]) / scale[:23]) <= 1e-6
    # logZ increment vs determinant ratio
    dlz = end.logZ - fs0.logZ
    want_dlz = math.log(zdet(P, DeformPoint(2.0, 1.0), n)) - math.log(zdet(P, D, n))
    assert abs(dlz - want_dlz) <= 1e-6


def test_flow_t_direction():
    n = 1
    fs0 = from_moments(P, D, n)
    traj = integrate(fs0, [(1.0, 1.0), (1.0, 1.8)], tol=1e-9)
    ref = from_moments(P, DeformPoint(1.0, 1.8), n)
    got, want = traj[-1].vector(), ref.vector()
    scale = np.maximum(np.abs(want), 1.0)
    assert np.max(np.abs(got[:23] - want[:23]) / scale[:23]) <= 1e-6


def test_constraint_conservation_along_flow():
    fs0 = from_moments(P, D, 2)
    init = np.abs(constraint_residuals(fs0)).max()
    traj = integrate(fs0, [(1.0, 1.0), (1.6, 1.3)], tol=1e-8)
    for fs in traj[1:]:
        res = np.abs(constraint_residuals(fs)).max()
        assert res <= max(10 * init, 1e-7)


def test_bad_initial_state_aborts():
    fs = from_moments(P, D, 2)
    eb = fs.bundle.copy()
    eb.X += 0.01
    with pytest.raises(FlowAbort):
        integrate(FlowState(eb, fs.logZ), [(1.0, 1.0), (1.2, 1.0)])


def test_nan_initial_state_aborts():
    fs = from_moments(P, D, 2)
    eb = fs.bundle.copy()
    eb.X = math.nan
    with pytest.raises(FlowAbort):
        integrate(FlowState(eb, fs.logZ), [(1.0, 1.0), (1.2, 1.0)])


@pytest.mark.parametrize("d", [DeformPoint(INF, 2.0), DeformPoint(2.0, INF)])
def test_constraints_finite_at_infinite_cutoff(d):
    assert np.all(np.isfinite(constraint_residuals(from_moments(P, d, 2))))


@pytest.mark.parametrize("d", [DeformPoint(INF, 2.0), DeformPoint(2.0, INF)])
def test_constraint_system_finite_at_infinite_cutoff(d):
    p = ModelParams(m=2, a=0.3, b=0.7, xi=1.0, psi=0.6)
    fs = from_moments(p, d, 2)
    A, rhs = constraint_linear_system(fs)
    assert np.all(np.isfinite(A)) and np.all(np.isfinite(rhs))


def test_constraint_system_rhs_at_finite_cutoff():
    # recorded before the infinite-cutoff guard; a finite cutoff is untouched
    p = ModelParams(m=2, a=0.3, b=0.7, xi=1.0, psi=0.6)
    _, rhs = constraint_linear_system(from_moments(p, DeformPoint(2.0, 1.5), 2))
    assert rhs.tolist() == [-0.001486519870231063, 2.068967071694733,
                            1.196344741702702, -0.6173394391175059]


@pytest.mark.parametrize("rhs, d_inf, d_far, at_inf", [
    (rhs_total_t, DeformPoint(INF, 2.0), DeformPoint(42.0, 2.0), np.r_[0:3, 9:12]),
    (rhs_total_s, DeformPoint(2.0, INF), DeformPoint(2.0, 42.0), np.r_[3:9]),
], ids=["t-flow", "s-flow"])
def test_rhs_at_the_other_infinite_cutoff(rhs, d_inf, d_far, at_inf):
    # finite, and the limit of the same right-hand side at a far cutoff, except
    # on the boundary values that sit at the infinite cutoff (zero there)
    p = ModelParams(m=2, a=0.3, b=0.7, xi=1.0, psi=0.6)
    cut = max(d_far.s, d_far.t)
    assert cut ** 1.7 * math.exp(-cut) < 1e-15  # both weights times the cutoff
    got = rhs(from_moments(p, d_inf, 2))
    want = rhs(from_moments(p, d_far, 2))
    assert np.all(np.isfinite(got))
    assert np.all(got[at_inf] == 0.0)
    rest = np.setdiff1d(np.arange(24), at_inf)
    assert np.max(np.abs(got[rest] - want[rest]) / np.maximum(np.abs(got[rest]), 1.0)) <= 1e-9


@pytest.mark.parametrize("rhs, d", [(rhs_total_s, DeformPoint(INF, 2.0)),
                                    (rhs_total_t, DeformPoint(2.0, INF))],
                         ids=["s-flow", "t-flow"])
def test_rhs_raises_at_its_own_infinite_cutoff(rhs, d):
    with pytest.raises(DomainError):
        rhs(from_moments(P, d, 2))


def test_infinite_path_segment_rejected():
    fs = from_moments(P, DeformPoint(INF, 2.0), 2)
    with pytest.raises(DomainError):
        integrate(fs, [(INF, 2.0), (INF, 2.5)])


@pytest.mark.parametrize("xi, psi", [(0.5 + 0.2j, 0.6), (1.0, 0.6 - 0.1j), (complex(1.0), 0.6)])
def test_complex_deformation_rejected_up_front(xi, psi):
    # the flow carries a real log Z: a complex xi or psi used to fail with a
    # TypeError from math.log of the complex determinant
    p = ModelParams(m=2, a=0.3, b=0.7, xi=xi, psi=psi)
    with pytest.raises(DomainError, match="real xi and psi"):
        from_moments(p, D, 2)
    with pytest.raises(DomainError, match="real xi and psi"):
        z_cl2m_flow(p, DeformPoint(1.5, 1.2))


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_start_logz_matches_determinant_route(m):
    p = ModelParams(m=m, a=0.3, b=0.7, xi=1.0, psi=0.6)
    want = math.log(z_cl2m(p, D).value * c_cl2m(p))
    assert abs(from_moments(p, D, m).logZ - want) <= 1e-9


@pytest.mark.parametrize("n", [1, 4])
def test_flow_seed_builds_one_gram(n):
    # the seed's norms and its log Z are read off one factorization
    p = ModelParams(m=n, a=0.3, b=0.7, xi=1.0, psi=0.6)
    bops.clear_caches()
    fs = from_moments(p, D, n)
    assert bops._dd_gram.cache_info().misses == 1
    assert bops._ldu.cache_info().misses == 1
    dlz = math.log(zdet(p, D, n + 1)) - fs.logZ  # log h_n = -2 log S_n
    assert abs(dlz + 2 * math.log(fs.bundle.sv[1])) <= 1e-12 * max(abs(dlz), 1.0)


@pytest.mark.parametrize("params", [P, ModelParams(m=2, a=0.3, b=0.7, xi=0.0, psi=0.0)])
def test_g_derivative_check(params):
    fs = from_moments(params, D, 2)
    res_s, res_t = g_derivative_check(fs, params)
    tol = 1e-5 if params.xi != 0 else 1e-6
    assert res_s <= tol
    assert res_t <= tol


def test_trajectory_table_shape():
    fs0 = from_moments(P, D, 1)
    traj = integrate(fs0, [(1.0, 1.0), (1.2, 1.0)], tol=1e-8)
    table = trajectory_table(traj)
    assert table.shape[1] == 2 + 24 + 8


# ---------------------------------------------------------------------------
# numpy reference for flow.rhs_total: the right-hand sides assembled from the
# Lax bundle, its kernel-limit formulas and the four coefficient matrices
# ---------------------------------------------------------------------------

def ref_a0_plus(eb, br, wT):
    n, a, b, s = eb.n, eb.a, eb.b, eb.s
    rp, rm = br.rp, br.rm
    pr_u, pr_d = eb.piv[0] / eb.piv[1], eb.piv[2] / eb.piv[1]
    return np.array([
        [n + 1.0 - rp * pr_u, pr_u * (eb.Y + s), rm * pr_u],
        [-rp, eb.Y + s - n - a - b - 1.0, rm],
        [-rp * pr_d, -pr_d * (eb.X - s) + wT * eb.p1[2] * eb.q[1], rm * pr_d - n - a - b],
    ])


def ref_a0_minus(eb, br, wS):
    n, a, b, t = eb.n, eb.a, eb.b, eb.t
    rp, rm = br.rp, br.rm
    pr_u, pr_d = eb.piv[0] / eb.piv[1], eb.piv[2] / eb.piv[1]
    return np.array([
        [n + 1.0 + a + t - rp * pr_u, pr_u * (eb.Y - t), rm * pr_u],
        [-rp, eb.Y - n - b - 1.0, rm],
        [-rp * pr_d, -pr_d * (eb.X + t) + wS * eb.p[2] * eb.q1[1], rm * pr_d - n - b + t],
    ])


def ref_d0_plus(eb, br, wS):
    n, a, b, t = eb.n, eb.a, eb.b, eb.t
    rp, rm = br.rp, br.rm
    er_u, er_d = eb.etav[0] / eb.etav[1], eb.etav[2] / eb.etav[1]
    return np.array([
        [n + 1.0 - rp * er_u, er_u * (eb.X + t), rm * er_u],
        [-rp, eb.X + t - n - a - b - 1.0, rm],
        [-rp * er_d, -er_d * (eb.Y - t) + wS * eb.p[1] * eb.q1[2], rm * er_d - n - a - b],
    ])


def ref_d0_minus(eb, br, wT):
    n, a, b, s = eb.n, eb.a, eb.b, eb.s
    rp, rm = br.rp, br.rm
    er_u, er_d = eb.etav[0] / eb.etav[1], eb.etav[2] / eb.etav[1]
    return np.array([
        [n + 1.0 + b + s - rp * er_u, er_u * (eb.X - s), rm * er_u],
        [-rp, eb.X - n - a - 1.0, rm],
        [-rp * er_d, -er_d * (eb.Y + s) + wT * eb.p1[1] * eb.q[2], rm * er_d + s - n - a],
    ])


def ref_rhs_s(eb):
    lb = lax.build_lax(eb)
    kv = flow._kernels_from_state(eb, lb)
    s = eb.s
    ws, wt, wS, wT = deformation_weights(eb)
    br = brackets(eb)
    rp, rm = br.rp, br.rm
    adiag = 0.5 * wS * np.diag([eb.p[0] * eb.q1[0], -eb.p[1] * eb.q1[1],
                                -eb.p[2] * eb.q1[2]])
    dp = ((ref_a0_plus(eb, br, wT) + adiag) @ eb.p - wT * kv["k00"] * eb.p1) / s
    dq = lb.B_inf0b @ eb.q + ws * kv["k00"] * eb.q1
    dp1 = lb.B_inf0 @ eb.p1 + ws * kv["k11"] * eb.p
    dq1 = ((ref_d0_minus(eb, br, wT) + adiag) @ eb.q1 - wT * kv["k11"] * eb.q) / s
    dpi = lb.B_inf0 @ eb.piv - ws / eb.etav[1] * br.brx_q1 * eb.p
    deta = lb.B_inf0b @ eb.etav - ws / eb.piv[1] * br.bry_p * eb.q1
    dX = ws * (-rp * eb.p[0] * eb.q1[1] + rm * eb.p[1] * eb.q1[2])
    dY = ws * (-rp * eb.p[1] * eb.q1[0] + rm * eb.p[2] * eb.q1[1])
    dS = 0.5 * ws * eb.sv * eb.p * eb.q1
    dlz = -ws * kv["k01"]
    return np.concatenate([dp, dq, dp1, dq1, dpi, deta, [dX, dY], dS, [dlz]])


def ref_rhs_t(eb):
    lb = lax.build_lax(eb)
    kv = flow._kernels_from_state(eb, lb)
    t = eb.t
    ws, wt, wS, wT = deformation_weights(eb)
    br = brackets(eb)
    rp, rm = br.rp, br.rm
    ddiag = 0.5 * wT * np.diag([eb.p1[0] * eb.q[0], -eb.p1[1] * eb.q[1],
                                -eb.p1[2] * eb.q[2]])
    dp = lb.C_inf0 @ eb.p + wt * kv["k00"] * eb.p1
    dq = ((ref_d0_plus(eb, br, wS) + ddiag) @ eb.q - wS * kv["k00"] * eb.q1) / t
    dp1 = ((ref_a0_minus(eb, br, wS) + ddiag) @ eb.p1 - wS * kv["k11"] * eb.p) / t
    dq1 = lb.C_inf0b @ eb.q1 + wt * kv["k11"] * eb.q
    dpi = lb.C_inf0 @ eb.piv - wt / eb.etav[1] * br.brx_q * eb.p1
    deta = lb.C_inf0b @ eb.etav - wt / eb.piv[1] * br.bry_p1 * eb.q
    dX = wt * (-rp * eb.p1[0] * eb.q[1] + rm * eb.p1[1] * eb.q[2])
    dY = wt * (-rp * eb.p1[1] * eb.q[0] + rm * eb.p1[2] * eb.q[1])
    dS = 0.5 * wt * eb.sv * eb.p1 * eb.q
    dlz = -wt * kv["k10"]
    return np.concatenate([dp, dq, dp1, dq1, dpi, deta, [dX, dY], dS, [dlz]])


def perturbed(eb, rng, rel=1e-3):
    """The bundle with every dynamical value moved by up to rel, off the
    constraint manifold; zero boundary values at an infinite cutoff stay zero."""
    def jig(v):
        return v * (1.0 + rel * rng.uniform(-1.0, 1.0, np.shape(v)))

    return EvalBundle(eb.n, eb.s, eb.t, eb.a, eb.b, eb.xi, eb.psi,
                      jig(eb.p), jig(eb.q), jig(eb.p1), jig(eb.q1), jig(eb.piv),
                      jig(eb.etav), float(jig(eb.X)), float(jig(eb.Y)), jig(eb.sv))


def fused(eb, ds, dt, logz=0.7):
    y = FlowState(eb, logz).vector().tolist()
    return np.array(rhs_total(y, eb.n, eb.a, eb.b, eb.xi, eb.psi, eb.s, eb.t, ds, dt))


def normwise(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_fused_rhs_matches_lax_assembly(m):
    # the s, t and diagonal directions at perturbed states, normwise
    rng = np.random.default_rng(m)
    p = ModelParams(m=m, a=0.3, b=0.7, xi=1.0, psi=0.6)
    for d in (D, DeformPoint(2.2, 1.4), DeformPoint(1.3, 3.1)):
        eb0 = from_moments(p, d, m).bundle
        for _ in range(4):
            eb = perturbed(eb0, rng)
            rs, rt = ref_rhs_s(eb), ref_rhs_t(eb)
            assert normwise(fused(eb, 1.0, 0.0), rs) <= 1e-12
            assert normwise(fused(eb, 0.0, 1.0), rt) <= 1e-12
            assert normwise(fused(eb, 0.6, -1.3), 0.6 * rs - 1.3 * rt) <= 1e-12


@pytest.mark.parametrize("m", [1, 3, 6])
@pytest.mark.parametrize("d, ds, dt, ref", [
    (DeformPoint(INF, 2.0), 0.0, 1.0, ref_rhs_t),
    (DeformPoint(2.0, INF), 1.0, 0.0, ref_rhs_s),
], ids=["t-flow", "s-flow"])
def test_fused_rhs_matches_lax_assembly_at_the_other_infinite_cutoff(m, d, ds, dt, ref):
    rng = np.random.default_rng(10 + m)
    p = ModelParams(m=m, a=0.3, b=0.7, xi=1.0, psi=0.6)
    eb0 = from_moments(p, d, m).bundle
    for _ in range(4):
        eb = perturbed(eb0, rng)
        want = ref(eb)
        assert np.all(np.isfinite(want))
        assert normwise(fused(eb, ds, dt), want) <= 1e-12


def counted_rhs(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[6:8])  # the (s, t) it was evaluated at
        return rhs_total(*args)

    monkeypatch.setattr(flow, "rhs_total", counting)
    return calls


@pytest.mark.parametrize("tol", [1e-6, 1e-13])
def test_integrate_evaluates_twelve_stages_per_attempt(monkeypatch, tol):
    # DOP853: the derivative at an accepted step's solution is the next stage
    # 1 and a rejected attempt keeps its stage 1: after three attempts (the
    # budget; the segment needs more) the right-hand side has run 12 x 3 + 1
    # times, at tol 1e-13 with rejections among them
    calls = counted_rhs(monkeypatch)
    built = []
    monkeypatch.setattr(FlowState, "from_vector",
                        staticmethod(lambda *a, f=FlowState.from_vector: built.append(1) or f(*a)))
    monkeypatch.setattr(flow, "_MAX_STEPS", 3)
    with pytest.raises(FlowAbort, match="budget"):
        integrate(from_moments(P, D, 2), [(1.0, 1.0), (3.0, 2.0)], tol=tol)
    assert len(calls) == 12 * 3 + 1
    assert len(built) == (3 if tol == 1e-6 else 1)


def test_dop853_tableau_is_consistent():
    # each stage's row sums to its node, the weights to 1, and both error
    # weight sets to 0 (they difference two solutions of one step)
    assert len(flow._A) == len(flow._C) == len(flow._B) == 12
    for i in range(1, 12):
        assert len(flow._A[i]) == i
        assert abs(flow._A[i].sum() - flow._C[i]) <= 1e-15
    assert abs(flow._B.sum() - 1.0) <= 1e-15
    assert abs(flow._E3.sum()) <= 1e-15 and abs(flow._E5.sum()) <= 1e-15


def test_integrate_counts_per_segment(monkeypatch):
    fs0 = from_moments(P, D, 2)
    calls = counted_rhs(monkeypatch)
    traj = integrate(fs0, [(1.0, 1.0), (1.3, 1.0), (1.3, 1.4)], tol=1e-8)
    assert len(traj) > 3 and (len(calls) - 2) % 12 == 0
    # each segment starts with a fresh stage 1 at its own start
    assert calls[0] == (1.0, 1.0) and (1.3, 1.0) in calls[1:]


# ---------------------------------------------------------------------------
# numpy reference for flow.residuals: (1) and (2) as written, (3)-(6) as the
# rows rhs - A u of the rank-3 system, (7) and (8) as G-matrix bilinears
# ---------------------------------------------------------------------------

def ref_residuals(eb):
    n, a, b, s, t = eb.n, eb.a, eb.b, eb.s, eb.t
    _, _, wS, wT = deformation_weights(eb)
    br = brackets(eb)
    rp, rm = br.rp, br.rm
    pe = eb.piv[1] * eb.etav[1]

    def over(v, terms):  # v over its largest term, at least 1
        return v / max(np.abs(terms).max(), 1.0)

    out = np.zeros(8)
    out[0] = over(eb.X + eb.Y - pe, [eb.X, eb.Y, pe])
    t2 = [2 * n + a + b + 1.0, wS * eb.p[1] * eb.q1[1], wT * eb.p1[1] * eb.q[1]]
    out[1] = over(pe - sum(t2), [pe, *t2])
    A, rhs = constraint_linear_system(FlowState(eb, 0.7))
    u = np.array([eb.piv[0], eb.piv[2], eb.etav[0], eb.etav[2]])
    # each row's terms besides A u: X or Y and the deformation terms
    rest = [[eb.X, wS * rp * eb.p[0] * eb.q1[1], wS * rm * eb.p[1] * eb.q1[2],
             wT * rp * eb.p1[0] * eb.q[1], wT * rm * eb.p1[1] * eb.q[2]],
            [eb.Y, wS * rp * eb.p[1] * eb.q1[0], wS * rm * eb.p[2] * eb.q1[1],
             wT * rp * eb.p1[1] * eb.q[0], wT * rm * eb.p1[2] * eb.q[1]],
            [eb.X, n + a, wS / pe * eb.q1[1] * br.bry_p, wT / pe * eb.q[1] * br.bry_p1],
            [eb.Y, n + b, wS / pe * eb.p[1] * br.brx_q1, wT / pe * eb.p1[1] * br.brx_q]]
    for i in range(4):
        out[2 + i] = over(rhs[i] - A[i] @ u, [*rest[i], *(A[i] * u)])
    if s != INF:
        g = kernels.gmatrix(eb, s, -s)
        out[6] = over(eb.p @ g @ eb.q1, [np.abs(eb.p).max() * np.abs(g @ eb.q1).max()])
    if t != INF:
        g = kernels.gmatrix(eb, -t, t)
        out[7] = over(eb.p1 @ g @ eb.q, [np.abs(eb.p1).max() * np.abs(g @ eb.q).max()])
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("d", [D, DeformPoint(2.2, 1.4), DeformPoint(INF, 2.0),
                               DeformPoint(2.0, INF)], ids=["1-1", "2.2-1.4", "inf-2", "2-inf"])
def test_residuals_match_numpy_reference(m, d):
    # off the constraint manifold every term shows: a flipped sign moves its
    # row by twice the term over the normalizer
    rng = np.random.default_rng(20 + m)
    p = ModelParams(m=m, a=0.3, b=0.7, xi=1.0, psi=0.6)
    eb0 = from_moments(p, d, m).bundle
    for _ in range(4):
        eb = perturbed(eb0, rng)
        got, want = constraint_residuals(FlowState(eb, 0.7)), ref_residuals(eb)
        assert np.abs(got - want).max() <= 1e-13, (got, want)
        assert np.abs(want[:6]).min() > 1e-8  # the state is off the manifold


def test_nan_residual_fails_the_step_guard(monkeypatch):
    # the start passes; then the last residual of every step is NaN
    real, seen = flow.residuals, []

    def nan_after_start(*args):
        seen.append(args)
        return real(*args) if len(seen) == 1 else [*real(*args)[:7], math.nan]

    monkeypatch.setattr(flow, "residuals", nan_after_start)
    with pytest.raises(FlowAbort, match="constraint 7 drifted to nan"):
        integrate(from_moments(P, D, 2), [(1.0, 1.0), (1.2, 1.0)])


def test_integrate_builds_states_for_accepted_steps_only(monkeypatch):
    # an attempt works on vectors: no FlowState for a rejected attempt, and
    # .vector() only of the start
    fs0 = from_moments(P, D, 2)
    calls = counted_rhs(monkeypatch)
    built, vectored = [], []
    init, vector = FlowState.__init__, FlowState.vector
    monkeypatch.setattr(FlowState, "__init__", lambda fs, *a: built.append(fs) or init(fs, *a))
    monkeypatch.setattr(FlowState, "vector", lambda fs: vectored.append(fs) or vector(fs))
    traj = integrate(fs0, [(1.0, 1.0), (1.3, 1.0), (1.3, 1.4)], tol=1e-14)
    attempts = (len(calls) - 2) // 12
    assert attempts > len(traj) - 1  # some attempts were rejected
    assert len(built) == len(traj) - 1
    assert all(fs is want for fs, want in zip(built, traj[1:]))
    assert all(fs is fs0 for fs in vectored)


# ---------------------------------------------------------------------------
# the route on the gap probability: a Gram-consistent start, DOP853 and an
# est_error from the path's constraint drift
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("s, t", [(0.6, 0.6), (2.0, 2.5), (3.5, 3.5), (1.2, 3.4)])
def test_flow_gap_probability_matches_determinant(m, s, t):
    # xi = psi = 1 is the gap probability itself; m = 4 used to abort at
    # three of these four targets
    p = ModelParams(m, 0.3, 0.7, 1.0, 1.0)
    d = DeformPoint(s, t)
    want = z_cl2m(p, d).value
    assert abs(z_cl2m_flow(p, d).value - want) <= 1e-8 * abs(want)


@pytest.mark.parametrize("m", [5, 7])
@pytest.mark.parametrize("xi, psi", [(1.0, 1.0), (0.0, 0.6), (0.6, 0.0)])
@pytest.mark.parametrize("d", [D, DeformPoint(1.5, 0.8)], ids=["1-1", "1.5-0.8"])
def test_flow_start_meets_the_constraints_to_rounding(m, xi, psi, d):
    # the Stieltjes seeds are the Gram's own numbers, so the constraints
    # compare one set of numbers with itself; at xi = 0 or psi = 0 the Gram
    # skips a block, and the seeds it did not build are built on demand
    fs = from_moments(ModelParams(m, 0.3, 0.7, xi, psi), d, m)
    assert np.abs(constraint_residuals(fs)).max() <= 1e-14


def test_flow_est_error_comes_from_the_drift():
    # m = 6 at (3.5, 3.5) used to abort at its start; its global error, 1.4e-7,
    # is now above the 1e-8 floor and within 10x the path's worst residual
    p = ModelParams(6, 0.3, 0.7, 1.0, 1.0)
    d = DeformPoint(3.5, 3.5)
    end = integrate(from_moments(p, D, 6), [(1.0, 1.0), (d.s, d.t)], tol=1e-11)[-1]
    r = z_cl2m_flow(p, d)
    assert r.est_error == abs(r.value) * (10.0 * end.drift) > 1e-8 * abs(r.value)
    assert abs(r.value - z_cl2m(p, d).value) <= r.est_error


def test_drift_is_the_running_worst_residual():
    fs0 = from_moments(P, D, 2)
    traj = integrate(fs0, [(1.0, 1.0), (1.6, 1.3)], tol=1e-10)
    worst = np.abs(constraint_residuals(fs0)).max()
    for fs in traj[1:]:
        worst = max(worst, np.abs(constraint_residuals(fs)).max())
        assert fs.drift == worst


@pytest.mark.parametrize("k", [-3, -1, 1, 3, 5])
def test_flow_is_insensitive_to_the_last_bit_of_a_seed(monkeypatch, k):
    # scaling the start's float Gamma-function seed (G2s0 and the f2 seed
    # built from it) by 1 + k eps once moved m = 5 between 2.9e-10 and 7.4e-8
    # off the determinant, or aborted; the start now reads one set of seeds
    p = ModelParams(5, 0.3, 0.7, 1.0, 0.6)
    targets = [DeformPoint(1.1, 3.4), DeformPoint(2.25, 3.4), DeformPoint(3.4, 3.4),
               DeformPoint(3.4, 1.1)]
    refs = [z_cl2m(p, d).value for d in targets]
    real = bops.gamma_upper

    def scaled(a, z):
        r = real(a, z)
        return type(r)(r.value * (1.0 + k * 2.0 ** -52), r.est_abs_error)

    monkeypatch.setattr(bops, "gamma_upper", scaled)
    bops.clear_caches()
    try:
        for d, want in zip(targets, refs):
            assert abs(z_cl2m_flow(p, d).value - want) <= 1e-8 * abs(want)
    finally:
        bops.clear_caches()
