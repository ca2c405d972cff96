import math

import numpy as np
import pytest

from bhgap import bops
from bhgap.bops import build_state, eval_bundle, zdet
from bhgap.ensembles import normalizations, z_cl2m, z_cl2m_flow
from bhgap.flow import (
    FlowAbort,
    FlowState,
    constraint_linear_system,
    constraint_residuals,
    from_moments,
    g_derivative_check,
    integrate,
    project_constraints,
    rhs_decomposition_residual,
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


def test_flow_t_direction_and_projection_mode():
    n = 1
    fs0 = from_moments(P, D, n)
    traj = integrate(fs0, [(1.0, 1.0), (1.0, 1.8)], tol=1e-9, project=True)
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
    assert np.all(np.isfinite(project_constraints(fs).vector()))


def test_constraint_system_rhs_at_finite_cutoff():
    # recorded before the infinite-cutoff guard; a finite cutoff is untouched
    p = ModelParams(m=2, a=0.3, b=0.7, xi=1.0, psi=0.6)
    _, rhs = constraint_linear_system(from_moments(p, DeformPoint(2.0, 1.5), 2))
    assert rhs.tolist() == [-0.0014865198686759389, 2.0689670716870117,
                            1.1963447417006219, -0.6173394391189907]


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
    c, _, _ = normalizations(p)
    want = math.log(z_cl2m(p, D).value * c)
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


def test_projection_repairs_neighbor_perturbation():
    fs = from_moments(P, D, 2)
    eb = fs.bundle.copy()
    eb.piv = eb.piv * np.array([1 + 1e-6, 1.0, 1 - 2e-6])
    eb.etav = eb.etav * np.array([1 - 1e-6, 1.0, 1 + 1e-6])
    fsp = project_constraints(FlowState(eb, fs.logZ))
    before = np.abs(constraint_residuals(FlowState(eb, fs.logZ)))[2:6].max()
    after = np.abs(constraint_residuals(fsp))[2:6].max()
    assert after <= 1e-3 * before


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
