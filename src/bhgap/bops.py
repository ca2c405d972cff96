"""Deformed Cauchy-Laguerre bi-orthogonal system at a fixed deformation point.

Polynomial coefficients and norms come from one triangular factorization of
the bimoment (Gram) matrix, M = L diag(h) U: the rows of L^-1 are the monic
P_n, the columns of U^-1 the monic Q_n, h_n = <P_n, Q_n> and Z_n = h_0 ...
h_{n-1} (Bertola-Gekhtman-Szmigielski, "Cauchy biorthogonal polynomials",
J. Approx. Theory 2010).  The bordered-determinant representation is kept as
a test identity, not the algorithm.  Every moment comes from one source, the
double-double Gram `_dd_gram`: the bi-moments M_jk (read one at a time by
`inner_product`) and the univariate alpha_j and beta_k chains, in hi
fidelity wherever xi and psi are real (`_gram`).  Associated functions of
the first type are built by the moment recursion on Cauchy-transform
integrals over those chains; the base case is the Stieltjes transform
expressed through Gamma2, at the deformation-locked points -t and -s formed
from the Gram's own Gamma2 seeds.

All triple-valued data is exposed both in natural index order (n-1, n, n+1)
on the state and as 3-vectors ordered [n+1, n, n-1] to match the transfer
matrix conventions used by the kernel and Lax layers.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dd, plinalg
from .params import INF, DeformPoint, DomainError, GenericityError, ModelParams
from .specfun import gamma, gamma2, gamma2_boxed, gamma2_boxed_dd, gamma_upper


@dataclass(frozen=True)
class PolyCoeffs:
    """Monomial-basis coefficients, leading coefficient last."""

    degree: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.degree + 1:
            raise DomainError("coefficient count does not match degree")
        if self.coeffs[-1] == 0:
            raise DomainError("leading coefficient must be nonzero")

    def __call__(self, x):
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class BopsState:
    """Bundle of bi-orthogonal data at one index n (triples in order n-1, n, n+1)."""

    n: int
    params: ModelParams
    point: DeformPoint
    S_triple: tuple
    pi_triple: tuple
    eta_triple: tuple
    Xnn: float
    Ynn: float
    p_polys: tuple  # PolyCoeffs for degrees n-1, n, n+1 (None at n=0 for n-1)
    q_polys: tuple

    @property
    def svec(self) -> np.ndarray:
        return np.array([self.S_triple[2], self.S_triple[1], self.S_triple[0]])

    @property
    def pivec(self) -> np.ndarray:
        return np.array([self.pi_triple[2], self.pi_triple[1], self.pi_triple[0]])

    @property
    def etavec(self) -> np.ndarray:
        return np.array([self.eta_triple[2], self.eta_triple[1], self.eta_triple[0]])


def _dd_dot(u, v):
    acc = u[0] * v[0]
    for x, y in zip(u[1:], v[1:]):
        acc = acc + x * y
    return acc


def _dd_bilinear(u, M, v):
    acc = None
    for j, uj in enumerate(u):
        for k, vk in enumerate(v):
            term = uj * M[j][k] * vk
            acc = term if acc is None else acc + term
    return acc


def _upper_seed(c: float, y: float) -> float:
    """Gamma2(c; 0, y) = Gamma(c+1) e^y y^c Gamma(-c, y) in float64: the G2s0
    and c0t seeds of `_dd_gram`, and a Stieltjes seed the Gram skipped."""
    v = gamma(c + 1.0) * math.exp(y) * y ** c * gamma_upper(-c, y).value
    if not math.isfinite(v):  # e^y y^c, from y ~ 700 at c ~ 1
        raise DomainError(f"e^y y^c overflows float64 at y = {y}, c = {c}")
    return v


# _system, _ldu and the bilinear helpers share one Gram per (p, d, size).
# On the benchmark workloads a flow seed reuses a Gram after at most 4 other
# keys and a z_cl2m or z_ubh point never reuses one, so 64 Grams (~12 KB
# each) keep every reuse while a long sweep's memory stays flat
@lru_cache(maxsize=64)
def _dd_gram(p: ModelParams, d: DeformPoint, size: int, hi_fidelity: bool = False):
    """Structurally consistent DD Gram of the deformed weight.

    Independent float64 rounding of the entries breaks the rank-1 Cauchy
    relation at the 1e-16 level and every downstream identity amplifies it
    superexponentially.  The Gram is therefore assembled in double-double
    from the piecewise-weight corner decomposition

        M = T00 - xi T10 - psi T01 + xi psi T11,

    whose blocks share a small set of atom chains, each run in its stable
    (growing) direction: plain and upper incomplete gamma recurrences, weight
    powers, and the shift chain of the two-variable extension.  The first
    moment row comes from the blocks' closed forms; higher rows use the then
    exact rank-1 fill M_{j+1,k} = alpha_j beta_k - M_{j,k+1}.

    A block whose coefficient is exactly zero is skipped with every chain
    and seed that only it reads (at xi = 1 the GA chain and c0t, at psi = 1
    GB and G2s0); adding its zero would leave every bit of the sum as it is.
    DomainError for a finite cutoff above 700, where e^-cutoff leaves the
    normal floats and the weight terms would silently vanish.

    hi_fidelity also builds the weight powers s^(a+1) e^-s and t^(b+1) e^-t
    and the two boxed Gamma2 seeds in DD, all in one `gamma2_boxed_dd` batch
    (one array pass of ln and exp; one Gauss-Legendre level per seed, and
    z_ubh's equal seeds evaluated once).  The float64 default
    (`gamma2_boxed`) is the lo-fi Gram, which stays until every Gram is
    built in DD; `_gram` reads the hi-fi one wherever xi and psi are real.

    Returns (M, alpha, beta, iscomplex, seeds): the size x size Gram and the
    alpha and beta chains, longer than size, as DD lists.  Row 0 and the
    fill stop at the entries M returns; the chains keep all K = 2 size + 13
    steps, which `assoc1`, `_system` and `eval_bundle` read.  seeds is
    (c0t, cst, G2s0_0, lam2_0) = (Gamma2(a; 0, t), the boxed Gamma2(a; s, t),
    Gamma2(b; 0, s), the boxed Gamma2(b; t, s)) as the Gram used them, None
    where it skipped one; `eval_bundle` forms its Stieltjes seeds from them.
    M_00 is NaN where it diverges, a + b + 1 <= 0: the Pfaffian route's
    equal-species Gram never reads it, and the other readers raise
    (`_require_integrable`).
    """
    if any(cut != INF and cut > 700.0 for cut in (d.s, d.t)):
        raise DomainError(f"cutoffs ({d.s}, {d.t}): above 700 e^-cutoff leaves the normal floats")
    iscomplex = isinstance(p.xi, complex) or isinstance(p.psi, complex)
    K = 2 * size + 13  # a margin of chain steps drowns the top-seed errors
    xi_off = p.xi == 0 or d.s == INF
    psi_off = p.psi == 0 or d.t == INF
    # GA and GB enter with 1 - xi and 1 - psi; T00 ... T11 are the blocks built
    ga_on = xi_off or p.xi != 1
    gb_on = psi_off or p.psi != 1
    t00, t10 = ga_on and gb_on, gb_on and not xi_off
    t01, t11 = ga_on and not psi_off, not (xi_off or psi_off)
    a, b, s, t = p.a, p.b, d.s, d.t

    # dd.wrap(x, iscomplex), and abs(dd.unwrap(x)) for the series' stop test
    w = (lambda x: dd.wrap(x, True)) if iscomplex else dd.DD
    mag = (lambda x: abs(x.to_complex())) if iscomplex else abs

    zero = w(0.0)
    a_dd, b_dd = w(a), w(b)
    s_dd = w(s if not xi_off else 0.0)
    t_dd = w(t if not psi_off else 0.0)
    xi_dd = w(0.0 if xi_off else p.xi)
    psi_dd = w(0.0 if psi_off else p.psi)
    om_xi = w(1.0) - xi_dd
    om_psi = w(1.0) - psi_dd

    # atom chains, index j for the x species and k for the y species; the
    # boxed (lower) gammas run downward from a series seed at the top order,
    # everything else grows and runs upward
    GA, GB = [w(gamma(a + 1.0))], [w(gamma(b + 1.0))]
    # A + k + 1 for k < K - 1: the GA and GB chain factors, and the divisors
    # of the boxed chains' downward recursions
    afac = [a_dd + w(k + 1.0) for k in range(K - 1)]
    bfac = [b_dd + w(k + 1.0) for k in range(K - 1)]
    if hi_fidelity and not iscomplex:
        # deep-truncation determinants amplify the boxed seeds (the lam2
        # chain's start and cst) and the weight values by up to ~1e6, past the
        # float64 evaluation floor, so all four are built in DD, in one batch
        seeds = ((a, s, t, 0), (b, t, s, 0 if s <= t else K - 1)) if t11 else ()
        vals = list(gamma2_boxed_dd(seeds, tuple(
            wt for wt, off in (((a, s), xi_off), ((b, t), psi_off)) if not off)))
        wtp = [zero if psi_off else vals.pop()]
        wsp = [zero if xi_off else vals.pop()]
    else:
        wsp = [w(0.0 if xi_off else s ** (a + 1.0) * math.exp(-s))]
        wtp = [w(0.0 if psi_off else t ** (b + 1.0) * math.exp(-t))]
    if t10:
        G2s0 = [w(_upper_seed(b, s))]
    for k in range(K - 1):
        if ga_on:
            GA.append(afac[k] * GA[-1])
        if gb_on:
            GB.append(bfac[k] * GB[-1])
        if t10:
            G2s0.append(GB[-2] - s_dd * G2s0[-1])
        wsp.append(s_dd * wsp[-1])
        wtp.append(t_dd * wtp[-1])

    def boxed_chain(a0dd, cutdd, wpow, off, fac):
        # top order seeded by the ascending series in DD off the shared weight
        # power: gamma_lower(A, c) = c^A e^-c sum_n c^n / (A (A+1) ... (A+n));
        # the downward recursion then divides errors away
        if off:
            return [zero] * K
        term = w(1.0) / (a0dd + w(float(K)))
        acc = term
        # the terms grow while n < c - A - K and the sum needs about
        # c + 12 sqrt(c) of them, so the cap grows with the cutoff c
        n, cap = K, K + 400 + 2 * int(abs(dd.unwrap(cutdd)))
        while mag(term) > 1e-34 * mag(acc) and n < cap:
            n += 1
            term = term * cutdd / (a0dd + w(n))
            acc = acc + term
        out = [wpow[K - 1] * acc]
        for j in range(K - 2, -1, -1):
            out.append((out[-1] + wpow[j]) / fac[j])
        out.reverse()
        return out

    LGA = boxed_chain(a_dd, s_dd, wsp, xi_off, afac)
    LGB = boxed_chain(b_dd, t_dd, wtp, psi_off, bfac)
    aldd = (GA if xi_off else LGA if not ga_on
            else [om_xi * g + xi_dd * lg for g, lg in zip(GA, LGA)])
    bedd = (GB if psi_off else LGB if not gb_on
            else [om_psi * g + psi_dd * lg for g, lg in zip(GB, LGB)])

    if t01:
        c0t = w(_upper_seed(a, t))
    if t11:
        if hi_fidelity and not iscomplex:
            cst, seed = vals
        else:
            cst = w(gamma2_boxed(a, s, t).value)
            seed = w(gamma2_boxed(b, t, s).value if s <= t
                     else gamma2_boxed(b + K - 1, t, s).value)
        # boxed shift chain lam2(B+1) = gamma_lower(B+1,t) - s lam2(B):
        # lam2(B) scales like t^B, so the relative error grows by s/t
        # per upward step and by t/s per downward step
        lam2 = [seed]
        if s <= t:
            for k in range(K - 1):
                lam2.append(LGB[k] - s_dd * lam2[-1])
        else:
            for k in range(K - 2, -1, -1):
                lam2.append((LGB[k] - lam2[-1]) / s_dd)
            lam2.reverse()

    # corner blocks of the piecewise weight: every term is positive for
    # generating variables in [0, 1], so no block is a cancellation
    # M reads the first size columns of rows 0..size-1, and the fill of row
    # j + 1 reads row j one column further, so row 0 stops at 2 size - 1
    # columns and each later row at one fewer
    ab_dd = a_dd + b_dd
    c00, c10 = om_xi * om_psi, xi_dd * om_psi
    c01, c11 = om_xi * psi_dd, xi_dd * psi_dd
    row0 = []
    for k in range(2 * size - 1):
        den = ab_dd + w(k + 1.0)
        terms = [c00 * (GA[0] * GB[k])] if t00 else []
        if t10:
            terms.append(c10 * (LGA[0] * GB[k] + wsp[0] * G2s0[k]))
        if t01:
            terms.append(c01 * (GA[0] * LGB[k] + wtp[k] * c0t))
        if t11:
            terms.append(c11 * (LGA[0] * LGB[k] + wsp[0] * lam2[k] + wtp[k] * cst))
        num = sum(terms[1:], terms[0])
        # M_00 diverges at the origin unless a + b + 1 > 0
        row0.append(num / den if k or a + b + 1.0 > 0.0 else w(math.nan))
    rows = [row0]
    for aj in aldd[:size - 1]:
        rows.append([aj * bk - r for bk, r in zip(bedd, rows[-1][1:])])
    Mdd = [[rows[j][k] for k in range(size)] for j in range(size)]
    seeds = (c0t if t01 else None, cst if t11 else None,
             G2s0[0] if t10 else None, lam2[0] if t11 else None)
    return Mdd, aldd, bedd, iscomplex, seeds


def _require_integrable(p: ModelParams) -> None:
    """DomainError unless the two-species weight x^a y^b e^(-x-y) / (x+y)
    is integrable at the origin, a + b + 1 > 0; otherwise M_00 diverges."""
    if not p.a + p.b + 1.0 > 0.0:
        raise DomainError(f"the bi-moment M_00 diverges for a + b + 1 = {p.a + p.b + 1.0} <= 0")


def _gram(p: ModelParams, d: DeformPoint, size: int):
    """The one Gram the bi-orthogonal data read: `_dd_gram` in hi fidelity
    whenever xi and psi are real, the lo-fi (complex) Gram otherwise.  The
    fidelity goes in as the fourth positional argument, where
    `perfbench/tracer.py` counts hi-fi builds."""
    real = not (isinstance(p.xi, complex) or isinstance(p.psi, complex))
    return _dd_gram(p, d, size, real)


@lru_cache(maxsize=4096)
def _ldu(p: ModelParams, d: DeformPoint, size: int):
    """Unpivoted DD factorization M = L diag(h) U of _gram(p, d, size):
    the rows of L^-1 are the monic P_n, the columns of U^-1 the monic Q_n,
    and h_n = <P_n, Q_n>, so that Z_n = h_0 ... h_{n-1}."""
    _require_integrable(p)
    return plinalg.dd_ldu(_gram(p, d, size)[0])


@lru_cache(maxsize=4096)
def _system(p: ModelParams, d: DeformPoint, nmax: int):
    """Normalized bi-orthogonal data for degrees <= nmax.

    The monic coefficients and the norms h_n are read off one factorization
    of the compensated Gram `_gram(p, d, nmax + 2)` (see _ldu; hi fidelity
    for real xi and psi), taken in double-double: the monomial
    Gram matrix is superexponentially ill-conditioned, and the 1e-9
    contracts on the spectral data at n ~ 5 are unreachable in bare binary64.
    Inputs and outputs stay float64.

    Returns (S[0..nmax], Pcoeffs, Qcoeffs, pi, eta, X, Pdd, Qdd) with
    coefficient arrays low-to-high, already normalized by 1/sqrt(h).
    """
    Mdd, aldd, bedd, iscomplex, _ = _gram(p, d, nmax + 2)
    h, monics, monicqs, zero = _ldu(p, d, nmax + 2)
    S, Pc, Qc, pis, etas, xs = [], [], [], [], [], []
    Pdd, Qdd = [], []
    for nn in range(nmax + 1):
        hf = dd.unwrap(h[nn]) if nn != zero else 0.0
        if abs(hf) <= 1e-250 or not np.isfinite(abs(hf)):
            raise GenericityError("vanishing norm / moment determinant", index=nn)
        if not iscomplex:
            if hf <= 0:
                raise GenericityError("non-positive squared norm h_n", index=nn)
            sval = dd.DD(1.0) / h[nn].sqrt()
        else:
            sval = dd.wrap(1.0, True) / _cdd_sqrt(h[nn])
        S.append(dd.unwrap(sval))
        pcd = [sval * c for c in monics[nn]]
        qcd = [sval * c for c in monicqs[nn]]
        Pc.append(np.array([dd.unwrap(c) for c in pcd]))
        Qc.append(np.array([dd.unwrap(c) for c in qcd]))
        pis.append(dd.unwrap(_dd_dot(pcd, aldd[:nn + 1])))
        etas.append(dd.unwrap(_dd_dot(qcd, bedd[:nn + 1])))
        M1rows = [[Mdd[j + 1][k] for k in range(nn + 1)] for j in range(nn + 1)]
        xs.append(dd.unwrap(_dd_bilinear(pcd, M1rows, qcd)))
        pscale = max(abs(Pc[nn][j] * dd.unwrap(aldd[j])) for j in range(nn + 1))
        if abs(pis[nn]) <= 1e-12 * max(pscale, 1e-250):
            raise GenericityError("vanishing auxiliary coefficient pi", index=nn)
        escale = max(abs(Qc[nn][k] * dd.unwrap(bedd[k])) for k in range(nn + 1))
        if abs(etas[nn]) <= 1e-12 * max(escale, 1e-250):
            raise GenericityError("vanishing auxiliary coefficient eta", index=nn)
        Pdd.append(pcd)
        Qdd.append(qcd)
    return S, Pc, Qc, pis, etas, xs, Pdd, Qdd


def _cdd_sqrt(h):
    """Principal square root of a CDD through float seeding + one Newton step."""
    z0 = complex(np.sqrt(complex(dd.unwrap(h))))
    x = dd.CDD.from_complex(z0)
    half = dd.CDD.from_complex(0.5 + 0j)
    return (x + h / x) * half


def zdet(p: ModelParams, d: DeformPoint, k: int) -> float:
    """Deformed partition determinant Z_k = h_0 ... h_{k-1} (Z_0 = 1).

    The pivots come from the factorization that build_state(p, d, k) reads,
    so the flow seed's log Z and its norms S_n = h_n^{-1/2} share one Gram.
    """
    if k == 0:
        return 1.0
    h = _ldu(p, d, k + 3)[0]  # cut at a zero pivot
    return dd.unwrap(math.prod(h[1:k], start=h[0])) if len(h) >= k else 0.0


def inner_product(p: ModelParams, d: DeformPoint, pc: np.ndarray, qc: np.ndarray,
                  xshift: int = 0, yshift: int = 0):
    """<x^xshift P, y^yshift Q> as a coefficient bilinear over shifted moments.

    Accumulated in compensated arithmetic: the monomial terms cancel down
    from eps * kappa(Gram) scale, which would swamp the result near
    orthogonality otherwise.  With unit coefficients this is the Gram entry
    M_{xshift, yshift}.
    """
    _require_integrable(p)
    iscomplex = any(isinstance(v, complex) for v in (*pc, *qc)) \
        or isinstance(p.xi, complex) or isinstance(p.psi, complex)
    Mdd, _, _, gram_cx, _ = _gram(p, d, max(len(pc) + xshift, len(qc) + yshift))
    iscomplex = iscomplex or gram_cx
    acc = None
    for j, cj in enumerate(pc):
        cjd = dd.wrap(cj, iscomplex)
        for k, ck in enumerate(qc):
            m = Mdd[j + xshift][k + yshift]
            if gram_cx != iscomplex:
                m = dd.wrap(dd.unwrap(m), iscomplex)
            term = cjd * m * dd.wrap(ck, iscomplex)
            acc = term if acc is None else acc + term
    return dd.unwrap(acc)


def build_state(p: ModelParams, d: DeformPoint, n: int) -> BopsState:
    """Construct the bi-orthogonal bundle {S, pi, eta, X, Y, polys} at index n."""
    if n < 0:
        raise DomainError("index n must be >= 0")
    S, Pc, Qc, pis, etas, xs, _, _ = _system(p, d, n + 1)
    xnn = xs[n]
    ynn = pis[n] * etas[n] - xnn
    s_tr = (0.0 if n == 0 else S[n - 1], S[n], S[n + 1])
    pi_tr = (pis[n - 1] if n else 0.0, pis[n], pis[n + 1])
    eta_tr = (etas[n - 1] if n else 0.0, etas[n], etas[n + 1])

    def mk(c):
        return PolyCoeffs(len(c) - 1, tuple(c))

    p_tr = (mk(Pc[n - 1]) if n else None, mk(Pc[n]), mk(Pc[n + 1]))
    q_tr = (mk(Qc[n - 1]) if n else None, mk(Qc[n]), mk(Qc[n + 1]))
    return BopsState(n, p, d, s_tr, pi_tr, eta_tr, xnn, ynn, p_tr, q_tr)


def _check_species(species: str) -> None:
    if species not in ("x", "y"):
        raise DomainError(f"species must be 'x' or 'y', got {species!r}")


def poly_coeffs(p: ModelParams, d: DeformPoint, n: int, species: str = "x") -> np.ndarray:
    """Normalized coefficients of P_n (species 'x') or Q_n (species 'y')."""
    _check_species(species)
    _, Pc, Qc, _, _, _, _, _ = _system(p, d, max(n, 1))
    return np.array(Pc[n] if species == "x" else Qc[n])


def recurrence_coeffs(state: BopsState):
    """Third-order recurrence coefficients (r_{n,2}, r_{n,1}, r_{n,0}, r_{n,-1})
    and the mirror quadruple (s_{n,2}, s_{n,1}, s_{n,0}, s_{n,-1})."""
    p, d, n = state.params, state.point, state.n
    S, _, _, pis, etas, xs, _, _ = _system(p, d, n + 2)
    x_next = xs[n + 1]
    y_next = pis[n + 1] * etas[n + 1] - x_next
    r2 = S[n + 1] / (S[n + 2] * pis[n + 1])
    r1 = x_next / pis[n + 1] - (S[n] / S[n + 1]) / pis[n]
    x_down = pis[n + 1] * etas[n] - S[n] / S[n + 1]
    r0 = x_down / pis[n + 1] - state.Xnn / pis[n]
    r_m1 = (S[n - 1] / S[n] if n else 0.0) / pis[n]
    s2 = S[n + 1] / (S[n + 2] * etas[n + 1])
    s1 = y_next / etas[n + 1] - (S[n] / S[n + 1]) / etas[n]
    y_down = pis[n] * etas[n + 1] - S[n] / S[n + 1]
    s0 = y_down / etas[n + 1] - state.Ynn / etas[n]
    s_m1 = (pis[n] / etas[n]) * r_m1
    return (r2, r1, r0, r_m1), (s2, s1, s0, s_m1)


# ---------------------------------------------------------------------------
# Stieltjes and first-type associated functions
# ---------------------------------------------------------------------------

def stieltjes_f1(z, p: ModelParams, d: DeformPoint):
    """f1(z) = int w1(x)/(z-x) dx for z off [0, inf); z = -t or -s in practice."""
    if isinstance(z, (int, float)) and z >= 0:
        raise DomainError(f"stieltjes_f1 needs z off the support, got z={z}")
    out = -gamma2(p.a, 0.0, -z).value
    if p.xi != 0 and d.s != math.inf:
        out += p.xi * gamma2(p.a, d.s, -z).value
    return out


def stieltjes_f2(z, p: ModelParams, d: DeformPoint):
    if isinstance(z, (int, float)) and z >= 0:
        raise DomainError(f"stieltjes_f2 needs z off the support, got z={z}")
    out = -gamma2(p.b, 0.0, -z).value
    if p.psi != 0 and d.t != math.inf:
        out += p.psi * gamma2(p.b, d.t, -z).value
    return out


def assoc1(poly, z, p: ModelParams, d: DeformPoint, species: str = "x"):
    """First-type associated value int w(x) poly(x) / (z - x) dx.

    Runs the moment recursion I_j = z I_{j-1} - mu_{j-1} upward from the
    Stieltjes value I_0 (`stieltjes_f1` or `stieltjes_f2`, at any z); stable
    for z in the left half line used here.  The moments mu_j are the alpha
    (species 'x') or beta ('y') chain of `_gram`.
    """
    _check_species(species)
    coeffs = poly.coeffs if isinstance(poly, PolyCoeffs) else tuple(poly)
    _, aldd, bedd, _, _ = _gram(p, d, len(coeffs))
    if species == "x":
        cur, moments = stieltjes_f1(z, p, d), aldd
    else:
        cur, moments = stieltjes_f2(z, p, d), bedd
    out = coeffs[0] * cur
    for j in range(1, len(coeffs)):
        cur = z * cur - dd.unwrap(moments[j - 1])
        out += coeffs[j] * cur
    return out


def intertwined(state: BopsState, which: str, z):
    """Evaluate hatP_n, checkQ_n, hatP1_n, checkQ1_n by the three-term substitution.

    hatP1/checkQ1 are the first-type associated companions; the substitution
    forms return (value) with the unit shift already applied, i.e. the plain
    function value including the +1.
    """
    p, d, n = state.params, state.point, state.n
    sm, sn, sp = state.S_triple
    ratio_m = (sm / sn) if n >= 1 else 0.0
    if which == "hatP":
        vals = [state.p_polys[2](z), state.p_polys[1](z),
                state.p_polys[0](z) if n else 0.0]
        v = sn / sp * vals[0] - (state.Ynn + z) * vals[1] - ratio_m * vals[2]
        return v / state.pi_triple[1]
    if which == "checkQ":
        vals = [state.q_polys[2](z), state.q_polys[1](z),
                state.q_polys[0](z) if n else 0.0]
        v = sn / sp * vals[0] - (state.Xnn + z) * vals[1] - ratio_m * vals[2]
        return v / state.eta_triple[1]
    if which == "hatP1":
        vals = [assoc1(state.p_polys[2], z, p, d, "x"),
                assoc1(state.p_polys[1], z, p, d, "x"),
                assoc1(state.p_polys[0], z, p, d, "x") if n else 0.0]
        v = sn / sp * vals[0] - (state.Ynn + z) * vals[1] - ratio_m * vals[2]
        return v / state.pi_triple[1] + 1.0
    if which == "checkQ1":
        vals = [assoc1(state.q_polys[2], z, p, d, "y"),
                assoc1(state.q_polys[1], z, p, d, "y"),
                assoc1(state.q_polys[0], z, p, d, "y") if n else 0.0]
        v = sn / sp * vals[0] - (state.Xnn + z) * vals[1] - ratio_m * vals[2]
        return v / state.eta_triple[1] + 1.0
    raise DomainError(f"unknown intertwined kind {which!r}")


# ---------------------------------------------------------------------------
# evaluation bundle shared by the kernel / Lax / flow layers
# ---------------------------------------------------------------------------

@dataclass
class EvalBundle:
    """The 23 dynamical quantities at one (n, s, t), vectors ordered [n+1, n, n-1]."""

    n: int
    s: float
    t: float
    a: float
    b: float
    xi: complex
    psi: complex
    p: np.ndarray    # P_{n+1,n,n-1}(s)
    q: np.ndarray    # Q(t)
    p1: np.ndarray   # P^(1)(-t)
    q1: np.ndarray   # Q^(1)(-s)
    piv: np.ndarray
    etav: np.ndarray
    X: float
    Y: float
    sv: np.ndarray   # S_{n+1,n,n-1}

    def copy(self) -> "EvalBundle":
        return EvalBundle(self.n, self.s, self.t, self.a, self.b, self.xi, self.psi,
                          self.p.copy(), self.q.copy(), self.p1.copy(), self.q1.copy(),
                          self.piv.copy(), self.etav.copy(), self.X, self.Y, self.sv.copy())


def deformation_weights(eb: EvalBundle):
    """(ws, wt, wS, wT) of ``cutoff_weights`` at the bundle's point."""
    return cutoff_weights(eb.s, eb.t, eb.a, eb.b, eb.xi, eb.psi)


def cutoff_weights(s, t, a, b, xi, psi):
    """(ws, wt, wS, wT): the deformation weights ws = xi s^a e^-s and
    wt = psi t^b e^-t at the cutoffs, and wS = s ws, wT = t wt.

    All four are zero at an infinite sentinel cutoff, where the weight
    vanishes and every term it multiplies drops out of the dynamics.
    """
    ws = wS = wt = wT = 0.0
    if s != INF:
        ws = xi * s ** a * math.exp(-s)
        wS = ws * s
    if t != INF:
        wt = psi * t ** b * math.exp(-t)
        wT = wt * t
    return ws, wt, wS, wT


Brackets = namedtuple("Brackets", "rp rm brx_q1 bry_q1 bry_p brx_q bry_q bry_p1")


def brackets(eb: EvalBundle) -> Brackets:
    """``bracket_terms`` of the bundle."""
    return bracket_terms(eb.sv, eb.p, eb.q, eb.p1, eb.q1, eb.X, eb.Y, eb.s, eb.t)


def bracket_terms(sv, p, q, p1, q1, X, Y, s, t) -> Brackets:
    """The norm ratios rp = S_n/S_n+1, rm = S_n-1/S_n and the six three-term
    brackets rp v[0] - c v[1] - rm v[2] that the Lax matrices and the flow
    read: at s, brx_q1 (v = Q1, c = X - s), bry_q1 (Q1, -(Y + s)) and bry_p
    (P, Y + s); at t, brx_q (Q, X + t), bry_q (Q, -(Y - t)) and bry_p1
    (P1, Y - t).  Vectors are ordered [n+1, n, n-1] like the bundle's.

    At an infinite sentinel cutoff that side's boundary values are zero and
    enter only through the vanishing weight, so its three brackets are zero.
    """
    rp = sv[1] / sv[0]
    rm = sv[2] / sv[1]
    brx_q1 = bry_q1 = bry_p = brx_q = bry_q = bry_p1 = 0.0
    if s != INF:
        brx_q1 = rp * q1[0] - (X - s) * q1[1] - rm * q1[2]
        bry_q1 = rp * q1[0] + (Y + s) * q1[1] - rm * q1[2]
        bry_p = rp * p[0] - (Y + s) * p[1] - rm * p[2]
    if t != INF:
        brx_q = rp * q[0] - (X + t) * q[1] - rm * q[2]
        bry_q = rp * q[0] + (Y - t) * q[1] - rm * q[2]
        bry_p1 = rp * p1[0] - (Y - t) * p1[1] - rm * p1[2]
    return Brackets(rp, rm, brx_q1, bry_q1, bry_p, brx_q, bry_q, bry_p1)


def _dd_polyval(coeffs_dd, z, iscomplex):
    acc = coeffs_dd[-1]
    zdd = dd.wrap(z, iscomplex)
    for c in reversed(coeffs_dd[:-1]):
        acc = acc * zdd + c
    return acc


def _dd_assoc_values(coeffs_dd_list, z, seed, moments_dd, iscomplex):
    """First-type associated values for several polynomials at one z, with the
    moment recursion I_j = z I_{j-1} - mu_{j-1} run in DD from the DD seed."""
    width = max(len(c) for c in coeffs_dd_list)
    ivals = [seed]
    zdd = dd.wrap(z, iscomplex)
    for j in range(1, width):
        ivals.append(zdd * ivals[-1] - moments_dd[j - 1])
    out = []
    for cd in coeffs_dd_list:
        out.append(dd.unwrap(_dd_dot(cd, ivals[:len(cd)])))
    return out


def _stieltjes_seed(c, x, y, g, upper, boxed):
    """-((1 - g) Gamma2(c; 0, y) + g boxed Gamma2(c; x, y)) in DD: f1(-t) with
    (c, x, y, g) = (a, s, t, xi) and f2(-s) with (b, t, s, psi), from the
    Gram's seeds upper and boxed (see `_dd_gram`).  A seed the Gram skipped
    (None) whose coefficient is nonzero is built by the function the Gram
    builds it with; at an infinite x the weight is undeformed, g = 0."""
    g = 0.0 if x == INF else g
    acc = dd.DD(0.0)
    if g != 1:
        upper = dd.DD(_upper_seed(c, y)) if upper is None else upper
        acc = (dd.DD(1.0) - dd.DD(g)) * upper
    if g != 0:
        boxed = gamma2_boxed_dd(((c, x, y, 0),))[0] if boxed is None else boxed
        acc = acc + dd.DD(g) * boxed
    return -acc


def eval_bundle(state: BopsState) -> EvalBundle:
    """Evaluate the state's polynomials and associated functions at the
    deformation-locked points (s, t, -t, -s).

    Everything is read off `_gram`, the Gram `_system` factorizes: in hi
    fidelity for real xi and psi.  Evaluations are carried out in
    compensated arithmetic against the chained moment data.  The Stieltjes
    seeds f1(-t) and f2(-s) of the associated functions are formed in DD
    from the Gram's own Gamma2 seeds (`_stieltjes_seed`), so the constraint
    identities downstream compare one set of numbers with itself; for
    complex xi or psi they are `stieltjes_f1` and `stieltjes_f2`.  At an
    infinite sentinel cutoff the corresponding evaluations are zero: they
    only enter the dynamics multiplied by the vanishing deformation weight.
    """
    p, d, n = state.params, state.point, state.n
    s, t = d.s, d.t
    *_, Pdd, Qdd = _system(p, d, n + 1)
    _, aldd, bedd, iscomplex, seeds = _gram(p, d, n + 3)
    pdd = [Pdd[n + 1], Pdd[n], Pdd[n - 1] if n else None]
    qdd = [Qdd[n + 1], Qdd[n], Qdd[n - 1] if n else None]
    zeros = np.zeros(3)
    if s != INF:
        pv = np.array([dd.unwrap(_dd_polyval(c, s, iscomplex)) if c else 0.0
                       for c in pdd])
        seed = (dd.wrap(stieltjes_f2(-s, p, d), True) if iscomplex
                else _stieltjes_seed(p.b, t, s, p.psi, *seeds[2:]))
        vals = _dd_assoc_values([c for c in qdd if c], -s, seed, bedd, iscomplex)
        q1v = np.array(vals + [0.0] * (3 - len(vals)))
    else:
        pv, q1v = zeros.copy(), zeros.copy()
    if t != INF:
        qv = np.array([dd.unwrap(_dd_polyval(c, t, iscomplex)) if c else 0.0
                       for c in qdd])
        seed = (dd.wrap(stieltjes_f1(-t, p, d), True) if iscomplex
                else _stieltjes_seed(p.a, s, t, p.xi, *seeds[:2]))
        vals = _dd_assoc_values([c for c in pdd if c], -t, seed, aldd, iscomplex)
        p1v = np.array(vals + [0.0] * (3 - len(vals)))
    else:
        qv, p1v = zeros.copy(), zeros.copy()
    return EvalBundle(n, s, t, p.a, p.b, p.xi, p.psi, pv, qv, p1v, q1v,
                      state.pivec, state.etavec, state.Xnn, state.Ynn, state.svec)


# ---------------------------------------------------------------------------
# undeformed boundary data
# ---------------------------------------------------------------------------

def undeformed_reference(n: int, a: float, b: float) -> dict:
    """Closed-form spectral data of the undeformed system (xi = psi = 0)."""
    def s_ratio_sq(m):  # S_{m+1}^2 / S_m^2
        c = 2 * m + a + b
        return ((c + 3) * (c + 2) ** 2 * (c + 1)
                / ((m + 1) ** 2 * (m + a + b + 1) ** 2 * (m + 1 + a) * (m + 1 + b)))

    s0 = math.sqrt((a + b + 1) / (math.gamma(a + 1) * math.gamma(b + 1)))
    svals = [s0]
    for m in range(n + 2):
        svals.append(svals[-1] * math.sqrt(s_ratio_sq(m)))

    def pi_n(m):
        return svals[m] * (math.factorial(m) * math.gamma(a + 1 + m) * math.gamma(a + b + 1 + m)
                           / math.gamma(a + b + 1 + 2 * m))

    def eta_n(m):
        return svals[m] * (math.factorial(m) * math.gamma(b + 1 + m) * math.gamma(a + b + 1 + m)
                           / math.gamma(a + b + 1 + 2 * m))

    def x_nn(m):
        out = (m + 1) * (m + 1 + a) * (m + a + b + 1) / (2 * m + a + b + 2)
        if m:
            out -= m * (m + a) * (m + a + b) / (2 * m + a + b)
        return out

    def y_nn(m):
        out = (m + 1) * (m + 1 + b) * (m + a + b + 1) / (2 * m + a + b + 2)
        if m:
            out -= m * (m + b) * (m + a + b) / (2 * m + a + b)
        return out

    return {
        "S": svals,
        "S_ratio_sq": [s_ratio_sq(m) for m in range(n + 1)],
        "pi": [pi_n(m) for m in range(n + 2)],
        "eta": [eta_n(m) for m in range(n + 2)],
        "pi_eta": [2 * m + a + b + 1 for m in range(n + 2)],
        "X": [x_nn(m) for m in range(n + 2)],
        "Y": [y_nn(m) for m in range(n + 2)],
    }


def clear_caches() -> None:
    _system.cache_clear()
    _ldu.cache_clear()
    _dd_gram.cache_clear()
