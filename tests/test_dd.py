import math

import mpmath
import numpy as np
import pytest

from bhgap import dd

RNG = np.random.default_rng(2024)


def dd_pairs(xs):
    """xs with a random double-double tail, as a (hi, lo) pair of arrays."""
    lo = xs * RNG.uniform(-1.1e-16, 1.1e-16, xs.size)
    hi = xs + lo
    return hi, lo - (hi - xs)


def reldiff(pair, i, ref):
    return abs((pair[0][i] - ref.hi) + (pair[1][i] - ref.lo)) / abs(ref.hi)


EXP_ARGS = {
    "wide": RNG.uniform(-700.0, 700.0, 400),
    "near0": RNG.uniform(-1e-3, 1e-3, 60) * RNG.choice([1.0, 1e-6, 1e-12], 60),
    "ln2": np.arange(-1009, 1010, 7) * math.log(2.0),
}


@pytest.mark.parametrize("name", list(EXP_ARGS))
def test_vexp_matches_scalar(name):
    x = dd_pairs(EXP_ARGS[name])
    got = dd.vexp(x)
    assert max(reldiff(got, i, dd.dd_exp(dd.DD(x[0][i], x[1][i])))
               for i in range(x[0].size)) <= 1e-30


def test_vexp_underflow_and_overflow():
    got = dd.vexp((np.array([-800.0, -700.5, 0.0]), np.zeros(3)))
    assert got[0].tolist() == [0.0, 0.0, 1.0] and got[1].tolist() == [0.0, 0.0, 0.0]
    assert dd.dd_exp(dd.DD(-700.5)).hi == 0.0
    with pytest.raises(OverflowError):
        dd.vexp((np.array([0.0, 700.5]), np.zeros(2)))


@pytest.mark.parametrize("name", list(EXP_ARGS))
def test_vln_matches_scalar(name):
    # ln of e^x, and of 1 + x near 0; the Newton step leaves an absolute
    # error of ~1e-32 in both kernels, so near x = 1 compare against 1
    xs = EXP_ARGS[name]
    arg = 1.0 + xs if name == "near0" else np.exp(np.clip(xs, -650.0, 650.0))
    got = dd.vln((arg, np.zeros_like(arg)))
    for i in range(arg.size):
        want = dd.dd_ln(dd.DD(arg[i]))
        diff = abs((got[0][i] - want.hi) + (got[1][i] - want.lo))
        assert diff <= 1e-30 * max(abs(want.hi), 1.0)


def test_arithmetic_kernels_match_scalar_bitwise():
    x, y = dd_pairs(RNG.uniform(-5.0, 5.0, 50)), dd_pairs(RNG.uniform(0.5, 5.0, 50))
    for vop, op in ((dd.vadd, dd.DD.__add__), (dd.vmul, dd.DD.__mul__),
                    (dd.vdiv, dd.DD.__truediv__)):
        got = vop(x, y)
        for i in range(50):
            want = op(dd.DD(x[0][i], x[1][i]), dd.DD(y[0][i], y[1][i]))
            assert (got[0][i], got[1][i]) == (want.hi, want.lo)


def test_vsum_of_positive_terms():
    x = dd_pairs(RNG.uniform(0.0, 1.0, 1001))
    acc = dd.DD(0.0)
    for h, l in zip(*x):
        acc = acc + dd.DD(h, l)
    got = dd.vsum(x)
    assert abs((got.hi - acc.hi) + (got.lo - acc.lo)) <= 1e-30 * acc.hi


@pytest.mark.parametrize("x", [1e-305, 1e-307, 2.2250738585072014e-308, 5e-324])
def test_ln_of_tiny_arguments(x):
    # the Newton step's e^-seed would overflow without the 2^e split
    with mpmath.workdps(40):
        want = mpmath.log(mpmath.mpf(x))
        got = [dd.dd_ln(dd.DD(x))]
        h, l = dd.vln((np.array([x]), np.zeros(1)))
        got.append(dd.DD(h[0], l[0]))
        for g in got:
            assert abs((mpmath.mpf(g.hi) + mpmath.mpf(g.lo) - want) / want) <= 1e-30
