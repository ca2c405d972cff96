import math

import mpmath
import numpy as np
import pytest

from bhgap import dd

RNG = np.random.default_rng(2024)


def dd_pairs(xs, rng=RNG):
    """xs with a random double-double tail, as a (hi, lo) pair of arrays."""
    lo = xs * rng.uniform(-1.1e-16, 1.1e-16, xs.size)
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


@pytest.mark.parametrize("name", list(EXP_ARGS))
def test_vexp_and_vln_match_mpmath(name):
    # 40-digit references, not only the scalar twins.  Below e^-672 a DD's
    # lo part is subnormal, spaced 2^-1074, so e^x there holds fewer digits
    # and the bound adds that spacing; ln has the scalar test's floor at 1
    x = dd_pairs(EXP_ARGS[name], np.random.default_rng(7))
    got = dd.vexp(x)
    xs = EXP_ARGS[name]
    arg = 1.0 + xs if name == "near0" else np.exp(np.clip(xs, -650.0, 650.0))
    ln = dd.vln((arg, np.zeros_like(arg)))
    with mpmath.workdps(40):
        for i in range(xs.size):
            want = mpmath.exp(mpmath.mpf(x[0][i]) + mpmath.mpf(x[1][i]))
            diff = abs(mpmath.mpf(got[0][i]) + mpmath.mpf(got[1][i]) - want)
            assert diff <= 1e-30 * want + 2.0 ** -1074, x[0][i]
            want = mpmath.log(mpmath.mpf(arg[i]))
            diff = abs(mpmath.mpf(ln[0][i]) + mpmath.mpf(ln[1][i]) - want)
            assert diff <= 1e-30 * max(abs(want), 1), arg[i]


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


def correctly_rounded(pair, want):
    """pair is the DD nearest want: hi rounds want and lo rounds want - hi."""
    hi, lo = pair
    return hi == float(want) and lo == float(want - mpmath.mpf(hi))


def test_kernel_tables_are_correctly_rounded():
    mp = mpmath.mpf
    with mpmath.workdps(60):
        assert len(dd._EXP2_HI) == len(dd._EXP2_LO) == 64
        for j in range(64):
            assert correctly_rounded((dd._EXP2_HI[j], dd._EXP2_LO[j]), mp(2) ** (mp(j) / 64)), j
        assert len(dd._LNF_HI) == len(dd._LNF_LO) == 129
        for j in range(129):
            assert correctly_rounded((dd._LNF_HI[j], dd._LNF_LO[j]),
                                     mpmath.log(1 + mp(j) / 128)), j
        # at most 36 significant bits, so k times the head is exact for |k| < 2^16
        assert math.frexp(dd._LN2_64_HEAD)[0] * 2.0 ** 36 % 1.0 == 0.0
        assert correctly_rounded(dd._LN2_64_TAIL, mpmath.log(2) / 64 - mp(dd._LN2_64_HEAD))
        for c, n in zip(dd._EXPM1_HEAD, (5, 4, 3, 2)):
            assert correctly_rounded(c, 1 / mpmath.factorial(n)), n
        assert dd._EXPM1_TAIL == tuple(float(1 / mpmath.factorial(n)) for n in range(11, 5, -1))
        for c, n in zip(dd._ATANH_HEAD, (5, 3)):
            assert correctly_rounded(c, mp(2) / n), n
        assert dd._ATANH_TAIL == tuple(float(mp(2) / n) for n in (13, 11, 9, 7))


def test_vexp_at_reduction_edges():
    # x halfway between multiples k ln 2/64, where |r| reaches ln 2/128 and
    # the rounding of k picks either neighbour: k near multiples of 64, where
    # the table index wraps, and near the ends of the range, |k| ~ 64640
    ks = [64 * q + d for q in (-1009, -600, -64, -1, 0, 1, 64, 600, 1009) for d in (-1, 0, 1)]
    ks += [*range(-64640, -64620), *range(64620, 64640)]
    xs = np.array([(k + h) * math.log(2.0) / 64.0 for k in ks for h in (-0.5, 0.5)])
    x = dd_pairs(xs[np.abs(xs) <= 700.0], np.random.default_rng(11))
    got = dd.vexp(x)
    with mpmath.workdps(40):
        for i in range(x[0].size):
            want = mpmath.exp(mpmath.mpf(x[0][i]) + mpmath.mpf(x[1][i]))
            diff = abs(mpmath.mpf(got[0][i]) + mpmath.mpf(got[1][i]) - want)
            assert diff <= 1e-30 * want + 2.0 ** -1074, x[0][i]


def test_vln_of_dd_inputs_at_table_edges():
    # DDs with lo parts, as the batch passes them: x = 2^e f with f halfway
    # between the table points 1 + j/128, and f just below and at 2, where a
    # negative lo part carries x below the power of 2
    fs = [1.0 + (j + h) / 128.0 for j in range(128) for h in (-0.5, 0.5)]
    fs += [2.0 - 2.0 ** -52, 2.0 - 2.0 ** -40, 2.0 - 2.0 ** -20, 1.0, 2.0]
    xs = np.array([math.ldexp(f, e) for f in fs for e in (-1020, -3, 0, 5, 1000)])
    x = dd_pairs(xs, np.random.default_rng(12))
    got = dd.vln(x)
    with mpmath.workdps(40):
        for i in range(xs.size):
            want = mpmath.log(mpmath.mpf(x[0][i]) + mpmath.mpf(x[1][i]))
            diff = abs(mpmath.mpf(got[0][i]) + mpmath.mpf(got[1][i]) - want)
            assert diff <= 1e-30 * max(abs(want), 1), (x[0][i], x[1][i])


def test_vln_takes_no_exponential(monkeypatch):
    def no_exp(*args):
        raise AssertionError("vln took an exponential")
    for name in ("vexp", "dd_exp"):
        monkeypatch.setattr(dd, name, no_exp)
    got = dd.vln((np.array([5e-324, 0.5, 1.0, 3.0, 1e300]), np.zeros(5)))
    assert got[0][2] == got[1][2] == 0.0


# DD arithmetic as composed from the module's error-free transformations, the
# form the inlined operators must reproduce bit for bit
def ref_add(x, y):
    s, e = dd._two_sum(x.hi, y.hi)
    e += x.lo + y.lo
    return dd._quick_two_sum(s, e)


def ref_sub(x, y):
    return ref_add(x, dd.DD(-y.hi, -y.lo))


def ref_mul(x, y):
    p, e = dd._two_prod(x.hi, y.hi)
    e += x.hi * y.lo + x.lo * y.hi
    return dd._quick_two_sum(p, e)


def ref_div(x, y):
    q1 = x.hi / y.hi
    r = ref_sub(x, dd.DD(*ref_mul(y, dd.DD(q1))))
    return dd._quick_two_sum(q1, (r[0] + r[1]) / (y.hi + y.lo))


def ref_sqrt(x):
    if x.hi == 0.0:
        return 0.0, 0.0
    xd = dd.DD(math.sqrt(x.hi))
    return ref_mul(dd.DD(*ref_add(xd, dd.DD(*ref_div(x, xd)))), dd.DD(0.5))


def bits(pair):
    """(hi, lo) as hex strings, which tell -0.0 from 0.0."""
    return tuple(float(v).hex() for v in pair)


def random_dds(rng, n):
    # signs mixed, exponents over ±280 decades, random tails
    xs = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-280.0, 280.0, n)
    return [dd.DD(h, l) for h, l in zip(*dd_pairs(xs, rng))]


def edge_dds():
    tiny = 5e-324
    out = [dd.DD(0.0), dd.DD(-0.0), dd.DD(0.0, -0.0), dd.DD(-0.0, -0.0),
           dd.DD(1.0), dd.DD(-1.0), dd.DD(1.0, 1e-17), dd.DD(1.0, -1e-17),
           dd.DD(1.0, tiny), dd.DD(-1.0, -tiny), dd.DD(3e-308, 1e-320), dd.DD(1e-300, -tiny),
           dd.DD(1e300), dd.DD(1e300, 3e283), dd.DD(-1.7e300, 1e284), dd.DD(9.9e299, -2e283),
           dd.DD(1.0 / 3.0, 1.0 / 3.0 * 2.0 ** -54), dd.DD(math.pi, 1.2246467991473532e-16)]
    # operands that cancel in part or in full against the ones above
    out += [dd.DD(-x.hi, -x.lo) for x in out] + [dd.DD(-1.0, 1e-17), dd.DD(-math.pi)]
    return out


def kernel_pairs():
    rng = np.random.default_rng(90017)
    xs, ys = random_dds(rng, 1999), random_dds(rng, 1999)
    # near-cancelling random pairs: y = -x to within a few ulps
    near = [dd.DD(-x.hi * (1.0 + k * 2.0 ** -52), -x.lo) for x, k in
            zip(xs[:300], rng.integers(-4, 5, 300))]
    edges = edge_dds()
    return (list(zip(xs, ys)) + list(zip(xs[:300], near))
            + [(x, y) for x in edges for y in edges])


@pytest.mark.parametrize("op, ref", [("__add__", ref_add), ("__sub__", ref_sub),
                                     ("__mul__", ref_mul), ("__truediv__", ref_div)])
def test_scalar_kernel_bitwise_equals_helper_form(op, ref):
    mismatches = []
    for x, y in kernel_pairs():
        if op == "__truediv__" and y.hi == 0.0:
            continue
        got = getattr(x, op)(y)
        if bits((got.hi, got.lo)) != bits(ref(x, y)):
            mismatches.append((x, y, got))
    assert mismatches == []


def test_scalar_sqrt_and_neg_bitwise_equal_helper_form():
    rng = np.random.default_rng(7)
    xs = [dd.DD(h, l) for h, l in zip(*dd_pairs(10.0 ** rng.uniform(-300.0, 300.0, 999), rng))]
    xs += [x for x in edge_dds() if x.hi >= 0.0]
    for x in xs:
        got = x.sqrt()
        assert bits((got.hi, got.lo)) == bits(ref_sqrt(x))
        neg = -x
        assert bits((neg.hi, neg.lo)) == bits((-x.hi, -x.lo))
