"""Compensated double-double arithmetic, the working precision of the Gram
assembly and of the moment routes' determinants, factorizations and Pfaffians.

A DD holds an unevaluated sum hi + lo with |lo| <= ulp(hi)/2, giving ~31
significant digits.  CDD is the complex pair.  Only the operations those
layers need are provided.

The arithmetic follows the sloppy double-double rules of Hida, Li & Bailey
(2001) analysed by Joldes, Muller & Popescu (ACM TOMS 2017).  DD's operators
inline the error-free transformations below in their exact operation order,
so each result is bitwise the one the helpers compose, at a fraction of the
Python calls.  The array kernels ``vadd``, ``vmul``, ``vdiv``, ``vexp``,
``vln`` and ``vsum`` call the helpers elementwise on pairs ``(hi, lo)`` of
float64 numpy arrays (or floats, which broadcast), for quadratures that
evaluate thousands of nodes at once; they agree with the scalar ``dd_exp``
and ``dd_ln`` to ~1e-30.  Both exponentials reduce by a split ln 2 whose
head times k is exact, so they stay within ~1e-32 of e^x over [-672, 700];
below, a result's lo part is subnormal and holds fewer digits.
"""
from __future__ import annotations

import math

import numpy as np

_SPLITTER = 134217729.0  # 2^27 + 1


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    return s, b - (s - a)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ah = _SPLITTER * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLITTER * b
    bh = bh - (bh - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


class DD:
    """hi + lo.  The operators inline the helpers above in their exact
    operation order, bitwise equal to the helper-composed form that
    tests/test_dd.py keeps, and skip __init__'s float() casts."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi: float = 0.0, lo: float = 0.0):
        self.hi = float(hi)
        self.lo = float(lo)

    def __repr__(self):
        return f"DD({self.hi!r}, {self.lo!r})"

    def __float__(self):
        return self.hi + self.lo

    def __neg__(self):
        r = _new(DD)
        r.hi = -self.hi
        r.lo = -self.lo
        return r

    def __abs__(self):
        return abs(self.hi + self.lo)

    def __add__(self, other: "DD") -> "DD":
        a, b = self.hi, other.hi
        s = a + b  # _two_sum(a, b)
        bb = s - a
        e = ((a - (s - bb)) + (b - bb)) + (self.lo + other.lo)
        r = _new(DD)
        r.hi = h = s + e  # _quick_two_sum(s, e)
        r.lo = e - (h - s)
        return r

    def __sub__(self, other: "DD") -> "DD":
        # self + (-other); x - y is x + (-y) to the bit in IEEE 754
        a, b = self.hi, -other.hi
        s = a + b
        bb = s - a
        e = ((a - (s - bb)) + (b - bb)) + (self.lo - other.lo)
        r = _new(DD)
        r.hi = h = s + e
        r.lo = e - (h - s)
        return r

    def __mul__(self, other: "DD") -> "DD":
        a, b = self.hi, other.hi
        p = a * b  # _two_prod(a, b)
        ah = 134217729.0 * a  # _SPLITTER
        ah = ah - (ah - a)
        al = a - ah
        bh = 134217729.0 * b
        bh = bh - (bh - b)
        bl = b - bh
        e = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + (a * other.lo + self.lo * b)
        r = _new(DD)
        r.hi = h = p + e  # _quick_two_sum(p, e)
        r.lo = e - (h - p)
        return r

    def __truediv__(self, other: "DD") -> "DD":
        # q1 = hi / hi, r = self - other * DD(q1) (its hi * 0.0 term kept),
        # q2 = float(r) / float(other), then _quick_two_sum(q1, q2)
        a, b, blo = self.hi, other.hi, other.lo
        q1 = a / b
        p = b * q1
        bh = 134217729.0 * b
        bh = bh - (bh - b)
        bl = b - bh
        qh = 134217729.0 * q1
        qh = qh - (qh - q1)
        ql = q1 - qh
        e = (((bh * qh - p) + bh * ql + bl * qh) + bl * ql) + (b * 0.0 + blo * q1)
        ph = p + e
        pl = e - (ph - p)
        ph = -ph
        s = a + ph
        bb = s - a
        e = ((a - (s - bb)) + (ph - bb)) + (self.lo - pl)
        rh = s + e
        q2 = (rh + (e - (rh - s))) / (b + blo)
        r = _new(DD)
        r.hi = h = q1 + q2
        r.lo = q2 - (h - q1)
        return r

    def sqrt(self) -> "DD":
        if self.hi == 0.0:
            return DD(0.0)
        if self.hi < 0.0:
            raise ValueError("DD.sqrt of a negative number")
        # one Newton step in DD
        xd = DD(math.sqrt(self.hi))
        return (xd + self / xd) * DD(0.5)


_new = object.__new__


class CDD:
    __slots__ = ("re", "im")

    def __init__(self, re: DD, im: DD):
        self.re = re
        self.im = im

    @staticmethod
    def from_complex(z: complex) -> "CDD":
        return CDD(DD(z.real), DD(z.imag))

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __neg__(self):
        return CDD(-self.re, -self.im)

    def __abs__(self):
        return math.hypot(float(self.re), float(self.im))

    def __add__(self, other: "CDD") -> "CDD":
        return CDD(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "CDD") -> "CDD":
        return CDD(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "CDD") -> "CDD":
        return CDD(self.re * other.re - self.im * other.im,
                   self.re * other.im + self.im * other.re)

    def __truediv__(self, other: "CDD") -> "CDD":
        # Smith's algorithm on DD components
        if abs(float(other.re)) >= abs(float(other.im)):
            r = other.im / other.re
            d = other.re + other.im * r
            return CDD((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        r = other.re / other.im
        d = other.re * r + other.im
        return CDD((self.re * r + self.im) / d, (self.im * r - self.re) / d)


def wrap(x, iscomplex: bool):
    return CDD.from_complex(complex(x)) if iscomplex else DD(float(x))


def unwrap(x):
    return x.to_complex() if isinstance(x, CDD) else float(x)


_LN2 = DD(0.6931471805599453, 2.3190468138462996e-17)
# ln 2 = _LN2_HEAD + _LN2_TAIL for the exponentials' range reduction: the head
# has 42 significant bits, so k _LN2_HEAD is exact for |k| < 2^11, and
# x - k ln 2 keeps ~1e-32 absolute where k _LN2 in DD would lose |k| 8e-33
_LN2_HEAD = 0.6931471805598903
_LN2_TAIL = DD(5.497923018708371e-14, 1.94704509238075e-31)
_SQRT_HALF = 0.7071067811865476


def dd_exp(x: DD) -> DD:
    """e^x for real DD via range reduction and the Taylor series."""
    xf = float(x)
    if xf < -700.0:
        return DD(0.0)
    if xf > 700.0:
        raise OverflowError("dd_exp overflow")
    k = int(round(xf / 0.6931471805599453))
    r = (x - DD(k * _LN2_HEAD)) - DD(float(k)) * _LN2_TAIL
    term = DD(1.0)
    acc = DD(1.0)
    n = 0
    while n < 60:
        n += 1
        term = term * r / DD(float(n))
        acc = acc + term
        if abs(float(term)) <= 1e-35 * abs(float(acc)):
            break
    return DD(math.ldexp(acc.hi, k), math.ldexp(acc.lo, k))


def dd_ln(x: DD) -> DD:
    """ln x for positive DD: x = 2^e f with f in [1/sqrt 2, sqrt 2), a float
    seed for ln f plus one Newton correction, plus e ln 2.  The split keeps
    the Newton step's e^-seed finite down to the subnormals."""
    xf = float(x)
    if xf <= 0.0:
        raise ValueError("dd_ln needs a positive argument")
    f, e = math.frexp(x.hi)
    if f < _SQRT_HALF:
        f, e = 2.0 * f, e - 1
    fx = DD(f, math.ldexp(x.lo, -e))
    y0 = math.log(float(fx))
    corr = fx * dd_exp(DD(-y0)) - DD(1.0)
    return DD(y0) + corr + DD(float(e)) * _LN2


def dd_pow(x: DD, p: float | DD) -> DD:
    """x^p for positive DD base and float or DD exponent."""
    if float(x) == 0.0:
        return DD(0.0)
    return dd_exp(dd_ln(x) * (p if isinstance(p, DD) else DD(p)))


def vadd(x, y):
    """Elementwise DD sum of (hi, lo) pairs, the rule of DD.__add__."""
    s, e = _two_sum(x[0], y[0])
    return _quick_two_sum(s, e + (x[1] + y[1]))


def vmul(x, y):
    """Elementwise DD product of (hi, lo) pairs, the rule of DD.__mul__."""
    p, e = _two_prod(x[0], y[0])
    return _quick_two_sum(p, e + (x[0] * y[1] + x[1] * y[0]))


def vdiv(x, y):
    """Elementwise DD quotient of (hi, lo) pairs, the rule of DD.__truediv__."""
    q1 = x[0] / y[0]
    r = vadd(x, vmul(y, (-q1, 0.0)))
    return _quick_two_sum(q1, (r[0] + r[1]) / (y[0] + y[1]))


# 1/n! for n = 5, 4, 3, 2, 1 in DD, the Horner coefficients of vexp's Taylor
# head; 1/n! for n = 10 ... 6, its float64 tail, whose terms are at most
# 2e-19 of e^r - 1, so their float rounding stays below 1e-34 of it
_EXP_HEAD = ((0.008333333333333333, 1.1564823173178714e-19),
             (0.041666666666666664, 2.3129646346357427e-18),
             (0.16666666666666666, 9.25185853854297e-18), (0.5, 0.0), (1.0, 0.0))
_EXP_TAIL = tuple(1.0 / math.factorial(n) for n in range(10, 5, -1))


def vexp(x):
    """Elementwise e^x of a (hi, lo) pair: x = k ln 2 + 512 r, e^r - 1 by
    its Taylor series to r^10/10! (|r| <= 6.8e-4) in Horner form, the
    r^6 ... r^10 tail in float64 and the rest on DD constants 1/n!, squared
    back nine times by E -> 2E + E^2, plus 1, times 2^k.  Like dd_exp it
    returns 0 below -700 and raises OverflowError above 700."""
    hi = np.asarray(x[0], dtype=float)
    if np.any(hi > 700.0):
        raise OverflowError("vexp overflow")
    under = hi < -700.0
    hi = np.where(under, 0.0, hi)
    lo = np.where(under, 0.0, x[1])
    k = np.rint(hi / _LN2.hi)
    r = vadd(vadd((hi, lo), (-k * _LN2_HEAD, 0.0)),
             vmul((-k, 0.0), (_LN2_TAIL.hi, _LN2_TAIL.lo)))
    r = (r[0] / 512.0, r[1] / 512.0)
    tail = 0.0
    for c in _EXP_TAIL:
        tail = tail * r[0] + c
    em1 = (tail, 0.0)
    for c in _EXP_HEAD:
        em1 = vadd(vmul(r, em1), c)
    em1 = vmul(r, em1)
    for _ in range(9):
        em1 = vadd((2.0 * em1[0], 2.0 * em1[1]), vmul(em1, em1))
    e = vadd(em1, (1.0, 0.0))
    k = k.astype(int)
    return np.where(under, 0.0, np.ldexp(e[0], k)), np.where(under, 0.0, np.ldexp(e[1], k))


def vln(x):
    """Elementwise ln x of a positive (hi, lo) pair: x = 2^e f, a float64
    seed for ln f plus one Newton correction, plus e ln 2, the rule of dd_ln."""
    hi = np.asarray(x[0], dtype=float)
    if np.any(hi <= 0.0):
        raise ValueError("vln needs a positive argument")
    f, e = np.frexp(hi)
    low = f < _SQRT_HALF
    f, e = np.where(low, 2.0 * f, f), np.where(low, e - 1, e)
    fx = (f, np.ldexp(x[1], -e))
    y0 = np.log(fx[0] + fx[1])
    corr = vadd(vmul(fx, vexp((-y0, 0.0))), (-1.0, 0.0))
    return vadd(vadd((y0, 0.0), corr), vmul((e.astype(float), 0.0), (_LN2.hi, _LN2.lo)))


def vsum(x):
    """DD sum of every element of a (hi, lo) pair, by pairwise addition."""
    hi, lo = np.ravel(x[0]), np.ravel(x[1])
    while hi.size > 1:
        if hi.size % 2:
            hi, lo = np.append(hi, 0.0), np.append(lo, 0.0)
        hi, lo = vadd((hi[0::2], lo[0::2]), (hi[1::2], lo[1::2]))
    return DD(hi[0], lo[0])
