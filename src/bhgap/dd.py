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
and ``dd_ln`` to ~1e-30.  ``vexp`` and ``vln`` are table-driven (Tang, ACM
TOMS 15, 1989 and 16, 1990): a DD table of 2^(j/64) leaves a short Taylor
series for e^r, and one of ln(1 + j/128) a short atanh series, so neither
squares nor calls the other.  Both exponentials reduce by a split ln 2 (or
ln 2 / 64) whose head times k is exact, so they stay within ~2e-32 of e^x
over [-672, 700]; below, a result's lo part is subnormal and holds fewer
digits.
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


def _horner(z, tail, head):
    """The polynomial in a (hi, lo) pair z with float64 coefficients tail,
    highest order first, then DD coefficients head: the tail by float64
    Horner in z's hi part, the rest by DD Horner."""
    p = 0.0
    for c in tail:
        p = p * z[0] + c
    p = (p, 0.0)
    for c in head:
        p = vadd(vmul(z, p), c)
    return p


# vexp's tables: 2^(j/64) for j = 0 ... 63, correctly rounded to DD (hi, lo);
# ln 2 / 64 = _LN2_64_HEAD + _LN2_64_TAIL, the head of 36 significant bits, so
# k _LN2_64_HEAD is exact for |k| < 2^16, past the 64640 of |x| <= 700
_EXP2_HI = np.array([
    1.0, 1.0108892860517005, 1.0218971486541166, 1.0330248790212284,
    1.0442737824274138, 1.0556451783605572, 1.0671404006768237, 1.0787607977571199,
    1.0905077326652577, 1.102382583307841, 1.1143867425958924, 1.1265216186082418,
    1.1387886347566916, 1.1511892299529827, 1.1637248587775775, 1.1763969916502812,
    1.189207115002721, 1.202156731452703, 1.215247359980469, 1.22848053610687,
    1.241857812073484, 1.255380757024691, 1.2690509571917332, 1.2828700160787783,
    1.2968395546510096, 1.3109612115247644, 1.3252366431597413, 1.339667524053303,
    1.3542555469368927, 1.3690024229745905, 1.383909881963832, 1.3989796725383112,
    1.4142135623730951, 1.42961333839197, 1.4451808069770467, 1.460917794180647,
    1.4768261459394993, 1.4929077282912648, 1.5091644275934228, 1.5255981507445384,
    1.5422108254079407, 1.559004400237837, 1.5759808451078865, 1.593142151342267,
    1.6104903319492543, 1.6280274218573478, 1.645755478153965, 1.6636765803267364,
    1.681792830507429, 1.7001063537185235, 1.718619298122478, 1.7373338352737062,
    1.7562521603732995, 1.7753764925265212, 1.7947090750031072, 1.8142521755003989,
    1.8340080864093424, 1.8539791250833855, 1.8741676341103, 1.8945759815869656,
    1.9152065613971474, 1.9360617934922943, 1.9571441241754002, 1.978456026387951])
_EXP2_LO = np.array([
    0.0, -1.5234778603368577e-17, 5.109225028973444e-17, 7.600838874027088e-18,
    8.551889705537965e-17, 1.759325738772092e-18, -7.899853966841582e-17, -6.656660436056593e-17,
    -3.046782079812471e-17, 5.2660368715706944e-17, 1.0410278456845571e-16, 5.165856758795457e-17,
    8.912812676025408e-17, 3.250710218863827e-17, 3.8292048369240935e-17, 5.554203254218079e-17,
    3.982015231465646e-17, 6.644981499252301e-17, -7.712630692681488e-17, -1.89878163130253e-17,
    4.658027591836937e-17, -6.7113898212968784e-18, 2.667932131342186e-18, 1.713594918243561e-17,
    2.5382502794888315e-17, -7.181536135519454e-17, -2.8587312100388614e-17, 8.927282594831732e-17,
    7.70094837980299e-17, 9.593797919118849e-17, -6.770511658794786e-17, -9.614213209051323e-17,
    -9.667293313452913e-17, -1.2031642489053655e-17, -3.0237581349939873e-17, -5.600377186075216e-17,
    -3.483994556892796e-17, 1.4192920154284036e-17, -1.016455327754295e-16, -1.1024941712342561e-16,
    7.949834809697621e-17, 3.7812070533575275e-17, -1.0136916471278304e-17, -1.0094406542311964e-16,
    2.4707192569797888e-17, -6.712955084707084e-17, -1.0125679913674773e-16, 5.8909926967131e-17,
    8.199010020581497e-17, -8.0237193703977e-18, -1.851380418263111e-17, 3.164389299292957e-17,
    2.960140695448873e-17, 6.429731796556572e-17, 1.8227458427912087e-17, -9.969531538920349e-17,
    3.283107224245627e-17, 9.761887490727594e-17, -6.122763413004143e-17, 3.4034035352165297e-17,
    -1.0619946056195963e-16, 1.0332385960676326e-16, 8.960767791036668e-17, 4.0388753109278167e-17])
_LN2_64_HEAD = 0.010830424696223417
_LN2_64_TAIL = (2.572804622327669e-14, -1.5746795524851787e-30)
# 1/n! for n = 5 ... 2 in DD, the Horner coefficients of e^r - 1 past r; for
# n = 11 ... 6 in float64: at |r| <= ln 2/128 those terms are below 7e-15 of
# e^r - 1, itself below 0.006 of e^r, so their rounding stays near 1e-33
_EXPM1_HEAD = ((0.008333333333333333, 1.1564823173178714e-19),
               (0.041666666666666664, 2.3129646346357427e-18),
               (0.16666666666666666, 9.25185853854297e-18), (0.5, 0.0))
_EXPM1_TAIL = tuple(1.0 / math.factorial(n) for n in range(11, 5, -1))


def vexp(x):
    """Elementwise e^x of a (hi, lo) pair by Tang's table: x = (64 m + j)
    ln 2 / 64 + r with |r| <= ln 2 / 128, e^r - 1 = r + r (r P(r)) with P's
    1/2 ... 1/5! in DD and its 1/6! ... 1/11! tail in float64, and e^x =
    2^m (T_j + T_j (e^r - 1)) for T_j = 2^(j/64).  Like dd_exp it returns 0
    below -700 and raises OverflowError above 700."""
    hi = np.asarray(x[0], dtype=float)
    if np.any(hi > 700.0):
        raise OverflowError("vexp overflow")
    under = hi < -700.0
    hi = np.where(under, 0.0, hi)
    lo = np.where(under, 0.0, x[1])
    k = np.rint(hi * (64.0 / _LN2.hi))
    r = vadd(vadd((hi, lo), (-k * _LN2_64_HEAD, 0.0)), vmul((-k, 0.0), _LN2_64_TAIL))
    em1 = vadd(r, vmul(r, vmul(r, _horner(r, _EXPM1_TAIL, _EXPM1_HEAD))))
    k = k.astype(int)
    j, m = k & 63, k >> 6
    t = (_EXP2_HI[j], _EXP2_LO[j])
    e = vadd(t, vmul(t, em1))
    return np.where(under, 0.0, np.ldexp(e[0], m)), np.where(under, 0.0, np.ldexp(e[1], m))


# vln's tables: ln F_j for F_j = 1 + j/128, j = 0 ... 128, correctly rounded
# to DD (hi, lo); 2/3 and 2/5 in DD and 2/13 ... 2/7 in float64, the Horner
# coefficients in s^2 of 2 atanh s past 2 s; at |s| <= 1/512 the float64
# tail's terms are below 1e-17 of 2 atanh s
_LNF_HI = np.array([
    0.0, 0.007782140442054949, 0.015504186535965254, 0.02316705928153438,
    0.030771658666753687, 0.0383188643021366, 0.0458095360312942, 0.053244514518812285,
    0.06062462181643484, 0.06795066190850775, 0.07522342123758753, 0.08244366921107459,
    0.08961215868968714, 0.09672962645855111, 0.10379679368164356, 0.11081436634029011,
    0.11778303565638346, 0.12470347850095724, 0.13157635778871926, 0.13840232285911913,
    0.1451820098444979, 0.15191604202584197, 0.15860503017663857, 0.16524957289530717,
    0.17185025692665923, 0.1784076574728183, 0.184922338494012, 0.19139485299962947,
    0.19782574332991987, 0.2042155414286909, 0.21056476910734964, 0.21687393830061436,
    0.22314355131420976, 0.22937410106484582, 0.2355660713127669, 0.24171993688714516,
    0.24783616390458127, 0.25391520998096345, 0.25995752443692605, 0.26596354849713794,
    0.27193371548364176, 0.2778684510034563, 0.2837681731306446, 0.28963329258304266,
    0.2954642128938359, 0.3012613305781618, 0.3070250352949119, 0.3127557100038969,
    0.3184537311185346, 0.324119468654212, 0.329753286372468, 0.3353555419211378,
    0.3409265869705932, 0.34646676734620857, 0.3519764231571782, 0.3574558889218038,
    0.3629054936893685, 0.3683255611587076, 0.37371640979358406, 0.37907835293496944,
    0.38441169891033206, 0.3897167511400252, 0.394993808240869, 0.4002431641270127,
    0.4054651081081644, 0.4106599249852684, 0.415827895143711, 0.42096929464412963,
    0.4260843953109001, 0.4311734648183713, 0.43623676677491807, 0.4412745608048752,
    0.44628710262841953, 0.45127464413945856, 0.4562374334815876, 0.46117571512217015,
    0.46608972992459924, 0.470979715218791, 0.4758459048699639, 0.4806885293457519,
    0.4855078157817008, 0.4903039880451938, 0.4950772667978515, 0.4998278695564493,
    0.5045560107523953, 0.5092619017898079, 0.5139457511022343, 0.5186077642080457,
    0.5232481437645479, 0.5278670896208424, 0.5324647988694718, 0.5370414658968836,
    0.5415972824327444, 0.5461324375981357, 0.5506471179526623, 0.5551415075405016,
    0.5596157879354227, 0.564070138284803, 0.5685047353526688, 0.5729197535617855,
    0.5773153650348236, 0.5816917396346225, 0.5860490450035782, 0.5903874466021763,
    0.5947071077466928, 0.5990081896460834, 0.6032908514380843, 0.6075552502245418,
    0.6118015411059929, 0.616029877215514, 0.6202404097518576, 0.6244332880118935,
    0.6286086594223741, 0.6327666695710378, 0.6369074622370692, 0.6410311794209312,
    0.6451379613735847, 0.6492279466251099, 0.6533012720127457, 0.65735807270836,
    0.661398482245365, 0.6654226325450905, 0.6694306539426292, 0.6734226752121667,
    0.6773988235918061, 0.6813592248079031, 0.6853040030989194, 0.689233281238809,
    0.6931471805599453])
_LNF_LO = np.array([
    0.0, -1.2819179123343845e-20, -3.278321022892429e-19, -1.1769544932063305e-18,
    1.0431732029005968e-18, -2.357996157351286e-18, 1.902959866474257e-18, -1.665575816973663e-18,
    2.6424025938726934e-18, -1.2802141240611733e-18, -5.930604196293241e-18, 5.700437773813987e-18,
    -5.4268129336647135e-18, -5.597397486289965e-19, 5.47772415726659e-18, 1.183748342825649e-18,
    -1.1971685747593677e-18, -4.6522609636496624e-18, 1.1123000879729588e-17, 4.447777301357527e-18,
    8.242418783022475e-18, 6.4838631244022194e-18, 1.1257003872182592e-17, -1.0094935622322628e-17,
    -6.0224538210113705e-18, -1.2432553788701131e-17, 3.0236614153574064e-18, -1.2129496905792884e-17,
    1.2821194372980142e-17, 2.7338281018722773e-18, -4.249405314729895e-18, 4.551026193234283e-18,
    -9.091270597324799e-18, 9.927671823978025e-18, -2.3943371495187355e-18, 8.900990022166643e-18,
    -1.2432209578702523e-17, -8.048097394424201e-18, 2.069806938978935e-17, 5.3393802761314314e-18,
    7.83319637697442e-19, -9.16018294909263e-19, -2.032665581126656e-17, 2.0535953219858174e-17,
    -2.16461086040599e-17, -9.048511144048564e-18, -1.2319916200101964e-17, -1.451808353098951e-17,
    2.7114779367326236e-17, -7.958214381893813e-18, 2.122020616196946e-18, 1.834564437059473e-17,
    1.7467136443544747e-17, 1.028583585496265e-17, -1.2953893030191963e-17, -2.5136910072413547e-17,
    -2.1492361455310972e-17, 2.690672380132659e-17, 2.1836211281198184e-17, 1.587939415338447e-17,
    -1.612149700764673e-17, 2.734172667856699e-17, -1.5113724418336168e-17, -1.1349239205188711e-17,
    -2.8811380259626426e-18, 9.53814259997222e-18, -2.48753990369597e-17, 3.729923775655343e-18,
    -2.499176776547466e-17, 1.9420511053537492e-17, -1.8379648230620457e-18, 2.5088908423700173e-17,
    -1.8182541194649598e-17, 2.6777397456140527e-17, 2.122222784062318e-17, 1.741614762798376e-17,
    -1.4116523239904406e-17, 6.232095439601591e-18, -6.181952722542219e-18, 5.0660455855585734e-18,
    -1.6618350693852048e-17, 2.1092325546314864e-17, -8.307950959627356e-18, 1.8560027823355852e-17,
    -2.4888518873597905e-17, 4.4229949554747315e-17, 3.397548559332142e-17, -3.07373792013847e-17,
    -3.1833882216350925e-17, -3.938876121973919e-18, -9.149239241180804e-19, 3.599743846939586e-17,
    -3.748764246125639e-17, -2.785373590779381e-17, -2.239429485856908e-17, -2.9237930089834585e-17,
    2.685492580212308e-17, -4.713528538503788e-17, -5.4267346029482773e-17, 2.6028017871307396e-17,
    -8.903591846974013e-18, -2.4128853204003212e-17, -3.058363205263577e-17, 2.789809900502368e-17,
    1.3751689964323675e-17, 2.169308759646737e-17, 9.9400563470175e-18, -2.5212767604971525e-17,
    -3.7397759448726e-17, -3.488611895632145e-17, -3.989161064307651e-17, 3.9598137234402294e-17,
    4.3538742607970387e-17, 5.3103007491432875e-17, 5.422955873465247e-17, 5.023567605577645e-17,
    9.346960920120906e-19, -3.408303836279946e-17, -4.306892322029408e-17, 3.287034671639441e-17,
    -7.603333785634003e-18, -3.769421986743112e-17, 2.823733943928343e-17, 2.1065619172826132e-17,
    -2.0978183882652005e-18, -4.9888733319242566e-17, 4.893484946270261e-17, -2.3207793837229205e-17,
    2.3190468138462996e-17])
_ATANH_HEAD = ((0.4, -2.2204460492503132e-17), (0.6666666666666666, 3.700743415417188e-17))
_ATANH_TAIL = (2.0 / 13.0, 2.0 / 11.0, 2.0 / 9.0, 2.0 / 7.0)


def vln(x):
    """Elementwise ln x of a positive (hi, lo) pair by Tang's table: x = 2^e f
    with f in [1, 2) (x's lo part carried into f), F_j = 1 + j/128 nearest f,
    s = (f - F_j) / (f + F_j) with |s| <= 1/512, and ln x = e ln 2 + ln F_j
    + 2 atanh s, the atanh series to s^13 in Horner form in s^2."""
    hi = np.asarray(x[0], dtype=float)
    if np.any(hi <= 0.0):
        raise ValueError("vln needs a positive argument")
    f, e = np.frexp(hi)
    f, e = 2.0 * f, e - 1
    j = np.rint((f - 1.0) * 128.0).astype(int)
    fj = 1.0 + j / 128.0
    flo = np.ldexp(x[1], -e)
    s = vdiv(_two_sum(f - fj, flo), vadd((f, flo), (fj, 0.0)))
    s2 = vmul(s, s)
    q = _horner(s2, _ATANH_TAIL, _ATANH_HEAD)
    at = vadd((2.0 * s[0], 2.0 * s[1]), vmul(s, vmul(s2, q)))
    lnf = vadd(vmul((e.astype(float), 0.0), (_LN2.hi, _LN2.lo)), (_LNF_HI[j], _LNF_LO[j]))
    return vadd(lnf, at)


def vsum(x):
    """DD sum of every element of a (hi, lo) pair, by pairwise addition."""
    hi, lo = np.ravel(x[0]), np.ravel(x[1])
    while hi.size > 1:
        if hi.size % 2:
            hi, lo = np.append(hi, 0.0), np.append(lo, 0.0)
        hi, lo = vadd((hi[0::2], lo[0::2]), (hi[1::2], lo[1::2]))
    return DD(hi[0], lo[0])
