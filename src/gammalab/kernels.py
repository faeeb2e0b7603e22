"""Scalar special-function kernels with attached error estimates.

All kernels are pure functions returning a :class:`FnEvalResult` (value plus
a claimed absolute-error bound).  The error fields are engineering bounds --
truncation estimate plus a rounding allowance -- kept honest by the test
suite rather than by formal proof.  Private ``_raw`` helpers return bare
floats and are what the quadrature/series hot loops call.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Callable, Iterable
from functools import lru_cache

from .errors import (
    DomainError,
    PoleError,
    RangeOverflowError,
    RouteInconsistencyError,
    UnsupportedOrderError,
)

__all__ = [
    "FnEvalResult",
    "ConstantsCache",
    "get_constants",
    "log_gamma",
    "digamma",
    "polygamma",
    "lambda_fn",
    "sici",
    "sine_integral",
    "exp_integral",
    "zeta_family",
    "stieltjes_gamma1",
    "log_barnes_g",
    "clausen_cl2",
    "bernoulli_poly",
]

_EPS = 2.220446049250313e-16


class ConstantsCache(namedtuple("ConstantsCache", (
        "gamma gamma1 log_2pi zeta2 zeta3 zeta_prime_2 zeta_prime_neg1 "
        "log_A catalan"))):
    """Read-only bundle of the constants the catalogs keep reaching for,
    every field a float."""
    __slots__ = ()


# each field the double nearest the constant (mpmath at 50 digits): Euler's
# gamma, the Stieltjes gamma_1, log 2 pi, zeta(2), zeta(3), zeta'(2),
# zeta'(-1), log A (Glaisher's A) and Catalan's G
_CONSTANTS = ConstantsCache(
    gamma=0.5772156649015329,
    gamma1=-0.07281584548367673,
    log_2pi=1.8378770664093456,
    zeta2=1.6449340668482264,
    zeta3=1.2020569031595942,
    zeta_prime_2=-0.9375482543158438,
    zeta_prime_neg1=-0.16542114370045094,
    log_A=0.24875447703378425,
    catalan=0.915965594177219,
)
_LOG_2PI = _CONSTANTS.log_2pi


def get_constants() -> ConstantsCache:
    """The stored constants, each correctly rounded."""
    return _CONSTANTS


class FnEvalResult:
    """A function value with a claimed absolute-error bound, read-only.
    Not a tuple: :func:`sici` returns a tuple of two of these."""

    __slots__ = ("value", "abs_err")

    def __init__(self, value: float | complex, abs_err: float) -> None:
        if abs_err < 0.0 or not math.isfinite(abs_err):
            raise ValueError("abs_err must be finite and non-negative")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "abs_err", abs_err)

    def __setattr__(self, name, *_):
        raise AttributeError(f"FnEvalResult.{name} is read-only")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"FnEvalResult(value={self.value!r}, abs_err={self.abs_err!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.value, self.abs_err) == (other.value, other.abs_err)

    def __hash__(self) -> int:
        return hash((self.value, self.abs_err))

    def __reduce__(self):
        return self.__class__, (self.value, self.abs_err)


def _require_finite(x: float, name: str = "x") -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


# ---------------------------------------------------------------------------
# one power-series loop; Bernoulli numbers (exact)
# ---------------------------------------------------------------------------

def _power_sum(coeffs: Iterable[float], pw: float, step: float,
               acc: float = 0.0) -> float:
    """acc + sum_k c_k pw step^k over ``coeffs``: every convergent power
    series of the package sums here.  It stops after the first term at most
    1e-18 of the sum, or at the end of the table."""
    for c in coeffs:
        t = c * pw
        acc += t
        if abs(t) <= 1e-18 * abs(acc):
            break
        pw *= step
    return acc


# B_0 .. B_30, exact reduced (numerator, denominator) pairs, denominator > 0
_BERNOULLI: tuple[tuple[int, int], ...] = (
    (1, 1), (-1, 2), (1, 6), (0, 1), (-1, 30), (0, 1), (1, 42), (0, 1),
    (-1, 30), (0, 1), (5, 66), (0, 1), (-691, 2730), (0, 1), (7, 6), (0, 1),
    (-3617, 510), (0, 1), (43867, 798), (0, 1), (-174611, 330), (0, 1),
    (854513, 138), (0, 1), (-236364091, 2730), (0, 1), (8553103, 6), (0, 1),
    (-23749461029, 870), (0, 1), (8615841276005, 14322))


def _bernoulli_float(n: int) -> float:
    # int / int is correctly rounded, as float(Fraction) is
    num, den = _BERNOULLI[n]
    return num / den


# ---------------------------------------------------------------------------
# Hurwitz zeta by Euler-Maclaurin; zeta(k), zeta'(k) at integer k (stored)
# ---------------------------------------------------------------------------

# terms summed directly before the Euler-Maclaurin tail, and its orders
_EM_FRONT = 24
_EM_ORDERS = 12


@lru_cache(maxsize=1024)
def _em_tail_coeffs(s: float) -> tuple[tuple[float, ...], ...]:
    """The Euler-Maclaurin tail coefficients of zeta(s, q) and of its first
    two s-derivatives, highest order first for Horner's rule in q^-2:
    T_k = B_2k/(2k)! (s)_(2k-1), T_k S1_k and T_k (S1_k^2 - S2_k), where
    S1_k and S2_k sum (s+j)^-1 and (s+j)^-2 over j < 2k - 1.  They depend
    on s alone (Johansson, Numer. Algorithms 2015), so each s builds them
    once."""
    s = float(s)
    c0, c1, c2 = [], [], []
    prod, sum_inv, sum_inv2 = s, 1.0 / s, 1.0 / (s * s)
    fact = 1.0
    for k in range(1, _EM_ORDERS + 1):
        fact *= (2 * k - 1) * (2 * k)
        for j in range(max(1, 2 * k - 3), 2 * k - 1):
            sj = s + j
            prod *= sj
            sum_inv += 1.0 / sj
            sum_inv2 += 1.0 / (sj * sj)
        t = _bernoulli_float(2 * k) / fact * prod
        c0.append(t)
        c1.append(t * sum_inv)
        c2.append(t * (sum_inv * sum_inv - sum_inv2))
    return tuple(c0[::-1]), tuple(c1[::-1]), tuple(c2[::-1])


def _hurwitz_em(s: float, a: float, order: int = 0) -> float:
    """Euler-Maclaurin evaluation of zeta(s, a) or its first/second
    s-derivative (``order`` 0, 1 or 2).  Requires s > 1, a > 0.

    zeta(s, a) = sum_{n<24} (a+n)^-s + q^(1-s)/(s-1) + q^-s/2
    + q^(-s-1) P_0(q^-2) with q = a + 24, where P_0 is the degree-11
    polynomial of :func:`_em_tail_coeffs`; the derivatives take d/ds of
    each piece, so their tails are q^(-s-1) times P_1 - log q P_0 and
    P_2 - 2 log q P_1 + log^2 q P_0."""
    coeffs = _em_tail_coeffs(s)
    q = a + _EM_FRONT
    qs = q ** (-s)
    q1s = q ** (1.0 - s)
    sm1 = s - 1.0
    w = 1.0 / (q * q)
    p0 = 0.0
    for c in coeffs[0]:
        p0 = p0 * w + c
    if order == 0:
        front = 0.0
        for n in range(_EM_FRONT):
            front += (a + n) ** (-s)
        return front + q1s / sm1 + 0.5 * qs + qs / q * p0
    p1 = 0.0
    for c in coeffs[1]:
        p1 = p1 * w + c
    lq = math.log(q)
    if order == 1:
        front1 = 0.0
        for n in range(_EM_FRONT):
            front1 -= math.log(a + n) * (a + n) ** (-s)
        return (front1 - q1s * (lq / sm1 + 1.0 / sm1 ** 2) - 0.5 * lq * qs
                + qs / q * (p1 - lq * p0))
    front2 = 0.0
    for n in range(_EM_FRONT):
        lg = math.log(a + n)
        front2 += lg * lg * (a + n) ** (-s)
    p2 = 0.0
    for c in coeffs[2]:
        p2 = p2 * w + c
    return (front2 + q1s * (lq * lq / sm1 + 2.0 * lq / sm1 ** 2
                            + 2.0 / sm1 ** 3) + 0.5 * lq * lq * qs
            + qs / q * (p2 - 2.0 * lq * p1 + lq * lq * p0))


# zeta(k) - 1 for k = 2 .. 53, zeta'(k) for k = 2 .. 93 and zeta''(2), each
# the double nearest the value (tests/make_tables.py).  Past each table the
# first two terms of the Dirichlet series are correctly rounded, for every k
# to 1100
_ZETA_M1 = (
    0.6449340668482264, 0.2020569031595943, 0.08232323371113819,
    0.03692775514336993, 0.01734306198444914, 0.008349277381922827,
    0.00407735619794434, 0.0020083928260822143, 0.0009945751278180853,
    0.0004941886041194645, 0.0002460865533080483, 0.00012271334757848915,
    6.124813505870483e-05, 3.058823630702049e-05, 1.528225940865187e-05,
    7.637197637899763e-06, 3.81729326499984e-06, 1.908212716553939e-06,
    9.539620338727962e-07, 4.769329867878064e-07, 2.38450502727733e-07,
    1.1921992596531106e-07, 5.960818905125948e-08, 2.980350351465228e-08,
    1.4901554828365043e-08, 7.45071178983543e-09, 3.725334024788457e-09,
    1.862659723513049e-09, 9.313274324196682e-10, 4.656629065033784e-10,
    2.3283118336765053e-10, 1.164155017270052e-10, 5.820772087902701e-11,
    2.9103850444971e-11, 1.4551921891041985e-11, 7.275959835057482e-12,
    3.637979547378651e-12, 1.818989650307066e-12, 9.094947840263888e-13,
    4.547473783042154e-13, 2.2737368458246524e-13, 1.136868407680228e-13,
    5.684341987627585e-14, 2.842170976889302e-14, 1.4210854828031608e-14,
    7.105427395210853e-15, 3.552713691337114e-15, 1.7763568435791204e-15,
    8.881784210930816e-16, 4.440892103143813e-16, 2.220446050798042e-16,
    1.1102230251410661e-16)

_ZETA_PRIME = (
    -0.9375482543158438, -0.19812624288563685, -0.06891126589612538,
    -0.02857378050946295, -0.012852165131795726, -0.006033516960875638,
    -0.002901952553710673, -0.001415982227241809, -0.0006970330081713937,
    -0.0003450222223683635, -0.00017138284585435377, -8.532390865593046e-05,
    -4.254149338178082e-05, -2.123108553300034e-05, -1.0602442032514314e-05,
    -5.296883357529712e-06, -2.647002978815879e-06, -1.32302369477849e-06,
    -6.613530207367108e-07, -3.306236767712906e-07, -1.652942541579519e-07,
    -8.264127237635775e-08, -4.1318686290136234e-08, -2.065869359501104e-08,
    -1.0329130384528033e-08, -5.1644930804760725e-09, -2.5822225094320892e-09,
    -1.2911032460593604e-09, -6.45548953880003e-10, -3.2277358732399237e-10,
    -1.6138649714844644e-10, -8.069314974264981e-11, -4.0346541929035525e-11,
    -2.0173259984146603e-11, -1.0086626332047546e-11, -5.0433119460396735e-12,
    -2.5216555663645905e-12, -1.2608276476320762e-12, -6.304137786330142e-13,
    -3.1520687425559474e-13, -1.5760343210751714e-13, -7.880171438033781e-14,
    -3.940085663236347e-14, -1.9700428130246968e-14, -9.85021400314532e-15,
    -4.925106980913296e-15, -2.462553483570199e-15, -1.2312767394896178e-15,
    -6.156383689796488e-16, -3.078191842347711e-16, -1.539095920323678e-16,
    -7.695479598784467e-17, -3.847739798447592e-17, -1.9238698989089155e-17,
    -9.619349493494977e-18, -4.8096747463976215e-18, -2.4048373730821884e-18,
    -1.20241868650222e-18, -6.01209343238152e-19, -3.0060467161475666e-19,
    -1.5030233580593856e-19, -7.515116790248935e-20, -3.7575583951084695e-20,
    -1.8787791975489024e-20, -9.393895987726736e-21, -4.6969479938574435e-21,
    -2.3484739969267466e-21, -1.174236998462715e-21, -5.87118499231138e-22,
    -2.935592496154959e-22, -1.4677962480772354e-22, -7.338981240385365e-23,
    -3.6694906201924115e-23, -1.8347453100961155e-23, -9.173726550480276e-24,
    -4.5868632752400375e-24, -2.2934316376199853e-24, -1.1467158188099816e-24,
    -5.733579094049871e-25, -2.866789547024923e-25, -1.4333947735124573e-25,
    -7.166973867562273e-26, -3.583486933781132e-26, -1.7917434668905645e-26,
    -8.958717334452817e-27, -4.479358667226407e-27, -2.2396793336132027e-27,
    -1.1198396668066012e-27, -5.599198334033006e-28, -2.7995991670165025e-28,
    -1.3997995835082512e-28, -6.998997917541256e-29)

_ZETA_PRIME2_AT_2 = 1.989280234298901


def _zeta_m1(k: int) -> float:
    """zeta(k) - 1 = zeta(k, 2) for integer k >= 2, correctly rounded."""
    return _ZETA_M1[k - 2] if k < 54 else 2.0 ** -k + 3.0 ** -k


def _zeta_int(k: int) -> float:
    """zeta(k) for integer k >= 2: 1 + zeta(k, 2) rounds once."""
    return 1.0 + _zeta_m1(k)


@lru_cache(maxsize=1)
def _one_minus_eta() -> tuple[float, ...]:
    """1 - eta(k) = sum_{n>=2} (-1)^n n^-k = 2^(1-k) - (1 - 2^(1-k))
    (zeta(k) - 1) for k = 2..80, from the stored zeta(k) - 1, each within
    2 ulps: the Dirichlet coefficients of the registry's alternating sums."""
    return tuple(2.0 ** (1 - k) - (1.0 - 2.0 ** (1 - k)) * _zeta_m1(k)
                 for k in range(2, 81))


def _zeta_prime_int(k: int) -> float:
    """zeta'(k) for integer k >= 2, correctly rounded."""
    if k < 94:
        return _ZETA_PRIME[k - 2]
    return -math.log(2.0) * 2.0 ** (-k) - math.log(3.0) * 3.0 ** (-k)


# ---------------------------------------------------------------------------
# log Gamma
# ---------------------------------------------------------------------------

_STIRLING_TERMS = 9


@lru_cache(maxsize=None)
def _stirling_coeffs() -> tuple[float, ...]:
    # B_2j/(2j (2j-1)), j = 1 .. _STIRLING_TERMS
    return tuple(_bernoulli_float(2 * j) / ((2 * j) * (2 * j - 1))
                 for j in range(1, _STIRLING_TERMS + 1))


def _stirling_lgamma(x: float) -> float:
    """Asymptotic series, reliable for x >= 10."""
    acc = (x - 0.5) * math.log(x) - x + 0.5 * _LOG_2PI
    inv2 = 1.0 / (x * x)
    pw = 1.0 / x
    for c in _stirling_coeffs():
        acc += c * pw
        pw *= inv2
    return acc


# (-1)^k (zeta(k) - 1 - 2^-k)/k = (-1)^k zeta(k, 3)/k, k = 2 .. 25, the
# coefficients of _lgamma1p's series, each the double nearest the value
# (tests/make_tables.py); the terms shrink like (|y|/3)^k, so the sum stops
# before the table's end for |y| <= 1/2
_LGAMMA1P_COEFFS = (
    0.19746703342411323, -0.025685634386531427, 0.004955808427784548,
    -0.0011355510286739853, 0.0002863436640748566, -7.66824831318324e-05,
    2.1388274743042423e-05, -6.140869564690491e-06, 1.8012627818085338e-06,
    -5.370321926785962e-07, 1.6216069233735823e-07, -4.946423680685744e-08,
    1.5212772050344947e-08, -4.710545468032904e-09, 1.4668966344919833e-09,
    -4.5900627351542783e-10, 1.4422218749110315e-10, -4.54780916546803e-11,
    1.4385873327305658e-11, -4.563265937212529e-12, 1.4510739168404548e-12,
    -4.624528056444812e-13, 1.4767816120227553e-13, -4.7245078278707445e-14)


def _lgamma1p(y: float) -> float:
    """log Gamma(1+y) for |y| <= 0.5, accurate near the zero at y=0.

    log Gamma(1+y) = -gamma y + sum_{k>=2} (-1)^k zeta(k)/k y^k, with the
    first two terms of zeta(k) = 1 + 2^-k + ... summed in closed form:
    (3/2 - gamma) y - log1p(y) - log1p(y/2) + sum_{k>=2} (-1)^k
    (zeta(k) - 1 - 2^-k)/k y^k."""
    return (_power_sum(_LGAMMA1P_COEFFS, y * y, y)
            + (((1.5 - _CONSTANTS.gamma) * y - math.log1p(0.5 * y))
               - math.log1p(y)))


def _lgamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        return _lgamma1p(x) - math.log(x)
    if x <= 1.5:
        return _lgamma1p(x - 1.0)
    if x <= 2.5:
        w = x - 2.0
        return _lgamma1p(w) + math.log1p(w)
    if x >= 10.0:
        v = _stirling_lgamma(x)
        if math.isinf(v):
            raise RangeOverflowError(f"log Gamma overflows at x={x}")
        return v
    shift = 0.0
    y = x
    while y < 10.0:
        shift += math.log(y)
        y += 1.0
    return _stirling_lgamma(y) - shift


def log_gamma(x: float) -> FnEvalResult:
    """log Gamma(x) for x > 0, via a shifted asymptotic evaluation."""
    x = _require_finite(x)
    v = _lgamma(x)
    return FnEvalResult(v, 1e-14 * max(1.0, abs(v)))


# ---------------------------------------------------------------------------
# digamma (real and complex)
# ---------------------------------------------------------------------------

_PSI_SHIFT_TO = 8.0
_PSI_TERMS = 7


@lru_cache(maxsize=None)
def _psi_coeffs() -> tuple[float, ...]:
    # B_2j/(2j), j = 1 .. _PSI_TERMS
    return tuple(_bernoulli_float(2 * j) / (2 * j)
                 for j in range(1, _PSI_TERMS + 1))


def _digamma_pos(x: float) -> float:
    """psi(x) for x > 0."""
    acc = 0.0
    while x < _PSI_SHIFT_TO:
        acc -= 1.0 / x
        x += 1.0
    acc += math.log(x) - 0.5 / x
    inv2 = 1.0 / (x * x)
    pw = inv2
    for c in _psi_coeffs():
        acc -= c * pw
        pw *= inv2
    return acc


def _sincos_pi(x: float) -> tuple[float, float]:
    """(sin pi x, cos pi x) from the exact d = x - n, n the integer nearest x
    (the lower at a tie), signed by (-1)^n: sin keeps its digits near every
    integer (IEEE 754-2008's sinPi), cos only to eps near a half-integer."""
    n = round(x)
    d = x - n
    if d == -0.5:
        n, d = n - 1, 0.5
    t = math.pi * d
    s, c = math.sin(t), math.cos(t)
    return (-s, -c) if n & 1 else (s, c)


def _versin(s: float, c: float) -> float:
    """1 - c for (s, c) = (sin t, cos t), as s^2/(1 + c) where c > 0: free
    of 1 - cos t's cancellation as t -> 0 mod 2 pi."""
    return s * s / (1.0 + c) if c > 0.0 else 1.0 - c


def _cot_pi(x: float) -> float:
    """cot(pi x) from :func:`_sincos_pi`."""
    s, c = _sincos_pi(x)
    if s == 0.0:
        raise PoleError(f"cot(pi*x) pole at x={x}")
    return c / s


@lru_cache(maxsize=1)
def _two_zeta_even() -> tuple[float, ...]:
    """2 zeta(2k) for k = 1..39, the coefficients of
    :func:`_one_over_x_minus_pi_cot`'s series."""
    return tuple(2.0 * _zeta_int(2 * k) for k in range(1, 40))


def _one_over_x_minus_pi_cot(x: float) -> float:
    """1/x - pi cot(pi x) for 0 < x < 1/2 by its series
    sum_k 2 zeta(2k) x^(2k-1), free of the difference's cancellation."""
    return _power_sum(_two_zeta_even(), x, x * x)


def _digamma_real(x: float) -> float:
    if x <= 0.0:
        if x == math.floor(x):
            raise PoleError(f"digamma pole at non-positive integer x={x}")
        # reflection: psi(x) = psi(1-x) - pi*cot(pi*x)
        return _digamma_pos(1.0 - x) - math.pi * _cot_pi(x)
    return _digamma_pos(x)


def _psi_pair(h: float) -> float:
    """psi(h) + psi(-h) as psi(1 + h) + psi(1 - h), which is exact: the
    poles 1/h and -1/h cancel."""
    return _digamma_real(1.0 + h) + _digamma_real(1.0 - h)


def _digamma_complex(z: complex) -> complex:
    acc = 0.0 + 0.0j
    while abs(z) < _PSI_SHIFT_TO:
        if z == 0:
            raise PoleError("digamma pole at 0")
        acc -= 1.0 / z
        z += 1.0
    acc += cmath.log(z) - 0.5 / z
    if abs(z) > 1e150:  # z * z would overflow; the terms below are < eps
        return acc
    inv2 = 1.0 / (z * z)
    pw = inv2
    for c in _psi_coeffs():
        acc -= c * pw
        pw *= inv2
    return acc


def digamma(z: float | complex) -> FnEvalResult:
    """psi(z); real arguments give exactly-real results."""
    try:
        if isinstance(z, complex) and z.imag != 0.0:
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise DomainError("digamma requires finite arguments")
            v = _digamma_complex(z)
        else:
            x = _require_finite(z.real if isinstance(z, complex) else z)
            if x <= 0.0 and x == math.floor(x):
                raise PoleError(f"digamma pole at non-positive integer x={x}")
            v = _digamma_real(x)
            if isinstance(z, complex):
                v = complex(v, 0.0)
        err = 1e-13 * max(1.0, abs(v))
    except OverflowError:  # abs() of a complex near the largest float
        v = math.inf
    if not cmath.isfinite(v):  # -1/z, for |z| below ~5.6e-309
        raise RangeOverflowError(f"digamma overflows at z={z}")
    return FnEvalResult(v, err)


def _psi1(x: float) -> float:
    """trigamma via psi'(x) = zeta(2, x)."""
    return _hurwitz_em(2.0, x)


def _psi2(x: float) -> float:
    """tetragamma via psi''(x) = -2 zeta(3, x)."""
    return -2.0 * _hurwitz_em(3.0, x)


def polygamma(k: int, x: float) -> FnEvalResult:
    """psi'(x) or psi''(x), through the Hurwitz-zeta relation."""
    if k not in (1, 2):
        raise UnsupportedOrderError(f"polygamma order must be 1 or 2, got {k}")
    x = _require_finite(x)
    if x <= 0.0:
        raise DomainError(f"polygamma requires x > 0, got {x}")
    try:
        v = _psi1(x) if k == 1 else _psi2(x)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise RangeOverflowError(f"polygamma({k}, x) overflows at x={x}")
    return FnEvalResult(v, 1e-13 * max(1.0, abs(v)))


# ---------------------------------------------------------------------------
# Lambda: the regularised sum  lim ( sum j/(j^2+v^2) - log n )
# ---------------------------------------------------------------------------

# past this |v| the asymptotic expansion is exact to double precision, where
# the direct sum would need 4|v| terms
_LAMBDA_V_ASYMPTOTIC = 1e4


def _lambda_tail(c: float, n_last: int
                 ) -> tuple[dict[int, float], Callable[[], dict[int, float]]]:
    """The zeta expansion ``(omitted, build)`` of the lambda sum past
    ``n_last``, ``build()`` giving its orders: sum_j (-c)^j n^(-2j-1)
    (``quad_tail``) plus sum_k (-1)^k n^-k / k from -log(1+1/n), kept to
    k = 40; the two n^-1 orders cancel."""
    from .series import quad_tail
    omitted, quad = quad_tail(-c, {-1: 1.0}, n_last)
    omitted[41] = omitted.get(41, 0.0) + 1.0 / 41.0

    def build() -> dict[int, float]:
        tail = quad()
        del tail[1]
        for k in range(2, 41):
            tail[k] = tail.get(k, 0.0) + (-1.0) ** k / k
        return tail
    return omitted, build


def _lambda_sum(c: float, n_min: int = 1, cap: int | None = None):
    """sum_{n>=1} [n/(n^2+c) - log(1+1/n)] as a SeriesResult, lambda(v) at
    c = v^2: the direct series of :func:`_lambda_series`, the terms past N
    through :func:`_lambda_tail`, N as ``zeta_tail_sum`` picks it from
    ``n_min`` to ``cap``.
    """
    from .series import zeta_tail_sum
    return zeta_tail_sum(lambda n_last: (n / (n * n + c) - math.log1p(1.0 / n)
                                         for n in range(1, n_last + 1)),
                         lambda n: _lambda_tail(c, n), n_min=n_min, cap=cap)


def _lambda_series(v: float) -> tuple[float, float]:
    """lambda(v) by the direct series, independent of the digamma route;
    returns (value, err).  N = max(64, 4|v|) keeps the tail expansion
    convergent; past |v| = 1e4 it is -log|v| - 1/(12 v^2), whose remainder
    is below 1/(12 v^4)."""
    if abs(v) > _LAMBDA_V_ASYMPTOTIC:
        w = 1.0 / (v * v)
        val = -math.log(abs(v)) - w / 12.0
        return val, w * w / 12.0 + 4.0 * _EPS * abs(val)
    n_last = max(64, math.ceil(4.0 * abs(v)))
    r = _lambda_sum(v * v, n_last, n_last)
    return r.value, r.abs_err


def _lambda_digamma(v: float) -> tuple[float, float]:
    if v == 0.0:
        return _CONSTANTS.gamma, 1e-14
    val = -_digamma_complex(complex(1.0, v)).real
    return val, 1e-13 * max(1.0, abs(val))


def lambda_fn(v: float) -> FnEvalResult:
    """The log-regularised sum; computed by two routes that must agree."""
    v = _require_finite(v, "v")
    a_val, a_err = _lambda_digamma(v)
    b_val, b_err = _lambda_series(v)
    budget = a_err + b_err
    # written so that a NaN route fails it too
    if not abs(a_val - b_val) <= 10.0 * max(budget, 1e-12):
        raise RouteInconsistencyError(
            f"lambda routes disagree at v={v}: {a_val} vs {b_val}")
    return FnEvalResult(a_val, max(a_err, b_err))


# ---------------------------------------------------------------------------
# sine / cosine integrals
# ---------------------------------------------------------------------------

def _e1_cf(z: complex) -> complex:
    """E1(z) by a modified-Lentz continued fraction; |z| should be >= ~3."""
    tiny = 1e-300
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 40_000):
        a = -float(i * i)
        b += 2.0
        d = a * d + b
        if d == 0:
            d = tiny
        c = b + a / c
        if c == 0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 5e-17:
            break
    return h * cmath.exp(-z)


@lru_cache(maxsize=1)
def _sici_coeffs() -> tuple[tuple[float, ...], ...]:
    """The Maclaurin coefficients in -x^2 of Si(x)/x, Cin(x)/x^2 and
    (x - sin x)/x^3, 1/((2k+1)(2k+1)!), 1/((2k+2)(2k+2)!) and 1/(2k+3)!
    for k < 20, each correctly rounded; for x <= 4 the sums stop by k = 16."""
    return (tuple(1 / (j * math.factorial(j)) for j in range(1, 40, 2)),
            tuple(1 / (j * math.factorial(j)) for j in range(2, 41, 2)),
            tuple(1 / math.factorial(j) for j in range(3, 42, 2)))


def _cin(x: float) -> float:
    """Cin(x) = int_0^x (1 - cos t)/t dt = gamma + log x - Ci(x) by its
    power series, for |x| <= 4: free of the cancellation of
    Ci(x) - gamma - log x as x -> 0."""
    x2 = x * x
    return _power_sum(_sici_coeffs()[1], x2, -x2)


def _sici_raw(x: float) -> tuple[float, float]:
    """(Si(x), Ci(x)) for x > 0."""
    if x <= 4.0:
        # below x ~ 1e-306 x^2 underflows to 0 and the sum stops at Si = x
        si = _power_sum(_sici_coeffs()[0], x, -x * x)
        return si, _CONSTANTS.gamma + math.log(x) - _cin(x)
    e1 = _e1_cf(complex(0.0, x))
    return e1.imag + 0.5 * math.pi, -e1.real


def sici(x: float) -> tuple[FnEvalResult, FnEvalResult]:
    """(Si(x), Ci(x)); Ci has a logarithmic singularity at 0."""
    x = _require_finite(x)
    if x < 0.0:
        raise DomainError(f"sici requires x >= 0, got {x}")
    if x == 0.0:
        raise PoleError("Ci(0) diverges logarithmically; "
                        "use sine_integral for Si(0)")
    si, ci = _sici_raw(x)
    err = 1e-14 + 1e-15 * abs(si)
    return (FnEvalResult(si, err), FnEvalResult(ci, 1e-14 + 1e-15 * abs(ci)))


def sine_integral(x: float) -> FnEvalResult:
    """Si(x) alone, defined for all x >= 0."""
    x = _require_finite(x)
    if x < 0.0:
        raise DomainError(f"sine_integral requires x >= 0, got {x}")
    if x == 0.0:
        return FnEvalResult(0.0, 0.0)
    si, _ = _sici_raw(x)
    return FnEvalResult(si, 1e-14 + 1e-15 * abs(si))


# the series catalog's Si/si/Ci at multiples of pi; no run asks past n = 40
@lru_cache(maxsize=None)
def _sici_at_pi_mult(n: int, twice: bool) -> tuple[float, float]:
    return _sici_raw((2.0 * math.pi if twice else math.pi) * n)


def _si_small_at_pi_mult(n: int, twice: bool = True) -> float:
    """si(2*pi*n) (twice=True) or si(pi*n)."""
    return _sici_at_pi_mult(n, twice)[0] - 0.5 * math.pi


def _ci_at_2pi_mult(n: int) -> float:
    """Ci(2*pi*n)."""
    return _sici_at_pi_mult(n, True)[1]


# ---------------------------------------------------------------------------
# exponential integral  Ei(x) for x < 0
# ---------------------------------------------------------------------------

# Ein's series stops after k = 20: for 0 <= u <= 1 the 20th term is below
# 3e-20 of Ein(u) >= 0.79 u
_EIN_TERMS = 20


def _ein(u: float) -> float:
    """Ein(u) = sum_{k>=1} (-1)^(k+1) u^k/(k k!) for 0 <= u <= 1, the entire
    part of E1(u) = Ein(u) - gamma - log u (DLMF 6.2.3), its rounded terms
    summed exactly rounded by ``math.fsum``."""
    terms, t = [], -1.0
    for k in range(1, _EIN_TERMS + 1):
        t *= -u / k     # (-1)^(k+1) u^k/k!
        terms.append(t / k)
    return math.fsum(terms)


def exp_integral(x: float) -> FnEvalResult:
    """Ei(x) for strictly negative x."""
    x = _require_finite(x)
    if x >= 0.0:
        raise DomainError(f"exp_integral requires x < 0, got {x}")
    u = -x
    if u <= 1.0:
        # Ei(-u) = -E1(u) = gamma + log u - Ein(u)
        v = _CONSTANTS.gamma + math.log(u) - _ein(u)
    else:
        v = -_e1_cf(complex(u, 0.0)).real
    return FnEvalResult(v, 1e-14 * max(1.0, abs(v)))


# ---------------------------------------------------------------------------
# zeta family dispatcher
# ---------------------------------------------------------------------------

# from this s on, zeta(s, a) is summed term by term: the terms fall fast or
# underflow, while the Euler-Maclaurin tail's s (s+1) ... q^-s turns into NaN
_S_DIRECT = 100.0


def _hurwitz_direct(s: float, a: float, order: int) -> float:
    """zeta(s, a) (``order`` 0) or its s-derivative (1) for s >= _S_DIRECT,
    term by term, until the rest past y = a + n >= 1.02, at most
    y^-s (1 + y/(s-1)) (1 + |log y|)^order, is below 2^-60 of the sum."""
    total, x = 0.0, a
    while True:
        total += x ** -s * (-math.log(x)) ** order
        x += 1.0
        rest = x ** -s * (1 + x / (s - 1)) * (1 + abs(math.log(x))) ** order
        if x >= 1.02 and rest <= 2.0 ** -60 * abs(total):
            return total


def zeta_family(kind: str, s: float | None = None,
                a: float | None = None) -> FnEvalResult:
    """zeta(s), zeta(s,a), zeta'(s), zeta''(2) and zeta'(-1), the last two
    stored: :data:`_ZETA_PRIME2_AT_2` and the constant of
    :func:`get_constants`."""
    if kind in ("zeta", "zeta_prime", "hurwitz"):
        if s is None or not _require_finite(s, "s") > 1.0:
            raise DomainError(f"{kind} requires s > 1, got {s}")
        if kind != "hurwitz":
            a = 1.0
        elif a is None or not _require_finite(a, "a") > 0.0:
            raise DomainError(f"hurwitz requires a > 0, got {a}")
        s, a, order = float(s), float(a), int(kind == "zeta_prime")
        try:
            v = (_hurwitz_em(s, a, order) if s < _S_DIRECT
                 else _hurwitz_direct(s, a, order))
        except OverflowError:
            v = math.inf
        if not math.isfinite(v):
            raise RangeOverflowError(f"{kind} overflows at s={s}, a={a}")
    elif kind == "zeta_prime2_at_2":
        v = _ZETA_PRIME2_AT_2
    elif kind == "zeta_prime_neg1":
        v = _CONSTANTS.zeta_prime_neg1
    else:
        raise DomainError(f"unknown zeta kind {kind!r}")
    return FnEvalResult(v, 1e-13 * max(1.0, abs(v)))


def _hurwitz(s: float, a: float) -> float:
    return _hurwitz_em(s, a)


# a T_n batch asks for the same zeta'(k, M+1) for every n
@lru_cache(maxsize=1024)
def _hurwitz_prime(s: float, a: float) -> float:
    """d/ds zeta(s, a): used for the log-weighted tail expansions."""
    return _hurwitz_em(s, a, order=1)


# ---------------------------------------------------------------------------
# first Stieltjes constant
# ---------------------------------------------------------------------------

def stieltjes_gamma1() -> FnEvalResult:
    """gamma_1, the stored double, within half an ulp."""
    g1 = _CONSTANTS.gamma1
    return FnEvalResult(g1, 0.5 * math.ulp(g1))


# ---------------------------------------------------------------------------
# Barnes G
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _lnG_taylor_coeffs() -> tuple[float, ...]:
    # log G(1+w) = (log(2pi)-1)/2 * w - (1+gamma)/2 * w^2
    #              + sum_{n>=2} (-1)^n zeta(n)/(n+1) * w^(n+1)
    return tuple((-1.0) ** n * _zeta_int(n) / (n + 1) for n in range(2, 60))


def _lnG_base(w: float) -> float:
    """log G(1+w) for |w| <= 0.5."""
    return _power_sum(_lnG_taylor_coeffs(), w ** 3, w,
                      0.5 * (_LOG_2PI - 1.0) * w
                      - 0.5 * (1.0 + _CONSTANTS.gamma) * w * w)


def _lnG(x: float) -> float:
    """log G(x) for 0 < x <= 4, via Taylor plus the functional equation."""
    if x < 0.5:
        return _lnG(x + 1.0) - _lgamma(x)
    if x > 1.5:
        return _lnG(x - 1.0) + _lgamma(x - 1.0)
    return _lnG_base(x - 1.0)


def log_barnes_g(x: float) -> FnEvalResult:
    """log G(x) on (0, 4]."""
    x = _require_finite(x)
    if x <= 0.0:
        raise DomainError(f"log_barnes_g requires x > 0, got {x}")
    if x > 4.0:
        raise DomainError(f"log_barnes_g implemented only on (0, 4], got {x}")
    v = _lnG(x)
    return FnEvalResult(v, 1e-13 * max(1.0, abs(v)))


# ---------------------------------------------------------------------------
# Clausen function Cl2
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cl2_coeffs() -> tuple[float, ...]:
    # Cl2(t) = t - t*log t + sum zeta(2n)/(n(2n+1)) * t * (t/2pi)^(2n)
    return tuple(_zeta_int(2 * n) / (n * (2 * n + 1)) for n in range(1, 40))


# 2 pi is held as an integer times 2^-_TWO_PI_BITS: a double below 2^1024
# is a multiple n < 2^1022 of 2 pi plus a remainder, and the remainder taken
# against this 2 pi is off by at most n 2^-1200 < 2^-178
_TWO_PI_BITS = 1200


@lru_cache(maxsize=1)
def _two_pi_fixed() -> int:
    """2 pi 2^_TWO_PI_BITS to within 1, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) in integers with 32 guard bits."""
    one = 1 << (_TWO_PI_BITS + 32)

    def atan_inv(x: int) -> int:
        term = total = one // x
        k, sign = 1, 1
        while term:
            term //= x * x
            k += 2
            sign = -sign
            total += sign * (term // k)
        return total

    return (32 * atan_inv(5) - 8 * atan_inv(239)) >> 32


def _reduce_2pi(theta: float) -> float:
    """theta - 2 pi n for the integer n nearest theta/(2 pi), correctly
    rounded for every finite theta (Payne and Hanek, SIGNUM Newsl. 1983,
    with Python integers): theta = m/d exactly, d a power of 2."""
    m, d = theta.as_integer_ratio()
    two_pi = _two_pi_fixed()
    half = two_pi >> 1
    r = ((m << (_TWO_PI_BITS + 1 - d.bit_length())) + half) % two_pi - half
    return r / (1 << _TWO_PI_BITS)


def _cl2(theta: float) -> float:
    t = theta if abs(theta) <= math.pi else _reduce_2pi(theta)
    if t < 0.0:
        return -_cl2(-t)
    if t == 0.0:
        return 0.0
    r = (t / (2.0 * math.pi)) ** 2
    return _power_sum(_cl2_coeffs(), t * r, r, t - t * math.log(t))


def clausen_cl2(theta: float) -> FnEvalResult:
    """Cl2(theta) = sum sin(n theta)/n^2, with periodic reduction."""
    theta = _require_finite(theta, "theta")
    v = _cl2(theta)
    return FnEvalResult(v, 2e-15 * (1.0 + abs(v)))


# ---------------------------------------------------------------------------
# Bernoulli polynomials (exact rational coefficients, n <= 12)
# ---------------------------------------------------------------------------

_BPOLY_MAX = 12


@lru_cache(maxsize=None)
def _bpoly_coeffs(n: int) -> tuple[float, ...]:
    """Coefficients of B_n(x), highest power first; past n = 30, the end
    of the Bernoulli table, an IndexError."""
    return tuple(math.comb(n, k) * _BERNOULLI[k][0] / _BERNOULLI[k][1]
                 for k in range(n + 1))


def _bpoly(n: int, x: float) -> float:
    acc = 0.0
    for c in _bpoly_coeffs(n):
        acc = acc * x + c
    return acc


def bernoulli_poly(n: int, x: float) -> FnEvalResult:
    """B_n(x) by exact polynomial evaluation, for 0 <= n <= 12."""
    if not isinstance(n, int) or n < 0:
        raise UnsupportedOrderError(f"order must be a non-negative int, got {n}")
    if n > _BPOLY_MAX:
        raise UnsupportedOrderError(f"order capped at {_BPOLY_MAX}, got {n}")
    x = _require_finite(x)
    v = _bpoly(n, x)
    try:
        scale = math.fsum(abs(c) * max(1.0, abs(x)) ** k
                          for k, c in enumerate(reversed(_bpoly_coeffs(n))))
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):  # scale bounds |B_n(x)| too
        raise RangeOverflowError(f"B_{n}(x) overflows at x={x}")
    return FnEvalResult(v, (n + 1) * _EPS * scale)
