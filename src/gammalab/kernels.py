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
from functools import lru_cache
from itertools import accumulate
from typing import Callable, NamedTuple

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
_LOG_2PI = math.log(2.0 * math.pi)


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
# Bernoulli numbers (exact) and derived coefficient tables
# ---------------------------------------------------------------------------

# B_0, B_1, ...: one exact table of reduced (numerator, denominator) pairs,
# denominator > 0, grown only when a larger n is asked for.  It is rebound,
# never mutated, so concurrent callers at worst recompute.
_BERNOULLI: tuple[tuple[int, int], ...] = ((1, 1),)


def _bernoulli_fractions(n_max: int) -> tuple[tuple[int, int], ...]:
    """B_0 .. B_{n_max}, exactly: B_m = -sum_{k<m} C(m+1, k) B_k / (m+1)."""
    global _BERNOULLI
    if len(_BERNOULLI) <= n_max:
        bs = list(_BERNOULLI)
        for m in range(len(bs), n_max + 1):
            den = math.lcm(*(q for _, q in bs))
            num = -sum(math.comb(m + 1, k) * p * (den // q)
                       for k, (p, q) in enumerate(bs))
            den *= m + 1
            g = math.gcd(num, den)
            bs.append((num // g, den // g))
        _BERNOULLI = tuple(bs)
    return _BERNOULLI[:n_max + 1]


@lru_cache(maxsize=None)
def _bernoulli_float(n: int) -> float:
    # int / int is correctly rounded, as float(Fraction) is
    num, den = _bernoulli_fractions(n)[n]
    return num / den


# ---------------------------------------------------------------------------
# Hurwitz zeta by Euler-Maclaurin; zeta(k), zeta'(k) at integer k (cached)
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


@lru_cache(maxsize=None)
def _zeta_int(k: int) -> float:
    """zeta(k) for integer k >= 2."""
    if k > 52:
        # 2^-k already below double precision relative to 1
        return 1.0 + 2.0 ** (-k) + 3.0 ** (-k)
    return _hurwitz_em(float(k), 1.0)


@lru_cache(maxsize=None)
def _zeta_prime_int(k: int) -> float:
    """zeta'(k) for integer k >= 2."""
    if k > 56:
        return -math.log(2.0) * 2.0 ** (-k) - math.log(3.0) * 3.0 ** (-k)
    return _hurwitz_em(float(k), 1.0, order=1)


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


# the series of _lgamma1p, whose terms shrink like (|y|/3)^k, stops before
# k = 26 for |y| <= 1/2
_LGAMMA1P_ORDER = 25


@lru_cache(maxsize=None)
def _lgamma1p_coeffs() -> tuple[float, ...]:
    # (-1)^k (zeta(k) - 1 - 2^-k)/k, k = 2 .. _LGAMMA1P_ORDER; the
    # Hurwitz zeta(k, 3) is that difference without the cancellation
    return tuple((-1.0) ** k * _hurwitz_em(float(k), 3.0) / k
                 for k in range(2, _LGAMMA1P_ORDER + 1))


def _lgamma1p(y: float) -> float:
    """log Gamma(1+y) for |y| <= 0.5, accurate near the zero at y=0.

    log Gamma(1+y) = -gamma y + sum_{k>=2} (-1)^k zeta(k)/k y^k, with the
    first two terms of zeta(k) = 1 + 2^-k + ... summed in closed form:
    (3/2 - gamma) y - log1p(y) - log1p(y/2) + sum_{k>=2} (-1)^k
    (zeta(k) - 1 - 2^-k)/k y^k."""
    acc = 0.0
    pw = y * y
    for c in _lgamma1p_coeffs():
        t = c * pw
        acc += t
        if abs(t) < 1e-18 * (abs(acc) + 1e-30):
            break
        pw *= y
    return acc + (((1.5 - _euler_gamma()) * y - math.log1p(0.5 * y))
                  - math.log1p(y))


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
    acc = 0.0
    x2 = x * x
    pw = x
    for z in _two_zeta_even():
        t = z * pw
        acc += t
        if t < 1e-18 * acc:
            break
        pw *= x2
    return acc


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
    inv2 = 1.0 / (z * z)
    pw = inv2
    for c in _psi_coeffs():
        acc -= c * pw
        pw *= inv2
    return acc


def digamma(z: float | complex) -> FnEvalResult:
    """psi(z); real arguments give exactly-real results."""
    if isinstance(z, complex) and z.imag != 0.0:
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise DomainError("digamma requires finite arguments")
        v = _digamma_complex(z)
        return FnEvalResult(v, 1e-13 * max(1.0, abs(v)))
    x = _require_finite(z.real if isinstance(z, complex) else z)
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"digamma pole at non-positive integer x={x}")
    v = _digamma_real(x)
    if isinstance(z, complex):
        return FnEvalResult(complex(v, 0.0), 1e-13 * max(1.0, abs(v)))
    return FnEvalResult(v, 1e-13 * max(1.0, abs(v)))


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
    v = _psi1(x) if k == 1 else _psi2(x)
    return FnEvalResult(v, 1e-13 * max(1.0, abs(v)))


@lru_cache(maxsize=1)
def _euler_gamma() -> float:
    # gamma = -psi(1); deeper shift than the general kernel, since this
    # constant feeds nearly every closed form downstream
    acc = 0.0
    x = 1.0
    while x < 24.0:
        acc -= 1.0 / x
        x += 1.0
    acc += math.log(x) - 0.5 / x
    inv2 = 1.0 / (x * x)
    pw = inv2
    for j in range(1, 10):
        acc -= _bernoulli_float(2 * j) / (2 * j) * pw
        pw *= inv2
    return -acc


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
        g = _euler_gamma()
        return g, 1e-14
    val = -_digamma_complex(complex(1.0, v)).real
    return val, 1e-13 * max(1.0, abs(val))


def lambda_fn(v: float) -> FnEvalResult:
    """The log-regularised sum; computed by two routes that must agree."""
    v = _require_finite(v, "v")
    a_val, a_err = _lambda_digamma(v)
    b_val, b_err = _lambda_series(v)
    budget = a_err + b_err
    if abs(a_val - b_val) > 10.0 * max(budget, 1e-12):
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


def _cin(x: float) -> float:
    """Cin(x) = int_0^x (1 - cos t)/t dt = gamma + log x - Ci(x) by its
    power series, for |x| <= 4: free of the cancellation of
    Ci(x) - gamma - log x as x -> 0."""
    x2 = x * x
    cin = 0.0
    v = -1.0
    k = 0
    while True:
        k += 1
        v *= -x2 / ((2 * k - 1) * (2 * k))
        t = v / (2 * k)
        cin += t
        if abs(t) < 1e-18 * max(abs(cin), 1e-30):
            return cin


def _sici_raw(x: float) -> tuple[float, float]:
    """(Si(x), Ci(x)) for x > 0."""
    if x <= 4.0:
        x2 = x * x
        si = x
        u = x
        k = 0
        while True:
            k += 1
            u *= -x2 / ((2 * k) * (2 * k + 1))
            t = u / (2 * k + 1)
            si += t
            # <=: below x ~ 1e-306 both sides underflow to 0 (Si(x) = x)
            if abs(t) <= 1e-18 * abs(si):
                break
        return si, _euler_gamma() + math.log(x) - _cin(x)
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


# lattice caches: the series catalog needs Si/si/Ci at multiples of pi.
# Only the exact values (n <= 200) are cached: past that the asymptotic
# series costs less than a cache entry, and long sums would fill the cache.
@lru_cache(maxsize=None)
def _sici_at_pi_mult(n: int, twice: bool) -> tuple[float, float]:
    return _sici_raw((2.0 * math.pi if twice else math.pi) * n)


def _si_small_at_pi_mult(n: int, twice: bool = True) -> float:
    """si(2*pi*n) (twice=True) or si(pi*n); asymptotic beyond n=200."""
    if n <= 200:
        return _sici_at_pi_mult(n, twice)[0] - 0.5 * math.pi
    x = (2.0 * math.pi if twice else math.pi) * n
    sgn = 1.0 if twice else (-1.0) ** (n % 2)
    x2 = x * x
    f = (1.0 / x) * (1.0 - 2.0 / x2 + 24.0 / (x2 * x2)
                     - 720.0 / (x2 * x2 * x2))
    return -sgn * f


def _ci_at_2pi_mult(n: int) -> float:
    """Ci(2*pi*n); asymptotic beyond n=200."""
    if n <= 200:
        return _sici_at_pi_mult(n, True)[1]
    x = 2.0 * math.pi * n
    x2 = x * x
    return -(1.0 / x2) * (1.0 - 6.0 / x2 + 120.0 / (x2 * x2))


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
        v = _euler_gamma() + math.log(u) - _ein(u)
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
    """zeta(s), zeta(s,a), zeta'(s), zeta''(2) and zeta'(-1).

    zeta'(-1) is *constructed* from zeta'(2) through
    zeta'(-1) = (1 - gamma - log 2pi)/12 + zeta'(2)/(2 pi^2),
    which doubles as a cross-check against its independently tabulated value.
    """
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
        v = _hurwitz_em(2.0, 1.0, order=2)
    elif kind == "zeta_prime_neg1":
        g = _euler_gamma()
        v = (1.0 - g - _LOG_2PI) / 12.0 + _hurwitz_em(2.0, 1.0, order=1) / (
            2.0 * math.pi ** 2)
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

@lru_cache(maxsize=1)
def _gamma1() -> tuple[float, float]:
    """(gamma_1, err) as sum_{n>=1} g(n), g(n) = log n/n - (log^2(n+1) -
    log^2 n)/2, whose partial sums are sum_{k<=N} log k/k - log^2(N+1)/2.

    With L = log(1+1/n), g(n) = log n (1/n - L) - L^2/2
    = sum_{k>=2} (-1)^k (log n - H_(k-1)) n^-k / k, the tail past N = 64.
    """
    from .series import zeta_tail_sum
    n_last, k_next = 64, 11  # 65^-10 < 1e-17
    h = list(accumulate(1.0 / j for j in range(1, k_next)))  # H_1, H_2, ...
    log_tail = {k: (-1.0) ** k / k for k in range(2, k_next)}

    def term(n: int) -> float:
        e = math.log1p(1.0 / n)
        return math.log(n) * (1.0 / n - e) - 0.5 * e * e
    r = zeta_tail_sum(lambda n: map(term, range(1, n + 1)),
                      {k: -d * h[k - 2] for k, d in log_tail.items()},
                      log_tail, omitted={k_next: h[k_next - 2] / k_next},
                      log_omitted={k_next: 1.0 / k_next}, n_min=n_last,
                      cap=n_last)
    return r.value, r.abs_err


def stieltjes_gamma1() -> FnEvalResult:
    """gamma_1, from a telescoped form of its limit definition."""
    return FnEvalResult(*_gamma1())


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
    acc = 0.5 * (_LOG_2PI - 1.0) * w - 0.5 * (1.0 + _euler_gamma()) * w * w
    pw = w ** 3
    for c in _lnG_taylor_coeffs():
        t = c * pw
        acc += t
        if abs(t) < 1e-18 * (abs(acc) + 1e-30):
            break
        pw *= w
    return acc


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
    acc = t - t * math.log(t)
    r = (t / (2.0 * math.pi)) ** 2
    pw = t * r
    for c in _cl2_coeffs():
        term = c * pw
        acc += term
        if abs(term) < 1e-18 * (abs(acc) + 1e-30):
            break
        pw *= r
    return acc


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
    """Coefficients of B_n(x), highest power first."""
    return tuple(math.comb(n, k) * num / den
                 for k, (num, den) in enumerate(_bernoulli_fractions(n)))


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
    scale = math.fsum(abs(c) * max(1.0, abs(x)) ** k
                      for k, c in enumerate(reversed(_bpoly_coeffs(n))))
    return FnEvalResult(v, (n + 1) * _EPS * scale)


# ---------------------------------------------------------------------------
# shared constants
# ---------------------------------------------------------------------------

class ConstantsCache(NamedTuple):
    """Read-only bundle of the constants the catalogs keep reaching for."""

    gamma: float
    gamma1: float
    log_2pi: float
    zeta2: float
    zeta3: float
    zeta_prime_2: float
    zeta_prime_neg1: float
    log_A: float
    catalan: float


@lru_cache(maxsize=1)
def get_constants() -> ConstantsCache:
    from .series import cvz_alternating
    g = _euler_gamma()
    zp2 = _hurwitz_em(2.0, 1.0, order=1)
    zp_neg1 = (1.0 - g - _LOG_2PI) / 12.0 + zp2 / (2.0 * math.pi ** 2)
    return ConstantsCache(
        gamma=g,
        gamma1=_gamma1()[0],
        log_2pi=_LOG_2PI,
        zeta2=math.pi ** 2 / 6.0,
        zeta3=_zeta_int(3),
        zeta_prime_2=zp2,
        zeta_prime_neg1=zp_neg1,
        log_A=1.0 / 12.0 - zp_neg1,
        # beta(2) = sum (-1)^k/(2k+1)^2
        catalan=cvz_alternating(lambda k: 1.0 / (2 * k + 1) ** 2, 40)[0],
    )
