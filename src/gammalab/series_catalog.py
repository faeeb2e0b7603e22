"""The named-series catalog: every slow sum the identity registry needs.

Each entry returns a :class:`SeriesResult` whose ``abs_err`` covers both
rounding and truncation.  Most entries sum their first N terms directly
and close the rest with an analytic Hurwitz-zeta tail, in one call of
:func:`~gammalab.series.zeta_tail_sum`: the entry passes its terms as a
function of N, its expansion once, and its cap, and ``zeta_tail_sum``
takes the smallest N whose truncation bound, from the first order the
tail leaves out and the same bound it reports as ``abs_err``, is at most
:data:`~gammalab.series.TARGET_ERR`.  The CVZ entries take the
acceleration order for that target.  The sums whose terms halve (S-4.27,
S-5.45.2, S-5.45.3, S-5.46.2) and the ``PS-*`` families sum in
:func:`~gammalab.kernels._power_sum`, to the first term at most 1e-18 of
the sum, and bound the rest by |next term| / (1 - r), where r bounds the
ratio of consecutive terms.

``max_terms`` is a cap: below the target N an entry sums at the cap and
reports its larger error.  Each entry declares the smallest cap
(``n_min``) at which its bound holds; :func:`sum_catalog` rejects smaller
caps with ``DomainError``.  ``FS-7.1`` picks N from a Dirichlet-kernel
bound, and :func:`psi_sin_partial` meets ``_PSI_SIN_TARGET`` = 1e-8
rather than the series target, by a second summation by parts whose
remainder is a first difference of its coefficients (N ~ 90 in the middle
of its domain), summed from one table of their parts per process; these
and the alternating pair S-4.29-rhs and S-6.33 call
:func:`~gammalab.series.target_terms` on their own bounds.  Every partial
sum is exactly rounded (``math.fsum``).  :func:`sum_catalog` rejects a
non-finite parameter with ``DomainError``.

``FS-4.16``, ``FS-6.2``, ``FS-8.13``, ``FS-8.14``,
:func:`log_weighted_sin_sum` and the registry's alternating cosine sum
share :func:`_bernoulli_fourier`: exact Bernoulli slices of their 1/n
expansion plus a residual summed to the target N; the residual
coefficients of the first five depend on n alone and are computed once per
process for each n.  ``FS-4.16`` also sums
the 1/n and log(n)/n orders of its coefficients in closed form, and its
residual to n = 11, past which its bound holds.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Callable
from functools import lru_cache
from itertools import accumulate, chain, count, islice, repeat
from operator import mul, truediv

from .errors import (
    DomainError,
    EvaluationError,
    GammalabError,
    UnknownKeyError,
    integer_arg,
)
from .kernels import (
    _EPS,
    _bernoulli_float,
    _bpoly,
    _ci_at_2pi_mult,
    _cl2,
    _cot_pi,
    _digamma_pos,
    _hurwitz,
    _lnG,
    _one_over_x_minus_pi_cot,
    _power_sum,
    _require_finite,
    _si_small_at_pi_mult,
    _sincos_pi,
    _zeta_int,
    _zeta_m1,
    _zeta_prime_int,
    get_constants,
)
from .series import (
    CVZ_TERMS,
    SeriesResult,
    cvz_alternating,
    quad_tail,
    tail_bound,
    target_terms,
    zeta_tail_sum,
)

__all__ = ["SeriesEntry", "SERIES_CATALOG", "sum_catalog",
           "power_series_eval", "list_series_ids"]

_PI = math.pi
_TWO_PI = 2.0 * math.pi
_C = get_constants()
# cvz_alternating estimates its error from a re-summation 8 orders shorter
_CVZ_N_MIN = 9


# label: str; nparams: int; fn: Callable[..., SeriesResult]; n_min: int,
# the least max_terms fn accepts
SeriesEntry = namedtuple("SeriesEntry", "label nparams fn n_min",
                         defaults=(1,))


SERIES_CATALOG: dict[str, SeriesEntry] = {}


def _entry(key: str, label: str, nparams: int = 0, n_min: int = 1):
    def deco(fn):
        SERIES_CATALOG[key] = SeriesEntry(label, nparams, fn, n_min)
        return fn
    return deco


def list_series_ids() -> list[str]:
    return sorted(SERIES_CATALOG)


def sum_catalog(key: str, params: tuple[float, ...] = (),
                max_terms: int | None = None) -> SeriesResult:
    try:
        entry = SERIES_CATALOG[key]
    except KeyError:
        raise UnknownKeyError(f"unknown series id {key!r}") from None
    if len(params) != entry.nparams:
        raise DomainError(
            f"{key} takes {entry.nparams} parameter(s), got {len(params)}")
    for i, value in enumerate(params, 1):
        _require_finite(value, f"{key} parameter {i}")
    if max_terms is not None and max_terms < entry.n_min:
        raise DomainError(
            f"{key} needs max_terms >= {entry.n_min}, got {max_terms}")
    try:
        r = (entry.fn(*params) if max_terms is None
             else entry.fn(*params, max_terms=max_terms))
    except GammalabError:
        raise
    except ArithmeticError as exc:
        raise EvaluationError(f"{key} at {params}: {exc}") from exc
    if not (cmath.isfinite(r.value) and math.isfinite(r.abs_err)):
        raise EvaluationError(f"{key} is not finite at {params}: "
                              f"{r.value} ± {r.abs_err}")
    return r


# ---------------------------------------------------------------------------
# section 1: the log-weighted quadratic-denominator lemmas
# ---------------------------------------------------------------------------

@_entry("S-1.20", "sum log n/(n^2+u^2)", 1)
def s_1_20(u: float, max_terms: int | None = None) -> SeriesResult:
    u2 = u * u
    return zeta_tail_sum(
        lambda n_last: (math.log(n) / (n * n + u2)
                        for n in range(1, n_last + 1)),
        log_tail=lambda n: quad_tail(-u2, {0: 1.0}, n), cap=max_terms,
        floor=5e-15)


@_entry("S-1.23", "sum 1/(n^2+u^2)", 1)
def s_1_23(u: float, max_terms: int | None = None) -> SeriesResult:
    u2 = u * u
    return zeta_tail_sum(
        lambda n_last: (1.0 / (n * n + u2) for n in range(1, n_last + 1)),
        lambda n: quad_tail(-u2, {0: 1.0}, n), cap=max_terms, floor=5e-15)


# ---------------------------------------------------------------------------
# section 3: si/Ci-weighted sums
# ---------------------------------------------------------------------------
# The lattice values si(2 pi n), Ci(2 pi n) are exact up to n = 200 and
# asymptotic after; the tails use the same asymptotic expansions, whose
# remainders are bounded by their first omitted term.

@_entry("S-3.8", "sum si(2 pi n)/(n (4n^2-p^2))", 1)
def s_3_8(p: float, max_terms: int | None = None) -> SeriesResult:
    if not 0.0 < abs(p) < 2.0:
        raise DomainError(f"requires 0 < |p| < 2, got {p}")
    # si(2 pi n) ~ -1/(2 pi n) + 2/(2 pi n)^3 - 24/(2 pi n)^5 + 720/(2 pi n)^7
    q = 0.25 * p * p
    orders = {2: -0.25 / _TWO_PI, 4: 0.5 / _TWO_PI ** 3,
              6: -6.0 / _TWO_PI ** 5}
    omit = {8: 180.0 / _TWO_PI ** 7}
    return zeta_tail_sum(
        # 4n^2 - p^2 as (2n - p)(2n + p), which does not cancel at n = 1
        lambda n_last: (_si_small_at_pi_mult(n)
                        / (n * ((2.0 * n - p) * (2.0 * n + p)))
                        for n in range(1, n_last + 1)),
        lambda n: quad_tail(q, orders, n, omit), cap=max_terms, floor=1e-14,
        method="lattice+asymptotic")


def ci_quarter_sum(h: float, max_terms: int | None = None) -> SeriesResult:
    """sum_{n>=1} Ci(2 pi n)/(4 (n^2 - h^2)) for |h| < 1, no rounding
    floor."""
    # Ci(2 pi n) ~ -1/x^2 + 6/x^4 - 120/x^6 + 5040/x^8, x = 2 pi n
    orders = {2: -0.25 / _TWO_PI ** 2, 4: 1.5 / _TWO_PI ** 4,
              6: -30.0 / _TWO_PI ** 6}
    omit = {8: 1260.0 / _TWO_PI ** 8}
    q = h * h
    # the n = 1 denominator as (1 - h)(1 + h), which does not cancel at h = 1
    first = _ci_at_2pi_mult(1) / (4.0 * ((1.0 - h) * (1.0 + h)))
    return zeta_tail_sum(
        lambda n_last: chain((first,), (
            _ci_at_2pi_mult(n) / (4.0 * (n * n - q))
            for n in range(2, n_last + 1))),
        lambda n: quad_tail(q, orders, n, omit), cap=max_terms, floor=0.0)


def log_quarter_sum(q: float, max_terms: int | None = None) -> SeriesResult:
    """sum_{n>=2} log n/(4 (n^2 - q)) for q <= 1, no rounding floor."""
    return zeta_tail_sum(
        lambda n_last: (math.log(n) / (4.0 * (n * n - q))
                        for n in range(2, n_last + 1)),
        log_tail=lambda n: quad_tail(q, {0: 0.25}, n), cap=max_terms,
        floor=0.0)


@_entry("S-3.14", "sum [Ci(2 pi n)-gamma-log(2 pi n)]/(4n^2-p^2)", 1)
def s_3_14(p: float, max_terms: int | None = None) -> SeriesResult:
    if not 0.0 < abs(p) < 2.0:
        raise DomainError(f"requires 0 < |p| < 2, got {p}")
    g = _C.gamma
    ci = ci_quarter_sum(0.5 * p, max_terms)
    # -(gamma + log 2 pi) sum 1/(4n^2-p^2), in closed form
    # (1/h - pi cot(pi h))/(8h), h = |p|/2: below h = 1/2 by its series,
    # where 0.5/p^2 - (pi/4p) cot(pi p/2) cancels, and above it with
    # cot(pi p/2) from p/2's fraction, which does not cancel as p -> 2
    h = 0.5 * abs(p)
    if h < 0.5:
        s_quad = _one_over_x_minus_pi_cot(h) / (8.0 * h)
    else:
        s_quad = 0.5 / (p * p) - _PI / (4.0 * p) * _cot_pi(0.5 * p)
    s_log = log_quarter_sum(0.25 * p * p, max_terms)
    value = ci.value - (g + _C.log_2pi) * s_quad - s_log.value
    err = ci.abs_err + s_log.abs_err + 2e-14 * (1.0 + abs(value))
    return SeriesResult(value, err, max(ci.terms_used, s_log.terms_used),
                        "lattice+closed_forms")


@_entry("S-4.26", "sum Si(2 pi n)/n^2", 0)
def s_4_26(max_terms: int | None = None) -> SeriesResult:
    r = zeta_tail_sum(
        lambda n_last: (_si_small_at_pi_mult(n) / (n * n)
                        for n in range(1, n_last + 1)),
        {3: -1.0 / _TWO_PI, 5: 2.0 / _TWO_PI ** 3, 7: -24.0 / _TWO_PI ** 5,
         9: 720.0 / _TWO_PI ** 7},
        omitted={11: 40320.0 / _TWO_PI ** 9}, cap=max_terms, floor=0.0)
    value = 0.5 * _PI * _C.zeta2 + r.value
    return SeriesResult(value, r.abs_err + 1e-13 * (1.0 + abs(value)),
                        r.terms_used, "lattice+asymptotic")


def _alternating_tail(orders: dict[int, float], half: int) -> float:
    """sum_{n>N} (-1)^n sum_k c_k n^-k for even N = 2 ``half``, from
    sum_{n>N} (-1)^n n^-k = 2^-k [zeta(k, half+1) - zeta(k, half+1/2)]."""
    return math.fsum(c * 2.0 ** -k * (_hurwitz(float(k), half + 1.0)
                                      - _hurwitz(float(k), half + 0.5))
                     for k, c in orders.items())


def _even_target_n(max_terms: int | None, omitted: dict[int, float]) -> int:
    """The even N >= 2 at which ``tail_bound`` meets the target, at most
    ``max_terms``."""
    return 2 * target_terms(lambda h: tail_bound(2 * h, omitted), cap=(
        None if max_terms is None else max_terms // 2))


@_entry("S-4.29-rhs", "sum Si(n pi)/n^2", 0, n_min=2)
def s_4_29_rhs(max_terms: int | None = None) -> SeriesResult:
    # si(n pi) = -(-1)^n [1/(n pi) - 2/(n pi)^3 + 24/(n pi)^5 - ...], an
    # enveloping expansion: each remainder is below its first omitted term
    omitted = {9: 720.0 / _PI ** 7}
    n_last = _even_target_n(max_terms, omitted)
    tail = -_alternating_tail(
        {3: 1.0 / _PI, 5: -2.0 / _PI ** 3, 7: 24.0 / _PI ** 5}, n_last // 2)
    value = 0.5 * _PI * _C.zeta2 + tail + math.fsum(
        _si_small_at_pi_mult(n, twice=False) / (n * n)
        for n in range(1, n_last + 1))
    err = tail_bound(n_last, omitted) + 1e-13 * (1.0 + abs(value))
    return SeriesResult(value, err, n_last, "lattice+zeta_split")


@_entry("S-4.30-rhs", "sum Si((2n-1) pi)/(2n-1)^2", 0)
def s_4_30_rhs(max_terms: int | None = None) -> SeriesResult:
    # Si(m pi) = pi/2 + 1/(m pi) - 2/(m pi)^3 + 24/(m pi)^5 - ... for odd m,
    # and sum_{n>N} (2n-1)^-k = 2^-k zeta(k, N + 1/2)
    return zeta_tail_sum(
        lambda n_last: ((0.5 * _PI + _si_small_at_pi_mult(2 * n - 1,
                                                          twice=False))
                        / (2 * n - 1) ** 2 for n in range(1, n_last + 1)),
        {2: 0.125 * _PI, 3: 0.125 / _PI, 5: -2.0 / (32.0 * _PI ** 3),
         7: 24.0 / (128.0 * _PI ** 5)},
        omitted={9: 720.0 / (512.0 * _PI ** 7)}, cap=max_terms,
        floor=1e-12, shift=0.5, method="lattice+asymptotic")


def _ratio_sum(coeff: Callable[[int], float], first: int, pw: float,
               step: float, ratio: float, max_terms: int | None,
               acc: float = 0.0) -> tuple[float, float, int]:
    """acc + sum_{n>=first} coeff(n) pw step^(n-first) in ``_power_sum``,
    at most max_terms terms.  Each term is at most ``ratio`` < 1 of the one
    before, so the terms left out are at most |next term| / (1 - ratio);
    returns (sum, that bound, terms summed)."""
    ns = count(first)
    s = _power_sum(islice(map(coeff, ns), max_terms), pw, step, acc)
    n = next(ns)
    rest = abs(coeff(n) * pw * step ** (n - first)) / (1.0 - ratio)
    return s, rest, n - first


def _ratio_half_sum(term: Callable[[int], float], n_first: int,
                    max_terms: int | None, method: str,
                    offset: float = 0.0) -> SeriesResult:
    """offset + the sum of term(n) from n_first on.  The terms shrink by 1/2
    or faster, so 2 |next term| bounds what is left."""
    value, rest, used = _ratio_sum(term, n_first, 1.0, 1.0, 0.5, max_terms,
                                   offset)
    return SeriesResult(value, rest + 1e-14 * (1.0 + abs(value)), used,
                        method)


@_entry("S-4.27", "sum zeta(2n)/(2n+1)^2", 0)
def s_4_27(max_terms: int | None = None) -> SeriesResult:
    # zeta(2n) -> 1, so split off sum 1/(2n+1)^2 = pi^2/8 - 1
    return _ratio_half_sum(
        lambda n: _zeta_m1(2 * n) / (2 * n + 1) ** 2, 1, max_terms,
        "zeta_split", offset=_PI * _PI / 8.0 - 1.0)


# ---------------------------------------------------------------------------
# section 4: harmonic/log families
# ---------------------------------------------------------------------------

# the registry uses n <= 8; the tail expansion needs (N+1)^2 >= 2n^2, and
# its zeta' orders shrink like (n/N)^2: from N = 4n on it needs 14 of them
_TN_N_MIN = 11


@_entry("S-4.4-Tn", "T_n = sum_{m != n} log m/(m^2-n^2)", 1,
        n_min=_TN_N_MIN)
def s_4_4_tn(n: float, max_terms: int | None = None) -> SeriesResult:
    n = integer_arg(n, "n")
    if n < 1:
        raise DomainError(f"requires n >= 1, got {n}")
    n2 = float(n) * float(n)
    return zeta_tail_sum(
        lambda m_last: (math.log(m) / (m * m - n2)
                        for m in range(1, m_last + 1) if m != n),
        log_tail=lambda m: quad_tail(n2, {0: 1.0}, m),
        n_min=max(_TN_N_MIN, 4 * n), cap=max_terms, floor=1e-13)


# from this n on, FS-4.16 bounds a_n by the large-n expansion of T_n
_TN_ASYMPTOTIC_N = 12
# the expansion's orders zeta'(-2j)/n^(2j+2) kept, j = 1 .. 6; at n = 12
# the first omitted one is 1.6e-18
_TN_ORDERS = 6
# zeta'(0) - 1/2, the constant of T_n's order 1/n^2
_TN_SHIFT = -0.5 * _C.log_2pi - 0.5


@lru_cache(maxsize=1)
def _tn_orders() -> tuple[tuple[float, ...], float]:
    """zeta'(-2j) = (-1)^j (2j)! zeta(2j+1) / (2 (2 pi)^(2j)) for j =
    ``_TN_ORDERS`` down to 1 (Horner's order), and |zeta'(-2j)| at the
    first omitted j."""
    zp = [(-1.0) ** j * math.factorial(2 * j) * _zeta_int(2 * j + 1)
          / (2.0 * _TWO_PI ** (2 * j)) for j in range(1, _TN_ORDERS + 2)]
    return tuple(reversed(zp[:_TN_ORDERS])), abs(zp[_TN_ORDERS])


def _tn_asymptotic(n: int) -> tuple[float, float]:
    """T_n = pi^2/(4n) + (log n/4 + zeta'(0) - 1/2)/n^2
    + sum_{j>=1} zeta'(-2j)/n^(2j+2), to j = ``_TN_ORDERS``, by Horner's
    rule in w = 1/n^2, and its error bound.  The orders alternate in sign
    and the expansion envelopes T_n, so the first omitted order bounds the
    truncation; 4 ulp cover the rounding."""
    orders, omitted = _tn_orders()
    w = 1.0 / (float(n) * float(n))
    poly = 0.0
    for zp in orders:
        poly = poly * w + zp
    value = _PI ** 2 / (4.0 * n) + w * (
        (0.25 * math.log(n) + _TN_SHIFT) + w * poly)
    return value, omitted * w ** (_TN_ORDERS + 2) + 4.0 * math.ulp(value)


def _with_harmonic(n_last: int):
    """(n, H_n) for n = 1 .. n_last."""
    return zip(range(1, n_last + 1),
               accumulate(1.0 / n for n in range(1, n_last + 1)))


@_entry("S-4.31.1", "sum (gamma + log n - H_n)/n", 0)
def s_4_31_1(max_terms: int | None = None) -> SeriesResult:
    g = _C.gamma
    # gamma + log n - H_n = -1/2n + 1/12n^2 - 1/120n^4 + 1/252n^6 - 1/240n^8
    return zeta_tail_sum(
        lambda n_last: ((g + math.log(n) - h) / n
                        for n, h in _with_harmonic(n_last)),
        {2: -0.5, 3: 1.0 / 12.0, 5: -1.0 / 120.0, 7: 1.0 / 252.0},
        omitted={9: -1.0 / 240.0}, cap=max_terms, floor=1e-13,
        method="direct+asymptotic_tail")


@_entry("S-4.32", "sum H_n [log(1+1/n) - 1/n]", 0)
def s_4_32(max_terms: int | None = None) -> SeriesResult:
    g = _C.gamma
    # H_n = log n + gamma + 1/2n - ..., times -1/2n^2 + 1/3n^3 - ...
    log_part = {2: -0.5, 3: 1.0 / 3.0, 4: -0.25, 5: 0.2, 6: -1.0 / 6.0}
    plain = {2: 0.0, 3: -0.25, 4: 5.0 / 24.0, 5: -11.0 / 72.0, 6: 7.0 / 60.0}
    return zeta_tail_sum(
        lambda n_last: (h * (math.log1p(1.0 / n) - 1.0 / n)
                        for n, h in _with_harmonic(n_last)),
        {k: g * c + plain[k] for k, c in log_part.items()}, log_part,
        omitted={7: g / 7.0 - 7.0 / 72.0}, log_omitted={7: 1.0 / 7.0},
        cap=max_terms, floor=1e-13, method="direct+asymptotic_tail")


# ---------------------------------------------------------------------------
# section 5
# ---------------------------------------------------------------------------

@_entry("S-5.13", "sum [n/(n^2-x^2) - log(1+1/n)]", 1)
def s_5_13(x: float, max_terms: int | None = None) -> SeriesResult:
    if abs(x) >= 1.0 and abs(x - round(x)) < 1e-12:
        raise DomainError(f"pole at integer x={x}")
    # = -(psi(1+x) + psi(1-x))/2 = gamma + x^2 sum 1/(n (n^2 - x^2)) (DLMF
    # 5.7.6): the tail has only the orders x^2j n^(-2j-3), of which N = 8
    # needs at most 9 for |x| < 1 (quad_tail, which needs (N+1)^2 >= 2 x^2).
    # The bar is x^2 times the sum's, plus the rounding of gamma + x^2 s
    q = x * x
    s = zeta_tail_sum(lambda n_last: (1.0 / (n * ((n - x) * (n + x)))
                                      for n in range(1, n_last + 1)),
                      lambda n: quad_tail(q, {1: 1.0}, n), n_min=8,
                      cap=max_terms)
    g = _C.gamma
    qs = q * s.value
    return SeriesResult(g + qs, q * s.abs_err + 4.0 * _EPS * (g + abs(qs)),
                        s.terms_used, s.method)


@_entry("S-5.18", "sum [n log(1-1/4n^2) + log(1+1/n)/4]", 0)
def s_5_18(max_terms: int | None = None) -> SeriesResult:
    # term ~ -1/8 n^-2 + 5/96 n^-3 - 1/16 n^-4 + 43/960 n^-5 - 1/24 n^-6
    return zeta_tail_sum(
        lambda n_last: (n * math.log1p(-0.25 / (n * n))
                        + 0.25 * math.log1p(1.0 / n)
                        for n in range(1, n_last + 1)),
        {2: -0.125, 3: 5.0 / 96.0, 4: -1.0 / 16.0, 5: 43.0 / 960.0},
        omitted={6: -1.0 / 24.0}, cap=max_terms, floor=3e-14,
        method="direct+asymptotic_tail")


@_entry("S-5.44.4", "sum [(1+n) log(1+1/n) - 1 - 1/(2n)]", 0)
def s_5_44_4(max_terms: int | None = None) -> SeriesResult:
    # exact expansion coefficient of n^-m is (-1)^(m+1)/(m(m+1)), m >= 2
    def c(m):
        return (-1.0) ** (m + 1) / (m * (m + 1.0))
    return zeta_tail_sum(
        lambda n_last: ((1.0 + n) * math.log1p(1.0 / n) - 1.0 - 0.5 / n
                        for n in range(1, n_last + 1)),
        {m: c(m) for m in range(2, 9)}, omitted={9: c(9)}, cap=max_terms,
        method="direct+asymptotic_tail")


@_entry("S-5.44.5", "sum [(1/2+n) log(1+1/n) - 1]", 0)
def s_5_44_5(max_terms: int | None = None) -> SeriesResult:
    def c(m):
        return (-1.0) ** m * (m - 1.0) / (2.0 * m * (m + 1.0))
    return zeta_tail_sum(
        lambda n_last: ((0.5 + n) * math.log1p(1.0 / n) - 1.0
                        for n in range(1, n_last + 1)),
        {m: c(m) for m in range(2, 9)}, omitted={9: c(9)}, cap=max_terms,
        method="direct+asymptotic_tail")


@_entry("S-5.45", "sum log(n+1)/(n(n+1))", 0)
def s_5_45(max_terms: int | None = None) -> SeriesResult:
    # (log n + log(1+1/n)) (n^-2 - n^-3 + ...)
    return zeta_tail_sum(
        lambda n_last: (math.log(n + 1.0) / (n * (n + 1.0))
                        for n in range(1, n_last + 1)),
        {3: 1.0, 4: -1.5, 5: 11.0 / 6.0, 6: -25.0 / 12.0},
        {2: 1.0, 3: -1.0, 4: 1.0, 5: -1.0, 6: 1.0},
        omitted={7: 137.0 / 60.0}, log_omitted={7: -1.0}, cap=max_terms,
        method="direct+asymptotic_tail")


@_entry("S-5.45.2", "sum (-1)^(n+1) zeta(n+1)/n", 0)
def s_5_45_2(max_terms: int | None = None) -> SeriesResult:
    # zeta(n+1) - 1 carries the sum; the 1s give log 2
    return _ratio_half_sum(
        lambda n: (-1.0) ** (n + 1) * _zeta_m1(n + 1) / n, 1,
        max_terms, "zeta_split", offset=math.log(2.0))


@_entry("S-5.45.3", "-sum_{n>=2} zeta'(n)", 0)
def s_5_45_3(max_terms: int | None = None) -> SeriesResult:
    return _ratio_half_sum(lambda n: -_zeta_prime_int(n), 2, max_terms,
                           "direct")


@_entry("S-5.45.4", "sum log(1+1/n)/n", 0)
def s_5_45_4(max_terms: int | None = None) -> SeriesResult:
    def c(m):
        return (-1.0) ** m / (m - 1.0)
    return zeta_tail_sum(
        lambda n_last: (math.log1p(1.0 / n) / n
                        for n in range(1, n_last + 1)),
        {m: c(m) for m in range(2, 9)}, omitted={9: c(9)}, cap=max_terms,
        method="direct+asymptotic_tail")


@_entry("S-5.46.2", "sum [zeta(2n+1) - 1]", 0)
def s_5_46_2(max_terms: int | None = None) -> SeriesResult:
    return _ratio_half_sum(lambda n: _zeta_m1(2 * n + 1), 1,
                           max_terms, "zeta_minus_one")


@_entry("S-5.56", "sum_{j>=2} [j log(1-1/j) + 1 + 1/(2j)]", 0)
def s_5_56(max_terms: int | None = None) -> SeriesResult:
    # j log(1-1/j) = -1 - 1/(2j) - sum_{k>=2} j^-k/(k+1)
    return zeta_tail_sum(
        lambda n_last: (j * math.log1p(-1.0 / j) + 1.0 + 0.5 / j
                        for j in range(2, n_last + 1)),
        {k: -1.0 / (k + 1.0) for k in range(2, 9)}, omitted={9: -0.1},
        cap=max_terms, method="direct+asymptotic_tail")


@_entry("S-5.58.1", "sum [j log(1+1/j) - 1 + 1/(2j)]", 0)
def s_5_58_1(max_terms: int | None = None) -> SeriesResult:
    return zeta_tail_sum(
        lambda n_last: (j * math.log1p(1.0 / j) - 1.0 + 0.5 / j
                        for j in range(1, n_last + 1)),
        {k: (-1.0) ** k / (k + 1.0) for k in range(2, 9)},
        omitted={9: -0.1}, cap=max_terms, method="direct+asymptotic_tail")


# ---------------------------------------------------------------------------
# section 6
# ---------------------------------------------------------------------------

@_entry("S-6.3", "sum_{n>=2} log(1-1/n^2)", 0)
def s_6_3(max_terms: int | None = None) -> SeriesResult:
    # log(1-1/n^2) = -sum_k n^-2k/k
    return zeta_tail_sum(
        lambda n_last: (math.log1p(-1.0 / (n * n))
                        for n in range(2, n_last + 1)),
        {2 * k: -1.0 / k for k in range(1, 8)}, omitted={16: -1.0 / 8.0},
        cap=max_terms, method="direct+asymptotic_tail")


def _cvz_entry(a: Callable[[int], float], max_terms: int | None,
               sign: float = 1.0) -> SeriesResult:
    """sign * sum_k (-1)^k a(k) at the CVZ order for the target (an
    acceleration order, not a term count), at most ``max_terms``."""
    n_ord = CVZ_TERMS if max_terms is None else min(max_terms, CVZ_TERMS)
    v, e = cvz_alternating(a, n_ord)
    return SeriesResult(sign * v, e, n_ord, "cvz")


@_entry("S-6.4", "sum_{n>=2} (-1)^(n+1) log(1-1/n^2)", 0, n_min=_CVZ_N_MIN)
def s_6_4(max_terms: int | None = None) -> SeriesResult:
    return _cvz_entry(
        lambda k: -math.log1p(-1.0 / ((k + 2.0) * (k + 2.0))), max_terms)


@_entry("S-6.5", "sum (-1)^(n+1) log(1+1/n)", 0)
def s_6_5(max_terms: int | None = None) -> SeriesResult:
    # paired: equals sum_k -log(1 - 1/(4k^2)) = sum_j sum_k 4^-j k^-2j / j
    return zeta_tail_sum(
        lambda n_last: (-math.log1p(-0.25 / (k * k))
                        for k in range(1, n_last + 1)),
        {2 * j: 0.25 ** j / j for j in range(1, 8)},
        omitted={16: 0.25 ** 8 / 8.0}, cap=max_terms,
        method="paired+asymptotic_tail")


@_entry("S-6.6", "sum_{n>=2} (-1)^(n+1) log(1-1/n)", 0)
def s_6_6(max_terms: int | None = None) -> SeriesResult:
    # pairing consecutive terms gives the same reduced series as S-6.5
    return s_6_5(max_terms)


@_entry("S-6.23", "sum_{n>=2} psi(n+1/2) log(1-1/n^2)", 0)
def s_6_23(max_terms: int | None = None) -> SeriesResult:
    # psi(n+1/2) = log n + 1/(24 n^2) - 7/(960 n^4) + ...
    return zeta_tail_sum(
        lambda n_last: (_digamma_pos(n + 0.5) * math.log1p(-1.0 / (n * n))
                        for n in range(2, n_last + 1)),
        {4: -1.0 / 24.0}, {2: -1.0, 4: -0.5}, omitted={6: -13.0 / 960.0},
        log_omitted={6: -1.0 / 3.0}, cap=max_terms, floor=1e-13,
        method="direct+asymptotic_tail")


@_entry("S-6.24-aux", "sum n/(4n^2-1)^k for k in {2,3}", 1)
def s_6_24_aux(k: float, max_terms: int | None = None) -> SeriesResult:
    k = integer_arg(k, "k")
    if k not in (2, 3):
        raise DomainError("k must be 2 or 3")
    q = 0.25
    if k == 2:
        # n/(16 (n^2-q)^2) = sum_m m q^(m-1) n^-(2m+1) / 16
        def c(m):
            return m * q ** (m - 1) / 16.0
        orders = range(1, 12)
    else:
        # n/(64 (n^2-q)^3) = sum_m C(m,2) q^(m-2) n^-(2m+1) / 64
        def c(m):
            return math.comb(m, 2) * q ** (m - 2) / 64.0
        orders = range(2, 13)
    nxt = orders.stop
    return zeta_tail_sum(
        lambda n_last: (n / (4.0 * n * n - 1.0) ** k
                        for n in range(1, n_last + 1)),
        {2 * m + 1: c(m) for m in orders}, omitted={2 * nxt + 1: c(nxt)},
        cap=max_terms, floor=1e-14)


@_entry("S-6.33", "sum (-1)^n n/(4n^2-1)^3", 0, n_min=2)
def s_6_33(max_terms: int | None = None) -> SeriesResult:
    # n/(4n^2-1)^3 = sum_m C(m+2, 2) 4^-m n^-(2m+5) / 64; from n = 3 on each
    # order shrinks by 1/36 or more, so twelve orders leave 1e-17 of the tail
    def c(m):
        return math.comb(m + 2, 2) * 0.25 ** m / 64.0
    omitted = {29: c(12)}
    n_last = _even_target_n(max_terms, omitted)
    value = math.fsum(
        [(-1.0) ** (n % 2) * n / (4.0 * n * n - 1.0) ** 3
         for n in range(1, n_last + 1)]
        + [_alternating_tail({2 * m + 5: c(m) for m in range(12)},
                             n_last // 2)])
    return SeriesResult(value, tail_bound(n_last, omitted) + 1e-16, n_last,
                        "alternating+zeta_split")


# ---------------------------------------------------------------------------
# section 7 / 8
# ---------------------------------------------------------------------------

@_entry("S-7.11", "sum (-1)^n log(1+1/n)/(2n+1)", 0, n_min=_CVZ_N_MIN)
def s_7_11(max_terms: int | None = None) -> SeriesResult:
    return _cvz_entry(
        lambda k: math.log1p(1.0 / (k + 1.0)) / (2.0 * k + 3.0), max_terms,
        sign=-1.0)


@_entry("S-7.11-aux", "sum (-1)^n n log n/(4n^2-1)", 0, n_min=_CVZ_N_MIN)
def s_7_11_aux(max_terms: int | None = None) -> SeriesResult:
    return _cvz_entry(
        lambda k: (k + 1.0) * math.log(k + 1.0)
        / (4.0 * (k + 1.0) ** 2 - 1.0), max_terms, sign=-1.0)


@_entry("S-7.12", "sum log(1+1/n)/(2n+1)", 0)
def s_7_12(max_terms: int | None = None) -> SeriesResult:
    # log(1+1/n)/(2n+1): product expansion through n^-6, next -13/60 n^-7
    return zeta_tail_sum(
        lambda n_last: (math.log1p(1.0 / n) / (2.0 * n + 1.0)
                        for n in range(1, n_last + 1)),
        {2: 0.5, 3: -0.5, 4: 5.0 / 12.0, 5: -1.0 / 3.0, 6: 4.0 / 15.0},
        omitted={7: -13.0 / 60.0}, cap=max_terms,
        method="direct+asymptotic_tail")


@_entry("S-8.11", "sum 1/(4n^2-1)", 0)
def s_8_11(max_terms: int | None = None) -> SeriesResult:
    return zeta_tail_sum(
        lambda n_last: (1.0 / (4.0 * n * n - 1.0)
                        for n in range(1, n_last + 1)),
        lambda n: quad_tail(0.25, {0: 0.25}, n), cap=max_terms, floor=1e-14)


# ---------------------------------------------------------------------------
# power-series families (Maclaurin coefficients built from zeta values)
# ---------------------------------------------------------------------------

def power_series_eval(key: str, x: float,
                      max_terms: int | None = None) -> SeriesResult:
    """Evaluate one of the PS-* Maclaurin families at |x| < 1.

    Every family converges on the unit disc; the zeta(k) -> 1 part of each
    coefficient is resummed in closed form so that arguments near the
    boundary stay cheap and accurate (log(1 - x^2) as log1p(x) + log1p(-x),
    not from fl(x x)).  The sum stops after the first term at most 1e-18 of
    it (``kernels._power_sum``), or after ``max_terms`` terms; the error
    bounds the terms left out.
    """
    if key not in _PS_KEYS:
        raise UnknownKeyError(f"unknown power series id {key!r}")
    if not abs(x) < 1.0:
        raise DomainError(f"{key} requires |x| < 1, got {x}")
    g = _C.gamma
    x2 = x * x

    def zeta_sum(coeff, pw=x2):
        # sum_{n>=1} coeff(n) pw x2^(n-1): the zeta - 1 coefficients shrink
        # by 1/4 or faster
        return _ratio_sum(coeff, 1, pw, x2, 0.25 * x2, max_terms)

    if key == "PS-5.1":
        s, rest, used = zeta_sum(lambda n: (-1.0) ** n * _zeta_m1(2 * n + 1))
        value = g - x2 / (1.0 + x2) + s
    elif key == "PS-5.17":
        # terms x^(2n+2): the zeta->1 part is sum_{m>=2} x2^m/m
        s, rest, used = zeta_sum(lambda n: _zeta_m1(2 * n + 1) / (n + 1.0),
                                 x2 ** 2)
        value = -(math.log1p(x) + math.log1p(-x)) - x2 + s
    elif key == "PS-5.32":
        s, rest, used = zeta_sum(lambda n: _zeta_m1(2 * n + 1) / (2 * n + 1.0))
        value = math.atanh(x) - x + x * s
        rest *= abs(x)
    elif key == "PS-5.41":
        # log Gamma(1+z) = -log(1+z) + (1-gamma) z
        #                  + sum_{k>=2} (-1)^k (zeta(k)-1) z^k/k at z = ix
        re, re_rest, re_used = zeta_sum(
            lambda m: (-1.0) ** m * _zeta_m1(2 * m) / (2.0 * m))
        im, im_rest, im_used = zeta_sum(
            lambda m: (-1.0) ** (m + 1) * _zeta_m1(2 * m + 1)
            / (2.0 * m + 1.0))
        re = -0.5 * math.log1p(x2) + re
        im = (1.0 - g) * x - math.atan(x) + x * im
        err = (1e-13 * (1.0 + abs(re) + abs(im)) + re_rest
               + abs(x) * im_rest)
        return SeriesResult(complex(re, im), err, max(re_used, im_used),
                            "taylor_accelerated")
    else:  # PS-5.53
        s, rest, used = zeta_sum(lambda n: _zeta_m1(2 * n + 1) / n)
        value = -(math.log1p(x) + math.log1p(-x)) + s
    return SeriesResult(value, 2e-15 * (1.0 + abs(value)) + rest,
                        used, "taylor_accelerated")


_PS_KEYS = ("PS-5.1", "PS-5.17", "PS-5.32", "PS-5.41", "PS-5.53")

for _k in _PS_KEYS:
    SERIES_CATALOG[_k] = SeriesEntry(f"power series {_k}", 1,
                                     (lambda key: lambda x, max_terms=None:
                                      power_series_eval(key, x, max_terms))(_k))


# ---------------------------------------------------------------------------
# Fourier-type partial evaluations
# ---------------------------------------------------------------------------

def _bernoulli_slice(k: int, t: float) -> float:
    """sum_{n>=1} trig(2 pi n t)/n^k, trig = cos for even k and sin for odd
    k, exact from the Fourier series of B_k (Hurwitz's formula, DLMF
    24.8.1-2); k = 1 holds for 0 < t < 1."""
    t = t - math.floor(t)
    return ((-1.0) ** (k // 2 + 1) * _TWO_PI ** k * _bpoly(k, t)
            / (2.0 * math.factorial(k)))


def _bernoulli_fourier(slices: dict[int, float], term: Callable[[int], float],
                       t: float, omitted: dict[int, float], n_first: int = 1,
                       max_terms: int | None = None, floor: float = 1e-13,
                       scale: float = 1.0, n_min: int = 1) -> SeriesResult:
    """``scale`` times sum_{n>=n_first} [sum_k a_k trig(2 pi n t)/n^k
    + term(n)].  The slices {k: a_k} are exact (:func:`_bernoulli_slice`
    less its terms below ``n_first``); the residual terms, whose first
    omitted order is ``omitted``, are summed through ``zeta_tail_sum`` to
    the N that the target asks for, at least ``n_min`` and at most
    ``max_terms``.  The error is the scaled truncation bound plus
    ``floor * (1 + |value|)``."""
    exact = [a * (_bernoulli_slice(k, t) - math.fsum(
        (math.sin if k % 2 else math.cos)(_TWO_PI * n * t) / n ** k
        for n in range(1, n_first))) for k, a in slices.items()]
    r = zeta_tail_sum(
        lambda n_last: chain(exact, map(term, range(n_first, n_last + 1))),
        omitted=omitted, n_min=n_min, cap=max_terms, floor=0.0)
    value = scale * r.value
    return SeriesResult(value, abs(scale) * r.abs_err
                        + floor * (1.0 + abs(value)), r.terms_used,
                        "bernoulli_closed+residual")


@lru_cache(maxsize=None)
def _log_square_residual(n: int, orders: int) -> float:
    """log(1 - 1/n^2) + sum_{j<=orders} 1/(j n^2j), the residual coefficient
    of FS-6.2 (``orders`` = 6) and :func:`log_weighted_sin_sum` (5), once per
    process for each n."""
    return math.log1p(-1.0 / (n * n)) + math.fsum(
        1.0 / (j * float(n) ** (2 * j)) for j in range(1, orders + 1))


@_entry("FS-6.2", "sum_{n>=2} log(1-1/n^2) cos(2 pi n x)", 1)
def fs_6_2(x: float, max_terms: int | None = None) -> SeriesResult:
    # log(1-1/n^2) = -sum_j 1/(j n^2j); the j <= 6 slices are exact and the
    # residual is below (4/3) n^-14/7
    return _bernoulli_fourier(
        {2 * j: -1.0 / j for j in range(1, 7)},
        lambda n: _log_square_residual(n, 6) * math.cos(_TWO_PI * n * x), x,
        {14: 1.0 / 7.0}, n_first=2, max_terms=max_terms)


def log_weighted_sin_sum(x: float) -> SeriesResult:
    """sum_{n>=2} log(1-1/n^2) sin(2 pi n x)/n  (building block).  The
    j <= 5 slices of log(1-1/n^2) = -sum_j 1/(j n^2j) are exact; the
    residual is below (4/3) n^-13/6 per term."""
    return _bernoulli_fourier(
        {2 * j + 1: -1.0 / j for j in range(1, 6)},
        lambda n: _log_square_residual(n, 5) * math.sin(_TWO_PI * n * x) / n,
        x, {13: 1.0 / 6.0}, n_first=2)


def _fs_7_1_residual(n: int) -> float:
    """e_n = log(1+1/n) - 1/n + 1/(2n^2) = 1/(3n^3) - 1/(4n^4) + ...,
    positive and decreasing."""
    return math.log1p(1.0 / n) - 1.0 / n + 0.5 / (n * n)


@_entry("FS-7.1", "sum log(1+1/n) sin((2n+1) pi x)", 1)
def fs_7_1(x: float, max_terms: int | None = None) -> SeriesResult:
    if not 0.0 < x < 1.0:
        raise DomainError(f"requires 0 < x < 1, got {x}")
    th = _PI * x
    cs, sn = math.cos(th), math.sin(th)
    # log(1+1/n) = 1/n - 1/(2n^2) + e_n
    acc = cs * 0.5 * (_PI - 2.0 * th) + sn * (-math.log(2.0 * math.sin(th)))
    acc -= 0.5 * (cs * _cl2(2.0 * th) + sn * _bernoulli_slice(2, x))
    # e_n shrinks to 0, so by Abel summation against the Dirichlet kernel
    # the residual's tail past N is at most e_{N+1}/sin(pi x)
    def bound(n: int) -> float:
        return _fs_7_1_residual(n + 1) / sn
    n_last = target_terms(bound, cap=max_terms)
    acc += math.fsum(_fs_7_1_residual(n) * math.sin((2 * n + 1) * th)
                     for n in range(1, n_last + 1))
    err = bound(n_last) + 1e-13 * (1.0 + abs(acc))
    return SeriesResult(acc, err, n_last, "closed+residual")


@lru_cache(maxsize=1)
def _log_g_residuals() -> tuple[tuple[tuple[float, float], ...], float]:
    """(a_n - A_n, b_n - B_n) of :func:`fs_4_16` for n below
    ``_TN_ASYMPTOTIC_N``, and the sum of their T_n errors over pi^2.

    a_n - A_n = (T~_n - T_n)/pi^2, T~_n the expansion of
    :func:`_tn_asymptotic` and T_n the direct ``S-4.4-Tn`` series;
    b_n - B_n = (H~_n - H_n)/(2 pi n), H~_n = log n + gamma + 1/(2n)
    - sum_{k<=6} B_2k/(2k n^2k)."""
    gamma = _C.gamma
    res, tn_err = [], 0.0
    for n, h in _with_harmonic(_TN_ASYMPTOTIC_N - 1):
        tn = s_4_4_tn(n)
        tn_err += tn.abs_err
        h_asym = math.log(n) + gamma + 0.5 / n - math.fsum(
            _bernoulli_float(2 * k) / (2 * k * float(n) ** (2 * k))
            for k in range(1, _TN_ORDERS + 1))
        res.append(((_tn_asymptotic(n)[0] - tn.value) / _PI ** 2,
                    (h_asym - h) / (_TWO_PI * n)))
    return tuple(res), tn_err / _PI ** 2


@_entry("FS-4.16", "Fourier series of log G(x)", 1,
        n_min=_TN_ASYMPTOTIC_N - 1)
def fs_4_16(x: float, max_terms: int | None = None) -> SeriesResult:
    """log G on (0, 1) by its Fourier series a_0 + sum_n (a_n cos 2 pi n x
    + b_n sin 2 pi n x), which Kummer's series for log Gamma gives:
    a_n = (log n/2 - gamma - log 2 pi - 1)/(2 pi^2 n^2) - 1/(4n) - T_n/pi^2
    and b_n = (1/2n - gamma - log(4 pi^2 n) - H_n)/(2 pi n).

    Krylov's method: the large-n expansions of the coefficients, from
    those of T_n (:func:`_tn_asymptotic`) and H_n,
        A_n = -1/(2n) - gamma/(2 pi^2 n^2)
              - sum_{j<=6} zeta'(-2j)/(pi^2 n^(2j+2)),
        B_n = -(log n + gamma + log 2 pi)/(pi n)
              + sum_{k<=6} B_2k/(4 pi k n^(2k+1)),
    are summed exactly: by 1/2 log(2 sin pi x), :func:`log_sin_over_n`
    and Bernoulli slices.  The residuals a_n - A_n and b_n - B_n
    (:func:`_log_g_residuals`) are summed to n = 11, at every cap; past
    it each lies within its first omitted order, zeta'(-14)/(pi^2 n^16)
    and B_14/(28 pi n^15), whose ``tail_bound`` is the truncation error.
    The T_n errors over pi^2 and 1e-13 (1 + |value|) are added."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"requires 0 < x < 1, got {x}")
    orders, zp_omitted = _tn_orders()
    slices = {1: -(_C.gamma + _C.log_2pi) / _PI,
              2: -_C.gamma / (2.0 * _PI ** 2)}
    for j, zp in zip(range(_TN_ORDERS, 0, -1), orders):
        slices[2 * j + 2] = -zp / _PI ** 2
    for k in range(1, _TN_ORDERS + 1):
        slices[2 * k + 1] = _bernoulli_float(2 * k) / (4.0 * _PI * k)
    k = _TN_ORDERS + 1
    omitted = {2 * k + 2: zp_omitted / _PI ** 2,
               2 * k + 1: _bernoulli_float(2 * k) / (4.0 * _PI * k)}
    res, tn_err = _log_g_residuals()
    n_last = len(res)
    r = _bernoulli_fourier(
        slices, lambda n: (res[n - 1][0] * math.cos(_TWO_PI * n * x)
                           + res[n - 1][1] * math.sin(_TWO_PI * n * x)),
        x, omitted, n_min=n_last, max_terms=n_last, floor=0.0)
    a0 = 1.0 / 12.0 - 2.0 * _C.log_A - 0.25 * _C.log_2pi
    value = math.fsum((a0, 0.5 * math.log(2.0 * _sincos_pi(x)[0]),
                       -log_sin_over_n(x) / _PI, r.value))
    err = r.abs_err + tn_err + 1e-13 * (1.0 + abs(value))
    return SeriesResult(value, err, n_last, "kummer_closed+residual")


def log_sin_over_n(u: float) -> float:
    """sum_{n>=1} log(n) sin(2 pi n u)/n, closed via Kummer's series."""
    if not 0.0 < u < 1.0:
        raise DomainError(f"requires 0 < u < 1, got {u}")
    from .kernels import _lgamma
    return _PI * (_lgamma(u) - 0.5 * math.log(_PI / _sincos_pi(u)[0])
                  - (_C.gamma + _C.log_2pi) * (0.5 - u))


def log_cos_over_n2(u: float) -> float:
    """sum_{n>=1} log(n) cos(2 pi n u)/n^2, closed via the G-function."""
    from .kernels import _lgamma, _lnG
    if u == 1.0 or u == 0.0:
        zp_neg1_u = _C.zeta_prime_neg1
        cl = 0.0
        b2 = _bpoly(2, 1.0)
    else:
        zp_neg1_u = _C.zeta_prime_neg1 - _lnG(1.0 + u) + u * _lgamma(u)
        cl = _cl2(_TWO_PI * u)
        b2 = _bpoly(2, u)
    return (-2.0 * _PI ** 2 * zp_neg1_u
            - (_C.log_2pi + _C.gamma - 1.0) * _PI ** 2 * b2
            + 0.5 * _PI * cl)


# the truncation error psi_sin_partial sums its residuals to
_PSI_SIN_TARGET = 1e-8

# log n, 2n(4n^2-1) and 4n^2(4n^2-1) from n = 2 on, the parts of the
# residual coefficients of psi_sin_partial: one table per process, grown to
# the largest N asked for
_PSI_SIN_TABLE: tuple[list[float], list[float], list[float]] = ([], [], [])


def _psi_sin_table(n_last: int
                   ) -> tuple[list[float], list[float], list[float]]:
    """:data:`_PSI_SIN_TABLE`, grown to n = ``n_last``."""
    logs, d1, d2 = _PSI_SIN_TABLE
    for n in range(len(logs) + 2, n_last + 1):
        q = 4.0 * n * n - 1.0
        logs.append(math.log(n))
        d1.append(2.0 * n * q)
        d2.append(4.0 * n * n * q)
    return _PSI_SIN_TABLE


def _psi_sin_coeffs(n: float) -> tuple[float, float]:
    """c1_n = log n/(2n(4n^2-1)) and c2_n = log n/(4n^2(4n^2-1)), the
    coefficients of :func:`psi_sin_partial`'s sine and cosine residuals."""
    log_n, q = math.log(n), 4.0 * n * n - 1.0
    return log_n / (2.0 * n * q), log_n / (4.0 * n * n * q)


def _psi_sin_bound(n_last: int, su: float, cu: float
                   ) -> tuple[float, float, float]:
    """The truncation bound of :func:`psi_sin_partial`'s residuals past
    N = ``n_last``, times 2/pi as they enter its value, and the factors
    c1_{N+1}/(2s) and c2_{N+1}/(2s) of their boundary terms, each 0 where
    that residual keeps its first-order bound.

    The coefficients c_n fall from n = 2 on and are convex there, s =
    sin(pi u).  By Abel summation against the Dirichlet kernel each tail
    is at most c_{N+1}/s, and never more than its absolute tail, which is
    below r/8 and r/16 of the integrals of log t/t^3 and log t/t^4 from N,
    r = 1/(1 - 1/(4N^2)).  A second summation by parts (Abel's partial
    summation; Knopp, Theory and Application of Infinite Series) leaves,
    past the boundary
    terms c1_{N+1} cos((N+1/2)w)/(2s) and -c2_{N+1} sin((N+1/2)w)/(2s),
    w = 2 pi u, remainders at most dc_{N+1}/(2s^2), dc_n = c_n - c_{n+1}.
    Each residual takes the smaller of its two bounds, so near u = 0 and
    u = 1 it keeps the first.  The sine residual enters times s, which
    cancels one s of its kernel, the cosine one times cos(pi u).
    """
    n = n_last + 1.0
    log_last = math.log(n_last)
    r = 1.0 / (1.0 - 0.25 / (n_last * n_last))
    c1, c2 = _psi_sin_coeffs(n)
    c1_next, c2_next = _psi_sin_coeffs(n + 1.0)
    abs1 = r * (2.0 * log_last + 1.0) / (32.0 * n_last ** 2)
    abs2 = r * (3.0 * log_last + 1.0) / (144.0 * n_last ** 3)
    first1, first2 = min(c1, su * abs1), min(c2 / su, abs2)
    second1 = (c1 - c1_next) / (2.0 * su)
    second2 = (c2 - c2_next) / (2.0 * su) / su
    bound = min(first1, second1) + abs(cu) * min(first2, second2)
    return (2.0 / _PI * bound, c1 / (2.0 * su) if second1 < first1 else 0.0,
            c2 / (2.0 * su) if second2 < first2 else 0.0)


@lru_cache(maxsize=1)
def _sum_log_4n2m1() -> SeriesResult:
    """sum_{n>=2} log n/(4n^2-1), :func:`log_quarter_sum` at q = 1/4, once
    per process."""
    return log_quarter_sum(0.25)


def psi_sin_partial(u: float) -> SeriesResult:
    """Closed-plus-residual evaluation of the log-weighted series side of
    the partial sine transform of psi on [0, u].  The residuals take the N
    at which their bound meets ``_PSI_SIN_TARGET``, plus the boundary terms
    of a second summation by parts where that bound is the smaller
    (:func:`_psi_sin_bound`); their terms come from one table per process
    (:func:`_psi_sin_table`).  At u = 1 the sine residual vanishes and the
    cosine one is sum log n/(4n^2-1) + zeta'(2)/4 in closed form."""
    if not 0.0 < u <= 1.0:
        raise DomainError(f"requires 0 < u <= 1, got {u}")
    # k_log = sum log n/(4n^2-1)
    k_log = _sum_log_4n2m1()
    if u == 1.0:
        su, cu, s_a = 0.0, -1.0, 0.0
        r1 = 0.0
        # 1/(4n^2 (4n^2-1)) = 1/(4n^2-1) - 1/(4n^2), sum log n/n^2 = -zeta'(2)
        r2 = k_log.value + 0.25 * _C.zeta_prime_2
        n_last, trunc = k_log.terms_used, 2.0 / _PI * k_log.abs_err
    else:
        su, cu = _sincos_pi(u)
        s_a = log_sin_over_n(u)
        n_last = target_terms(lambda n: _psi_sin_bound(n, su, cu)[0],
                              n_min=2, target=_PSI_SIN_TARGET)
        trunc, e1, e2 = _psi_sin_bound(n_last, su, cu)
        w = _TWO_PI * u
        logs, d1, d2 = _psi_sin_table(n_last)
        # the terms log n trig(w n)/d_n, n = 2..N; map stops with w n
        wn = list(map(mul, repeat(w), range(2, n_last + 1)))
        edge = (n_last + 0.5) * w
        r1 = math.fsum(chain(
            map(truediv, map(mul, logs, map(math.sin, wn)), d1),
            (e1 * math.cos(edge),)))
        r2 = math.fsum(chain(
            map(truediv, map(mul, logs, map(math.cos, wn)), d2),
            (-e2 * math.sin(edge),)))
    s_c = log_cos_over_n2(u)
    series = su * (0.5 * s_a + r1) + cu * (0.25 * s_c + r2) - k_log.value
    value = (2.0 / _PI * series
             + (_C.gamma + _C.log_2pi) * (cu - 1.0) / _PI - 0.5 * su)
    err = trunc + 2.0 / _PI * k_log.abs_err + 1e-12
    return SeriesResult(value, err, n_last, "kummer_closed+residual")


@lru_cache(maxsize=None)
def _quarter_residual(n: int, odd: int) -> float:
    """n^odd/(n^2 - 1/4) less its five orders sum_{j<5} 4^-j n^(odd-2j-2),
    the residual coefficient of FS-8.13 (``odd`` = 0) and FS-8.14 (1), once
    per process for each n."""
    return n ** odd / (n * n - 0.25) - math.fsum(
        0.25 ** j / float(n) ** (2 * j + 2 - odd) for j in range(5))


@_entry("FS-8.13", "sum cos(2 pi n t)/(4n^2-1)", 1)
def fs_8_13(t: float, max_terms: int | None = None) -> SeriesResult:
    # 1/(n^2 - 1/4) = sum_j 4^-j n^(-2j-2); five exact slices + residual,
    # the residual below (4/3) 4^-5 n^-12
    return _bernoulli_fourier(
        {2 * j + 2: 0.25 ** j for j in range(5)},
        lambda n: _quarter_residual(n, 0) * math.cos(_TWO_PI * n * t), t,
        {12: 0.25 ** 5}, max_terms=max_terms, scale=0.25)


@_entry("FS-8.14", "sum n sin(2 pi n t)/(4n^2-1)", 1)
def fs_8_14(t: float, max_terms: int | None = None) -> SeriesResult:
    if not 0.0 < t < 1.0:
        raise DomainError(f"requires 0 < t < 1, got {t}")
    # n/(n^2 - 1/4) = sum_j 4^-j n^(-2j-1); the j = 0 slice is the sawtooth
    # sum sin(2 pi n t)/n, the residual below (4/3) 4^-5 n^-11
    return _bernoulli_fourier(
        {2 * j + 1: 0.25 ** j for j in range(5)},
        lambda n: _quarter_residual(n, 1) * math.sin(_TWO_PI * n * t), t,
        {11: 0.25 ** 5}, max_terms=max_terms, scale=0.25)
