"""The named-series catalog: every slow sum the identity registry needs.

Each entry returns a :class:`SeriesResult` whose ``abs_err`` covers both
truncation and the analytic-tail remainder.  Tails of the recurring shapes

    sum_{n>N} n^-s / (n^2 - q)   and   sum_{n>N} log n * n^-s / (n^2 - q)

are resummed exactly through Hurwitz-zeta expansions, so the direct parts
can stop after a few thousand terms without giving up precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, UnknownKeyError
from .kernels import (
    _bpoly,
    _ci_at_2pi_mult,
    _cl2,
    _digamma_pos,
    _euler_gamma,
    _hurwitz,
    _hurwitz_prime,
    _lnG,
    _si_small_at_pi_mult,
    _sici_raw,
    _zeta_int,
    _zeta_prime_int,
    get_constants,
)
from .series import SeriesResult, cvz_alternating, kahan_sum

__all__ = ["SeriesEntry", "SERIES_CATALOG", "sum_catalog",
           "power_series_eval", "list_series_ids"]

_PI = math.pi
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SeriesEntry:
    label: str
    nparams: int
    fn: Callable[..., SeriesResult]


SERIES_CATALOG: dict[str, SeriesEntry] = {}


def _entry(key: str, label: str, nparams: int = 0):
    def deco(fn):
        SERIES_CATALOG[key] = SeriesEntry(label, nparams, fn)
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
    if max_terms is not None:
        return entry.fn(*params, max_terms=max_terms)
    return entry.fn(*params)


# ---------------------------------------------------------------------------
# exact tail helpers
# ---------------------------------------------------------------------------

def _tail_pow_quad(n_from: int, q: float, s: int) -> float:
    """sum_{n>N} 1/(n^s (n^2-q)) as sum_j q^j zeta(s+2+2j, N+1)."""
    a = n_from + 1.0
    acc = 0.0
    qj = 1.0
    for j in range(60):
        t = qj * _hurwitz(float(s + 2 + 2 * j), a)
        acc += t
        if abs(t) < 1e-20 * max(abs(acc), 1e-30):
            break
        qj *= q
    return acc


def _tail_log_quad(n_from: int, q: float, s: int = 0) -> float:
    """sum_{n>N} log n * n^-s / (n^2-q), by the same expansion."""
    a = n_from + 1.0
    acc = 0.0
    qj = 1.0
    for j in range(60):
        t = -qj * _hurwitz_prime(float(s + 2 + 2 * j), a)
        acc += t
        if abs(t) < 1e-20 * max(abs(acc), 1e-30):
            break
        qj *= q
    return acc


def _tail_zh(coeffs: dict[int, float], n_from: int) -> float:
    """sum_{n>N} sum_k c_k n^-k  with exact Hurwitz tails."""
    a = n_from + 1.0
    return math.fsum(c * _hurwitz(float(k), a) for k, c in coeffs.items())


def _tail_zh_log(coeffs: dict[int, float], n_from: int) -> float:
    """sum_{n>N} sum_k c_k log(n) n^-k."""
    a = n_from + 1.0
    return math.fsum(-c * _hurwitz_prime(float(k), a)
                     for k, c in coeffs.items())


def _np_sum(values: np.ndarray) -> float:
    # pairwise summation inside numpy is plenty for accumulation accuracy
    return float(values.sum())


# ---------------------------------------------------------------------------
# section 1: the log-weighted quadratic-denominator lemmas
# ---------------------------------------------------------------------------

@_entry("S-1.20", "sum log n/(n^2+u^2)", 1)
def s_1_20(u: float, max_terms: int = 4000) -> SeriesResult:
    n = np.arange(1, max_terms + 1, dtype=float)
    direct = _np_sum(np.log(n) / (n * n + u * u))
    tail = _tail_log_quad(max_terms, -u * u)
    value = direct + tail
    err = 5e-15 * (1.0 + abs(value))
    if abs(u) < 1.0:
        # Taylor cross-route: sum_m (-1)^m zeta'(2m) u^(2m-2)
        alt = 0.0
        pw = 1.0
        for m in range(1, 80):
            t = (-1.0) ** m * _zeta_prime_int(2 * m) * pw
            alt += t
            pw *= u * u
            if abs(t) < 1e-18:
                break
        err += abs(value - alt)
    return SeriesResult(value, err, max_terms, "direct+zh_tail")


@_entry("S-1.23", "sum 1/(n^2+u^2)", 1)
def s_1_23(u: float, max_terms: int = 4000) -> SeriesResult:
    n = np.arange(1, max_terms + 1, dtype=float)
    direct = _np_sum(1.0 / (n * n + u * u))
    value = direct + _tail_pow_quad(max_terms, -u * u, 0)
    err = 5e-15 * (1.0 + abs(value))
    if abs(u) < 1.0:
        alt = 0.0
        pw = 1.0
        for m in range(1, 80):
            t = (-1.0) ** (m + 1) * _zeta_int(2 * m) * pw
            alt += t
            pw *= u * u
            if abs(t) < 1e-18:
                break
        err += abs(value - alt)
    return SeriesResult(value, err, max_terms, "direct+zh_tail")


@_entry("S-2.8", "sum 1/(n (n^2-p^2))", 1)
def s_2_8(p: float, max_terms: int = 4000) -> SeriesResult:
    if abs(p) >= 1.0 and abs(p - round(p)) < 1e-12:
        raise DomainError(f"pole at integer p={p}")
    n = np.arange(1, max_terms + 1, dtype=float)
    direct = _np_sum(1.0 / (n * (n * n - p * p)))
    value = direct + _tail_pow_quad(max_terms, p * p, 1)
    return SeriesResult(value, 5e-15 * (1.0 + abs(value)), max_terms,
                        "direct+zh_tail")


# ---------------------------------------------------------------------------
# section 3: si/Ci-weighted sums
# ---------------------------------------------------------------------------

def _si_asym_2pi(n: float) -> float:
    x = _TWO_PI * n
    x2 = x * x
    return -(1.0 / x) * (1.0 - 2.0 / x2 + 24.0 / (x2 * x2)
                         - 720.0 / (x2 * x2 * x2))


@_entry("S-3.8", "sum si(2 pi n)/(n (4n^2-p^2))", 1)
def s_3_8(p: float, max_terms: int = 4000) -> SeriesResult:
    if not 0.0 < abs(p) < 2.0:
        raise DomainError(f"requires 0 < |p| < 2, got {p}")
    q = 0.25 * p * p
    acc = kahan_sum(
        _si_small_at_pi_mult(n) / (n * (4.0 * n * n - p * p))
        for n in range(1, 201))
    acc += kahan_sum(
        _si_asym_2pi(n) / (n * (4.0 * n * n - p * p))
        for n in range(201, max_terms + 1))
    # beyond: si(2 pi n) ~ -1/(2 pi n) + 2/(2 pi n)^3 - 24/(2 pi n)^5
    tail = (-1.0 / _TWO_PI * _tail_pow_quad(max_terms, q, 2)
            + 2.0 / _TWO_PI ** 3 * _tail_pow_quad(max_terms, q, 4)
            - 24.0 / _TWO_PI ** 5 * _tail_pow_quad(max_terms, q, 6)) / 4.0
    value = acc + tail
    return SeriesResult(value, 1e-14 * (1.0 + abs(value)), max_terms,
                        "lattice+asymptotic")


@_entry("S-3.14", "sum [Ci(2 pi n)-gamma-log(2 pi n)]/(4n^2-p^2)", 1)
def s_3_14(p: float, max_terms: int = 4000) -> SeriesResult:
    if not 0.0 < abs(p) < 2.0:
        raise DomainError(f"requires 0 < |p| < 2, got {p}")
    g = _euler_gamma()
    q = 0.25 * p * p
    # Ci part
    acc = kahan_sum(
        _ci_at_2pi_mult(n) / (4.0 * n * n - p * p) for n in range(1, 201))
    acc += kahan_sum(
        -(1.0 / (_TWO_PI * n) ** 2) * (1.0 - 6.0 / (_TWO_PI * n) ** 2)
        / (4.0 * n * n - p * p) for n in range(201, max_terms + 1))
    tail_ci = (-1.0 / _TWO_PI ** 2 * _tail_pow_quad(max_terms, q, 2)
               + 6.0 / _TWO_PI ** 4 * _tail_pow_quad(max_terms, q, 4)) / 4.0
    # -(gamma + log 2 pi) sum 1/(4n^2-p^2): exact closed form
    s_quad = 0.5 / (p * p) - _PI / (4.0 * p) * (
        math.cos(_PI * p / 2.0) / math.sin(_PI * p / 2.0))
    # - sum log n/(4 n^2 - p^2)
    n = np.arange(1, max_terms + 1, dtype=float)
    s_log = _np_sum(np.log(n) / (4.0 * n * n - p * p)) + 0.25 * _tail_log_quad(
        max_terms, q)
    value = acc + tail_ci - (g + math.log(_TWO_PI)) * s_quad - s_log
    return SeriesResult(value, 2e-14 * (1.0 + abs(value)), max_terms,
                        "lattice+closed_forms")


@_entry("S-4.26", "sum Si(2 pi n)/n^2", 0)
def s_4_26(max_terms: int = 200) -> SeriesResult:
    value = 0.5 * _PI * _zeta_int(2)
    value += kahan_sum(_si_small_at_pi_mult(n) / (n * n)
                       for n in range(1, 201))
    a = 201.0
    value += (-1.0 / _TWO_PI * _hurwitz(3.0, a)
              + 2.0 / _TWO_PI ** 3 * _hurwitz(5.0, a)
              - 24.0 / _TWO_PI ** 5 * _hurwitz(7.0, a)
              + 720.0 / _TWO_PI ** 7 * _hurwitz(9.0, a))
    return SeriesResult(value, 1e-13 * (1.0 + abs(value)), 200,
                        "lattice+asymptotic")


@_entry("S-4.29-rhs", "sum Si(n pi)/n^2", 0)
def s_4_29_rhs(max_terms: int = 4000) -> SeriesResult:
    value = 0.5 * _PI * _zeta_int(2)
    value += kahan_sum(
        _si_small_at_pi_mult(n, twice=False) / (n * n) for n in range(1, 201))
    # si(n pi) = -(-1)^n f(n pi); sum the asymptotic form out to max_terms
    value += kahan_sum(
        -(-1.0) ** (n % 2) * _f_asym(n * _PI) / (n * n)
        for n in range(201, max_terms + 1))
    err = 1.0 / (_PI * (max_terms + 1.0) ** 3) + 1e-13 * (1.0 + abs(value))
    return SeriesResult(value, err, max_terms, "lattice+asymptotic")


def _f_asym(x: float) -> float:
    x2 = x * x
    return (1.0 / x) * (1.0 - 2.0 / x2 + 24.0 / (x2 * x2)
                        - 720.0 / (x2 * x2 * x2))


@_entry("S-4.30-rhs", "sum Si((2n-1) pi)/(2n-1)^2", 0)
def s_4_30_rhs(max_terms: int = 4000) -> SeriesResult:
    acc = 0.0
    for n in range(1, max_terms + 1):
        m = 2 * n - 1
        if m <= 401:
            si_m = _si_small_at_pi_mult(m, twice=False)
        else:
            si_m = _f_asym(m * _PI)  # si((2n-1) pi) = +f for odd m
        acc += (0.5 * _PI + si_m) / (m * m)
    a = max_terms + 0.5
    tail = 0.5 * _PI * 0.25 * _hurwitz(2.0, a) + (1.0 / _PI) * 0.125 * _hurwitz(
        3.0, a)
    value = acc + tail
    return SeriesResult(value, 1e-12 * (1.0 + abs(value)), max_terms,
                        "lattice+asymptotic")


@_entry("S-4.27", "sum zeta(2n)/(2n+1)^2", 0)
def s_4_27(max_terms: int = 400) -> SeriesResult:
    # zeta(2n) -> 1, so split off sum 1/(2n+1)^2 = pi^2/8 - 1
    value = _PI * _PI / 8.0 - 1.0
    for n in range(1, max_terms + 1):
        t = _hurwitz(2.0 * n, 2.0) / (2 * n + 1) ** 2
        value += t
        if t < 1e-19:
            break
    return SeriesResult(value, 1e-14 * (1.0 + abs(value)), max_terms,
                        "zeta_split")


# ---------------------------------------------------------------------------
# section 4: harmonic/log families
# ---------------------------------------------------------------------------

@_entry("S-4.4-Tn", "T_n = sum_{m != n} log m/(m^2-n^2)", 1)
def s_4_4_tn(n: float, max_terms: int = 20000) -> SeriesResult:
    n = int(n)
    if n < 1:
        raise DomainError(f"requires integer n >= 1, got {n}")
    m = np.arange(1, max_terms + 1, dtype=float)
    den = m * m - float(n) * float(n)
    den[n - 1] = 1.0  # excluded term, blanked below
    vals = np.log(m) / den
    vals[n - 1] = 0.0
    value = _np_sum(vals) + _tail_log_quad(max_terms, float(n) * float(n))
    return SeriesResult(value, 1e-13 * (1.0 + abs(value)), max_terms,
                        "direct+zh_tail")


@lru_cache(maxsize=8)
def _tn_batch(n_max: int, m_terms: int = 20000) -> tuple[float, ...]:
    """T_1 .. T_{n_max} in one vectorised pass."""
    m = np.arange(1, m_terms + 1, dtype=float)
    logm = np.log(m)
    m2 = m * m
    out = []
    zp = [-_hurwitz_prime(float(2 + 2 * j), m_terms + 1.0) for j in range(12)]
    for n in range(1, n_max + 1):
        n2 = float(n * n)
        den = m2 - n2
        den[n - 1] = 1.0
        vals = logm / den
        vals[n - 1] = 0.0
        tail = 0.0
        qj = 1.0
        for j in range(12):
            t = qj * zp[j]
            tail += t
            if abs(t) < 1e-19:
                break
            qj *= n2
        out.append(float(vals.sum()) + tail)
    return tuple(out)


@_entry("S-4.31.1", "sum (gamma + log n - H_n)/n", 0)
def s_4_31_1(max_terms: int = 2000) -> SeriesResult:
    g = _euler_gamma()
    acc = 0.0
    h = 0.0
    for n in range(1, max_terms + 1):
        h += 1.0 / n
        acc += (g + math.log(n) - h) / n
    # gamma + log n - H_n = -1/2n + 1/12n^2 - 1/120n^4 + 1/252n^6 - ...
    tail = _tail_zh({2: -0.5, 3: 1.0 / 12.0, 5: -1.0 / 120.0,
                     7: 1.0 / 252.0}, max_terms)
    value = acc + tail
    return SeriesResult(value, 1e-13 * (1.0 + abs(value)), max_terms,
                        "direct+asymptotic_tail")


@_entry("S-4.32", "sum H_n [log(1+1/n) - 1/n]", 0)
def s_4_32(max_terms: int = 2000) -> SeriesResult:
    acc = 0.0
    h = 0.0
    for n in range(1, max_terms + 1):
        h += 1.0 / n
        acc += h * (math.log1p(1.0 / n) - 1.0 / n)
    g = _euler_gamma()
    log_part = {2: -0.5, 3: 1.0 / 3.0, 4: -0.25, 5: 0.2, 6: -1.0 / 6.0}
    plain = {3: -0.25, 4: 5.0 / 24.0, 5: -11.0 / 72.0, 6: 7.0 / 60.0}
    tail = (_tail_zh_log(log_part, max_terms)
            + _tail_zh({k: g * c for k, c in log_part.items()}, max_terms)
            + _tail_zh(plain, max_terms))
    value = acc + tail
    return SeriesResult(value, 1e-13 * (1.0 + abs(value)), max_terms,
                        "direct+asymptotic_tail")


# ---------------------------------------------------------------------------
# section 5
# ---------------------------------------------------------------------------

@_entry("S-5.13", "sum [n/(n^2-x^2) - log(1+1/n)]", 1)
def s_5_13(x: float, max_terms: int = 10000) -> SeriesResult:
    if abs(x) >= 1.0 and abs(x - round(x)) < 1e-12:
        raise DomainError(f"pole at integer x={x}")
    c = x * x
    acc = kahan_sum(n / (n * n - c) - math.log1p(1.0 / n)
                    for n in range(1, max_terms))
    n = float(max_terms)
    tail_int = ((n + 1.0) * math.log1p(1.0 / n) - 1.0
                - 0.5 * math.log1p(-c / (n * n)))
    f_n = n / (n * n - c) - math.log1p(1.0 / n)
    fp_n = -(n * n + c) / (n * n - c) ** 2 + 1.0 / (n * (n + 1.0))
    value = acc + tail_int + 0.5 * f_n - fp_n / 12.0
    return SeriesResult(value, abs(fp_n) * 1e-3 + 1e-13 * (1.0 + abs(value)),
                        max_terms, "direct+em_tail")


@_entry("S-5.18", "sum [n log(1-1/4n^2) + log(1+1/n)/4]", 0)
def s_5_18(max_terms: int = 10000) -> SeriesResult:
    acc = kahan_sum(
        n * math.log1p(-0.25 / (n * n)) + 0.25 * math.log1p(1.0 / n)
        for n in range(1, max_terms + 1))
    # term ~ -1/8 n^-2 + 5/96 n^-3 - 1/16 n^-4 + 43/960 n^-5
    tail = _tail_zh({2: -0.125, 3: 5.0 / 96.0, 4: -1.0 / 16.0,
                     5: 43.0 / 960.0}, max_terms)
    value = acc + tail
    return SeriesResult(value, 3e-14 * (1.0 + abs(value)) + 1e-15, max_terms,
                        "direct+asymptotic_tail")


@_entry("S-5.44.4", "sum [(1+n) log(1+1/n) - 1 - 1/(2n)]", 0)
def s_5_44_4(max_terms: int = 4000) -> SeriesResult:
    acc = kahan_sum((1.0 + n) * math.log1p(1.0 / n) - 1.0 - 0.5 / n
                    for n in range(1, max_terms + 1))
    # exact expansion coefficient of n^-m is (-1)^(m+1)/(m(m+1)), m >= 2
    coeffs = {m: (-1.0) ** (m + 1) / (m * (m + 1.0)) for m in range(2, 9)}
    value = acc + _tail_zh(coeffs, max_terms)
    return SeriesResult(value, 2e-14 * (1.0 + abs(value)), max_terms,
                        "direct+asymptotic_tail")


@_entry("S-5.44.5", "sum [(1/2+n) log(1+1/n) - 1]", 0)
def s_5_44_5(max_terms: int = 4000) -> SeriesResult:
    acc = kahan_sum((0.5 + n) * math.log1p(1.0 / n) - 1.0
                    for n in range(1, max_terms + 1))
    coeffs = {m: (-1.0) ** m * (m - 1.0) / (2.0 * m * (m + 1.0))
              for m in range(2, 9)}
    value = acc + _tail_zh(coeffs, max_terms)
    return SeriesResult(value, 2e-14 * (1.0 + abs(value)), max_terms,
                        "direct+asymptotic_tail")


@_entry("S-5.45", "sum log(n+1)/(n(n+1))", 0)
def s_5_45(max_terms: int = 4000) -> SeriesResult:
    acc = kahan_sum(math.log(n + 1.0) / (n * (n + 1.0))
                    for n in range(1, max_terms + 1))
    log_part = {2: 1.0, 3: -1.0, 4: 1.0, 5: -1.0, 6: 1.0}
    plain = {3: 1.0, 4: -1.5, 5: 11.0 / 6.0, 6: -25.0 / 12.0}
    value = acc + _tail_zh_log(log_part, max_terms) + _tail_zh(plain, max_terms)
    return SeriesResult(value, 2e-14 * (1.0 + abs(value)), max_terms,
                        "direct+asymptotic_tail")


@_entry("S-5.45.2", "sum (-1)^(n+1) zeta(n+1)/n", 0)
def s_5_45_2(max_terms: int = 80) -> SeriesResult:
    value = math.log(2.0)
    for n in range(1, max_terms + 1):
        t = (-1.0) ** (n + 1) * _hurwitz(n + 1.0, 2.0) / n
        value += t
        if abs(t) < 1e-19:
            break
    return SeriesResult(value, 1e-14 * (1.0 + abs(value)), max_terms,
                        "zeta_split")


@_entry("S-5.45.3", "-sum_{n>=2} zeta'(n)", 0)
def s_5_45_3(max_terms: int = 80) -> SeriesResult:
    value = 0.0
    for n in range(2, max_terms + 2):
        t = -_zeta_prime_int(n)
        value += t
        if abs(t) < 1e-19:
            break
    return SeriesResult(value, 1e-14 * (1.0 + abs(value)), max_terms,
                        "direct")


@_entry("S-5.45.4", "sum log(1+1/n)/n", 0)
def s_5_45_4(max_terms: int = 4000) -> SeriesResult:
    acc = kahan_sum(math.log1p(1.0 / n) / n for n in range(1, max_terms + 1))
    coeffs = {m: (-1.0) ** m / (m - 1.0) for m in range(2, 9)}
    value = acc + _tail_zh(coeffs, max_terms)
    return SeriesResult(value, 2e-14 * (1.0 + abs(value)), max_terms,
                        "direct+asymptotic_tail")


@_entry("S-5.46.2", "sum [zeta(2n+1) - 1]", 0)
def s_5_46_2(max_terms: int = 60) -> SeriesResult:
    value = 0.0
    for n in range(1, max_terms + 1):
        t = _hurwitz(2.0 * n + 1.0, 2.0)
        value += t
        if t < 1e-19:
            break
    return SeriesResult(value, 1e-14 * (1.0 + abs(value)) + t / 3.0,
                        max_terms, "zeta_minus_one")


@_entry("S-5.49", "sum_{n>=2} log(1-1/n^2)/n", 0)
def s_5_49(max_terms: int = 4000) -> SeriesResult:
    acc = kahan_sum(math.log1p(-1.0 / (n * n)) / n
                    for n in range(2, max_terms + 1))
    coeffs = {3: -1.0, 5: -0.5, 7: -1.0 / 3.0}
    value = acc + _tail_zh(coeffs, max_terms)
    return SeriesResult(value, 2e-14 * (1.0 + abs(value)), max_terms,
                        "direct+asymptotic_tail")


@_entry("S-5.56", "sum_{j>=2} [j log(1-1/j) + 1 + 1/(2j)]", 0)
def s_5_56(max_terms: int = 4000) -> SeriesResult:
    acc = kahan_sum(j * math.log1p(-1.0 / j) + 1.0 + 0.5 / j
                    for j in range(2, max_terms + 1))
    # j log(1-1/j) = -1 - 1/(2j) - sum_{k>=2} j^-k/(k+1)
    coeffs = {k: -1.0 / (k + 1.0) for k in range(2, 9)}
    value = acc + _tail_zh(coeffs, max_terms)
    return SeriesResult(value, 2e-14 * (1.0 + abs(value)), max_terms,
                        "direct+asymptotic_tail")


@_entry("S-5.57-aux", "sum_{j>=2} j/(j^2-1)^2  (which=1)  or  1/(j(j^2-1))  (which=2)", 1)
def s_5_57_aux(which: float, max_terms: int = 4000) -> SeriesResult:
    which = int(which)
    if which == 1:
        acc = kahan_sum(j / (j * j - 1.0) ** 2 for j in range(2, max_terms + 1))
        a = max_terms + 1.0
        tail = math.fsum(m * _hurwitz(2.0 * m + 1.0, a) for m in range(1, 12))
    elif which == 2:
        acc = kahan_sum(1.0 / (j * (j * j - 1.0))
                        for j in range(2, max_terms + 1))
        tail = _tail_pow_quad(max_terms, 1.0, 1)
    else:
        raise DomainError("which must be 1 or 2")
    value = acc + tail
    return SeriesResult(value, 1e-14 * (1.0 + abs(value)), max_terms,
                        "direct+zh_tail")


@_entry("S-5.58.1", "sum [j log(1+1/j) - 1 + 1/(2j)]", 0)
def s_5_58_1(max_terms: int = 4000) -> SeriesResult:
    acc = kahan_sum(j * math.log1p(1.0 / j) - 1.0 + 0.5 / j
                    for j in range(1, max_terms + 1))
    coeffs = {k: (-1.0) ** k / (k + 1.0) for k in range(2, 9)}
    value = acc + _tail_zh(coeffs, max_terms)
    return SeriesResult(value, 2e-14 * (1.0 + abs(value)), max_terms,
                        "direct+asymptotic_tail")


# ---------------------------------------------------------------------------
# section 6
# ---------------------------------------------------------------------------

@_entry("S-6.3", "sum_{n>=2} log(1-1/n^2)", 0)
def s_6_3(max_terms: int = 4000) -> SeriesResult:
    acc = kahan_sum(math.log1p(-1.0 / (n * n))
                    for n in range(2, max_terms + 1))
    coeffs = {2 * k: -1.0 / k for k in range(1, 8)}
    value = acc + _tail_zh(coeffs, max_terms)
    return SeriesResult(value, 2e-14 * (1.0 + abs(value)), max_terms,
                        "direct+asymptotic_tail")


@_entry("S-6.4", "sum_{n>=2} (-1)^(n+1) log(1-1/n^2)", 0)
def s_6_4(max_terms: int = 44) -> SeriesResult:
    n_ord = min(max_terms, 80)  # acceleration order, not a term count
    v, e = cvz_alternating(
        lambda k: -math.log1p(-1.0 / ((k + 2.0) * (k + 2.0))), n_ord)
    return SeriesResult(v, e, n_ord, "cvz")


@_entry("S-6.5", "sum (-1)^(n+1) log(1+1/n)", 0)
def s_6_5(max_terms: int = 4000) -> SeriesResult:
    # paired: equals sum_k -log(1 - 1/(4k^2))
    acc = kahan_sum(-math.log1p(-0.25 / (k * k))
                    for k in range(1, max_terms + 1))
    coeffs = {2 * j: 0.25 ** j / j for j in range(1, 8)}
    value = acc + _tail_zh(coeffs, max_terms)
    return SeriesResult(value, 2e-14 * (1.0 + abs(value)), max_terms,
                        "paired+asymptotic_tail")


@_entry("S-6.6", "sum_{n>=2} (-1)^(n+1) log(1-1/n)", 0)
def s_6_6(max_terms: int = 4000) -> SeriesResult:
    # pairing consecutive terms gives the same reduced series as S-6.5
    r = s_6_5(max_terms)
    return SeriesResult(r.value, r.abs_err, r.terms_used,
                        "paired+asymptotic_tail")


@_entry("S-6.23", "sum_{n>=2} psi(n+1/2) log(1-1/n^2)", 0)
def s_6_23(max_terms: int = 3000) -> SeriesResult:
    acc = kahan_sum(_digamma_pos(n + 0.5) * math.log1p(-1.0 / (n * n))
                    for n in range(2, max_terms + 1))
    # psi(n+1/2) = log n + 1/(24 n^2) + O(n^-4)
    tail = (_tail_zh_log({2: -1.0, 4: -0.5}, max_terms)
            + _tail_zh({4: -1.0 / 24.0}, max_terms))
    value = acc + tail
    return SeriesResult(value, 1e-13 * (1.0 + abs(value)), max_terms,
                        "direct+asymptotic_tail")


@_entry("S-6.24-aux", "sum n/(4n^2-1)^k for k in {2,3}", 1)
def s_6_24_aux(k: float, max_terms: int = 3000) -> SeriesResult:
    k = int(k)
    if k not in (2, 3):
        raise DomainError("k must be 2 or 3")
    acc = kahan_sum(n / (4.0 * n * n - 1.0) ** k
                    for n in range(1, max_terms + 1))
    a = max_terms + 1.0
    q = 0.25
    if k == 2:
        tail = (1.0 / 16.0) * math.fsum(
            m * q ** (m - 1) * _hurwitz(2.0 * m + 1.0, a)
            for m in range(1, 12))
    else:
        tail = (1.0 / 64.0) * math.fsum(
            math.comb(m, 2) * q ** (m - 2) * _hurwitz(2.0 * m + 1.0, a)
            for m in range(2, 13))
    value = acc + tail
    return SeriesResult(value, 1e-14 * (1.0 + abs(value)), max_terms,
                        "direct+zh_tail")


@_entry("S-6.33", "sum (-1)^n n/(4n^2-1)^3", 0)
def s_6_33(max_terms: int = 2000) -> SeriesResult:
    acc = kahan_sum((-1.0) ** (n % 2) * n / (4.0 * n * n - 1.0) ** 3
                    for n in range(1, max_terms + 1))
    err = (max_terms + 1.0) / (4.0 * (max_terms + 1.0) ** 2 - 1.0) ** 3
    return SeriesResult(acc, err + 1e-16, max_terms, "alternating")


# ---------------------------------------------------------------------------
# section 7 / 8
# ---------------------------------------------------------------------------

@_entry("S-7.11", "sum (-1)^n log(1+1/n)/(2n+1)", 0)
def s_7_11(max_terms: int = 44) -> SeriesResult:
    n_ord = min(max_terms, 80)
    v, e = cvz_alternating(
        lambda k: math.log1p(1.0 / (k + 1.0)) / (2.0 * k + 3.0), n_ord)
    return SeriesResult(-v, e, n_ord, "cvz")


@_entry("S-7.11-aux", "sum (-1)^n n log n/(4n^2-1)", 0)
def s_7_11_aux(max_terms: int = 44) -> SeriesResult:
    n_ord = min(max_terms, 80)
    v, e = cvz_alternating(
        lambda k: (k + 1.0) * math.log(k + 1.0)
        / (4.0 * (k + 1.0) ** 2 - 1.0), n_ord)
    return SeriesResult(-v, e, n_ord, "cvz")


@_entry("S-7.12", "sum log(1+1/n)/(2n+1)", 0)
def s_7_12(max_terms: int = 4000) -> SeriesResult:
    acc = kahan_sum(math.log1p(1.0 / n) / (2.0 * n + 1.0)
                    for n in range(1, max_terms + 1))
    # log(1+1/n)/(2n+1): product expansion through n^-6
    coeffs = {2: 0.5, 3: -0.5, 4: 5.0 / 12.0, 5: -1.0 / 3.0, 6: 4.0 / 15.0}
    tail = _tail_zh(coeffs, max_terms)
    err = _hurwitz(7.0, max_terms + 1.0) * 0.3 + 2e-14 * (1.0 + abs(acc))
    return SeriesResult(acc + tail, err, max_terms,
                        "direct+asymptotic_tail")


@_entry("S-8.11", "sum 1/(4n^2-1)", 0)
def s_8_11(max_terms: int = 4000) -> SeriesResult:
    acc = kahan_sum(1.0 / (4.0 * n * n - 1.0) for n in range(1, max_terms + 1))
    value = acc + 0.25 * _tail_pow_quad(max_terms, 0.25, 0)
    return SeriesResult(value, 1e-14 * (1.0 + abs(value)), max_terms,
                        "direct+zh_tail")


# ---------------------------------------------------------------------------
# power-series families (Maclaurin coefficients built from zeta values)
# ---------------------------------------------------------------------------

def _zeta_m1(k: int) -> float:
    """zeta(k) - 1, full relative precision."""
    return _hurwitz(float(k), 2.0)


def power_series_eval(key: str, x: float, max_terms: int = 300) -> SeriesResult:
    """Evaluate one of the PS-* Maclaurin families at |x| < 1.

    Every family converges on the unit disc; the zeta(k) -> 1 part of each
    coefficient is resummed in closed form so that arguments near the
    boundary stay cheap and accurate.
    """
    if key not in _PS_KEYS:
        raise UnknownKeyError(f"unknown power series id {key!r}")
    if abs(x) >= 1.0:
        raise DomainError(f"{key} requires |x| < 1, got {x}")
    g = _euler_gamma()
    x2 = x * x
    if key == "PS-5.1":
        value = g - x2 / (1.0 + x2)
        value += _ps_fast(lambda n: (-1.0) ** n * _zeta_m1(2 * n + 1), x2,
                          start_pow=1, max_terms=max_terms)
    elif key == "PS-5.17":
        # terms x^(2n+2): the zeta->1 part is sum_{m>=2} x2^m/m
        value = -math.log1p(-x2) - x2 + _ps_fast(
            lambda n: _zeta_m1(2 * n + 1) / (n + 1.0), x2, start_pow=2,
            max_terms=max_terms)
    elif key == "PS-5.30":
        value = x2 / (1.0 - x2) + _ps_fast(
            lambda n: _zeta_m1(2 * n + 1), x2, start_pow=1,
            max_terms=max_terms)
    elif key == "PS-5.32":
        value = math.atanh(x) - x + x * _ps_fast(
            lambda n: _zeta_m1(2 * n + 1) / (2 * n + 1.0), x2, start_pow=1,
            max_terms=max_terms)
    elif key == "PS-5.41":
        # real part: sum (-1)^m zeta(2m)/(2m) x^2m; imag: -gx + odd family
        re = _ps_fast(lambda m: (-1.0) ** m * _zeta_int(2 * m) / (2.0 * m),
                      x2, start_pow=1, max_terms=max_terms)
        im = -g * x + x * _ps_fast(
            lambda m: (-1.0) ** (m + 1) * _zeta_int(2 * m + 1)
            / (2.0 * m + 1.0), x2, start_pow=1, max_terms=max_terms)
        return SeriesResult(complex(re, im), 1e-13 * (1.0 + abs(re) + abs(im)),
                            max_terms, "taylor")
    elif key == "PS-5.53":
        value = -math.log1p(-x2) + _ps_fast(
            lambda n: _zeta_m1(2 * n + 1) / n, x2, start_pow=1,
            max_terms=max_terms)
    elif key == "PS-5.54":
        value = -math.log1p(-x2) + _ps_fast(
            lambda n: _zeta_m1(2 * n) / n, x2, start_pow=1,
            max_terms=max_terms)
    else:  # PS-5.55
        value = 2.0 * math.atanh(x) + math.log1p(-x2) / x + (1.0 / x) * _ps_fast(
            lambda n: _zeta_m1(2 * n) / (n * (2 * n - 1.0)), x2, start_pow=1,
            max_terms=max_terms)
    return SeriesResult(value, 2e-15 * (1.0 + abs(value)) + _ps_tail_bound(x2),
                        max_terms, "taylor_accelerated")


def _ps_fast(coeff: Callable[[int], float], x2: float, start_pow: int,
             max_terms: int) -> float:
    acc = 0.0
    pw = x2 ** start_pow
    for n in range(1, max_terms):
        t = coeff(n) * pw
        acc += t
        if abs(t) < 1e-19 * max(abs(acc), 1e-25):
            break
        pw *= x2
    return acc


def _ps_tail_bound(x2: float) -> float:
    # the zeta-1 coefficients decay like 4^-n on top of x2^n
    r = 0.25 * x2
    return 1e-19 * r / max(1.0 - r, 0.5)


_PS_KEYS = ("PS-5.1", "PS-5.17", "PS-5.30", "PS-5.32", "PS-5.41",
            "PS-5.53", "PS-5.54", "PS-5.55")

for _k in _PS_KEYS:
    SERIES_CATALOG[_k] = SeriesEntry(f"power series {_k}", 1,
                                     (lambda key: lambda x, max_terms=300:
                                      power_series_eval(key, x, max_terms))(_k))


# ---------------------------------------------------------------------------
# Fourier-type partial evaluations
# ---------------------------------------------------------------------------

def _cos_zeta_sum(j: int, t: float) -> float:
    """sum_{n>=1} cos(2 pi n t)/n^(2j), exact via Bernoulli polynomials."""
    t = t - math.floor(t)
    return ((-1.0) ** (j + 1) * _TWO_PI ** (2 * j) * _bpoly(2 * j, t)
            / (2.0 * math.factorial(2 * j)))


def _sin_zeta_sum(j: int, t: float) -> float:
    """sum_{n>=1} sin(2 pi n t)/n^(2j+1), exact via Bernoulli polynomials."""
    t = t - math.floor(t)
    return ((-1.0) ** (j + 1) * _TWO_PI ** (2 * j + 1) * _bpoly(2 * j + 1, t)
            / (2.0 * math.factorial(2 * j + 1)))


@_entry("FS-6.2", "sum_{n>=2} log(1-1/n^2) cos(2 pi n x)", 1)
def fs_6_2(x: float, max_terms: int = 40) -> SeriesResult:
    # log(1-1/n^2) = -sum_j 1/(j n^2j); the j <= 6 slices are exact
    acc = 0.0
    for j in range(1, 7):
        acc -= (_cos_zeta_sum(j, x) - math.cos(_TWO_PI * x)) / j
    for n in range(2, max_terms + 1):
        rho = math.log1p(-1.0 / (n * n)) + math.fsum(
            1.0 / (j * float(n) ** (2 * j)) for j in range(1, 7))
        acc += rho * math.cos(_TWO_PI * n * x)
    return SeriesResult(acc, 1e-13 * (1.0 + abs(acc)), max_terms,
                        "bernoulli_closed+residual")


def log_weighted_sin_sum(x: float, max_terms: int = 40) -> float:
    """sum_{n>=2} log(1-1/n^2) sin(2 pi n x)/n  (building block)."""
    acc = 0.0
    for j in range(1, 6):
        acc -= (_sin_zeta_sum(j, x) - math.sin(_TWO_PI * x)) / j
    for n in range(2, max_terms + 1):
        rho = math.log1p(-1.0 / (n * n)) + math.fsum(
            1.0 / (j * float(n) ** (2 * j)) for j in range(1, 6))
        acc += rho * math.sin(_TWO_PI * n * x) / n
    return acc


@_entry("FS-7.1", "sum log(1+1/n) sin((2n+1) pi x)", 1)
def fs_7_1(x: float, max_terms: int = 200000) -> SeriesResult:
    if not 0.0 < x < 1.0:
        raise DomainError(f"requires 0 < x < 1, got {x}")
    th = _PI * x
    cs, sn = math.cos(th), math.sin(th)
    # log(1+1/n) = 1/n - 1/(2n^2) + e_n
    acc = cs * 0.5 * (_PI - 2.0 * th) + sn * (-math.log(2.0 * math.sin(th)))
    acc -= 0.5 * (cs * _cl2(2.0 * th) + sn * _cos_zeta_sum(1, x))
    n = np.arange(1, max_terms + 1, dtype=float)
    e_n = np.log1p(1.0 / n) - 1.0 / n + 0.5 / (n * n)
    acc += _np_sum(e_n * np.sin((2.0 * n + 1.0) * th))
    err = 1.0 / (6.0 * max_terms ** 2) + 1e-13 * (1.0 + abs(acc))
    return SeriesResult(acc, err, max_terms, "closed+residual")


@_entry("FS-4.16", "Fourier partial sum for log G(x)", 1)
def fs_4_16(x: float, max_terms: int = 2000) -> SeriesResult:
    if not 0.0 < x < 1.0:
        raise DomainError(f"requires 0 < x < 1, got {x}")
    c = get_constants()
    tns = _tn_batch(max_terms)
    n = np.arange(1, max_terms + 1, dtype=float)
    hn = np.cumsum(1.0 / n)
    logn = np.log(n)
    a_n = ((0.5 * logn - c.gamma - c.log_2pi - 1.0) / (2.0 * _PI ** 2 * n * n)
           - 1.0 / (4.0 * n) - np.asarray(tns) / _PI ** 2)
    b_n = (0.5 / n - c.gamma - np.log(4.0 * _PI ** 2 * n) - hn) / (
        2.0 * _PI * n)
    a0 = 1.0 / 12.0 - 2.0 * c.log_A - 0.25 * c.log_2pi
    terms = a_n * np.cos(_TWO_PI * n * x) + b_n * np.sin(_TWO_PI * n * x)
    partials = a0 + np.cumsum(terms)
    window = partials[-64:]
    value = float(window.mean())
    err = float(window.max() - window.min()) + 1e-12
    return SeriesResult(value, err, max_terms, "fourier_partial_mean")


def log_sin_over_n(u: float) -> float:
    """sum_{n>=1} log(n) sin(2 pi n u)/n, closed via Kummer's series."""
    if not 0.0 < u < 1.0:
        raise DomainError(f"requires 0 < u < 1, got {u}")
    from .kernels import _lgamma
    c = get_constants()
    return _PI * (_lgamma(u) - 0.5 * math.log(_PI / math.sin(_PI * u))
                  - (c.gamma + c.log_2pi) * (0.5 - u))


def log_cos_over_n2(u: float) -> float:
    """sum_{n>=1} log(n) cos(2 pi n u)/n^2, closed via the G-function."""
    from .kernels import _lgamma, _lnG
    c = get_constants()
    if u == 1.0 or u == 0.0:
        zp_neg1_u = c.zeta_prime_neg1
        cl = 0.0
        b2 = _bpoly(2, 1.0)
    else:
        zp_neg1_u = c.zeta_prime_neg1 - _lnG(1.0 + u) + u * _lgamma(u)
        cl = _cl2(_TWO_PI * u)
        b2 = _bpoly(2, u)
    return (-2.0 * _PI ** 2 * zp_neg1_u
            - (c.log_2pi + c.gamma - 1.0) * _PI ** 2 * b2
            + 0.5 * _PI * cl)


def psi_sin_partial(u: float, max_terms: int = 20000) -> SeriesResult:
    """Closed-plus-residual evaluation of the log-weighted series side of
    the partial sine transform of psi on [0, u]."""
    if not 0.0 < u <= 1.0:
        raise DomainError(f"requires 0 < u <= 1, got {u}")
    c = get_constants()
    su, cu = math.sin(_PI * u), math.cos(_PI * u)
    if u < 1.0:
        s_a = log_sin_over_n(u)
    else:
        s_a = 0.0
    s_c = log_cos_over_n2(u if u < 1.0 else 1.0)
    n = np.arange(2, max_terms + 1, dtype=float)
    logn = np.log(n)
    r1 = _np_sum(logn * np.sin(_TWO_PI * n * u) / (2.0 * n * (4.0 * n * n - 1.0)))
    r2 = _np_sum(logn * np.cos(_TWO_PI * n * u) / (4.0 * n * n * (4.0 * n * n - 1.0)))
    # sum log n/(4n^2-1), exact tail
    k_log = 0.25 * (_np_sum(logn / (n * n - 0.25))
                    + _tail_log_quad(max_terms, 0.25))
    series = su * (0.5 * s_a + r1) + cu * (0.25 * s_c + r2) - k_log
    value = (2.0 / _PI * series
             + (c.gamma + c.log_2pi) * (cu - 1.0) / _PI - 0.5 * su)
    err = math.log(max_terms) / max_terms ** 2 + 1e-12
    return SeriesResult(value, err, max_terms, "kummer_closed+residual")


@_entry("FS-8.13", "sum cos(2 pi n t)/(4n^2-1)", 1)
def fs_8_13(t: float, max_terms: int = 40) -> SeriesResult:
    # 1/(n^2 - 1/4) = sum_j 4^-j n^(-2j-2); five exact slices + residual
    acc = 0.0
    for j in range(5):
        acc += 0.25 ** j * _cos_zeta_sum(j + 1, t)
    for n in range(1, max_terms + 1):
        rho = 1.0 / (n * n - 0.25) - math.fsum(
            0.25 ** j / float(n) ** (2 * j + 2) for j in range(5))
        acc += rho * math.cos(_TWO_PI * n * t)
    acc *= 0.25
    return SeriesResult(acc, 1e-13 * (1.0 + abs(acc)), max_terms,
                        "bernoulli_closed+residual")


@_entry("FS-8.14", "sum n sin(2 pi n t)/(4n^2-1)", 1)
def fs_8_14(t: float, max_terms: int = 40) -> SeriesResult:
    if not 0.0 < t < 1.0:
        raise DomainError(f"requires 0 < t < 1, got {t}")
    acc = 0.5 * (_PI - _TWO_PI * t)  # sum sin(2 pi n t)/n, sawtooth
    for j in range(1, 5):
        acc += 0.25 ** j * _sin_zeta_sum(j, t)
    for n in range(1, max_terms + 1):
        rho = n / (n * n - 0.25) - math.fsum(
            0.25 ** j / float(n) ** (2 * j + 1) for j in range(5))
        acc += rho * math.sin(_TWO_PI * n * t)
    acc *= 0.25
    return SeriesResult(acc, 1e-13 * (1.0 + abs(acc)), max_terms,
                        "bernoulli_closed+residual")
