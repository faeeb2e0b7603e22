"""Infinite-series evaluation: one tail-summation primitive.

``zeta_tail_sum`` adds an exactly rounded partial sum over n <= N
(``math.fsum``, Shewchuk, "Adaptive precision floating-point arithmetic
and fast robust geometric predicates", DCG 1997) to an analytic tail
written in Hurwitz zeta functions,

    sum_{n>N} sum_k (c_k - d_k log n) n^-k
        = sum_k c_k zeta(k, N+1) + d_k zeta'(k, N+1),

and bounds the truncation by the first omitted order of the expansion,
2 |e_k| zeta(k, N+1) (``tail_bound``), so that the error grows as N
shrinks.  The factor 2 covers the orders after the first omitted one
whenever they shrink at least geometrically by 1/2 from n = N+1 on.  The
bound takes zeta(k, a) and |zeta'(k, a)| at closed-form upper bounds, the
integral test and Euler-Maclaurin to the B_2 term (DLMF 2.10), within 1.2x
and 1.35x of the values: only the tail itself calls Hurwitz zeta.
``quad_tail`` builds such an expansion for the recurring denominators
n^2 - q.

``zeta_tail_sum`` also chooses N: the smallest one whose ``tail_bound``,
from the omitted orders it reports, is at most ``TARGET_ERR`` (Johansson,
"Rigorous high-precision computation of the Hurwitz zeta function and its
derivatives", Numer. Algorithms 2015, picks N inside the routine that
bounds the error the same way).  So a series is summed once, at the N its
own bound asks for, and the bound that picks N is the one reported: the
omitted orders and bound of the chosen N are those its probe computed, and
an expansion that depends on N builds its tail orders once, at that N.

``target_terms`` is that search; the bounds fall like a power of N + 1,
so a secant in log-log coordinates finds N in about three probes.  It also
serves the sums whose bound is not a zeta tail: the Dirichlet-kernel sums
FS-7.1 and ``psi_sin_partial``, and the alternating S-4.29-rhs and S-6.33.

``cvz_alternating`` is the Chebyshev-weight acceleration for alternating
series whose terms decay too slowly to truncate (error ~ 5.83^-n; Cohen,
Rodriguez Villegas and Zagier, Exp. Math. 2000).

The primitives serve the series catalog, the kernels (lambda's series,
imported inside the function, since this module imports ``kernels``) and
the registry's closed-form helpers.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping
from itertools import chain

from .errors import DomainError, EvaluationError
from .kernels import _hurwitz, _hurwitz_prime

__all__ = ["SeriesResult", "zeta_tail_sum", "tail_bound", "target_terms",
           "TARGET_ERR", "quad_tail", "CVZ_TERMS", "cvz_alternating"]

_EPS = 2.220446049250313e-16

# the truncation error every target-N series is summed to
TARGET_ERR = 1e-14
# the largest N a search tries when the caller sets no cap
_N_LIMIT = 1 << 16
# the CVZ order for TARGET_ERR: the re-summation eight orders shorter, which
# sets the error estimate, has error about 2 (3+sqrt 8)^-n, so
# n = ceil(log(2/tol)/log(3+sqrt 8)), plus those 8 orders (27)
CVZ_TERMS = math.ceil(math.log(2.0 / TARGET_ERR)
                      / math.log(3.0 + math.sqrt(8.0))) + 8


# zeta orders {k: coefficient}, and an expansion that depends on N: its
# first omitted orders at N and a builder of its orders at N
Orders = Mapping[int, float]
Expansion = Callable[[int], tuple[Orders, Callable[[], Orders]]]


# value: float | complex; abs_err: float; terms_used: int; method: str
SeriesResult = namedtuple("SeriesResult", "value abs_err terms_used method")


def zeta_tail_sum(terms: Callable[[int], Iterable[float]],
                  tail: Orders | Expansion = {},
                  log_tail: Orders | Expansion = {},
                  omitted: Orders = {}, log_omitted: Orders = {},
                  n_min: int = 1, cap: int | None = None,
                  floor: float = 2e-14, shift: float = 1.0,
                  method: str = "direct+zh_tail",
                  target: float = TARGET_ERR) -> SeriesResult:
    """``terms(N)``, the terms n <= N, plus the tail past N, all summed
    exactly rounded by ``math.fsum``, at the smallest N >= ``n_min`` whose
    truncation bound meets ``target``, at most ``cap``
    (:func:`target_terms`; ``n_min >= cap`` takes N = cap unprobed).

    ``tail`` maps k to c_k of c_k n^-k, ``log_tail`` maps k to d_k of
    d_k log(n) n^-k.  ``omitted`` and ``log_omitted`` hold the first orders
    the expansion leaves out; each adds 2|e_k| times an upper bound on
    zeta(k, a) or |zeta'(k, a)| to the error (:func:`tail_bound`), on top
    of ``floor * (1 + |value|)``.  An expansion that depends on N, such as
    :func:`quad_tail`'s, is a function of N that returns ``(omitted,
    build)`` in place of both maps, ``build()`` giving its orders at N:
    the search probes only the omitted orders, and the orders are built
    once, at the chosen N.  The zeta functions are taken at a = N +
    ``shift``.
    """
    if callable(tail) and omitted or callable(log_tail) and log_omitted:
        raise TypeError("an expansion given as a function of N brings its "
                        "own omitted orders")

    def expansion(n: int):
        o, t = tail(n) if callable(tail) else (omitted, lambda: tail)
        lo, lt = (log_tail(n) if callable(log_tail)
                  else (log_omitted, lambda: log_tail))
        return o, lo, t, lt

    # the expansion and bound of each N the search probes, reused at the
    # chosen N; a cap the search returns unprobed builds both afresh
    probed = {}

    def bound(n: int) -> float:
        e = expansion(n)
        b = tail_bound(n, e[0], e[1], shift)
        probed[n] = e, b
        return b

    n_last = target_terms(bound, n_min, cap, target)
    pair = probed.get(n_last)
    o, lo, t, lt = expansion(n_last) if pair is None else pair[0]
    a = n_last + shift
    value = math.fsum(chain(
        terms(n_last), [c * _hurwitz(float(k), a) for k, c in t().items()],
        [-d * _hurwitz_prime(float(k), a) for k, d in lt().items()]))
    if not math.isfinite(value):
        raise EvaluationError(f"series not finite with N={n_last}")
    err = floor * (1.0 + abs(value)) + (
        tail_bound(n_last, o, lo, shift) if pair is None else pair[1])
    return SeriesResult(value, err, n_last, method)


def tail_bound(n_last: int, omitted: Mapping[int, float] = {},
               log_omitted: Mapping[int, float] = {},
               shift: float = 1.0) -> float:
    """The truncation bound of :func:`zeta_tail_sum`: 2|e_k| zeta(k, a) per
    ``omitted`` order and 2|e_k zeta'(k, a)| per ``log_omitted`` order, at
    a = n_last + ``shift``, each zeta taken at its closed-form upper bound
    (:func:`_zeta_upper`, :func:`_zeta_prime_upper`).  No Hurwitz call, no
    summation."""
    a = n_last + shift
    return 2.0 * (math.fsum(abs(e) * _zeta_upper(k, a)
                            for k, e in omitted.items())
                  + math.fsum(abs(e) * _zeta_prime_upper(k, a)
                              for k, e in log_omitted.items()))


# relative padding of the closed-form bounds, for their own rounding: a few
# operations of relative error eps each
_BOUND_PAD = 1.0 + 16.0 * _EPS


def _zeta_upper(k: int, a: float) -> float:
    """An upper bound on zeta(k, a) for k > 1, a > 0: a^-k times the lesser
    of 1 + a/(k-1) (the integral test) and a/(k-1) + 1/2 + k/(12a)
    (Euler-Maclaurin to the B_2 term, whose remainder has the sign of the
    first omitted term, negative for the completely monotone x^-k; DLMF
    2.10.1).  Within 1.2x of the value."""
    r = a / (k - 1.0)
    return a ** -k * min(1.0 + r, r + 0.5 + k / (12.0 * a)) * _BOUND_PAD


def _zeta_prime_upper(k: int, a: float) -> float:
    """An upper bound on |zeta'(k, a)| = sum_{n>=0} log(a+n) (a+n)^-k by the
    integral test, a^-k (log a + a (log a/(k-1) + 1/(k-1)^2)), valid where
    log x x^-k decreases, a >= e^(1/k).  Within 1.35x of the value.  A
    smaller a raises ``DomainError``, which :func:`target_terms` reads as
    an expansion that does not hold yet."""
    la = math.log(a)
    if k * la < 1.0:
        raise DomainError(f"zeta' tail bound needs a >= e^(1/k); k={k}, "
                          f"a={a}")
    r = 1.0 / (k - 1.0)
    return a ** -k * (la + a * r * (la + r)) * _BOUND_PAD


def target_terms(bound: Callable[[int], float], n_min: int = 1,
                 cap: int | None = None, target: float = TARGET_ERR) -> int:
    """The smallest N >= ``n_min`` with ``bound(N) <= target``.

    ``bound`` is the truncation bound the series reports at N; it must not
    grow with N.  A ``DomainError`` from it means that its expansion does
    not hold yet at that N.  When no N up to ``cap`` (default 2^16) meets
    the target, the answer is the cap, where the series reports its larger
    error, or refuses the cap if its expansion does not hold there.

    The search narrows a bracket: ``lo`` fails the target and ``hi`` meets
    it or is the cap.  The bounds fall like a power of N + 1, so each probe
    after ``n_min`` is the secant step through the last two finite bounds
    in (log(N+1), log bound), clamped into the bracket; a clamped step is
    followed by a bisection, and without two finite bounds the probe
    doubles.  For a bound that does not grow with N this is the N that
    doubling and bisecting find, in about half the probes.
    """
    top = _N_LIMIT if cap is None else cap
    if n_min >= top:
        return top
    log_target = math.log(target)
    lo, hi = n_min - 1, top
    points: list[tuple[float, float]] = []
    n, bisect = n_min, False
    while True:
        try:
            b = bound(n)
        except DomainError:
            b = math.inf
        if b <= target:
            hi = n
        else:
            lo = n
        if hi - lo <= 1:
            return hi
        if 0.0 < b < math.inf:
            points.append((math.log(n + 1.0), math.log(b)))
        step = None
        if len(points) >= 2 and not bisect:
            (x0, y0), (x1, y1) = points[-2:]
            if (y1 - y0) * (x1 - x0) < 0.0:
                x = x1 + (log_target - y1) * (x1 - x0) / (y1 - y0)
                step = math.ceil(math.exp(min(x, 40.0)) - 1.0)
        if step is None:
            step = 2 * n if hi == top and not bisect else (lo + hi) // 2
        n = min(max(step, lo + 1), hi - 1)
        bisect = n != step and not bisect


def quad_tail(q: float, orders: Mapping[int, float], n_last: int,
              omit: Mapping[int, float] = {}
              ) -> tuple[dict[int, float], Callable[[], dict[int, float]]]:
    """Expansion of sum_{n>N} sum_s a_s n^-s / (n^2 - q) in zeta orders.

    1/(n^2 - q) = sum_j q^j n^(-2j-2), so ``orders`` {s: a_s} becomes
    {s+2+2j: a_s q^j} for j < J, with J chosen so that the omitted orders
    are 1e-17 of the leading one.  Returns ``(omitted, build)`` for
    :func:`zeta_tail_sum`, ``build()`` giving the orders j < J, so that a
    probe of N computes only the omitted ones; ``omit`` lists asymptotic
    orders the caller leaves out, whose leading zeta order joins
    ``omitted``.  Requires
    (N+1)^2 >= 2|q|, so that each further order shrinks by 1/2 or more,
    and |q|^J within the float range; otherwise raises ``DomainError``,
    which a larger N cures.
    """
    r = abs(q) / (n_last + 1.0) ** 2
    if r > 0.5:
        raise DomainError(
            f"tail expansion needs (N+1)^2 >= 2|q|; N={n_last}, q={q}")
    n_ord = (1 if r == 0.0
             else max(1, math.ceil(math.log(1e-17) / math.log(r))))
    if abs(q) > 1.0 and n_ord * math.log(abs(q)) > 700.0:
        raise DomainError(
            f"tail expansion needs |q|^{n_ord} < e^700; N={n_last}, q={q}")
    omitted: dict[int, float] = {}
    for s, c in orders.items():
        k = s + 2 + 2 * n_ord
        omitted[k] = omitted.get(k, 0.0) + abs(c * q ** n_ord)
    for s, c in omit.items():
        omitted[s + 2] = omitted.get(s + 2, 0.0) + abs(c)

    def build() -> dict[int, float]:
        tail: dict[int, float] = {}
        for s, c in orders.items():
            for j in range(n_ord):
                k = s + 2 + 2 * j
                tail[k] = tail.get(k, 0.0) + c * q ** j
        return tail
    return omitted, build


def cvz_alternating(a: Callable[[int], float],
                    n_terms: int = CVZ_TERMS) -> tuple[float, float]:
    """sum_{k>=0} (-1)^k a_k for positive, smoothly decaying a_k.

    Chebyshev-polynomial weights; geometric convergence at rate ~1/5.83.
    Returns (value, error_estimate), the estimate taken from a re-summation
    eight orders shorter, so ``n_terms`` must exceed 8.
    """
    if n_terms <= 8:
        raise DomainError(f"cvz_alternating needs n_terms > 8, got {n_terms}")

    def run(n: int) -> float:
        d = (3.0 + math.sqrt(8.0)) ** n
        d = 0.5 * (d + 1.0 / d)
        b = -1.0
        c = -d
        s = 0.0
        for k in range(n):
            c = b - c
            s += c * a(k)
            b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
        return s / d

    full = run(n_terms)
    short = run(n_terms - 8)
    return full, abs(full - short) * 0.5 + 50 * _EPS * abs(full) + 1e-17
