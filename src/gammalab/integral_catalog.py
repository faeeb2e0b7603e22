"""The named-integral catalog.

Every finite-interval integrand is written against the ``(x, da, db)``
protocol of the quadrature engine, and every half-line one receives the
exact t and runs on the one exp-sinh rule: singular or cancelling factors
are evaluated from the exact endpoint distances, removable 0/0 spots get
explicit Taylor patches, and cot-weighted entries keep full relative
accuracy at both ends of the interval.  Q-5.7's slowly decaying part is
added in closed form, with its rounding bound, through ``_plus``.

An entry returns its quadrature call without running it, e.g.
``partial(integrate, f, 0.0, 1.0, limits)``; ``integral_catalog`` alone
applies the level cap, and every entry and probe runs at the rules' one
tolerance, which ``quad`` states.  Entries build that call each time they
run, never at import, so an ``integrate`` rebound after import
(perfbench's tracer rebinds it) is the one called.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable
from functools import partial

from .errors import (
    DomainError,
    EvaluationError,
    GammalabError,
    UnknownKeyError,
    UnsupportedOrderError,
    integer_arg,
)
from .kernels import (
    _BPOLY_MAX,
    _bpoly,
    _cl2,
    _digamma_pos,
    _lgamma,
    _lgamma1p,
    _lnG_base,
    _one_over_x_minus_pi_cot,
    _require_finite,
    _zeta_int,
    get_constants,
)
from .quad import (
    _DEFAULT_MAX_LEVEL,
    _EPS,
    QuadResult,
    integrate,
    integrate_semi_infinite,
)

__all__ = ["IntegralEntry", "INTEGRAL_CATALOG", "integral_catalog",
           "list_integral_ids", "probe_cauchy"]

_PI = math.pi
_TWO_PI = 2.0 * math.pi
_C = get_constants()

# an entry's quadrature call, still to be given ``max_level``
QuadCall = Callable[..., QuadResult]


# label: str; nparams: int; fn: Callable[..., QuadCall]
IntegralEntry = namedtuple("IntegralEntry", "label nparams fn")


INTEGRAL_CATALOG: dict[str, IntegralEntry] = {}


def _entry(key: str, label: str, nparams: int = 0):
    def deco(fn):
        INTEGRAL_CATALOG[key] = IntegralEntry(label, nparams, fn)
        return fn
    return deco


def _alias(new_key: str, key: str, label: str) -> None:
    INTEGRAL_CATALOG[new_key] = INTEGRAL_CATALOG[key]._replace(label=label)


def list_integral_ids() -> list[str]:
    return sorted(INTEGRAL_CATALOG)


def integral_catalog(key: str, params: tuple[float, ...] = (),
                     max_level: int = _DEFAULT_MAX_LEVEL) -> QuadResult:
    try:
        entry = INTEGRAL_CATALOG[key]
    except KeyError:
        raise UnknownKeyError(f"unknown integral id {key!r}") from None
    if len(params) != entry.nparams:
        raise DomainError(
            f"{key} takes {entry.nparams} parameter(s), got {len(params)}")
    for i, value in enumerate(params, 1):
        _require_finite(value, f"{key} parameter {i}")
    try:
        return entry.fn(*params)(max_level=max_level)
    except GammalabError:
        raise
    except ArithmeticError as exc:
        raise EvaluationError(f"{key} at {params}: {exc}") from exc


def _plus(quad: QuadCall, value: float, err: float, **opts) -> QuadResult:
    """``quad(**opts)`` plus a known ``value`` with error bound ``err``."""
    r = quad(**opts)
    return QuadResult(r.value + value, r.abs_err + err, r.evals, r.converged)


# ---------------------------------------------------------------------------
# endpoint-safe building blocks on (0, 1)
# ---------------------------------------------------------------------------

_OSC_CAP = 8


def _check_mode(n: float) -> int:
    """Oscillatory entries stop at 8 full periods; higher modes are out."""
    m = integer_arg(n, "oscillation index")
    if not 1 <= m <= _OSC_CAP:
        raise DomainError(f"oscillation index must be in [1, {_OSC_CAP}], "
                          f"got {n}")
    return m


class _NodeMemo(dict):
    """The values of a pure function of one float, by exact argument,
    filled on first use.

    Only integrands on (0, 1) use these, for the factors that depend on
    no parameter: log Gamma(x) and psi(1+x), one memo per half of the
    interval, and log sin(pi x).  The argument is the distance 1-sigma of
    a tanh-sinh node pair from its nearer endpoint, or 1/2 at the centre:
    rules that reached level L >= 1 have 7*2^L+1 nodes and leave at most
    7*2^(L-1)+1 keys in each memo (3 585 at the default cap of 10),
    whatever their parameters.
    """
    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[float], float]):
        super().__init__()
        self.fn = fn

    def __missing__(self, d: float) -> float:
        value = self[d] = self.fn(d)
        return value


_LGAMMA_NEAR_0 = _NodeMemo(lambda da: _lgamma1p(da) - math.log(da))
_LGAMMA_NEAR_1 = _NodeMemo(lambda db: _lgamma1p(-db))
_LOG_SIN_PI = _NodeMemo(lambda d: math.log(math.sin(_PI * d)))
# x = da near 0 and x = 1 - db near 1, as the rule computes x
_PSI_1P_NEAR_0 = _NodeMemo(lambda da: _digamma_pos(1.0 + da))
_PSI_1P_NEAR_1 = _NodeMemo(lambda db: _digamma_pos(1.0 + (1.0 - db)))


def _lgamma_s(x: float, da: float, db: float) -> float:
    """log Gamma(x) on (0,1), full relative accuracy at both ends.

    Memoised by node: callers integrate over (0, 1) only."""
    if da <= 0.5:
        return _LGAMMA_NEAR_0[da]
    return _LGAMMA_NEAR_1[db]


def _psi_1p_s(x: float, da: float, db: float) -> float:
    """psi(1+x) on (0,1).

    Memoised by node: callers integrate over (0, 1) only."""
    if da <= 0.5:
        return _PSI_1P_NEAR_0[da]
    return _PSI_1P_NEAR_1[db]


def _psi_s(x: float, da: float, db: float) -> float:
    """psi(x) on (0,1); the 1/x pole is carried exactly."""
    if da <= 0.5:
        return _digamma_pos(1.0 + da) - 1.0 / da
    return _digamma_pos(x)


def _psi_half_s(x: float, da: float) -> float:
    """psi(x/2) on (0,1); the 2/x pole is carried exactly."""
    if da <= 1.0:
        return _digamma_pos(1.0 + 0.5 * da) - 2.0 / da
    return _digamma_pos(0.5 * x)


def _cot_pi_s(x: float, da: float, db: float) -> float:
    """cot(pi x) on (0,1) from the nearer endpoint distance."""
    if da <= db:
        return math.cos(_PI * da) / math.sin(_PI * da)
    return -math.cos(_PI * db) / math.sin(_PI * db)


def _cot_defect(d: float) -> float:
    """1/d - pi cot(pi d) for 0 < d < 1: by its zeta series below 1/8, where
    the difference cancels, and as written above."""
    if d < 0.125:
        return _one_over_x_minus_pi_cot(d)
    return 1.0 / d - _PI / math.tan(_PI * d)


def _log_sin_pi(x: float, da: float, db: float) -> float:
    """log(sin(pi x)) on (0,1).

    Memoised by node: callers integrate over (0, 1) only."""
    d = min(da, db)
    return _LOG_SIN_PI[d] if d < 0.5 else 0.0


def _ln_g1p(x: float, db: float) -> float:
    """log G(1+x) for x in [0,1], stable at the zero x up to 1."""
    if x <= 0.5:
        return _lnG_base(x)
    w = -db  # x - 1
    return _lnG_base(w) + _lgamma1p(w)


# ---------------------------------------------------------------------------
# section 1: exponential transforms on [0,1]
# ---------------------------------------------------------------------------

@_entry("Q-1.1", "int_0^1 e^(-p x) log Gamma(x) dx", 1)
def q_1_1(p: float) -> QuadCall:
    def f(x, da, db):
        return math.exp(-p * x) * _lgamma_s(x, da, db)
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-1.11", "int_0^1 e^(-p x) log x dx", 1)
def q_1_11(p: float) -> QuadCall:
    def f(x, da, db):
        return math.exp(-p * x) * math.log(da)
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-1.12", "int_0^1 e^(-p x) psi(1+x) dx", 1)
def q_1_12(p: float) -> QuadCall:
    def f(x, da, db):
        return math.exp(-p * x) * _psi_1p_s(x, da, db)
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-1.13", "int_0^inf e^(-p x) psi(1+x) dx", 1)
def q_1_13(p: float) -> QuadCall:
    if p <= 0.0:
        raise DomainError(f"requires p > 0, got {p}")
    def f(x):
        return math.exp(-p * x) * _digamma_pos(1.0 + x)
    return partial(integrate_semi_infinite, f, 1.0 / p)


@_entry("Q-2.6-moment", "int_0^1 x e^(-p x) log Gamma(x) dx", 1)
def q_2_6_moment(p: float) -> QuadCall:
    def f(x, da, db):
        return x * math.exp(-p * x) * _lgamma_s(x, da, db)
    return partial(integrate, f, 0.0, 1.0)


# ---------------------------------------------------------------------------
# section 2/3: trig transforms of log Gamma and log sin
# ---------------------------------------------------------------------------

@_entry("Q-2.1", "int_0^1 log Gamma(x) cos(p pi x) dx", 1)
def q_2_1(p: float) -> QuadCall:
    def f(x, da, db):
        return _lgamma_s(x, da, db) * math.cos(p * _PI * x)
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-2.2", "int_0^1 log Gamma(x) sin(p pi x) dx", 1)
def q_2_2(p: float) -> QuadCall:
    def f(x, da, db):
        return _lgamma_s(x, da, db) * math.sin(p * _PI * x)
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-2.6", "int_0^1 log(sin(pi x)) sin(p pi x) dx", 1)
def q_2_6(p: float) -> QuadCall:
    def f(x, da, db):
        return _log_sin_pi(x, da, db) * math.sin(p * _PI * x)
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-2.9", "int_0^1 log(2 sin(pi x)) cos(2 p pi x) dx", 1)
def q_2_9(p: float) -> QuadCall:
    ln2 = math.log(2.0)
    def f(x, da, db):
        return (ln2 + _log_sin_pi(x, da, db)) * math.cos(2.0 * p * _PI * x)
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-2.10", "int_0^(1/2) log(sin(pi x)) cos(2 p pi x) dx", 1)
def q_2_10(p: float) -> QuadCall:
    def f(x, da, db):
        return math.log(math.sin(_PI * da)) * math.cos(2.0 * p * _PI * x)
    return partial(integrate, f, 0.0, 0.5)


@_entry("Q-2.12", "int_0^1 log(sin(pi x)) sin((2x-1) p pi) dx", 1)
def q_2_12(p: float) -> QuadCall:
    def f(x, da, db):
        return _log_sin_pi(x, da, db) * math.sin((2.0 * x - 1.0) * p * _PI)
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-2.13", "int_0^1 (2x-1)^(2n+1) log(sin(pi x)) dx", 1)
def q_2_13(n: float) -> QuadCall:
    m = 2 * integer_arg(n, "n") + 1
    def f(x, da, db):
        return (2.0 * x - 1.0) ** m * _log_sin_pi(x, da, db)
    return partial(integrate, f, 0.0, 1.0)


# ---------------------------------------------------------------------------
# section 4: x log Gamma family and the cot-weighted cluster
# ---------------------------------------------------------------------------

def _x_lgamma(x: float, da: float, db: float) -> float:
    return x * _lgamma_s(x, da, db)


@_entry("Q-4.1", "int_0^1 x log Gamma(x) dx")
def q_4_1() -> QuadCall:
    return partial(integrate, _x_lgamma, 0.0, 1.0)


@_entry("Q-4.11", "int_0^1 x^2 log Gamma(x) dx")
def q_4_11() -> QuadCall:
    def f(x, da, db):
        return x * x * _lgamma_s(x, da, db)
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-4.4", "int_0^1 x log Gamma(x) cos(2 n pi x) dx", 1)
def q_4_4(n: float) -> QuadCall:
    w = 2.0 * _check_mode(n) * _PI
    def f(x, da, db):
        return _x_lgamma(x, da, db) * math.cos(w * x)
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-4.8", "int_0^1 x log Gamma(x) sin(2 n pi x) dx", 1)
def q_4_8(n: float) -> QuadCall:
    w = 2.0 * _check_mode(n) * _PI
    def f(x, da, db):
        return _x_lgamma(x, da, db) * math.sin(w * x)
    return partial(integrate, f, 0.0, 1.0)


def _bernoulli_order(n: float, plus: int, lowest: int = 0) -> int:
    """2n + ``plus``, the Bernoulli polynomial order of a Q-4.12.x entry at
    the integer n, kept to ``lowest`` .. ``_BPOLY_MAX`` as in
    ``bernoulli_poly``."""
    m = 2 * integer_arg(n, "n") + plus
    if not lowest <= m <= _BPOLY_MAX:
        raise UnsupportedOrderError(f"n = {n} gives Bernoulli order {m}, "
                                    f"outside [{lowest}, {_BPOLY_MAX}]")
    return m


@_entry("Q-4.12.7", "int_0^1 B_(2n+1)(x) cot(pi x) dx", 1)
def q_4_12_7(n: float) -> QuadCall:
    # n = 0 diverges: B_1(x) cot(pi x) ~ -1/(2 pi x) at both ends
    m = _bernoulli_order(n, 1, lowest=3)
    def f(x, da, db):
        # odd Bernoulli polynomials vanish at both ends and at 1/2
        b = _bpoly(m, da) if da <= db else -_bpoly(m, db)
        return b * _cot_pi_s(x, da, db)
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-4.12.8", "int_0^1 B_(2n)(x) log(sin(pi x)) dx", 1)
def q_4_12_8(n: float) -> QuadCall:
    m = _bernoulli_order(n, 0)
    def f(x, da, db):
        b = _bpoly(m, da) if da <= db else _bpoly(m, db)
        return b * _log_sin_pi(x, da, db)
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-4.12.10", "int_0^1 B_(2n)(x) log Gamma(x) dx", 1)
def q_4_12_10(n: float) -> QuadCall:
    m = _bernoulli_order(n, 0)
    def f(x, da, db):
        b = _bpoly(m, da) if da <= db else _bpoly(m, db)
        return b * _lgamma_s(x, da, db)
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-4.17", "int_0^u log Gamma(x) dx", 1)
def q_4_17(u: float) -> QuadCall:
    if not 0.0 < u <= 1.0:
        raise DomainError(f"requires 0 < u <= 1, got {u}")
    def f(x, da, db):
        return _lgamma1p(da) - math.log(da) if da <= 0.5 else _lgamma(x)
    return partial(integrate, f, 0.0, u)


@_entry("Q-4.25", "int_0^1 x log(x) sin(2 n pi x) dx", 1)
def q_4_25(n: float) -> QuadCall:
    w = 2.0 * _check_mode(n) * _PI
    def f(x, da, db):
        return x * math.log(da) * math.sin(w * x)
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-4.26-lhs", "int_0^1 x log(x) cot(pi x) dx")
def q_4_26_lhs() -> QuadCall:
    def f(x, da, db):
        return x * math.log(da) * _cot_pi_s(x, da, db)
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-4.28-lhs", "int_0^1 log(x) log(sin(pi x)) dx")
def q_4_28_lhs() -> QuadCall:
    def f(x, da, db):
        return math.log(da) * _log_sin_pi(x, da, db)
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-4.29-lhs", "int_0^pi log(x) log(2 sin(x/2)) dx")
def q_4_29_lhs() -> QuadCall:
    ln2 = math.log(2.0)
    def f(x, da, db):
        return math.log(da) * (ln2 + math.log(math.sin(0.5 * da))
                               if da < 2.0 else
                               ln2 + math.log(math.cos(0.5 * db)))
    return partial(integrate, f, 0.0, _PI)


@_entry("Q-4.30-lhs", "int_0^pi log(x) log(cot(x/2)) dx")
def q_4_30_lhs() -> QuadCall:
    def f(x, da, db):
        if db < 1.0:
            lcos = math.log(math.sin(0.5 * db))
        else:
            lcos = math.log(math.cos(0.5 * x))
        return math.log(da) * (lcos - math.log(math.sin(0.5 * da)))
    return partial(integrate, f, 0.0, _PI)


@_entry("Q-4.31", "int_0^1 x log Gamma(x) cot(pi x) dx")
def q_4_31() -> QuadCall:
    def f(x, da, db):
        return _x_lgamma(x, da, db) * _cot_pi_s(x, da, db)
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-4.33", "int_0^1 log G(1+x) cot(pi x) dx")
def q_4_33() -> QuadCall:
    def f(x, da, db):
        return _ln_g1p(x, db) * _cot_pi_s(x, da, db)
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-4.34", "int_0^1 [log G(1+x) - x log Gamma(x)] cot(pi x) dx")
def q_4_34() -> QuadCall:
    def f(x, da, db):
        return (_ln_g1p(x, db) - _x_lgamma(x, da, db)) * _cot_pi_s(x, da, db)
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-4.35", "int_0^1 log Gamma(1+x) cot(pi x) dx")
def q_4_35() -> QuadCall:
    def f(x, da, db):
        lg = _lgamma1p(da) if da <= 0.5 else _lgamma1p(-db) + math.log1p(-db)
        return lg * _cot_pi_s(x, da, db)
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-4.36", "int_0^1 log^2 Gamma(x) dx")
def q_4_36() -> QuadCall:
    def f(x, da, db):
        v = _lgamma_s(x, da, db)
        return v * v
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-4.36-lhs", "int_0^1 x log Gamma(x) psi(x) dx")
def q_4_36_lhs() -> QuadCall:
    def f(x, da, db):
        return x * _lgamma_s(x, da, db) * _psi_s(x, da, db)
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-4.37-lhs", "int_0^1 x log Gamma(x) psi(1-x) dx")
def q_4_37_lhs() -> QuadCall:
    def f(x, da, db):
        return x * _lgamma_s(x, da, db) * _psi_s(1.0 - x, db, da)
    return partial(integrate, f, 0.0, 1.0)


# ---------------------------------------------------------------------------
# section 5: semi-infinite family
# ---------------------------------------------------------------------------

def _wave_scale(x: float) -> float:
    """1/|1 - ix|, the length of e^(-(1-ix)t), is the scale for sin(xt) and
    cos(xt) against e^-t; the last node, t = 163/|1 - ix|, lies past
    e^-t = e^-39 only while |x| <= 4."""
    if not abs(x) <= 4.0:
        raise DomainError(f"requires |x| <= 4, got {x}")
    return 1.0 / math.hypot(1.0, x)


@_entry("Q-5.4", "int_0^inf [sin(xt)/(t(e^t-1)) - x/(t e^t)] dt", 1)
def q_5_4(x: float) -> QuadCall:
    def f(t):
        if t < 1e-4:
            return (0.5 * x - (5.0 * x / 12.0 + x ** 3 / 6.0) * t
                    + (x / 6.0 + x ** 3 / 12.0) * t * t)
        e = math.expm1(t)
        return (math.sin(x * t) + x * math.expm1(-t)) / (t * e)
    return partial(integrate_semi_infinite, f, _wave_scale(x))


@_entry("Q-5.5", "int_0^inf [cos(xt)/(e^t-1) - 1/(t e^t)] dt", 1)
def q_5_5(x: float) -> QuadCall:
    def f(t):
        if t < 1e-4:
            return (0.5 - (x * x / 2.0 + 5.0 / 12.0) * t
                    + (x * x / 4.0 + 1.0 / 6.0) * t * t)
        e = math.expm1(t)
        return (t * math.cos(x * t) + math.expm1(-t)) / (t * e)
    return partial(integrate_semi_infinite, f, _wave_scale(x))


@_entry("Q-5.7", "int_0^inf [1/(e^t-1) - 1/t] cos(xt) dt", 1)
def q_5_7(x: float) -> QuadCall:
    if x <= 0.0:
        raise DomainError(f"requires x > 0, got {x}")
    # 1/(e^t-1) - 1/t = [1/(e^t-1) - e^-t/t] - (1-e^-t)/t: the bracket decays
    # like e^-t, and int_0^inf (1-e^-t) cos(xt)/t dt = log(1 + 1/x^2)/2
    def f(t):
        if t < 1e-3:
            # next term -41 t^5/30240 is below rounding at the cut
            base = 0.5 - t * (5.0 / 12.0 - t * (1.0 / 6.0 - t * (
                31.0 / 720.0 - t / 120.0)))
        else:
            base = (t + math.expm1(-t)) / (t * math.expm1(t))
        return base * math.cos(x * t)
    # log(1 + 1/x^2)/2 as log(1 + x^2)/2 - log x: 1/x^2 overflows for tiny x
    half_log, log_x = 0.5 * math.log1p(x * x), math.log(x)
    quad = partial(integrate_semi_infinite, f, _wave_scale(x))
    return partial(_plus, quad, log_x - half_log,
                   4.0 * _EPS * (1.0 + half_log + abs(log_x)))


# sinh(xt)/(e^t-1) and cosh(xt)/(e^t-1), at scale 1/(1-x), are evaluated as
# e^(-(1-x)t) (1 -+ e^(-2xt)) / (2 (1-e^(-t))): no factor overflows at any
# node, and 1 - e^(-2xt) comes from expm1, not from a difference of nearly
# equal exponentials.

@_entry("Q-5.34", "int_0^inf [sinh(xt)/(t(e^t-1)) - x/(t e^t)] dt", 1)
def q_5_34(x: float) -> QuadCall:
    if not 0.0 <= x < 1.0:
        raise DomainError(f"requires 0 <= x < 1, got {x}")
    def f(t):
        if t < 1e-4:
            return (0.5 * x + (x ** 3 / 6.0 - 5.0 * x / 12.0) * t
                    + (x / 6.0 - x ** 3 / 12.0) * t * t)
        em = math.expm1(-t)
        sinh_e = -0.5 * math.exp(-(1.0 - x) * t) * math.expm1(-2.0 * x * t)
        return (sinh_e + x * math.exp(-t) * em) / (-t * em)
    return partial(integrate_semi_infinite, f, 1.0 / (1.0 - x))


@_entry("Q-5.36", "int_0^inf [cosh(xt)/(e^t-1) - 1/(t e^t)] dt", 1)
def q_5_36(x: float) -> QuadCall:
    if not 0.0 <= x < 1.0:
        raise DomainError(f"requires 0 <= x < 1, got {x}")
    def f(t):
        if t < 1e-4:
            return (0.5 + (x * x / 2.0 - 5.0 / 12.0) * t
                    + (1.0 / 6.0 - x * x / 4.0) * t * t)
        em = math.expm1(-t)
        cosh_e = (0.5 * math.exp(-(1.0 - x) * t)
                  * (1.0 + math.exp(-2.0 * x * t)))
        return (t * cosh_e + math.exp(-t) * em) / (-t * em)
    return partial(integrate_semi_infinite, f, 1.0 / (1.0 - x))


@_entry("Q-5.20", "int_0^x pi t cot(pi t) dt", 1)
def q_5_20(x: float) -> QuadCall:
    if not 0.0 < x < 1.0:
        raise DomainError(f"requires 0 < x < 1, got {x}")
    # less the pole just past b as x -> 1: pi t cot(pi t) + t/d, d = 1 - t =
    # (1 - x) + db (1 - x exact where d < 1/8) and t = da, is t (1/d - pi
    # cot(pi d)); int_0^x t/d dt = -x - log(1 - x) is added back in closed form
    omx = 1.0 - x
    def f(t, da, db):
        d = omx + db
        if d < 0.125:
            return t * _one_over_x_minus_pi_cot(d)
        return t * (_PI / math.tan(_PI * da) + 1.0 / d)
    lg = math.log1p(-x)
    return partial(_plus, partial(integrate, f, 0.0, x, (1.0, None)),
                   x + lg, 2.0 * _EPS * (x - lg))


@_entry("Q-5.45-int", "int_0^1 (psi(1+x) + gamma)/x dx")
def q_5_45_int() -> QuadCall:
    g = _C.gamma
    z = [_zeta_int(k) for k in range(2, 6)]
    def f(x, da, db):
        if da < 1e-4:
            return z[0] - z[1] * da + z[2] * da * da - z[3] * da ** 3
        return (_digamma_pos(1.0 + x) + g) / x
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-5.45-int-b", "int_0^1 (1-x) log(1-x)/(x log x) dx")
def q_5_45_int_b() -> QuadCall:
    def f(x, da, db):
        num = db * math.log(db) if db < 0.5 else (1.0 - x) * math.log1p(-x)
        lg = math.log(da) if da < 0.5 else math.log1p(-db)
        return num / (x * lg)
    # the integrand vanishes only like -1/log(x) at 0: no limit patch
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-5.53-lhs", "int_0^u (1/x)(1/x - pi cot(pi x)) dx", 1)
def q_5_53_lhs(u: float) -> QuadCall:
    if not 0.0 < u < 1.0:
        raise DomainError(f"requires 0 < u < 1, got {u}")
    # less the pole's 1/d, d = 1 - x, as in Q-5.20: with g = _cot_defect,
    # (1/x - pi cot(pi x))/x - 1/d is (1/x + 1 - g(d))/x and g(x)/x - 1/d,
    # regular at x = 1; int_0^u dx/(1 - x) = -log(1 - u) is added back
    omu = 1.0 - u
    def f(x, da, db):
        d = omu + db
        if d < 0.5:
            return (1.0 / x + 1.0 - _cot_defect(d)) / x
        return _cot_defect(da) / x - 1.0 / d
    lg = -math.log1p(-u)
    return partial(_plus, partial(integrate, f, 0.0, u,
                                  (2.0 * _C.zeta2 - 1.0, None)),
                   lg, 2.0 * _EPS * lg)


# ---------------------------------------------------------------------------
# section 6/7
# ---------------------------------------------------------------------------

@_entry("Q-6.7.1", "int_0^1 (1-cos(2 pi x)) psi(1-x) dx")
def q_6_7_1() -> QuadCall:
    def f(x, da, db):
        s = math.sin(_PI * min(da, db))
        return 2.0 * s * s * _psi_s(1.0 - x, db, da)
    return partial(integrate, f, 0.0, 1.0, (None, 0.0))


@_entry("Q-6.9", "int_0^1 log Gamma(x) sin(2 k pi x) dx", 1)
def q_6_9(k: float) -> QuadCall:
    w = 2.0 * _check_mode(k) * _PI
    def f(x, da, db):
        return _lgamma_s(x, da, db) * math.sin(w * x)
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-6.17", "int_0^1 log Gamma(x) cos(2 k pi x) dx", 1)
def q_6_17(k: float) -> QuadCall:
    w = 2.0 * _check_mode(k) * _PI
    def f(x, da, db):
        return _lgamma_s(x, da, db) * math.cos(w * x)
    return partial(integrate, f, 0.0, 1.0)


@_entry("Q-6.10", "int_0^u psi(1+x) cos^2(pi x) dx", 1)
def q_6_10(u: float) -> QuadCall:
    if not 0.0 < u <= 1.0:
        raise DomainError(f"requires 0 < u <= 1, got {u}")
    def f(x, da, db):
        c = math.cos(_PI * x)
        return _digamma_pos(1.0 + x) * c * c
    return partial(integrate, f, 0.0, u)


@_entry("Q-6.14", "int_0^(1/2) psi(1+x) cos^2(pi x) dx")
def q_6_14() -> QuadCall:
    return q_6_10(0.5)


@_entry("Q-6.14.1", "int_0^1 psi(x) sin^2(pi x) dx")
def q_6_14_1() -> QuadCall:
    def f(x, da, db):
        s = math.sin(_PI * min(da, db))
        return _psi_s(x, da, db) * s * s
    return partial(integrate, f, 0.0, 1.0, (0.0, None))


@_entry("Q-6.14.2", "int_0^(1/2) psi(x) sin^2(pi x) dx")
def q_6_14_2() -> QuadCall:
    def f(x, da, db):
        s = math.sin(_PI * da) if da < 0.5 else math.sin(_PI * x)
        return _psi_s(x, da, 1.0 - x) * s * s
    return partial(integrate, f, 0.0, 0.5, (0.0, None))


@_entry("Q-6.15", "int_0^u sin^2(pi x)/x dx", 1)
def q_6_15(u: float) -> QuadCall:
    if u <= 0.0:
        raise DomainError(f"requires u > 0, got {u}")
    def f(x, da, db):
        s = math.sin(_PI * x)
        return s * s / da
    return partial(integrate, f, 0.0, u, (0.0, None))


@_entry("Q-6.24", "int_0^1 x(1-x) cos(pi x) cot(pi x) dx")
def q_6_24() -> QuadCall:
    def f(x, da, db):
        c = math.cos(_PI * x)
        return da * db * c * _cot_pi_s(x, da, db)
    return partial(integrate, f, 0.0, 1.0, (1.0 / _PI, 1.0 / _PI))


@_entry("Q-6.34", "int_0^1 psi(x) x(1-x) cos(pi x) dx")
def q_6_34() -> QuadCall:
    def f(x, da, db):
        return _psi_s(x, da, db) * da * db * math.cos(_PI * x)
    return partial(integrate, f, 0.0, 1.0, (-1.0, None))


@_entry("Q-6.38", "int_0^1 x(1-x) cos(pi x) psi(x/2) dx")
def q_6_38() -> QuadCall:
    def f(x, da, db):
        return da * db * math.cos(_PI * x) * _psi_half_s(x, da)
    return partial(integrate, f, 0.0, 1.0, (-2.0, None))


@_entry("Q-6.40", "int_0^1 x(1-x) psi(x/2) dx")
def q_6_40() -> QuadCall:
    def f(x, da, db):
        return da * db * _psi_half_s(x, da)
    return partial(integrate, f, 0.0, 1.0, (-2.0, None))


@_entry("Q-7.15", "int_0^u psi(x) sin(pi x) dx", 1)
def q_7_15(u: float) -> QuadCall:
    if not 0.0 < u <= 1.0:
        raise DomainError(f"requires 0 < u <= 1, got {u}")
    def f(x, da, db):
        s = math.sin(_PI * da) if da <= 0.5 else math.sin(_PI * x)
        return _psi_s(x, da, 1.0 - x) * s
    return partial(integrate, f, 0.0, u, (-_PI, None))


_alias("Q-6.16", "Q-4.8", "int_0^1 x log Gamma(x) sin(2 n pi x) dx")
_alias("Q-7.13", "Q-6.14.1", "int_0^1 psi(x) sin^2(pi x) dx")
_alias("Q-5.35", "Q-5.34", "int_0^inf [sinh(xt)/(t(e^t-1)) - x/(t e^t)] dt")


@_entry("Q-3.13", "int_0^1 log Gamma(x) sin(pi x) dx")
def q_3_13() -> QuadCall:
    return q_2_2(1.0)


@_entry("Q-7.17", "int_0^(1/2) psi(x) sin(pi x) dx")
def q_7_17() -> QuadCall:
    return q_7_15(0.5)


# ---------------------------------------------------------------------------
# divergence probes
# ---------------------------------------------------------------------------

def probe_cauchy(which: str, eps: float,
                 max_level: int = _DEFAULT_MAX_LEVEL) -> QuadResult:
    """integral over [eps, 1-eps] for the divergent cot-weighted probes, at
    most ``max_level`` levels."""
    if which == "logGamma_cot":
        def f(x, da, db):
            return _lgamma(x) * _cot_pi_s(x, x, 1.0 - x)
    elif which == "logx_cot":
        def f(x, da, db):
            return math.log(x) * _cot_pi_s(x, x, 1.0 - x)
    else:
        raise UnknownKeyError(f"unknown probe {which!r}")
    return integrate(f, eps, 1.0 - eps, max_level=max_level)
