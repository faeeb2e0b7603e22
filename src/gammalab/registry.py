"""Identity catalog and verdict engine.

Every record pairs two independent computation routes for one identity
(quadrature vs. closed form, series vs. kernel expression, ...) and the
verdict classifies their residual against the combined error budget:

    CONFIRMED   residual <= budget
    REFUTED     residual >  100 * budget
    INCONCLUSIVE otherwise

where budget = lhs.abs_err + rhs.abs_err: the two error bars alone decide.
``Registry.verify_identity`` is the one way to a verdict, and ``run_suite``
maps it over records.  DISPUTED records carry the source's own quoted
machine values: they are reported with those values and never counted as
failures.  DIVERGENT-PROBE records instead check that shrinking the cutoff
does not Cauchy-converge.  Their two sides are the increments d1 and d2 of
the integral as the cutoff goes 1e-2, 1e-3, 1e-4, each with the errors of
its own two quadratures as its bar; the probe diverges when |d2| > |d1|/2
and |d1| exceeds 1e3 times the three quadratures' errors.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from collections.abc import Callable, Mapping
from itertools import chain, count
from types import MappingProxyType

from . import kernels as K
from .errors import (
    DomainError,
    EvaluationError,
    GammalabError,
    UnknownKeyError,
    integer_arg,
)
from .integral_catalog import integral_catalog, probe_cauchy
from .kernels import get_constants
from .quad import _DEFAULT_MAX_LEVEL, _check_max_level
from .series import SeriesResult, zeta_tail_sum
from .series_catalog import (
    _bernoulli_fourier,
    _sum_log_4n2m1,
    ci_quarter_sum,
    log_quarter_sum,
    log_weighted_sin_sum,
    power_series_eval,
    psi_sin_partial,
    sum_catalog,
)

__all__ = ["EvalOptions", "IdentityRecord", "Verdict", "Registry"]

_REFUTE_FACTOR = 100.0
EXPECTED_STATUSES = ("CONFIRMED", "DISPUTED", "DIVERGENT-PROBE")
# the mapping fields' default, one object shared by every record: read-only
_NO_ENTRIES: Mapping = MappingProxyType({})


class EvalOptions(namedtuple("EvalOptions", "max_terms level_cap",
                             defaults=(None, _DEFAULT_MAX_LEVEL))):
    """How the routes of one verdict are evaluated, passed per call:
    ``max_terms`` (int or None) and ``level_cap`` (int).

    Every series route, and every series inside a closed-form route, sums
    the terms its own truncation bound asks for to reach
    ``series.TARGET_ERR``, or, if its terms shrink geometrically, up to the
    first term at most 1e-18 of its sum (``kernels._power_sum``).
    ``max_terms`` caps the terms of every ``series`` and ``power series``
    route (``None``: no cap); below the target N an entry sums at the cap
    and reports its larger error.  Series inside closed-form routes are not
    capped.  ``level_cap`` caps the refinement levels of every quadrature,
    divergence probes included; ``quad`` states its default and range, and
    the one tolerance at which a rule stops.
    """
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> EvalOptions:
        self = super().__new__(cls, *args, **kwargs)
        if self.max_terms is not None and self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")
        _check_max_level(self.level_cap)
        return self


_PI = math.pi
_TWO_PI = 2.0 * math.pi


class Recipe(namedtuple("Recipe", "label fn")):
    """One route of an identity: its ``label`` (str) and ``fn``, called as
    ``fn(params, opts)`` and returning ``(value, abs_err)``, two floats."""
    __slots__ = ()

    def __repr__(self) -> str:
        return f"Recipe(label={self.label!r})"

    def evaluate(self, params: tuple[float, ...],
                 opts: EvalOptions = EvalOptions()) -> tuple[float, float]:
        return self.fn(params, opts)


# id, anchor, expected: str; section: int; lhs, rhs: Recipe;
# param_names, integer_params (integer-only, checked with the domain):
# tuple[str, ...]; param_domain: tuple[tuple[float, float], ...];
# default_params: tuple[tuple[float, ...], ...]; reported: Mapping;
# probe: str | None
IdentityRecord = namedtuple(
    "IdentityRecord", "id section anchor lhs rhs expected param_names "
    "param_domain integer_params default_params reported probe",
    defaults=("CONFIRMED", (), (), (), ((),), _NO_ENTRIES, None))

# id, status, expected, note: str; params: tuple[float, ...]; diagnostics:
# Mapping; the rest float
Verdict = namedtuple(
    "Verdict", "id params lhs_value lhs_err rhs_value rhs_err residual "
    "budget status expected wall_time note diagnostics",
    defaults=("", _NO_ENTRIES))


def _status(residual: float, budget: float) -> str:
    if residual <= budget:
        return "CONFIRMED"
    if residual > _REFUTE_FACTOR * budget:
        return "REFUTED"
    return "INCONCLUSIVE"


# ---------------------------------------------------------------------------
# recipe constructors
# ---------------------------------------------------------------------------

def _quad(key: str, pmap: Callable[[tuple], tuple] = lambda p: p,
          scale: Callable[[tuple], float] = lambda p: 1.0,
          label: str | None = None) -> Recipe:
    """Quadrature ``key`` at ``pmap(params)`` times ``scale(params)``, with
    the quadrature's own error times |scale|."""
    def fn(params, opts):
        r = integral_catalog(key, pmap(params), max_level=opts.level_cap)
        s = scale(params)
        return s * r.value, abs(s) * r.abs_err
    return Recipe(label or f"quadrature {key}", fn)


def _ser(key: str, pmap: Callable[[tuple], tuple] = lambda p: p,
         scale: float = 1.0) -> Recipe:
    def fn(params, opts):
        r = sum_catalog(key, pmap(params), max_terms=opts.max_terms)
        return scale * r.value, abs(scale) * r.abs_err
    return Recipe(f"series {key}", fn)


def _ps(key: str) -> Recipe:
    def fn(params, opts):
        r = power_series_eval(key, params[0], opts.max_terms)
        return r.value, r.abs_err
    return Recipe(f"power series {key}", fn)


def _expr(label: str, fn_val: Callable[..., float],
          err: float = 3e-14) -> Recipe:
    def fn(params, opts):
        v = fn_val(*params)
        return v, err * max(1.0, abs(v))
    return Recipe(label, fn)


def _series_expr(label: str, fn_val: Callable[..., SeriesResult],
                 err: float = 0.0) -> Recipe:
    """A closed form around a series: the series' own error plus
    ``err * max(1, |v|)``."""
    def fn(params, opts):
        r = fn_val(*params)
        return r.value, r.abs_err + err * max(1.0, abs(r.value))
    return Recipe(label, fn)


def _mode(params: tuple) -> tuple:
    """The integer part of the mode index of I-2.13, I-4.4, I-4.8 and
    I-4.12.x, whose closed forms take the integer part too.  These records
    do not declare the index integer yet: sweeps draw it from their
    continuous ``param_domain``."""
    return (float(int(params[0])),)


# ---------------------------------------------------------------------------
# shared closed-form helpers
# ---------------------------------------------------------------------------

_C = get_constants()
_G = _C.gamma
_L2PI = _C.log_2pi


def _lam(v: float) -> float:
    """lambda(v) = -Re psi(1+iv), the float ``K.lambda_fn`` returns; its
    direct-series cross-check runs there and in Tier-1, not per verdict."""
    return K._lambda_digamma(v)[0]


def _si(x: float) -> float:
    return K._sici_raw(x)[0]


def _ci(x: float) -> float:
    return K._sici_raw(x)[1]


def _sum_glc(p: float) -> float:
    """sum (gamma + log(2 pi n))/(4 pi^2 n^2 + p^2).  Below |p| = 1/2 its
    part (1/expm1(p) - 1/p + 1/2)/(2p), which cancels as p -> 0, comes from
    the Bernoulli series sum_k B_2k p^(2k-2)/(2 (2k)!) = 1/24 - p^2/1440."""
    if abs(p) < 0.5:
        # k <= 15: the stored B_0 .. B_30; the sum stops by k = 10
        s1 = K._power_sum((K._bernoulli_float(2 * k)
                           / (2.0 * math.factorial(2 * k))
                           for k in range(1, 16)), 1.0, p * p)
    else:
        s1 = (1.0 / math.expm1(p) - 1.0 / p + 0.5) / (2.0 * p)
    s2 = sum_catalog("S-1.20", (p / _TWO_PI,)).value / _TWO_PI ** 2
    return (_G + _L2PI) * s1 + s2


def _rhs_1_8(p: float) -> float:
    em1 = -math.expm1(-p)
    return (em1 / (2.0 * p) * (_G + _L2PI) - em1 / (2.0 * p) * _lam(p / _TWO_PI)
            + 2.0 * em1 * _sum_glc(p))


def _rhs_1_11(p: float) -> float:
    """-(gamma + log p - Ei(-p))/p, which cancels as p -> 0; below p = 1/2
    it is -Ein(p)/p (DLMF 6.2.3)."""
    if p < 0.5:
        return -K._ein(p) / p
    return -(_G + math.log(p) - K.exp_integral(-p).value) / p


def _rhs_1_12(p: float) -> float:
    em1 = -math.expm1(-p)
    return (0.5 * em1 * (_G + _L2PI) - 0.5 * em1 * _lam(p / _TWO_PI)
            - (_G + math.log(p) - K.exp_integral(-p).value)
            + 2.0 * p * em1 * _sum_glc(p))


def _rhs_1_13(p: float) -> float:
    s2 = sum_catalog("S-1.20", (p / _TWO_PI,)).value / _TWO_PI ** 2
    return ((1.0 / math.expm1(p) - 1.0 / p + 1.0) * math.log(_TWO_PI / p)
            + 2.0 * p * s2 - 0.5 * _lam(p / _TWO_PI)
            - (_G + math.log(p)) / p)


def _rhs_1_17(p: float) -> float:
    # sum_{m>=1} (-1)^(m-1) [(gamma + log 2pi) zeta(2m) - zeta'(2m)
    #   + (pi/2) zeta(2m+1) p] p^(2m-2); the zeta -> 1 parts sum to
    # 1/(1+p^2) and p/(1+p^2), the rest shrinks by 1/4 per term
    s = K._power_sum(((-1.0) ** (m - 1) * (
        (_G + _L2PI) * K._zeta_m1(2 * m) - K._zeta_prime_int(2 * m)
        + 0.5 * _PI * p * K._zeta_m1(2 * m + 1)) for m in count(1)),
        1.0, p * p)
    return (_PI / (2.0 * p) * _L2PI
            + ((_G + _L2PI) + 0.5 * _PI * p) / (1.0 + p * p) + s)


def _zeta_alternating(t: float) -> float:
    # sum (-1)^n zeta(2n) t^2n with zeta(2n) = 1 + (zeta(2n) - 1): the 1s
    # sum to -t^2/(1+t^2)
    t2 = t * t
    s = K._power_sum(((-1.0) ** n * K._zeta_m1(2 * n) for n in count(1)),
                     t2, t2)
    return 1.0 + 2.0 * t2 / (1.0 + t2) - 2.0 * s


def _x_minus_sin(x: float) -> float:
    """x - sin x for 0 <= x <= 1 by its power series x^3/3! - x^5/5! + ..,
    free of the cancellation as x -> 0."""
    x2 = x * x
    return K._power_sum(K._sici_coeffs()[2], x * x2, -x2)


def _rhs_2_1(p: float) -> float:
    sp, cp = K._sincos_pi(p)
    vp = K._versin(sp, cp)
    return ((_L2PI + _G) * vp / (p * p * _PI * _PI)
            + sp / (4.0 * p * _PI) * K._psi_pair(0.5 * p)
            + 2.0 * vp / _PI ** 2 * log_quarter_sum(0.25 * p * p).value)


def _rhs_2_2(p: float) -> float:
    sp, cp = K._sincos_pi(p)
    x = p * _PI
    x_sin = _x_minus_sin(x) if x <= 1.0 else x - sp
    return ((_L2PI + _G) * x_sin / (p * p * _PI * _PI)
            + K._versin(sp, cp) / (4.0 * p * _PI) * K._psi_pair(0.5 * p)
            - 2.0 * sp / _PI ** 2 * log_quarter_sum(0.25 * p * p).value)


def _rhs_2_6(p: float) -> float:
    return -K._versin(*K._sincos_pi(p)) / (2.0 * p * _PI) * (
        2.0 * _G + 2.0 * math.log(2.0) + K._psi_pair(0.5 * p))


def _rhs_2_9(p: float) -> float:
    return -K._sincos_pi(2.0 * p)[0] / (4.0 * p * _PI) * (
        K._psi_pair(p) + 2.0 * _G)


# sum_{n>=N} (-1)^n n^-k, the rests past N of the two alternating sums below
# in zeta orders: k = 3 and 5 at N = 4000 (I-2.10), k = 2 at N = 100 000
# (I-8.15), each the double nearest its value (tests/make_tables.py).  Every
# later order is below 1e-21 and is left out
_ALT_TAILS_2_10 = (
    7.815429687194824e-12, 4.885864257144928e-19)
_ALT_TAIL_8_15 = 5.000049999999995e-11


def _rhs_2_10(p: float) -> SeriesResult:
    """sin(p pi)/(2 pi p) sum (-1)^n n/(n^2-p^2), the sum as -log 2
    + p^2 sum (-1)^n/(n(n^2-p^2)) to n = 3999.  Its terms alternate and
    shrink, so the rest is below the first omitted one, which is the
    error.

    The n = 1 term -p^2/(1-p^2) is taken out of the sum, with (1-p)(1+p)
    and sin(p pi) from :func:`kernels._sincos_pi`: neither cancels as p -> 1.
    At p = 1 it is -1/4 with its scale; at p = 0 the scale is 1/2.

    The sum from n = 2 to 3999 is summed in zeta orders,
    sum_j p^(2j) [E(2j+3) - T_j] with E(k) = 1 - eta(k) from
    :func:`kernels._one_minus_eta` and T_j the stored rest past n = 3999
    of order j (zero from j = 2 on).  The orders shrink by p^2/4, so past
    |p| = 1 they would run beyond the table, and such p raise."""
    if abs(p) > 1.0:
        raise DomainError(f"requires |p| <= 1, got {p}")
    p2 = p * p
    e = K._one_minus_eta()
    t0, t1 = _ALT_TAILS_2_10
    acc = -math.log(2.0) + p2 * K._power_sum(
        chain((e[1] - t0, e[3] - t1), e[5::2]), 1.0, p2)
    scale = K._sincos_pi(p)[0] / (2.0 * _PI * p) if p else 0.5
    one_m = (1.0 - p) * (1.0 + p)
    first = -scale * p * p / one_m if one_m else -0.25
    return SeriesResult(scale * acc + first,
                        abs(scale) * p * p / (4000.0 * (4000.0 ** 2 - p * p)),
                        3999, "alternating")


def _rhs_3_8(p: float) -> float:
    x = p * _PI
    # sin(p pi)/(1 - cos p pi) = cot(p pi/2), which cancels as p -> 2; as
    # p -> 0, Ci(x) - log x = gamma - Cin(x) from Cin's series, and the
    # digamma pair without its poles +-2/p
    ci_rest = _G - K._cin(x) if x <= 4.0 else _ci(x) - math.log(x)
    return (2.0 - _si(x) * K._cot_pi(0.5 * p) + ci_rest
            + 0.5 * K._psi_pair(0.5 * p))


def _rhs_3_14(p: float) -> float:
    x = p * _PI
    # Ci(x) - gamma - log x = -Cin(x), which cancels as p -> 0 unless taken
    # from Cin's series; sin(p pi)/(1 - cos p pi) = cot(p pi/2), which
    # cancels as p -> 2 unless taken from p/2's fraction
    ci_rest = -K._cin(x) if x <= 4.0 else _ci(x) - _G - math.log(x)
    return -(_PI / (4.0 * p)) * (_si(x) + ci_rest * K._cot_pi(0.5 * p))


def _ci_lattice_sum(power: int) -> float:
    """sum Ci(2 pi n)/n^power with the asymptotic lattice tail
    Ci(x) ~ -1/x^2 + 6/x^4 - 120/x^6 + 5040/x^8."""
    return zeta_tail_sum(
        lambda n_terms: (K._ci_at_2pi_mult(n) / float(n) ** power
                         for n in range(1, n_terms + 1)),
        {power + 2: -1.0 / _TWO_PI ** 2, power + 4: 6.0 / _TWO_PI ** 4,
         power + 6: -120.0 / _TWO_PI ** 6},
        omitted={power + 8: 5040.0 / _TWO_PI ** 8}).value


def _rhs_3_19(x: float) -> float:
    t = x / _PI
    return 2.0 / _PI - 4.0 / _PI * sum_catalog("FS-8.13", (t,)).value


def _alt_cos_sum(u: float, x: float) -> SeriesResult:
    """sum (-1)^(n+1) cos(n u)/(n^2 - x^2) for |x| < 1.

    1/(n^2-x^2) = sum_j x^2j n^(-2j-2), and (-1)^(n+1) cos(n u)
    = -cos(2 pi n t) with t = (u + pi)/(2 pi): five slices are exact
    Bernoulli sums.  The residual x^10/(n^10 (n^2-x^2)), below (4/3) x^10
    n^-12 from n = 2 on, keeps cos(n u), so that its n = 1 term, of size
    cos(u)/(1-x^2), stays accurate relative to cos(u) as x -> 1.
    """
    return _bernoulli_fourier(
        {2 * j + 2: -x ** (2 * j) for j in range(5)},
        lambda n: (-1.0) ** (n + 1) * math.cos(n * u) * x ** 10
        / (float(n) ** 10 * (n - x) * (n + x)),
        (u + _PI) / _TWO_PI, {12: x ** 10}, floor=1e-14)


def _rhs_4_4(n: float) -> float:
    n = float(int(n))
    tn = sum_catalog("S-4.4-Tn", (n,)).value
    return 0.5 * (0.25 / n - (_G + _L2PI) / (_PI ** 2 * n * n)
                  - math.log(n) / (4.0 * _PI ** 2 * n * n) - tn / _PI ** 2)


def _rhs_4_8(n: float) -> float:
    n = int(n)
    h = math.fsum(1.0 / k for k in range(1, n + 1))
    return ((_G + math.log(n) - h) / n + 1.0 / (n * n)) / (4.0 * _PI)


def _em_log2gamma() -> float:
    """int_0^1 log^2 Gamma, closed form (Espinosa-Moll)."""
    half_l = 0.5 * _L2PI
    zpp2 = K._hurwitz_em(2.0, 1.0, order=2)
    return (_G * _G / 12.0 + _PI ** 2 / 48.0 + _G * half_l / 3.0
            + 4.0 * half_l * half_l / 3.0
            - (_G + 2.0 * half_l) * _C.zeta_prime_2 / _PI ** 2
            + zpp2 / (2.0 * _PI ** 2))


def _rhs_5_48(x: float) -> float:
    return (-_G * x * x - K._lnG(1.0 + x) - K._lnG(1.0 - x)
            + math.log1p(x) + math.log1p(-x))


def _rhs_5_53(u: float) -> float:
    # 2 log(1+u/n)/n = 2 sum_k (-1)^(k+1) u^k/(k n^(k+1))
    acc = zeta_tail_sum(
        lambda n_terms: (2.0 * math.log1p(u / n) / n
                         for n in range(1, n_terms + 1)),
        {k + 1: 2.0 * (-1.0) ** (k + 1) * u ** k / k for k in range(1, 10)},
        omitted={11: 0.2 * u ** 10}).value
    return acc + power_series_eval("PS-5.53", u).value


def _rhs_6_10(u: float) -> float:
    s, c = K._sincos_pi(2.0 * u)
    return (K._lgamma(1.0 + u)
            + log_weighted_sin_sum(u).value / (4.0 * _PI)
            + 0.5 * u * math.log(2.0)
            + K._versin(s, c) / 8.0
            + 0.5 * (_G + math.log(_PI)) * (u - s / _TWO_PI)
            - 0.5 * (math.log(_TWO_PI * u) + _G - _ci(_TWO_PI * u)))


def _rhs_6_38() -> float:
    # the (6.40) minus (6.39) assembly; the weighted log sum runs from n=1
    acc = zeta_tail_sum(
        lambda n_terms: (math.log1p(-0.25 / (n * n)) / (n * n)
                         for n in range(1, n_terms + 1)),
        {2 * j + 2: -0.25 ** j / j for j in range(1, 8)},
        omitted={18: 0.25 ** 8 / 8.0}).value
    return (-2.0 * _C.log_A + (2.0 - 3.5 * _C.zeta3) / _PI ** 2
            + (_G + math.log(_PI)) / 6.0 - acc / (2.0 * _PI ** 2))


def _alt_quarter_sum() -> SeriesResult:
    """I-8.15's left side 2/pi - (4/pi) sum (-1)^n/(4n^2-1) to n = N =
    99 999.  Its terms alternate and shrink, so the rest is below the first
    omitted one, which (times 4/pi) is the error; the first omitted term is
    written as the Leibniz split (-1)^n [1/(2n-1) - 1/(2n+1)]/2.

    The sum is -1/3 for n = 1 plus, from n = 2 to N, the zeta orders
    sum_j 4^(-j-1) E(2j+2) with E(k) = 1 - eta(k) from
    :func:`kernels._one_minus_eta`, less a quarter of the stored rest
    T' = sum_{n>N} (-1)^n n^-2 of order j = 0."""
    s = (K._power_sum(K._one_minus_eta()[0::2], 0.25, 0.25) - 1.0 / 3.0
         - 0.25 * _ALT_TAIL_8_15)
    rest = 0.5 * (1.0 / 199_999.0 - 1.0 / 200_001.0)
    return SeriesResult(2.0 / _PI - 4.0 / _PI * s, 4.0 / _PI * rest, 99_999,
                        "alternating")


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

def build_records() -> list[IdentityRecord]:
    C = _C
    g = _G
    l2pi = _L2PI
    rec: list[IdentityRecord] = []
    add = rec.append

    # ----- section 1
    add(IdentityRecord(
        "I-1.8", 1, "(1.8): exponential transform of log Gamma on [0,1]",
        _quad("Q-1.1"),
        _expr("digamma/series form (1.8)", _rhs_1_8),
        param_names=("p",), param_domain=((-8.0, 8.0),),
        default_params=((-2.0,), (-0.5,), (0.5,), (1.0,), (3.0,))))
    add(IdentityRecord(
        "I-1.11", 1, "(1.11): int_0^1 e^(-px) log x dx",
        _quad("Q-1.11"),
        _expr("-(gamma + log p - Ei(-p))/p", _rhs_1_11),
        param_names=("p",), param_domain=((1e-6, 50.0),),
        default_params=((0.5,), (1.0,), (3.0,))))
    add(IdentityRecord(
        "I-1.12", 1, "(1.12): int_0^1 e^(-px) psi(1+x) dx",
        _quad("Q-1.12"), _expr("closed form (1.12)", _rhs_1_12),
        param_names=("p",), param_domain=((1e-6, 50.0),),
        default_params=((0.5,), (1.0,), (2.0,))))
    add(IdentityRecord(
        "I-1.13", 1, "(1.13): Laplace transform of psi(1+x)",
        _quad("Q-1.13"), _expr("closed form (1.13)", _rhs_1_13),
        param_names=("p",), param_domain=((0.5, 10.0),),
        default_params=((1.0,), (2.0,))))
    add(IdentityRecord(
        "I-1.17", 1, "(1.17): zeta-series form equals the (1.8) transform",
        _quad("Q-1.1", lambda p: (_TWO_PI * p[0],),
              lambda p: 2.0 * _PI ** 2 / (-math.expm1(-_TWO_PI * p[0])),
              "scaled quadrature"),
        _expr("zeta/zeta' power series (1.17)", _rhs_1_17),
        param_names=("p",), param_domain=((0.01, 0.99),),
        default_params=((0.2,), (0.5,))))
    add(IdentityRecord(
        "I-1.25", 1, "(1.25): pi t coth(pi t) = 1 - 2 sum (-1)^n zeta(2n) t^2n",
        _expr("pi t coth(pi t)",
              lambda t: _PI * t / math.tanh(_PI * t)),
        _expr("alternating zeta series", _zeta_alternating),
        param_names=("t",), param_domain=((0.0, 1.0),),
        default_params=((0.3,), (0.7,), (0.95,))))

    # ----- section 2
    p_grid = ((0.3,), (0.7,), (1.0,), (1.5,), (1.9,))
    add(IdentityRecord(
        "I-2.1", 2, "(2.1): int_0^1 log Gamma(x) cos(p pi x) dx",
        _quad("Q-2.1"), _expr("digamma/log-series form (2.1)", _rhs_2_1),
        param_names=("p",), param_domain=((0.0, 2.0),),
        default_params=p_grid))
    add(IdentityRecord(
        "I-2.2", 2, "(2.2): int_0^1 log Gamma(x) sin(p pi x) dx",
        _quad("Q-2.2"), _expr("digamma/log-series form (2.2)", _rhs_2_2),
        param_names=("p",), param_domain=((0.0, 2.0),),
        default_params=p_grid))
    add(IdentityRecord(
        "I-2.6", 2, "(2.6): log-sin sine transform vs digamma pair",
        _quad("Q-2.6"), _expr("digamma pair form (2.6)", _rhs_2_6),
        param_names=("p",), param_domain=((0.0, 2.0),),
        default_params=((0.2,), (0.5,), (0.9,), (1.5,), (1.9,))))
    add(IdentityRecord(
        "I-2.9", 2, "(2.9): log-2sin cosine transform vs digamma pair",
        _quad("Q-2.9"), _expr("digamma pair form (2.9)", _rhs_2_9),
        param_names=("p",), param_domain=((0.0, 0.5),),
        default_params=((0.1,), (0.2,), (0.3,), (0.4,), (0.45,))))
    add(IdentityRecord(
        "I-2.10", 2, "(2.10): half-interval log-sin cosine transform",
        _quad("Q-2.10"),
        _series_expr("alternating series form (2.10)", _rhs_2_10, err=3e-14),
        param_names=("p",), param_domain=((0.0, 1.0),),
        default_params=((0.1,), (0.3,), (0.5,), (0.7,), (0.95,))))
    add(IdentityRecord(
        "I-2.12", 2, "(2.12): int_0^1 log sin(pi x) sin((2x-1) p pi) dx = 0",
        _quad("Q-2.12"), _expr("zero", lambda p: 0.0, err=1e-16),
        param_names=("p",), param_domain=((0.0, 8.0),),
        default_params=((0.37,), (1.0,), (2.5,))))
    add(IdentityRecord(
        "I-2.13", 2, "(2.13): odd-power moments of log sin vanish",
        _quad("Q-2.13", pmap=_mode), _expr("zero", lambda n: 0.0, err=1e-16),
        param_names=("n",), param_domain=((0.0, 3.0),),
        default_params=((0.0,), (1.0,), (2.0,), (3.0,))))

    # ----- section 3
    add(IdentityRecord(
        "I-3.8", 3, "(3.8): si-weighted sum vs Si/Ci/digamma closed form",
        _expr("scaled si sum",
              lambda p: 2.0 * p * p / _PI * sum_catalog("S-3.8", (p,)).value,
              err=1e-13),
        _expr("Si/Ci closed form (3.8)", _rhs_3_8),
        param_names=("p",), param_domain=((0.0, 2.0),),
        default_params=p_grid))
    add(IdentityRecord(
        "I-3.11", 3, "(3.11): p=1 case of the si-weighted sum",
        _expr("scaled si sum",
              lambda: 2.0 / _PI * sum_catalog("S-3.8", (1.0,)).value,
              err=1e-13),
        _expr("3 + Ci(pi) - gamma - log(4 pi)",
              lambda: 3.0 + _ci(_PI) - g - math.log(4.0 * _PI))))
    add(IdentityRecord(
        "I-3.13", 3, "(3.13): int_0^1 log Gamma(x) sin(pi x) dx",
        _quad("Q-3.13"),
        _expr("(log(pi/2)+1)/pi",
              lambda: (math.log(0.5 * _PI) + 1.0) / _PI)))
    add(IdentityRecord(
        "I-3.14", 3, "(3.14): Ci-weighted sum vs Si/Ci closed form "
                     "(marked uncertain at source)",
        _ser("S-3.14"), _expr("Si/Ci closed form (3.14)", _rhs_3_14),
        expected="DISPUTED",
        param_names=("p",), param_domain=((0.0, 2.0),),
        default_params=((0.5,), (1.0,), (1.5,))))
    add(IdentityRecord(
        "I-3.15", 3, "(3.15): p=1 Ci-weighted specialisation",
        _expr("(gamma+log 2pi n)-weighted sum",
              lambda: 0.5 * (g + l2pi) + _sum_log_4n2m1().value, err=1e-13),
        _expr("(pi/4) Si(pi) + sum Ci(2 pi n)/(4n^2-1)",
              lambda: 0.25 * _PI * _si(_PI) + ci_quarter_sum(0.5).value,
              err=1e-13)))
    add(IdentityRecord(
        "I-3.19", 3, "(3.19): Fourier expansion of sin x",
        _expr("sin x", math.sin),
        _expr("2/pi - (4/pi) sum cos(2nx)/(4n^2-1)", _rhs_3_19),
        param_names=("x",), param_domain=((0.0, _PI),),
        default_params=((0.5,), (1.0,), (2.0,))))
    add(IdentityRecord(
        "I-3.22", 3, "(3.22): cosine partial-fraction expansion",
        _expr("pi cos(ux)/sin(pi x)",
              lambda u, x: _PI * math.cos(u * x) / K._sincos_pi(x)[0]),
        _expr("1/x + 2x sum (-1)^(n+1) cos(nu)/(n^2-x^2)",
              lambda u, x: 1.0 / x + 2.0 * x * _alt_cos_sum(u, x).value,
              err=1e-12),
        param_names=("u", "x"), param_domain=((0.0, _PI), (0.0, 1.0)),
        default_params=((0.5, 0.3), (0.5, 0.7), (2.0, 0.3), (2.0, 0.7))))
    add(IdentityRecord(
        "I-3.24", 3, "(3.24): cosecant partial-fraction expansion",
        _expr("pi/sin(pi x)", lambda x: _PI / K._sincos_pi(x)[0]),
        _expr("1/x + 2x sum (-1)^(n+1)/(n^2-x^2)",
              lambda x: 1.0 / x + 2.0 * x * _alt_cos_sum(0.0, x).value,
              err=1e-12),
        param_names=("x",), param_domain=((0.0, 1.0),),
        default_params=((0.3,), (0.7,))))

    # ----- section 4
    add(IdentityRecord(
        "I-4.1", 4, "(4.1): int_0^1 x log Gamma(x) dx",
        _quad("Q-4.1"),
        _expr("zeta'(2) closed form",
              lambda: 0.25 * l2pi - (g + l2pi) / 12.0
              + C.zeta_prime_2 / (2.0 * _PI ** 2))))
    add(IdentityRecord(
        "I-4.4", 4, "(4.4): cosine moments of x log Gamma(x)",
        _quad("Q-4.4", pmap=_mode),
        _expr("T_n closed form (4.4)", _rhs_4_4, err=3e-13),
        param_names=("n",), param_domain=((1.0, 8.0),),
        default_params=((1.0,), (2.0,), (3.0,), (5.0,), (8.0,))))
    add(IdentityRecord(
        "I-4.6", 4, "(4.6): the n=1 cosine moment",
        _quad("Q-4.4", pmap=lambda p: (1.0,)),
        _expr("T_1 closed form",
              lambda: 0.5 * (0.25 - (g + l2pi) / _PI ** 2
                             - sum_catalog("S-4.4-Tn", (1.0,)).value
                             / _PI ** 2), err=3e-13)))
    add(IdentityRecord(
        "I-4.8", 4, "(4.8): sine moments of x log Gamma(x)",
        _quad("Q-4.8", pmap=_mode),
        _expr("harmonic closed form (4.8)", _rhs_4_8),
        param_names=("n",), param_domain=((1.0, 8.0),),
        default_params=((1.0,), (2.0,), (3.0,), (5.0,), (8.0,))))
    add(IdentityRecord(
        "I-4.11", 4, "(4.11): int_0^1 x^2 log Gamma(x) dx",
        _quad("Q-4.11"),
        _expr("zeta closed form",
              lambda: l2pi / 12.0 - g / 12.0 + C.zeta3 / (4.0 * _PI ** 2)
              + C.zeta_prime_2 / (2.0 * _PI ** 2))))
    add(IdentityRecord(
        "I-4.12.7", 4, "(4.12.7): odd Bernoulli polynomial vs cot weight",
        _quad("Q-4.12.7", pmap=_mode),
        _expr("zeta(2n+1) closed form",
              lambda n: (-1.0) ** (int(n) + 1) * 2.0
              * math.factorial(2 * int(n) + 1) * K._zeta_int(2 * int(n) + 1)
              / _TWO_PI ** (2 * int(n) + 1)),
        param_names=("n",), param_domain=((1.0, 3.0),),
        default_params=((1.0,), (2.0,), (3.0,))))
    add(IdentityRecord(
        "I-4.12.8", 4, "(4.12.8): even Bernoulli polynomial vs log sin",
        _quad("Q-4.12.8", pmap=_mode),
        _expr("zeta(2n+1) closed form",
              lambda n: (-1.0) ** int(n) * math.factorial(2 * int(n))
              * K._zeta_int(2 * int(n) + 1) / _TWO_PI ** (2 * int(n))),
        param_names=("n",), param_domain=((1.0, 3.0),),
        default_params=((1.0,), (2.0,), (3.0,))))
    add(IdentityRecord(
        "I-4.12.10", 4, "(4.12.10): even Bernoulli polynomial vs log Gamma",
        _quad("Q-4.12.10", pmap=_mode),
        _expr("cot-integral closed form",
              lambda n: _PI / (2.0 * (2 * int(n) + 1))
              * (-1.0) ** (int(n) + 1) * 2.0
              * math.factorial(2 * int(n) + 1) * K._zeta_int(2 * int(n) + 1)
              / _TWO_PI ** (2 * int(n) + 1)),
        param_names=("n",), param_domain=((1.0, 3.0),),
        default_params=((1.0,), (2.0,), (3.0,))))
    add(IdentityRecord(
        "I-4.16", 4, "(4.16): Fourier series of log G",
        _ser("FS-4.16"),
        _expr("log Barnes G", lambda x: K._lnG(x)),
        param_names=("x",), param_domain=((0.0, 1.0),),
        default_params=((0.25,), (0.5,), (0.75,))))
    add(IdentityRecord(
        "I-4.17", 4, "(4.17.1): partial integral of log Gamma (Alexeiewsky)",
        _quad("Q-4.17"),
        _expr("Barnes G closed form",
              lambda u: 0.5 * u * l2pi + 0.5 * u * (1.0 - u)
              + u * K._lgamma(u) - K._lnG(1.0 + u)),
        param_names=("u",), param_domain=((0.0, 1.0),),
        default_params=((0.25,), (0.5,), (0.75,), (1.0,))))
    add(IdentityRecord(
        "I-4.24", 4, "(4.24): cot integral equals doubled sine-moment sum",
        _quad("Q-4.31"),
        _expr("series route via (4.8)",
              lambda: (sum_catalog("S-4.31.1").value + C.zeta2) / _TWO_PI,
              err=3e-13)))
    add(IdentityRecord(
        "I-4.25", 4, "(4.25): int_0^1 x log x sin(2n pi x) dx",
        _quad("Q-4.25"),
        _expr("-Si(2 n pi)/(4 pi^2 n^2)",
              lambda n: -_si(_TWO_PI * n) / (4.0 * _PI ** 2 * n * n)),
        param_names=("n",), param_domain=((1.0, 8.0),), integer_params=("n",),
        default_params=((1.0,), (2.0,), (3.0,))))
    add(IdentityRecord(
        "I-4.31", 4, "(4.31): x log Gamma cot integral vs gamma_1",
        _quad("Q-4.31"),
        _expr("(gamma_1 + (zeta(2)+gamma^2)/2)/(2 pi)",
              lambda: (C.gamma1 + 0.5 * (C.zeta2 + g * g)) / _TWO_PI,
              err=2e-12)))
    add(IdentityRecord(
        "I-4.32", 4, "(4.32): harmonic-log series vs gamma_1",
        _ser("S-4.32"),
        _expr("-(gamma_1 + (zeta(2)+gamma^2)/2)",
              lambda: -(C.gamma1 + 0.5 * (C.zeta2 + g * g)), err=2e-12)))
    add(IdentityRecord(
        "I-4.33", 4, "(4.33): log G cot integral vs gamma_1",
        _quad("Q-4.33"),
        _expr("(gamma_1 + gamma^2/2)/(2 pi)",
              lambda: (C.gamma1 + 0.5 * g * g) / _TWO_PI, err=2e-12)))
    add(IdentityRecord(
        "I-4.34", 4, "(4.34): mixed cot integral equals -pi/24",
        _quad("Q-4.34"), _expr("-pi/24", lambda: -_PI / 24.0)))
    add(IdentityRecord(
        "I-4.35", 4, "(4.35): log Gamma(1+x) cot integral vs Ci lattice sum",
        _quad("Q-4.35"),
        _expr("sum Ci(2 pi n)/(pi n)",
              lambda: _ci_lattice_sum(1) / _PI, err=1e-13)))
    add(IdentityRecord(
        "I-4.36", 4, "(4.36): x log Gamma psi integral vs -log^2 Gamma/2",
        _quad("Q-4.36-lhs"),
        _quad("Q-4.36", scale=lambda p: -0.5,
              label="-(1/2) quadrature of log^2 Gamma")))
    add(IdentityRecord(
        "I-4.37", 4, "(4.37): x log Gamma psi(1-x) integral, closed form",
        _quad("Q-4.37-lhs"),
        _expr("gamma_1/log^2 Gamma closed form",
              lambda: 0.5 * (C.gamma1 + 0.5 * (C.zeta2 + g * g))
              - 0.5 * _em_log2gamma(), err=2e-12)))
    add(IdentityRecord(
        "D-4.26", 4, "(4.26): x log x cot integral vs Si lattice sum "
                     "(source reports a numerical discrepancy)",
        _quad("Q-4.26-lhs"),
        _expr("-(1/2 pi^2) sum Si(2 pi n)/n^2",
              lambda: -sum_catalog("S-4.26").value / (2.0 * _PI ** 2),
              err=1e-12),
        expected="DISPUTED",
        reported={"lhs": -0.121552, "rhs": -0.121155}))
    add(IdentityRecord(
        "D-4.27", 4, "(4.27): conjectured half (source: '= 1/2 (?)')",
        _expr("zeta(2n) sum plus Si lattice sum",
              lambda: sum_catalog("S-4.27").value
              + sum_catalog("S-4.26").value / (4.0 * _PI), err=1e-12),
        _expr("1/2", lambda: 0.5),
        expected="DISPUTED", reported={"lhs": 0.498133}))
    add(IdentityRecord(
        "D-4.28", 4, "(4.28): log x log sin integral vs Si lattice sum "
                     "(source reports differing machine values)",
        _quad("Q-4.28-lhs"),
        _expr("log 2 + (1/2 pi) sum Si(2 pi n)/n^2",
              lambda: math.log(2.0)
              + sum_catalog("S-4.26").value / _TWO_PI, err=1e-12),
        expected="DISPUTED", reported={"lhs": 1.07051, "rhs": 1.0737}))
    add(IdentityRecord(
        "D-4.29", 4, "(4.29): log x log 2sin(x/2) integral vs Si(n pi) sum",
        _quad("Q-4.29-lhs"), _ser("S-4.29-rhs"),
        expected="DISPUTED", reported={"lhs": 2.83509, "rhs": 2.82726}))
    add(IdentityRecord(
        "D-4.30", 4, "(4.30): log x log cot(x/2) integral vs odd Si sum",
        _quad("Q-4.30-lhs"), _ser("S-4.30-rhs", scale=-2.0),
        expected="DISPUTED", reported={}))
    add(IdentityRecord(
        "P-logGcot", 4, "divergence probe: int log Gamma(x) cot(pi x)",
        _expr("probe", lambda: 0.0), _expr("probe", lambda: 0.0),
        expected="DIVERGENT-PROBE", probe="logGamma_cot"))
    add(IdentityRecord(
        "P-logxcot", 4, "divergence probe: int log x cot(pi x)",
        _expr("probe", lambda: 0.0), _expr("probe", lambda: 0.0),
        expected="DIVERGENT-PROBE", probe="logx_cot"))

    # ----- section 5
    add(IdentityRecord(
        "I-5.1", 5, "(5.1): Maclaurin series of the regularised sum",
        _expr("-Re psi(1+ix)", _lam, err=2e-13),
        _ps("PS-5.1"),
        param_names=("x",), param_domain=((0.0, 1.0),),
        default_params=((0.1,), (0.5,), (0.9,))))
    add(IdentityRecord(
        "I-5.4", 5, "(5.4): sin transform vs Im log Gamma(1+ix)",
        _quad("Q-5.4"),
        _expr("-Im log Gamma(1+ix)",
              lambda x: -power_series_eval("PS-5.41", x).value.imag,
              err=1e-13),
        param_names=("x",), param_domain=((0.0, 1.0),),
        default_params=((0.1,), (0.3,), (0.5,), (0.7,), (0.9,))))
    add(IdentityRecord(
        "I-5.5", 5, "(5.5): cos transform equals the regularised sum",
        _quad("Q-5.5"),
        _expr("-Re psi(1+ix)", _lam, err=2e-13),
        param_names=("x",), param_domain=((0.0, 4.0),),
        default_params=((0.1,), (0.5,), (1.3,), (2.0,))))
    add(IdentityRecord(
        "I-5.7", 5, "(5.7): cos transform of 1/(e^t-1)-1/t",
        _quad("Q-5.7"),
        _expr("log x + regularised sum",
              lambda x: math.log(x) + _lam(x), err=2e-13),
        param_names=("x",), param_domain=((0.0, 4.0),),
        default_params=((0.3,), (0.7,), (1.5,))))
    add(IdentityRecord(
        "I-5.13", 5, "(5.13): digamma-pair series",
        _ser("S-5.13"),
        _expr("-(psi(1+x)+psi(1-x))/2",
              lambda x: -0.5 * K._psi_pair(x)),
        param_names=("x",), param_domain=((0.0, 1.0),),
        default_params=((0.25,), (0.5,), (0.75,))))
    add(IdentityRecord(
        "I-5.17", 5, "(5.17): zeta(2n+1) series vs Barnes G product",
        _ps("PS-5.17"),
        _expr("-(1+gamma)x^2 - log[G(1+x)G(1-x)]",
              lambda x: -(1.0 + g) * x * x - K._lnG(1.0 + x)
              - K._lnG(1.0 - x)),
        param_names=("x",), param_domain=((0.0, 1.0),),
        default_params=((0.1,), (0.5,), (0.9,))))
    add(IdentityRecord(
        "I-5.18", 5, "(5.18): quarter-square log product, closed form",
        _ser("S-5.18"),
        _expr("3 zeta'(-1) + 1/4 + log(2)/12",
              lambda: 3.0 * C.zeta_prime_neg1 + 0.25 + math.log(2.0) / 12.0)))
    add(IdentityRecord(
        "D-5.18", 5, "(5.18): the source's machine value disagrees with "
                     "its own closed form",
        _ser("S-5.18"),
        _expr("3 zeta'(-1) + 1/4 + log(2)/12",
              lambda: 3.0 * C.zeta_prime_neg1 + 0.25 + math.log(2.0) / 12.0),
        expected="DISPUTED",
        reported={"lhs": -0.187878, "rhs": -0.1885012}))
    add(IdentityRecord(
        "I-5.20", 5, "(5.20): Kinkelin's integral",
        _quad("Q-5.20"),
        _expr("x log 2pi + log G(1-x) - log G(1+x)",
              lambda x: x * l2pi + K._lnG(1.0 - x) - K._lnG(1.0 + x)),
        param_names=("x",), param_domain=((0.0, 1.0),),
        default_params=((0.25,), (0.5,), (0.75,), (0.9,))))
    add(IdentityRecord(
        "I-5.24", 5, "Prop 5.1: Barnes G half-shift identity",
        _expr("shifted G combination",
              lambda x: (x + 0.5) * l2pi + K._lnG(0.5 - x)
              - K._lnG(1.5 + x)),
        _expr("duplication combination",
              lambda x: 0.5 * (K._lnG(1.0 - 2.0 * x) - K._lnG(1.0 + 2.0 * x))
              - (K._lnG(1.0 - x) - K._lnG(1.0 + x))
              + 0.5 * math.log(2.0 * K._sincos_pi(x)[1])),
        param_names=("x",), param_domain=((-0.25, 0.25),),
        default_params=((0.05,), (0.1,), (0.2,))))
    add(IdentityRecord(
        "I-5.32", 5, "(5.32): odd zeta series vs log Gamma closed form",
        _ps("PS-5.32"),
        _expr("log(pi x/sin pi x)/2 - gamma x - log Gamma(1+x)",
              lambda x: 0.5 * math.log(_PI * x / K._sincos_pi(x)[0])
              - g * x - K._lgamma(1.0 + x)),
        param_names=("x",), param_domain=((0.0, 1.0),),
        default_params=((0.1,), (0.5,), (0.9,))))
    add(IdentityRecord(
        "I-5.35", 5, "(5.35): sinh transform vs log Gamma difference",
        _quad("Q-5.35"),
        _expr("[log Gamma(1-x) - log Gamma(1+x)]/2",
              lambda x: 0.5 * (K._lgamma(1.0 - x) - K._lgamma(1.0 + x))),
        param_names=("x",), param_domain=((0.0, 1.0),),
        default_params=((0.1,), (0.3,), (0.5,), (0.7,), (0.9,))))
    add(IdentityRecord(
        "I-5.36", 5, "(5.36): cosh transform vs digamma pair",
        _quad("Q-5.36"),
        _expr("-(psi(1+x)+psi(1-x))/2",
              lambda x: -0.5 * K._psi_pair(x)),
        param_names=("x",), param_domain=((0.0, 1.0),),
        default_params=((0.1,), (0.3,), (0.5,), (0.7,), (0.9,))))
    add(IdentityRecord(
        "I-5.44.4", 5, "(5.44.4): Stirling-type log series",
        _ser("S-5.44.4"),
        _expr("1 - (gamma + log 2pi)/2",
              lambda: 1.0 - 0.5 * (g + l2pi))))
    add(IdentityRecord(
        "I-5.44.5", 5, "(5.44.5): the Hardy series",
        _ser("S-5.44.5"),
        _expr("1 - log(2pi)/2", lambda: 1.0 - 0.5 * l2pi)))
    add(IdentityRecord(
        "I-5.45", 5, "(5.45): psi integral equals log(n+1)/(n(n+1)) sum",
        _quad("Q-5.45-int"), _ser("S-5.45")))
    add(IdentityRecord(
        "I-5.45.1", 5, "(5.45.1): the log-ratio integral form",
        _quad("Q-5.45-int-b"), _ser("S-5.45")))
    add(IdentityRecord(
        "I-5.45.2", 5, "(5.45.2): alternating zeta form",
        _ser("S-5.45.2"), _ser("S-5.45")))
    add(IdentityRecord(
        "I-5.45.3", 5, "(5.45.3): -sum zeta'(n) form",
        _ser("S-5.45.3"), _ser("S-5.45")))
    add(IdentityRecord(
        "I-5.45.4", 5, "(5.45.4): log(1+1/n)/n form",
        _ser("S-5.45.4"), _ser("S-5.45")))
    add(IdentityRecord(
        "I-5.46.2", 5, "(5.46.2): sum [zeta(2n+1)-1] = 1/4",
        _ser("S-5.46.2"), _expr("1/4", lambda: 0.25, err=0.0)))
    add(IdentityRecord(
        "I-5.48", 5, "(5.48): shifted zeta series vs Barnes G quotient",
        _expr("sum [zeta(2n+1)-1] x^(2n+2)/(n+1)",
              lambda x: K._power_sum((K._zeta_m1(2 * n + 1) / (n + 1.0)
                                      for n in count(1)), (x * x) ** 2, x * x),
              err=1e-13),
        _expr("Barnes G quotient form", _rhs_5_48),
        param_names=("x",), param_domain=((0.0, 1.0),),
        default_params=((0.3,), (0.7,), (0.95,))))
    add(IdentityRecord(
        "I-5.53", 5, "(5.53): cot-defect integral vs log/zeta series",
        _quad("Q-5.53-lhs"),
        _expr("2 sum log((n+u)/n)/n + odd zeta series", _rhs_5_53,
              err=1e-13),
        param_names=("u",), param_domain=((0.0, 1.0),),
        default_params=((0.3,), (0.6,), (0.9,))))
    add(IdentityRecord(
        "I-5.56", 5, "(5.56): Prop 5.2 log series",
        _ser("S-5.56"),
        _expr("(gamma + log 2pi - 3)/2",
              lambda: 0.5 * (g + l2pi - 3.0))))
    add(IdentityRecord(
        "I-5.58.1", 5, "(5.58.1): Candelpergher's series",
        _ser("S-5.58.1"),
        _expr("(gamma - log 2pi)/2 + 1",
              lambda: 0.5 * (g - l2pi) + 1.0)))
    add(IdentityRecord(
        "D-5.55", 5, "(5.55) chain: the source flags its own contradiction "
                     "('there must be an error here')",
        _expr("sum_(n>=2) log(1+1/n)/n + 1 - log 2",
              lambda: sum_catalog("S-5.45.4").value - math.log(2.0)
              + 1.0 - math.log(2.0), err=1e-13),
        _quad("Q-5.45-int"),
        expected="DISPUTED", reported={}))

    # ----- section 6
    add(IdentityRecord(
        "I-6.3", 6, "(6.3): sum log(1-1/n^2) = -log 2",
        _ser("S-6.3"), _expr("-log 2", lambda: -math.log(2.0))))
    add(IdentityRecord(
        "I-6.4", 6, "(6.4): alternating form",
        _ser("S-6.4"),
        _expr("2 log pi - 3 log 2",
              lambda: 2.0 * math.log(_PI) - 3.0 * math.log(2.0))))
    add(IdentityRecord(
        "I-6.5", 6, "(6.5): Wallis product logarithm",
        _ser("S-6.5"), _expr("log(pi/2)", lambda: math.log(0.5 * _PI))))
    add(IdentityRecord(
        "I-6.6", 6, "(6.6): companion Wallis-type series",
        _ser("S-6.6"), _expr("log(pi/2)", lambda: math.log(0.5 * _PI))))
    add(IdentityRecord(
        "I-6.7.1", 6, "(6.7.1): (1-cos 2pi x) psi(1-x) integral",
        _quad("Q-6.7.1"),
        _expr("-(log 2pi + gamma)", lambda: -(l2pi + g))))
    add(IdentityRecord(
        "I-6.9", 6, "(6.9): sine Fourier coefficients of log Gamma",
        _quad("Q-6.9"),
        _expr("(gamma + log(2 pi k))/(2 pi k)",
              lambda k: (g + math.log(_TWO_PI * k)) / (_TWO_PI * k)),
        param_names=("k",), param_domain=((1.0, 8.0),), integer_params=("k",),
        default_params=((1.0,), (2.0,), (3.0,), (5.0,), (8.0,))))
    add(IdentityRecord(
        "I-6.10", 6, "(6.10): partial cos^2 transform of psi(1+x)",
        _quad("Q-6.10"), _expr("log-series closed form (6.10)", _rhs_6_10,
                               err=1e-12),
        param_names=("u",), param_domain=((0.0, 1.0),),
        default_params=((0.3,), (0.5,), (0.7,))))
    add(IdentityRecord(
        "I-6.14", 6, "(6.14): int_0^(1/2) psi(1+x) cos^2 = Ci(pi) form",
        _quad("Q-6.14"),
        _expr("[log pi - gamma + 2 Ci(pi) - 3 log 2 + 1]/4",
              lambda: 0.25 * (math.log(_PI) - g + 2.0 * _ci(_PI)
                              - 3.0 * math.log(2.0) + 1.0))))
    add(IdentityRecord(
        "I-6.14.1", 6, "(6.14.1): int_0^1 psi(x) sin^2(pi x) dx",
        _quad("Q-6.14.1"),
        _expr("-(gamma + log 2pi)/2", lambda: -0.5 * (g + l2pi))))
    add(IdentityRecord(
        "I-6.14.2", 6, "(6.14.2): half-interval form (constant repaired "
                       "from the (6.11) chain)",
        _quad("Q-6.14.2"),
        _expr("-(1 + gamma + log 2pi)/4",
              lambda: -0.25 * (1.0 + g + l2pi))))
    add(IdentityRecord(
        "I-6.15", 6, "(6.15): partial sin^2/x integral vs Ci",
        _quad("Q-6.15"),
        _expr("[gamma + log(2 pi u) - Ci(2 pi u)]/2",
              lambda u: 0.5 * (g + math.log(_TWO_PI * u) - _ci(_TWO_PI * u))),
        param_names=("u",), param_domain=((0.0, 4.0),),
        default_params=((0.5,), (1.0,), (2.0,))))
    add(IdentityRecord(
        "I-6.16", 6, "(6.16): int_0^1 x log Gamma(x) sin 2pi x = gamma/4pi",
        _quad("Q-6.16", pmap=lambda p: (1.0,)),
        _expr("gamma/(4 pi)", lambda: g / (4.0 * _PI))))
    add(IdentityRecord(
        "I-6.17", 6, "(6.17): cosine Fourier coefficients of log Gamma",
        _quad("Q-6.17"),
        _expr("1/(4k)", lambda k: 0.25 / k),
        param_names=("k",), param_domain=((1.0, 8.0),), integer_params=("k",),
        default_params=((1.0,), (2.0,), (3.0,), (5.0,), (8.0,))))
    add(IdentityRecord(
        "I-6.23", 6, "(6.23): psi(n+1/2)-weighted log series",
        _ser("S-6.23"),
        _expr("log-2 and log-sum closed form",
              lambda: (g + 2.0 * math.log(2.0) - 2.0) * math.log(2.0)
              - 4.0 * _sum_log_4n2m1().value, err=1e-13)))
    add(IdentityRecord(
        "I-6.24", 6, "(6.24): x(1-x) cos cot integral vs zeta(3)",
        _quad("Q-6.24"),
        _expr("(7 zeta(3) - 4)/pi^3",
              lambda: (7.0 * C.zeta3 - 4.0) / _PI ** 3)))
    add(IdentityRecord(
        "I-6.33", 6, "(6.33): alternating cubic sum vs Catalan/Hurwitz",
        _ser("S-6.33"),
        _expr("Catalan/Hurwitz closed form",
              lambda: (24.0 * C.catalan + K._hurwitz(2.0, 1.25)
                       - 32.0 - _PI ** 2) / 512.0)))
    add(IdentityRecord(
        "I-6.34", 6, "(6.34): psi x(1-x) cos integral vs zeta(3)",
        _quad("Q-6.34"),
        _expr("[2 - 7 zeta(3)/2]/pi^2",
              lambda: (2.0 - 3.5 * C.zeta3) / _PI ** 2)))
    add(IdentityRecord(
        "I-6.37", 6, "(6.37): the cot integral recovered from the psi route",
        _quad("Q-6.34", scale=lambda p: -2.0 / _PI,
              label="-(2/pi) psi-route quadrature"),
        _expr("(7 zeta(3) - 4)/pi^3",
              lambda: (7.0 * C.zeta3 - 4.0) / _PI ** 3)))
    add(IdentityRecord(
        "I-6.38", 6, "(6.38): the half-argument psi integral (sign and "
                     "summation start repaired against the (6.40)-(6.39) "
                     "assembly)",
        _quad("Q-6.38"), _expr("Glaisher/zeta(3) closed form", _rhs_6_38,
                               err=1e-13)))
    add(IdentityRecord(
        "I-6.40", 6, "(6.40): x(1-x) psi(x/2) integral",
        _quad("Q-6.40"),
        _expr("-2 log A - 7 zeta(3)/(2 pi^2) - log(2)/6",
              lambda: -2.0 * C.log_A - 3.5 * C.zeta3 / _PI ** 2
              - math.log(2.0) / 6.0)))

    # ----- section 7
    add(IdentityRecord(
        "I-7.12", 7, "(7.12): log(1+1/n)/(2n+1) sum vs log-weighted sum",
        _ser("S-7.12"),
        _expr("2 sum log n/(4n^2-1)",
              lambda: 2.0 * _sum_log_4n2m1().value, err=1e-13)))
    add(IdentityRecord(
        "I-7.13", 7, "(7.13): int_0^1 psi(x) sin^2(pi x) dx",
        _quad("Q-7.13"),
        _expr("-(gamma + log 2pi)/2", lambda: -0.5 * (g + l2pi))))
    add(IdentityRecord(
        "I-7.15", 7, "(7.15): partial sine transform of psi (bracket "
                     "repaired against the elementary integral)",
        _quad("Q-7.15"),
        _series_expr("Kummer/Barnes closed-plus-residual series",
                     psi_sin_partial),
        param_names=("u",), param_domain=((0.0, 1.0),),
        default_params=((0.25,), (0.5,), (1.0,))))
    add(IdentityRecord(
        "I-7.17", 7, "(7.17): the u = 1/2 case in closed form",
        _quad("Q-7.17"),
        _expr("-(2/pi) sum log n/(4n^2-1) - (gamma+log 2pi)/pi - 1/2",
              lambda: -2.0 / _PI * _sum_log_4n2m1().value
              - (g + l2pi) / _PI - 0.5, err=1e-13)))
    add(IdentityRecord(
        "D-7.11", 7, "(7.11): alternating log series pair (source saw a "
                     "spurious combined value)",
        _ser("S-7.11"), _ser("S-7.11-aux", scale=-4.0),
        expected="DISPUTED",
        reported={"lhs": -0.176012, "rhs": 0.176012,
                  "combined": 0.0132252}))

    # ----- section 8
    add(IdentityRecord(
        "I-8.7", 8, "(8.7): cosecant expansion",
        _expr("pi/sin(mu pi)", lambda mu: _PI / K._sincos_pi(mu)[0]),
        _expr("1/mu - 2 mu sum (-1)^n/(n^2-mu^2)",
              lambda mu: 1.0 / mu + 2.0 * mu * _alt_cos_sum(0.0, mu).value,
              err=1e-12),
        param_names=("mu",), param_domain=((0.0, 1.0),),
        default_params=((0.3,), (0.7,))))
    add(IdentityRecord(
        "I-8.11", 8, "(8.11): sum 1/(4n^2-1) = 1/2",
        _ser("S-8.11"), _expr("1/2", lambda: 0.5)))
    add(IdentityRecord(
        "I-8.13", 8, "(8.13): Fourier expansion of sin(pi t)",
        _expr("sin(pi t)", lambda t: K._sincos_pi(t)[0]),
        _expr("2/pi - (4/pi) sum cos(2 pi n t)/(4n^2-1)",
              lambda t: 2.0 / _PI
              - 4.0 / _PI * sum_catalog("FS-8.13", (t,)).value, err=1e-12),
        param_names=("t",), param_domain=((0.0, 1.0),),
        default_params=((0.3,),)))
    add(IdentityRecord(
        "I-8.14", 8, "(8.14): Fourier expansion of cos(pi t)",
        _expr("(pi/8) cos(pi t)", lambda t: 0.125 * _PI * K._sincos_pi(t)[1]),
        _expr("sum n sin(2 pi n t)/(4n^2-1)",
              lambda t: sum_catalog("FS-8.14", (t,)).value, err=1e-12),
        param_names=("t",), param_domain=((0.0, 1.0),),
        default_params=((0.3,),)))
    add(IdentityRecord(
        "I-8.15", 8, "(8.15): alternating quarter-square sum closes to 1",
        _series_expr("2/pi - (4/pi) sum (-1)^n/(4n^2-1)", _alt_quarter_sum,
                     err=1e-12),
        _expr("1", lambda: 1.0, err=0.0)))

    rec.sort(key=lambda r: r.id)
    return rec


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

class Registry:
    """Catalog of identity records plus the verdict machinery."""

    def __init__(self, records: list[IdentityRecord] | None = None):
        self._records = records if records is not None else build_records()
        self._by_id = {r.id: r for r in self._records}

    def list_identities(self, section: int | None = None,
                        expected: str | None = None) -> list[IdentityRecord]:
        out = [r for r in self._records
               if (section is None or r.section == section)
               and (expected is None or r.expected == expected)]
        return sorted(out, key=lambda r: r.id)

    def record(self, rid: str) -> IdentityRecord:
        try:
            return self._by_id[rid]
        except KeyError:
            raise UnknownKeyError(f"unknown identity id {rid!r}") from None

    def check_params(self, rec: IdentityRecord,
                     params: tuple[float, ...]) -> None:
        if len(params) != len(rec.param_names):
            raise DomainError(
                f"{rec.id} takes {len(rec.param_names)} parameter(s), "
                f"got {len(params)}")
        for value, (lo, hi), name in zip(params, rec.param_domain,
                                         rec.param_names):
            if not lo <= value <= hi:
                raise DomainError(
                    f"{rec.id}: {name}={value} outside [{lo}, {hi}]")
            if name in rec.integer_params:
                integer_arg(value, f"{rec.id}: {name}")

    def verify_identity(self, rid: str,
                        params: tuple[float, ...] | None = None,
                        opts: EvalOptions = EvalOptions()) -> Verdict:
        """The verdict of record ``rid`` at ``params`` (by default its first
        default point).  A DISPUTED record carries the source's quoted
        values as ``diagnostics["reported"]``."""
        rec = self.record(rid)
        params = tuple(rec.default_params[0] if params is None else params)
        self.check_params(rec, params)
        if rec.probe is not None:
            return self._verify_probe(rec, opts)
        diagnostics = {}
        if rec.expected == "DISPUTED":
            diagnostics = {"reported": dict(rec.reported)}  # JSON-ready
        t0 = time.perf_counter()
        # a numeric or domain failure of a route, a value or bar that is
        # not finite among them, gives an INCONCLUSIVE verdict; any other
        # exception is a program error and propagates
        try:
            lv, le = rec.lhs.evaluate(params, opts)
            rv, re_ = rec.rhs.evaluate(params, opts)
            if not all(map(math.isfinite, (lv, le, rv, re_))):
                raise EvaluationError(f"not finite: lhs {lv} ± {le}, "
                                      f"rhs {rv} ± {re_}")
        except (GammalabError, ArithmeticError, ValueError) as exc:
            dt = time.perf_counter() - t0
            return Verdict(rec.id, params, math.nan, math.inf, math.nan,
                           math.inf, math.inf, math.inf, "INCONCLUSIVE",
                           rec.expected, dt,
                           note=f"route failure: {exc}",
                           diagnostics=diagnostics)
        residual = abs(lv - rv)
        budget = le + re_
        status = _status(residual, budget)
        dt = time.perf_counter() - t0
        return Verdict(rec.id, params, lv, le, rv, re_, residual, budget,
                       status, rec.expected, dt,
                       diagnostics=diagnostics)

    def _verify_probe(self, rec: IdentityRecord,
                      opts: EvalOptions) -> Verdict:
        t0 = time.perf_counter()
        rs = [probe_cauchy(rec.probe, eps, opts.level_cap)
              for eps in (1e-2, 1e-3, 1e-4)]
        vals = [r.value for r in rs]
        e0, e1, e2 = (r.abs_err for r in rs)
        d1 = vals[1] - vals[0]
        d2 = vals[2] - vals[1]
        diverges = (abs(d2) > 0.5 * abs(d1)
                    and abs(d1) > 1e3 * (e0 + e1 + e2))
        d1_err, d2_err = e0 + e1, e1 + e2
        dt = time.perf_counter() - t0
        return Verdict(rec.id, (), d1, d1_err, d2, d2_err, abs(d2) - abs(d1),
                       d1_err + d2_err,
                       "CONFIRMED" if diverges else "INCONCLUSIVE",
                       rec.expected, dt,
                       note="successive cutoff increments must not shrink",
                       diagnostics={"values": vals})

    def run_suite(self, selection: list[str] | None = None,
                  opts: EvalOptions = EvalOptions()) -> list[Verdict]:
        """Every verdict of the selection (by default every record), at each
        record's default points, in catalog order."""
        if selection is not None:
            records = [self.record(rid) for rid in selection]
        else:
            records = self._records
        if not records:
            raise DomainError("empty selection")
        return [self.verify_identity(rec.id, params, opts)
                for rec in sorted(records, key=lambda r: r.id)
                for params in rec.default_params]


def failures(verdicts: list[Verdict]) -> list[Verdict]:
    """Expected-CONFIRMED identities that came back REFUTED."""
    return [v for v in verdicts
            if v.expected == "CONFIRMED" and v.status == "REFUTED"]
