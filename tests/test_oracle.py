"""Independent high-precision oracle: every sum the package takes through
``zeta_tail_sum``, and every geometric and alternating sum at any cap, must
lie within its own reported error of mpmath at 30 digits."""

import json
import math
import random
from pathlib import Path

import pytest

mp = pytest.importorskip("mpmath")

from gammalab import kernels as K  # noqa: E402
from gammalab import registry as R  # noqa: E402
from gammalab import series  # noqa: E402
from gammalab.errors import DomainError  # noqa: E402
from gammalab.integral_catalog import integral_catalog  # noqa: E402
from gammalab.series_catalog import (  # noqa: E402
    SERIES_CATALOG,
    _LOG_G_RESIDUALS,
    _alternating,
    _tn_orders,
    log_weighted_sin_sum,
    power_series_eval,
    psi_sin_partial,
    sum_catalog,
)
from test_series import _tn_asymptotic  # noqa: E402

mp.mp.dps = 30
PI = math.pi


def _close(value, ref, err):
    return abs(mp.mpf(value) - ref) <= err


@pytest.mark.parametrize("s", [99.0, 100.0, 150.0, 1000.0])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 50.0, 1000.0])
def test_hurwitz_either_side_of_direct_sum(s, a):
    r = K.zeta_family("hurwitz", s, a)
    assert _close(r.value, mp.zeta(s, a), r.abs_err)
    if r.value > 1e-250:  # relative accuracy, away from subnormals
        assert _close(r.value, mp.zeta(s, a), 1e-15 * r.value)
    if a == 1.0:
        r = K.zeta_family("zeta_prime", s)
        assert _close(r.value, mp.zeta(s, 1, 1), r.abs_err)


_BOUND_K = [2, 3, 4, 5, 6, 8, 11, 17, 29, 41, 60]
_BOUND_A = [1.5, 2.0, 2.5, 3.0, 5.0, 9.0, 17.0, 65.0, 257.0, 1025.0, 65537.0]


@pytest.mark.parametrize("k", _BOUND_K)
def test_zeta_tail_upper_bounds(k):
    # tail_bound's closed-form zeta(k, a) and |zeta'(k, a)| are upper bounds
    # within 1.2x and 1.35x; zeta' needs a >= e^(1/k)
    for a in _BOUND_A:
        with mp.workdps(40 + int(k * math.log10(a))):
            z, dz = mp.zeta(k, a), -mp.zeta(k, a, 1)
        assert z <= series._zeta_upper(k, a) <= 1.2 * z, (k, a)
        if k * math.log(a) < 1.0:
            with pytest.raises(DomainError):
                series._zeta_prime_upper(k, a)
        else:
            assert dz <= series._zeta_prime_upper(k, a) <= 1.35 * dz, (k, a)


# zeta(s, a) and its first two s-derivatives, cached by make_oracle_data.py
# at 40 + |log10 value| digits: at this file's 30 digits mpmath's zeta(21, 65)
# is itself off by 3e-10
_HURWITZ = json.loads((Path(__file__).resolve().parent / "data"
                       / "hurwitz.json").read_text())


@pytest.mark.parametrize("order, s, refs", [
    pytest.param(*row, id=f"{row[0]}-{row[1]}") for row in _HURWITZ["rows"]])
def test_hurwitz_em_relative_error(order, s, refs):
    # a = 0.5 .. 8891; the worst found is 1.1e-15 (order 1, s = 26, a = 15.8)
    for a, ref in zip(_HURWITZ["a"], refs):
        if ref is not None:
            ref = mp.mpf(ref)
            rel = abs((K._hurwitz_em(s, a, order) - ref) / ref)
            assert rel <= 1e-14, (order, s, a, rel)


# 100 log-uniform theta over [1e-3, 1e300], the float 2 pi (Cl2 = -8.9e-15
# there) and a negative angle
_CL2_THETA = [10.0 ** (-3.0 + 303.0 * i / 99) for i in range(100)] + [
    2.0 * PI, -12345.678]


@pytest.mark.parametrize("theta", _CL2_THETA)
def test_clausen_cl2_any_theta(theta):
    r = K.clausen_cl2(theta)
    with mp.workdps(40 + max(0, int(math.log10(abs(theta))))):
        t = mp.fmod(mp.mpf(theta), 2 * mp.pi)
    assert _close(r.value, mp.clsin(2, t), r.abs_err), theta


def test_bernoulli_table():
    # the exact (numerator, denominator) pairs, and their floats rounded
    # once, against mpmath's own Bernoulli fractions
    assert len(K._BERNOULLI) == 31
    for n, (num, den) in enumerate(K._BERNOULLI):
        assert (num, den) == mp.bernfrac(n), n
        assert K._bernoulli_float(n) == float(mp.mpf(num) / den), n


def test_zeta_at_integers():
    # zeta(k) - 1 = zeta(k, 2) keeps its relative precision, and zeta(k) =
    # 1 + zeta(k, 2) rounds once, so it lies within 1 ulp; a second
    # Euler-Maclaurin evaluation of zeta(k, 1) was 3.3 ulps off
    for k in range(2, 81):
        zm1 = mp.zeta(k, 2)
        assert abs(K._zeta_m1(k) - zm1) <= 4 * K._EPS * zm1, k
        z = mp.zeta(k)
        assert abs(K._zeta_int(k) - z) <= math.ulp(float(z)), k


def test_zeta_prime2_at_2():
    r = K.zeta_family("zeta_prime2_at_2")
    assert _close(r.value, mp.zeta(2, 1, 2), r.abs_err)


def test_si_cin_series_relative_error():
    # Si and Cin by their power series on (0, 4], and Ci from Cin, within a
    # few ulps of the sums' largest terms
    for i in range(1, 201):
        x = i / 50.0
        si, ci = K._sici_raw(x)
        cin = mp.euler + mp.log(x) - mp.ci(x)
        assert _close(si, mp.si(x), 1e-15 * abs(si)), x
        assert _close(K._cin(x), cin, 1e-15 * cin), x
        assert _close(ci, mp.ci(x), 2e-15 * (1.0 + abs(ci))), x


def test_gamma1():
    r = K.stieltjes_gamma1()
    assert _close(r.value, mp.stieltjes(1), r.abs_err)
    assert r.abs_err < 1e-13


def test_catalan():
    # G = 1 + sum_{n>=1} (-1)^n/(2n+1)^2 by the catalog's alternating sum,
    # g(t) = 1/(4t+1)^2 = sum_k (-1)^k (k-1) 4^-k t^-k
    def c(k):
        return (-1.0) ** k * (k - 1) * 0.25 ** k
    r = _alternating(lambda n: 1.0 / (2 * n + 1) ** 2,
                     {k: c(k) for k in range(2, 12)}, {12: c(12)})
    g = 1.0 + r.value
    assert r.abs_err <= 2e-14
    assert _close(g, mp.catalan, r.abs_err + 0.5 * math.ulp(g))


def test_constants_are_correctly_rounded():
    # every stored constant is the double nearest its value, and so are the
    # kernels that return one
    with mp.workdps(50):
        ref = {"gamma": mp.euler, "gamma1": mp.stieltjes(1),
               "log_2pi": mp.log(2 * mp.pi), "zeta2": mp.zeta(2),
               "zeta3": mp.zeta(3), "zeta_prime_2": mp.zeta(2, derivative=1),
               "zeta_prime_neg1": mp.zeta(-1, derivative=1),
               "log_A": mp.log(mp.glaisher), "catalan": mp.catalan}
        nearest = {name: float(v) for name, v in ref.items()}
    assert K.get_constants()._asdict() == nearest
    assert K._LOG_2PI == nearest["log_2pi"]
    assert K.zeta_family("zeta_prime_neg1").value == nearest["zeta_prime_neg1"]
    g1 = K.stieltjes_gamma1()
    assert g1.value == nearest["gamma1"]
    assert 0.0 < g1.abs_err <= 0.5 * math.ulp(g1.value)


# the benchmark's kernel range, then the direct sum's far end (N = 4|v|)
# and the asymptotic branch past |v| = 1e4
_LAMBDA_V = [-1.3 + i * ((8.0 + 1.3) / 31) for i in range(31)] + [8.0] + [
    0.0, 20.0, 1e3, 9999.0, 1.0001e4, 1e5, -1e5]


@pytest.mark.parametrize("v", _LAMBDA_V)
def test_lambda_series(v):
    value, err = K._lambda_series(v)
    assert _close(value, -mp.re(mp.digamma(1 + 1j * mp.mpf(v))), err), v


@pytest.mark.parametrize("v", _LAMBDA_V)
def test_lambda_digamma(v):
    # the route every lambda verdict takes (registry._lam); its claim is
    # 1e-13 max(1, |lambda|), 1e-14 at v = 0
    value, err = K._lambda_digamma(v)
    assert err <= 1e-13 * max(1.0, abs(value))
    assert _close(value, -mp.re(mp.digamma(1 + 1j * mp.mpf(v))), err), v


# the routes whose terms shrink geometrically, at caps on either side of
# the N at which kernels._power_sum stops them: every bar must hold
_CAPS = (1, 2, 3, 5, 10, None)
_rng = random.Random(37)
_PS_X = [0.0, 0.5, -0.5] + [_rng.uniform(-0.95, 0.95) for _ in range(6)]


def _odd_zeta_series(term):
    """x -> sum_{n>=1} zeta(2n+1) term(n, x)."""
    return lambda x: mp.nsum(lambda n: mp.zeta(2 * n + 1) * term(n, x),
                             [1, mp.inf], method="direct")


_PS_REF = {
    "PS-5.1": lambda x: -mp.re(mp.digamma(1 + 1j * x)),
    "PS-5.17": _odd_zeta_series(lambda n, x: x ** (2 * n + 2) / (n + 1)),
    "PS-5.32": _odd_zeta_series(lambda n, x: x ** (2 * n + 1) / (2 * n + 1)),
    "PS-5.41": lambda x: mp.loggamma(1 + 1j * x),
    "PS-5.53": _odd_zeta_series(lambda n, x: x ** (2 * n) / n),
}


@pytest.mark.parametrize("key", sorted(_PS_REF))
def test_power_series_bars_hold_at_every_cap(key):
    # uncapped, the bar is the rounding bound of _ratio_sum, a few eps of
    # the closed-form parts and first term: no literal allowance
    for x in _PS_X:
        ref = _PS_REF[key](mp.mpf(x))
        bar = power_series_eval(key, x).abs_err
        assert bar <= 6 * K._EPS * (1 + float(abs(ref))), x
        for cap in _CAPS:
            r = power_series_eval(key, x, cap)
            assert abs(mp.mpmathify(r.value) - ref) <= r.abs_err, (x, cap)


# term(n), the first n and the nsum method that converges fastest on it
_HALVING_SUMS = {
    "S-4.27": (lambda n: mp.zeta(2 * n) / (2 * n + 1) ** 2, 1, "r"),
    "S-5.45.2": (lambda n: (-1) ** (n + 1) * mp.zeta(n + 1) / n, 1, "s"),
    "S-5.45.3": (lambda n: -mp.zeta(n, 1, 1), 2, "direct"),
    "S-5.46.2": (lambda n: mp.zeta(2 * n + 1) - 1, 1, "direct"),
}


@pytest.mark.parametrize("key", sorted(_HALVING_SUMS))
def test_halving_sum_bars_hold_at_every_cap(key):
    # uncapped, the bar is the rounding bound computed from the terms, at
    # most 1e-15, and no smaller than the error
    term, first, method = _HALVING_SUMS[key]
    ref = mp.nsum(term, [first, mp.inf], method=method)
    r = sum_catalog(key)
    assert _close(r.value, ref, 5e-16)
    assert _close(r.value, ref, r.abs_err) and r.abs_err <= 1e-15
    for cap in _CAPS:
        r = sum_catalog(key, max_terms=cap)
        assert _close(r.value, ref, r.abs_err), cap


# sum_{n>=n_first} (-1)^n f(n), and S-4.29-rhs = sum Si(n pi)/n^2 as
# pi^3/12 plus its alternating part sum si(n pi)/n^2
_ALTERNATING = {
    "S-4.29-rhs": (lambda n: (-1) ** n * (mp.si(n * mp.pi) - mp.pi / 2)
                   / n ** 2, 1),
    "S-6.4": (lambda n: -mp.log(1 - 1 / n ** 2), 2),
    "S-6.33": (lambda n: n / (4 * n ** 2 - 1) ** 3, 1),
    "S-7.11": (lambda n: mp.log(1 + 1 / n) / (2 * n + 1), 1),
    "S-7.11-aux": (lambda n: n * mp.log(n) / (4 * n ** 2 - 1), 1),
}


@pytest.mark.parametrize("key", sorted(_ALTERNATING))
def test_alternating_sum_bars_hold_at_every_cap(key):
    # every claim covers the error, uncapped and at each cap; a cap below
    # the entry's n_min is refused, and no cap is passed in n.  Uncapped,
    # the halves of the zeta-tail sums claim at most 2e-14
    f, first = _ALTERNATING[key]
    ref = mp.nsum(lambda n: (-1) ** int(n) * f(n), [first, mp.inf])
    if key == "S-4.29-rhs":
        ref += mp.pi ** 3 / 12
    r = sum_catalog(key)
    assert _close(r.value, ref, r.abs_err)
    assert r.abs_err <= (1e-12 if key == "S-4.29-rhs" else 2e-14)
    for cap in _CAPS:
        if cap is not None and cap < SERIES_CATALOG[key].n_min:
            with pytest.raises(DomainError):
                sum_catalog(key, max_terms=cap)
            continue
        r = sum_catalog(key, max_terms=cap)
        assert cap is None or r.terms_used <= cap
        assert _close(r.value, ref, r.abs_err), cap


@pytest.mark.parametrize("x", [0.25, 0.5, 0.95, 0.0]
                         + [10.0 ** -k for k in range(1, 7)]
                         + [1.0 - 10.0 ** -k for k in range(1, 7)]
                         + [1.5, 2.5, 10.5, 100.3])
def test_s_5_13(x):
    # gamma + x^2 sum 1/(n (n^2 - x^2)): at x = 0 the bar is gamma's
    # rounding alone, and as x -> 1 the n = 1 term 1/(1 - x^2) grows.  Past
    # |x| = 1 the sum's floor and target shrink by 1/x^2, so that the bar
    # stays near the sum's own
    r = sum_catalog("S-5.13", (x,))
    assert r.abs_err <= 1e-13 * (1.0 + abs(r.value))
    x = mp.mpf(x)
    assert _close(r.value, -(mp.digamma(1 + x) + mp.digamma(1 - x)) / 2,
                  r.abs_err)


@pytest.mark.parametrize("u", [0.05, 0.5, 0.9, 0.99, 0.999, 1.2, 3.0])
def test_s_1_20_and_s_1_23(u):
    # the lemma sums of section 1 hold their direct bars, which claim
    # ~1e-14, up to u -> 1, where their Taylor series in u^2 converges
    # slowest, and past it.  S-1.20 below 1 is -sum (-u^2)^(m-1) zeta'(2m),
    # whose terms fall like (u/2)^(2m): 55 of them reach 1e-33; above 1 it
    # takes Euler-Maclaurin, where mpmath's default nsum is 4e-4 off
    um = mp.mpf(u)
    if u < 1.0:
        ref_20 = -mp.fsum((-um * um) ** (m - 1) * mp.zeta(2 * m, 1, 1)
                          for m in range(1, 56))
    else:
        ref_20 = mp.nsum(lambda n: mp.log(n) / (n * n + um * um),
                         [1, mp.inf], method="euler-maclaurin")
    ref_23 = (mp.pi * um * mp.coth(mp.pi * um) - 1) / (2 * um * um)
    for key, ref in (("S-1.20", ref_20), ("S-1.23", ref_23)):
        r = sum_catalog(key, (u,))
        assert r.abs_err <= 1e-13, (key, u, r.abs_err)
        assert _close(r.value, ref, r.abs_err), (key, u)


def _tn_tail_oracle(n):
    """T_n as a direct sum to M = 4n + 8 plus the convergent tail
    -sum_j n^(2j) zeta'(2j+2, M+1), whose orders shrink by 1/16."""
    m_last = 4 * n + 8
    direct = mp.fsum(mp.log(m) / (m * m - n * n)
                     for m in range(1, m_last + 1) if m != n)
    return direct - mp.fsum(mp.mpf(n) ** (2 * j) * mp.zeta(2 * j + 2,
                                                           m_last + 1, 1)
                            for j in range(26))


def _a_n_oracle(n, tn):
    """FS-4.16's cosine coefficient a_n of log G, from the oracle T_n."""
    return ((mp.log(n) / 2 - mp.euler - mp.log(2 * mp.pi) - 1)
            / (2 * mp.pi ** 2 * n * n) - mp.mpf(1) / (4 * n) - tn / mp.pi ** 2)


def _expansion_a_n(n):
    """A_n, the large-n expansion of a_n that FS-4.16 sums exactly:
    -1/(2n) - gamma/(2 pi^2 n^2) - sum_j zeta'(-2j)/(pi^2 n^(2j+2))."""
    orders, _ = _tn_orders()
    n2 = float(n) * float(n)
    gamma = K.get_constants().gamma
    return math.fsum([-0.5 / n, -gamma / (2.0 * PI ** 2 * n2)]
                     + [-zp / (PI ** 2 * n2 ** (len(orders) + 1 - i))
                        for i, zp in enumerate(orders)])


def _check_table_a_n(n, ref, tn_err):
    # the a_n that FS-4.16 sums: A_n plus its residual up to n = 11, and A_n
    # alone from n = 12 on, where T_n's error holds the first omitted order
    # zeta'(-14)/n^16; it carries T_n's error over pi^2 and a few ulp
    a_n = _expansion_a_n(n)
    if n <= len(_LOG_G_RESIDUALS):
        a_n += _LOG_G_RESIDUALS[n - 1][0]
    assert _close(a_n, _a_n_oracle(n, ref),
                  tn_err / PI ** 2 + 8.0 * math.ulp(a_n)), n


@pytest.mark.parametrize("n", [1, 2, 8])
def test_tn(n):
    ref = _tn_tail_oracle(n)
    r = sum_catalog("S-4.4-Tn", (float(n),))
    assert _close(r.value, ref, r.abs_err)
    _check_table_a_n(n, ref, r.abs_err)


@pytest.mark.parametrize("n", [12, 13, 20, 50, 200, 2000])
def test_tn_asymptotic(n):
    # from n = 12 on FS-4.16 takes a_n as its expansion A_n, whose T_n part
    # lies within its first omitted order of T_n
    value, err = _tn_asymptotic(n)
    ref = _tn_tail_oracle(n)
    assert _close(value, ref, err)
    _check_table_a_n(n, ref, err)


def _worst_rel_err(fn, xs, ref):
    return max(abs((mp.mpf(fn(x)) - ref(x)) / ref(x)) for x in xs)


# both signs of 1e-15 .. 1e-1, next to the zero of log Gamma(1+y) at y = 0
_NEAR_ZERO = [s * 10.0 ** -e for e in range(1, 16) for s in (1.0, -1.0)]


def test_lgamma1p_relative_error():
    # log Gamma(1+y) on |y| <= 1/2, with the first two zeta(k) terms summed
    # as log1p; the worst found, 1.02e-15 at y = 0.289, comes from the
    # cancellation where log Gamma(1+y) is smallest against its parts
    ys = [k / 1000 for k in range(-500, 501) if k] + _NEAR_ZERO
    worst = _worst_rel_err(K._lgamma1p, ys,
                           lambda y: mp.loggamma(1 + mp.mpf(y)))
    assert worst <= 1.5e-15


def _log_grid(lo, hi, n):
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def _worst_eps(fn, xs, ref):
    """The largest |fn(x) - ref(x)| over xs, in eps max(1, |fn(x)|)."""
    worst = 0.0
    for x in xs:
        v = fn(x)
        err = abs(mp.mpf(v) - ref(x)) / (K._EPS * max(1.0, abs(v)))
        worst = max(worst, float(err))
    return worst


@pytest.mark.parametrize("n", [0, 1, -1, 2, -7, 1000])
def test_sincos_pi_near_integers(n):
    # sin(pi x) and cos(pi x) from the exact d = x - n: within 2 eps of
    # their size at x = n +- 10^-k, where math.sin(pi * x) loses the digits
    # that pi x's rounding drops, and within 2 eps at n + 1/2 - 10^-k,
    # where cos(pi x) keeps an absolute error only
    for k in range(1, 16):
        for x in (n + 10.0 ** -k, n - 10.0 ** -k, n + 0.5 - 10.0 ** -k):
            s, c = K._sincos_pi(x)
            for v, ref, relative in ((s, mp.sinpi(x), True),
                                     (c, mp.cospi(x), abs(x - n) < 0.25)):
                size = abs(ref) if relative else 1
                assert abs(mp.mpf(v) - ref) <= 2 * K._EPS * size, (x, v)


def test_digamma_pos_log_grid():
    # psi(x) on 601 log-spaced points of [1e-3, 1e3], on its own: the worst
    # found is 7.7 eps (x = 1.122, near psi's zero at 1.4616)
    worst = _worst_eps(K._digamma_pos, _log_grid(1e-3, 1e3, 601),
                       lambda x: mp.digamma(mp.mpf(x)))
    assert worst <= 15.4


def test_lnG_log_grid():
    # log G(x) on 241 log-spaced points of [1e-9, 2], on its own: the worst
    # found is 1.2 eps (x = 7.9e-8)
    worst = _worst_eps(K._lnG, _log_grid(1e-9, 2.0, 241),
                       lambda x: mp.log(mp.barnesg(mp.mpf(x))))
    assert worst <= 2.4


def test_log_gamma_near_its_zeros():
    # x = 1 + y takes _lgamma1p(y), x = 2 + y adds log1p(y); the worst
    # found is 5.1e-16
    xs = [c + y for c in (1.0, 2.0) for y in _NEAR_ZERO]
    worst = _worst_rel_err(lambda x: K.log_gamma(x).value, xs,
                           lambda x: mp.loggamma(mp.mpf(x)))
    assert worst <= 1.0e-15


def test_psi_sin_partial_grid():
    # int_0^u psi(x) sin(pi x) dx, the other side of I-7.15, integrated
    # piecewise over the sorted grid: at 15 digits the running sum is good
    # to ~1e-15, far inside the >= 1e-12 claims.  The grid reaches 10^-k and
    # 1 - 10^-k, where the residuals keep their first-order bound; between
    # 0.1 and 0.9 the second summation by parts meets the target by N = 120
    grid = sorted({k / 200 for k in range(1, 201)}
                  | {1e-4, 1e-3, 0.999, 0.9999}
                  | {x for k in range(2, 9) for x in (10.0 ** -k,
                                                      1.0 - 10.0 ** -k)})
    with mp.workdps(15):
        f = lambda x: mp.digamma(x) * mp.sin(mp.pi * x)  # noqa: E731
        ref, last = mp.mpf(0), mp.mpf(0)
        for u in grid:
            ref += mp.quad(f, [last, u], method="gauss-legendre")
            last = mp.mpf(u)
            r = psi_sin_partial(u)
            assert _close(r.value, ref, r.abs_err), u
            assert r.abs_err <= 2.5e-8, u
            if 0.1 <= u <= 0.9:
                assert r.terms_used <= 120, u


@pytest.mark.parametrize("x", [1e-3, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999,
                               0.99985])
def test_fs_4_16_log_barnes_g(x):
    # the reported bound holds at the default N and at every cap from the
    # smallest one on
    for cap in (11, 64, 256, 2000):
        r = sum_catalog("FS-4.16", (x,), max_terms=cap)
        assert _close(r.value, mp.log(mp.barnesg(x)), r.abs_err), cap


def test_fs_4_16_grid():
    # 200 midpoints of (0, 1) and both ends: the bound holds at every cap,
    # and is at most 1e-12 on [1e-3, 1 - 1e-3]
    grid = [(k + 0.5) / 200 for k in range(200)] + [1e-3, 0.999]
    refs = [mp.log(mp.barnesg(x)) for x in grid]
    for cap in (11, 64, 256, 2000):
        for x, ref in zip(grid, refs):
            r = sum_catalog("FS-4.16", (x,), max_terms=cap)
            assert _close(r.value, ref, r.abs_err), (cap, x)
            assert r.abs_err <= 1e-12, (cap, x)
    assert sum_catalog("FS-4.16", (0.5,)).abs_err < 2e-5


@pytest.mark.parametrize("u", [0.0, 1e-3, 0.5 * PI, 3.1, PI])
@pytest.mark.parametrize("x", [0.3, 0.9, 0.999, 0.9999, 1.0 - 1e-6])
def test_alt_cos_sum(u, x):
    # sum (-1)^(n+1) cos(nu)/(n^2-x^2) = (pi cos(ux)/sin(pi x) - 1/x)/(2x)
    r = R._alt_cos_sum(u, x)
    value, err = r.value, r.abs_err
    xm = mp.mpf(x)
    ref = (mp.pi * mp.cos(u * xm) / mp.sin(mp.pi * xm) - 1 / xm) / (2 * xm)
    assert _close(value, ref, err)
    # within what the routes of I-3.22, I-3.24 and I-8.7 claim
    assert 2.0 * x * err <= 1e-12 * max(1.0, abs(1.0 / x + 2.0 * x * value))


# Fourier sums whose slices are exact Bernoulli sums: points near 0 and 1,
# where the slices and the residual each grow
_T_GRID = [1e-4, 1e-3, 0.1, 0.3, 0.5, 0.77, 0.999, 0.9999]


@pytest.mark.parametrize("t", _T_GRID)
def test_fs_8_13_and_8_14(t):
    tm = mp.mpf(t)
    r = sum_catalog("FS-8.13", (t,))
    assert _close(r.value, mp.mpf(1) / 2 - mp.pi / 4 * mp.sin(mp.pi * tm),
                  r.abs_err)
    r = sum_catalog("FS-8.14", (t,))
    assert _close(r.value, mp.pi / 8 * mp.cos(mp.pi * tm), r.abs_err)


@pytest.mark.parametrize("x", _T_GRID)
def test_fs_6_2(x):
    # -sum_{n>=2} log(1-1/n^2) cos(2 pi n x) = log 2 + (pi/2) sin 2 pi x
    #   + (1 - cos 2 pi x)(log pi + gamma + psi(x))
    xm = mp.mpf(x)
    ref = -(mp.log(2) + mp.pi / 2 * mp.sin(2 * mp.pi * xm)
            + (1 - mp.cos(2 * mp.pi * xm))
            * (mp.log(mp.pi) + mp.euler + mp.digamma(xm)))
    r = sum_catalog("FS-6.2", (x,))
    assert _close(r.value, ref, r.abs_err)


@pytest.mark.parametrize("x", _T_GRID)
def test_log_weighted_sin_sum(x):
    # log(1-1/n^2)/n = -sum_j n^(-2j-1)/j, each order a Clausen-type sine
    # sum; the orders past j = 36 are below 2^-73 and left out
    with mp.workdps(25):
        th = 2 * mp.pi * mp.mpf(x)
        ref = -mp.fsum((mp.clsin(2 * j + 1, th) - mp.sin(th)) / j
                       for j in range(1, 37))
    r = log_weighted_sin_sum(x)
    assert _close(r.value, ref, r.abs_err)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.95, 0.0, 1e-9, 0.9999,
                               1 - 1e-8, 1 - 1e-12, 1.0])
def test_rhs_2_10(p):
    # the series side of I-2.10 at its default p and at and near both ends
    # of [0, 1]: a 4 000-term alternating sum, whose error includes its
    # first omitted term; near p = 1 sin(p pi) and the n = 1 term
    # 1/(1 - p^2) must not cancel, and the ends take the limits
    value, err = R.Registry().record("I-2.10").rhs.evaluate((p,))
    pm = mp.mpf(p)
    if p == 0.0:
        ref = -mp.log(2) / 2
    elif p == 1.0:
        ref = mp.mpf(-0.25)
    else:
        ref = mp.sin(pm * mp.pi) / (2 * mp.pi * pm) * mp.nsum(
            lambda n: (-1) ** n * n / (n * n - pm * pm), [1, mp.inf])
    assert _close(value, ref, err)


def test_rhs_1_11():
    # -(gamma + log p - Ei(-p))/p at 201 log-spaced p over its domain; below
    # p = 1/2 the Ein series keeps the digits the closed form cancels
    rec = R.Registry().record("I-1.11")
    lo, hi = rec.param_domain[0]
    for i in range(201):
        p = min(hi, lo * (hi / lo) ** (i / 200))
        value, err = rec.rhs.evaluate((p,))
        pm = mp.mpf(p)
        with mp.workdps(40):
            ref = -(mp.euler + mp.log(pm) - mp.ei(-pm)) / pm
        assert _close(value, ref, err), p
    assert R.Registry().verify_identity("I-1.11", (1e-6,)).status == \
        "CONFIRMED"


def _rhs_3_8_oracle(p):
    pm = mp.mpf(p)
    x = pm * mp.pi
    return (2 - mp.si(x) * mp.cot(x / 2) + mp.ci(x) - mp.log(x)
            + (mp.digamma(pm / 2) + mp.digamma(-pm / 2)) / 2)


@pytest.mark.parametrize("p", [2.0 - 10.0 ** -k for k in range(2, 13)]
                         + [1.9988878882636572])
def test_rhs_3_8_near_two(p):
    # 2 - Si(p pi) cot(p pi/2) + Ci(p pi) - log(p pi) + (psi(p/2)
    # + psi(-p/2))/2, whose poles at p = 2 grow like 1/(2 - p): cot(p pi/2)
    # must come from p/2's fraction, not from sin(p pi)/(1 - cos p pi)
    value, err = R.Registry().record("I-3.8").rhs.evaluate((p,))
    assert _close(value, _rhs_3_8_oracle(p), err)


@pytest.mark.parametrize("p", [10.0 ** -k for k in range(1, 9)])
def test_rhs_3_8_near_zero(p):
    # as p -> 0, Ci(p pi) - log(p pi) must come from Cin's series and
    # psi(p/2) + psi(-p/2) without its poles +-2/p
    value, err = R.Registry().record("I-3.8").rhs.evaluate((p,))
    assert _close(value, _rhs_3_8_oracle(p), err)


@pytest.mark.parametrize("k", [3, 6, 9])
def test_identity_3_8_near_two(k):
    assert R.Registry().verify_identity(
        "I-3.8", (2.0 - 10.0 ** -k,)).status == "CONFIRMED"


@pytest.mark.parametrize("k", [3, 6, 9])
def test_identity_3_8_near_zero(k):
    assert R.Registry().verify_identity(
        "I-3.8", (10.0 ** -k,)).status == "CONFIRMED"


@pytest.mark.parametrize("p", [10.0 ** -k for k in range(1, 9)]
                         + [2.0 - 10.0 ** -k for k in range(2, 13)])
@pytest.mark.parametrize("ident", ["I-2.1", "I-2.2"])
def test_identity_2_1_2_2_near_their_ends(ident, p):
    # int_0^1 log Gamma(x) cos(p pi x) dx and its sine twin, both sides
    # against mpmath: the closed forms must not lose p pi's rounding to
    # sin(p pi) near p = 2, nor cancel 1 - cos(p pi), p pi - sin(p pi) or
    # the digamma pair's poles +-2/p as p -> 0
    rec = R.Registry().record(ident)
    pm = mp.mpf(p)
    x = pm * mp.pi
    trig = mp.cos if ident == "I-2.1" else mp.sin
    with mp.workdps(40):
        psis = mp.digamma(pm / 2) + mp.digamma(-pm / 2)
        scale = mp.log(2 * mp.pi) + mp.euler
        versin = 2 * mp.sin(x / 2) ** 2
        if ident == "I-2.1":
            ref = (scale * versin / x ** 2 + mp.sin(x) / (4 * x) * psis
                   + 2 * versin / mp.pi ** 2 * _log_quarter(pm ** 2 / 4))
        else:
            ref = (scale * (x - mp.sin(x)) / x ** 2 + versin / (4 * x) * psis
                   - 2 * mp.sin(x) / mp.pi ** 2 * _log_quarter(pm ** 2 / 4))
        lhs_ref = mp.quad(lambda t: mp.loggamma(t) * trig(x * t), [0, 0.5, 1])
    value, err = rec.rhs.evaluate((p,))
    assert _close(value, ref, err)
    value, err = rec.lhs.evaluate((p,))
    assert _close(value, lhs_ref, err)


# I-3.14 near both ends of its domain: the pole at p = 2, and p -> 0, where
# both sides cancel O(1/p^2) terms in their closed forms
_ENDS_3_14 = ([2.0 - 10.0 ** -k for k in range(2, 13)]
              + [10.0 ** -k for k in range(1, 9)])


@pytest.mark.parametrize("p", _ENDS_3_14)
def test_rhs_3_14_near_its_ends(p):
    # -(pi/4p) (Si(p pi) + (Ci(p pi) - gamma - log(p pi)) cot(p pi/2)), whose
    # pole at p = 2 grows like 1/(2 - p), as its bar must: cot(p pi/2) from
    # p/2's fraction, not from sin(p pi)/(1 - cos p pi); as p -> 0,
    # Ci(p pi) - gamma - log(p pi) = -Cin(p pi) from Cin's series
    value, err = R.Registry().record("I-3.14").rhs.evaluate((p,))
    pm = mp.mpf(p)
    x = pm * mp.pi
    ref = -(mp.pi / (4 * pm)) * (
        mp.si(x) + (mp.ci(x) - mp.euler - mp.log(x)) * mp.cot(x / 2))
    assert _close(value, ref, err)
    assert err <= 1e-13 * abs(value)


@pytest.mark.parametrize("p", [2.0 - 1e-3, 2.0 - 1e-6, 2.0 - 1e-9,
                               1e-3, 1e-6, 1e-9])
def test_identity_3_14_near_its_ends(p):
    # DISPUTED at source, but the two sides agree within their bars near
    # the pole and near 0 too: neither refuted nor a route failure
    v = R.Registry().verify_identity("I-3.14", (p,))
    assert v.status == "CONFIRMED" and not v.note, v


# (1/expm1(p) - 1/p + 1/2)/(2p) in I-1.8's rhs cancels as p -> 0; 0.00405 is
# the sweep pool's draw where it was out of its bar
@pytest.mark.parametrize("p", [0.004048451024351252]
                         + [s * 10.0 ** -k for k in range(1, 9)
                            for s in (1.0, -1.0)])
def test_rhs_1_8_near_zero(p):
    value, err = R.Registry().record("I-1.8").rhs.evaluate((p,))
    pm = mp.mpf(p)
    ref = mp.quad(lambda t: mp.exp(-pm * t) * mp.loggamma(t), [0, 0.5, 1])
    assert _close(value, ref, err)


def _lnG_mp(x):
    return mp.log(mp.barnesg(x))


# the rewritten side of each record near its domain's ends, by mpmath: the
# closed forms take sin(pi x), 1 - cos(pi x), psi(p/2) + psi(-p/2) and
# log(1 - x^2), each of which cancels there as written
_NEAR_END_SIDES = {
    "I-2.6": ("rhs", lambda p: -(1 - mp.cos(mp.pi * p)) / (2 * p * mp.pi) * (
        2 * mp.euler + 2 * mp.log(2) + mp.digamma(p / 2)
        + mp.digamma(-p / 2))),
    "I-3.22": ("lhs", lambda u, x: mp.pi * mp.cos(u * x) / mp.sin(mp.pi * x)),
    "I-3.24": ("lhs", lambda x: mp.pi / mp.sin(mp.pi * x)),
    "I-8.7": ("lhs", lambda x: mp.pi / mp.sin(mp.pi * x)),
    "I-5.32": ("rhs", lambda x: mp.log(mp.pi * x / mp.sin(mp.pi * x)) / 2
               - mp.euler * x - mp.loggamma(1 + x)),
    "I-5.17": ("lhs", lambda x: -(1 + mp.euler) * x * x - _lnG_mp(1 + x)
               - _lnG_mp(1 - x)),
    "I-5.48": ("rhs", lambda x: -mp.euler * x * x - _lnG_mp(1 + x)
               - _lnG_mp(1 - x) + mp.log(1 - x * x)),
}
_NEAR_END = ([("I-2.6", (p,)) for p in (2e-6, 2e-9, 2.0 - 2e-6, 2.0 - 2e-9)]
             + [(rid, (0.5, 1.0 - 10.0 ** -k) if rid == "I-3.22"
                 else (1.0 - 10.0 ** -k,))
                for rid in ("I-3.22", "I-3.24", "I-8.7", "I-5.32", "I-5.17",
                            "I-5.48") for k in (6, 9)])


@pytest.mark.parametrize("rid, params", _NEAR_END)
def test_closed_forms_near_their_ends(rid, params):
    # within its own bar against mpmath at 40 digits, and CONFIRMED by the
    # two bars
    side, ref = _NEAR_END_SIDES[rid]
    rec = R.Registry().record(rid)
    value, err = getattr(rec, side).evaluate(params)
    with mp.workdps(40):
        assert _close(value, ref(*map(mp.mpf, params)), err)
    v = R.Registry().verify_identity(rid, params)
    assert v.status == "CONFIRMED", v


def test_lhs_8_15():
    # 2/pi - (4/pi) sum (-1)^n/(4n^2-1) = 1; the 100 000-term sum is off by
    # half its first omitted term
    value, err = R.Registry().record("I-8.15").lhs.evaluate(())
    assert _close(value, mp.mpf(1), err)


@pytest.mark.parametrize("t", [0.5, 0.95, 0.99, 0.999, 1.0])
def test_zeta_alternating(t):
    value = R._zeta_alternating(t)
    ref = mp.pi * t / mp.tanh(mp.pi * t)
    assert _close(value, ref, 3e-14 * max(1.0, abs(value)))


@pytest.mark.parametrize("p", [0.01, 0.5, 0.99])
def test_rhs_1_17(p):
    pm, lg = mp.mpf(p), mp.log(2 * mp.pi)

    def term(k):
        even = (mp.euler + lg) * mp.zeta(2 * k + 2) - mp.zeta(2 * k + 2, 1, 1)
        odd = mp.pi / 2 * mp.zeta(2 * k + 3) * pm
        return (-1) ** k * (even + odd) * pm ** (2 * k)
    ref = mp.pi / (2 * pm) * lg + mp.nsum(term, [0, mp.inf])
    value = R._rhs_1_17(p)
    assert _close(value, ref, 3e-14 * max(1.0, abs(value)))


def _q_5_20_mp(x):
    # Kinkelin: int_0^x pi t cot(pi t) dt = x log 2pi + log G(1-x) - log G(1+x)
    return x * mp.log(2 * mp.pi) + _lnG_mp(1 - x) - _lnG_mp(1 + x)


def _q_5_53_mp(u):
    # the integrand less its pole's 1/(1 - x), which is integrated in closed
    # form; 1/x - pi cot(pi x) cancels near 0, so it takes 100 digits there
    def f(x):
        if x < mp.mpf("1e-20"):
            return 2 * mp.zeta(2) - 1 + 2 * mp.zeta(4) * x * x
        with mp.workdps(100):
            v = (1 / x - mp.pi * mp.cot(mp.pi * x)) / x - 1 / (1 - x)
        return +v
    return mp.quad(f, [0, mp.mpf(1) / 2, u] if u > 0.5 else [0, u]) \
        - mp.log1p(-u)


@pytest.mark.parametrize("key, ref", [("Q-5.20", _q_5_20_mp),
                                      ("Q-5.53-lhs", _q_5_53_mp)])
@pytest.mark.parametrize("x", [0.25, 0.5, 0.9] + [1.0 - 10.0 ** -k
                                                  for k in range(1, 13)])
def test_cot_pole_integrals_near_one(key, ref, x):
    # the pole of cot(pi t) lies 1 - x past b: with it subtracted the rule
    # converges at level 3; before, both were off by up to 5 600x their bar
    # and ran to the level cap (8 193 evaluations) at 1 - 1e-9
    r = integral_catalog(key, (x,))
    with mp.workdps(40):
        assert _close(r.value, ref(mp.mpf(x)), r.abs_err)
    assert r.converged and r.evals <= 129


@pytest.mark.parametrize("x", [0.3, 0.95, 0.999])
def test_lhs_5_48(x):
    value, err = R.Registry().record("I-5.48").lhs.evaluate((x,))
    xm = mp.mpf(x)
    ref = mp.nsum(lambda n: (mp.zeta(2 * n + 1) - 1) * xm ** (2 * n + 2)
                  / (n + 1), [1, mp.inf])
    assert _close(value, ref, err)


# the half-line integrals, cached by make_oracle_data.py: 500 uniform draws
# over each identity's domain, its ends, and five Q-5.36 points where an
# earlier half-line rule was off by up to 7 400x its claim
_HALFLINE = json.loads((Path(__file__).resolve().parent / "data"
                        / "halfline.json").read_text())["rows"]


@pytest.mark.parametrize("key", sorted({row[0] for row in _HALFLINE}))
def test_halfline_error_honesty(key):
    rows = [(x, mp.mpf(ref)) for k, x, ref in _HALFLINE if k == key]
    assert len(rows) >= 500
    bad = []
    for x, ref in rows:
        r = integral_catalog(key, (x,))
        true_err = abs(mp.mpf(r.value) - ref)
        if not true_err <= 2 * r.abs_err:
            bad.append((x, float(true_err), r.abs_err))
    assert bad == []


# the finite-interval integral Q-1.12, cached by make_oracle_data.py: 200
# uniform draws over I-1.12's domain and its ends.  While tanh-sinh's
# rounding floor counted |f(hi) + f(lo)|, not |f(hi)| + |f(lo)|, three of
# these points were off by more than their claim, up to 2.3x at p = 1e-6
_FINITE = json.loads((Path(__file__).resolve().parent / "data"
                      / "finite.json").read_text())["rows"]


@pytest.mark.parametrize("key", sorted({row[0] for row in _FINITE}))
def test_finite_interval_error_honesty(key):
    rows = [(x, mp.mpf(ref)) for k, x, ref in _FINITE if k == key]
    assert len(rows) >= 200
    bad = []
    for x, ref in rows:
        r = integral_catalog(key, (x,))
        true_err = abs(mp.mpf(r.value) - ref)
        if not true_err <= r.abs_err:
            bad.append((x, float(true_err), r.abs_err))
    assert bad == []


def test_q_5_36_near_one():
    r = integral_catalog("Q-5.36", (0.999,))
    x = mp.mpf(0.999)
    assert _close(r.value, -(mp.digamma(1 + x) + mp.digamma(1 - x)) / 2,
                  r.abs_err)


# ---------------------------------------------------------------------------
# catalog entries at the N their own bound picks for the target error
# ---------------------------------------------------------------------------

def _aux_f(x, orders=14):
    """f(x) ~ sum_k (-1)^k (2k)!/x^(2k+1): Si(x) = pi/2 - f cos x - g sin x."""
    return mp.fsum((-1) ** k * mp.factorial(2 * k) / x ** (2 * k + 1)
                   for k in range(orders))


def _log_quarter(q):
    """sum_{n>=2} log n/(4(n^2 - q)) for q <= 1: direct to n = _N0, then
    1/(n^2 - q) = sum_j q^j n^(-2j-2) and
    sum_{n>_N0} log n n^-s = -zeta'(s, _N0 + 1)."""
    return (mp.fsum(mp.log(n) / (4 * (n * n - q)) for n in range(2, _N0 + 1))
            - mp.fsum(q ** j * mp.zeta(2 * j + 2, _N0 + 1, 1)
                      for j in range(16)) / 4)


# exact lattice values up to n = 30, the auxiliary expansions (14 orders,
# exact to 1e-37 from x = 60 pi on) after
_N0 = 30


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5] + _ENDS_3_14)
def test_s_3_14(p):
    # at p = 2 - 10^-k the n = 1 terms grow like 1/(2 - p), and so must the
    # bar; as p -> 0, sum 1/(4n^2 - p^2) must not cancel its 1/(2p^2)
    # terms.  4n^2 - p^2 = (2n - p)(2n + p) is exact at 30 digits for a float
    # p; past n = _N0, Ci(2 pi n) = -g(2 pi n), g(x) ~ sum_k (-1)^k
    # (2k+1)!/x^(2k+2) (Ci(x) = f sin x - g cos x), and 1/(4n^2 - p^2)
    # = sum_j (p^2/4)^j/(4 n^(2j+2)), each order a Hurwitz zeta
    pm = mp.mpf(p)
    q = pm ** 2 / 4
    two_pi = 2 * mp.pi
    ci = (mp.fsum(mp.ci(two_pi * n) / ((2 * n - pm) * (2 * n + pm))
                  for n in range(1, _N0 + 1))
          - mp.fsum((-1) ** k * mp.factorial(2 * k + 1) / two_pi ** (2 * k + 2)
                    * q ** j / 4 * mp.zeta(2 * k + 2 * j + 4, _N0 + 1)
                    for k in range(14) for j in range(12)))
    quarter = mp.nsum(lambda n: 1 / ((2 * n - pm) * (2 * n + pm)),
                      [1, mp.inf])
    ref = (ci - (mp.euler + mp.log(two_pi)) * quarter - _log_quarter(q))
    r = sum_catalog("S-3.14", (p,))
    assert _close(r.value, ref, r.abs_err)


def test_s_4_29_rhs():
    # si(n pi) = -(-1)^n f(n pi); the tail pairs n = 2j-1 and 2j
    direct = mp.fsum((mp.si(n * mp.pi) - mp.pi / 2) / n ** 2
                     for n in range(1, 2 * _N0 + 1))
    tail = mp.nsum(lambda j: _aux_f((2 * j - 1) * mp.pi) / (2 * j - 1) ** 2
                   - _aux_f(2 * j * mp.pi) / (2 * j) ** 2, [_N0 + 1, mp.inf])
    r = sum_catalog("S-4.29-rhs")
    assert _close(r.value, mp.pi ** 3 / 12 + direct + tail, r.abs_err)


def test_s_4_30_rhs():
    # Si(m pi) = pi/2 + f(m pi) for odd m
    direct = mp.fsum(mp.si((2 * n - 1) * mp.pi) / (2 * n - 1) ** 2
                     for n in range(1, _N0 + 1))
    tail = mp.nsum(lambda n: (mp.pi / 2 + _aux_f((2 * n - 1) * mp.pi))
                   / (2 * n - 1) ** 2, [_N0 + 1, mp.inf])
    r = sum_catalog("S-4.30-rhs")
    assert _close(r.value, direct + tail, r.abs_err)


def test_s_5_18():
    ref = mp.nsum(lambda n: n * mp.log(1 - 1 / (4 * n ** 2))
                  + mp.log(1 + 1 / n) / 4, [1, mp.inf])
    r = sum_catalog("S-5.18")
    assert _close(r.value, ref, r.abs_err)


def test_s_6_23():
    # I-6.23's closed form, with its log sum from Hurwitz zeta'(2j+2, 31)
    ref = ((mp.euler + 2 * mp.log(2) - 2) * mp.log(2)
           - 4 * _log_quarter(mp.mpf(1) / 4))
    r = sum_catalog("S-6.23")
    assert _close(r.value, ref, r.abs_err)
