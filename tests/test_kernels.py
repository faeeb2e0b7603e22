"""Kernel tests: worked examples against independent oracles, then the
module invariants (recurrence/reflection grids, two-route agreement,
functional equations)."""

import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gammalab import kernels as K
from gammalab.errors import (
    DomainError,
    PoleError,
    RangeOverflowError,
    RouteInconsistencyError,
    UnsupportedOrderError,
)

C = K.get_constants()
GAMMA = 0.5772156649015329  # classical reference value
PI = math.pi


def _grid(a, b, n):
    """n evenly spaced points from a to b, both included."""
    step = (b - a) / (n - 1)
    return [a + i * step for i in range(n - 1)] + [b]


# ---------------------------------------------------------------------------
# the result type
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("err", [-1e-300, math.nan, math.inf])
def test_fn_eval_result_rejects_bad_error(err):
    with pytest.raises(ValueError):
        K.FnEvalResult(1.0, err)


def test_fn_eval_result_is_a_read_only_value():
    r = K.FnEvalResult(1.5, 2e-16)
    with pytest.raises(AttributeError):
        r.value = 2.0
    with pytest.raises(AttributeError):
        del r.abs_err
    assert repr(r) == "FnEvalResult(value=1.5, abs_err=2e-16)"
    assert r == K.FnEvalResult(1.5, 2e-16) != K.FnEvalResult(1.5, 0.0)
    assert r != (1.5, 2e-16)
    assert hash(r) == hash(K.FnEvalResult(1.5, 2e-16))
    assert pickle.loads(pickle.dumps(r)) == r


SINGLE_VALUED = [
    (K.log_gamma, (2.5,)), (K.digamma, (2.5,)), (K.polygamma, (1, 2.5)),
    (K.lambda_fn, (0.5,)), (K.sine_integral, (1.0,)),
    (K.exp_integral, (-1.0,)), (K.zeta_family, ("zeta", 2.0)),
    (K.stieltjes_gamma1, ()), (K.log_barnes_g, (2.5,)),
    (K.clausen_cl2, (1.0,)), (K.bernoulli_poly, (3, 0.3)),
]


@pytest.mark.parametrize("fn,args", SINGLE_VALUED,
                         ids=[fn.__name__ for fn, _ in SINGLE_VALUED])
def test_single_valued_kernels_return_no_tuple(fn, args):
    # callers tell sici's pair from a single result by isinstance(r, tuple)
    r = fn(*args)
    assert type(r) is K.FnEvalResult and not isinstance(r, tuple)


def test_sici_returns_a_pair_of_results():
    r = K.sici(1.0)
    assert type(r) is tuple and len(r) == 2
    assert all(type(x) is K.FnEvalResult for x in r)


# ---------------------------------------------------------------------------
# log_gamma
# ---------------------------------------------------------------------------

def test_log_gamma_at_1_and_half():
    assert K.log_gamma(1.0).value == pytest.approx(0.0, abs=1e-15)
    # Gamma(1/2) = sqrt(pi), forced by the reflection formula
    assert K.log_gamma(0.5).value == pytest.approx(0.5 * math.log(PI),
                                                   abs=1e-15)


def test_log_gamma_product_oracle():
    # the product's limit, log Gamma(3/2), from mpmath at 30 digits
    mp = pytest.importorskip("mpmath")
    r = K.log_gamma(1.5)
    with mp.workdps(30):
        assert abs(mp.mpf(r.value) - mp.loggamma(1.5)) <= r.abs_err
    assert r.value == pytest.approx(-0.1207822376352452, abs=1e-12)


def test_log_gamma_matches_libm_on_grid():
    for x in _grid(0.05, 30.0, 173):
        mine = K.log_gamma(x)
        ref = math.lgamma(x)
        assert abs(mine.value - ref) <= max(mine.abs_err, 4e-15 * (1 + abs(ref)))


def test_log_gamma_domain_errors():
    with pytest.raises(DomainError):
        K.log_gamma(0.0)
    with pytest.raises(DomainError):
        K.log_gamma(-2.5)
    with pytest.raises(DomainError):
        K.log_gamma(float("inf"))


# ---------------------------------------------------------------------------
# digamma / polygamma
# ---------------------------------------------------------------------------

def test_digamma_examples():
    # psi(1/2) = -gamma - 2 log 2
    assert K.digamma(0.5).value == pytest.approx(-GAMMA - 2 * math.log(2),
                                                 abs=1e-13)
    # psi(2) = 1 - gamma by the recurrence
    assert K.digamma(2.0).value == pytest.approx(1.0 - GAMMA, abs=1e-13)
    # Im psi(1+i) = pi/2 coth(pi) - 1/2
    z = K.digamma(complex(1.0, 1.0))
    assert z.value.imag == pytest.approx(0.5 * PI / math.tanh(PI) - 0.5,
                                         abs=1e-12)


def test_digamma_real_input_exactly_real():
    z = K.digamma(complex(1.75, 0.0))
    assert isinstance(z.value, complex) and z.value.imag == 0.0
    assert isinstance(K.digamma(1.75).value, float)


def test_digamma_poles():
    for bad in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            K.digamma(bad)


def test_recurrence_grid():
    # psi(x+1) - psi(x) - 1/x = 0 on {0.5, 0.7, ..., 9.9}
    x = 0.5
    while x < 9.95:
        r = K.digamma(x + 1.0).value - K.digamma(x).value - 1.0 / x
        assert abs(r) < 1e-12, x
        x += 0.2


def _cot_pi_by_floor(x):
    # cot(pi x) from x - floor(x), the form _cot_pi took before _sincos_pi
    f = x - math.floor(x)
    if f > 0.5:
        return -math.cos(PI * (1.0 - f)) / math.sin(PI * (1.0 - f))
    return math.cos(PI * f) / math.sin(PI * f)


def test_cot_pi_keeps_its_floats():
    # digamma's reflection goes through _cot_pi: wherever x - floor(x) is
    # exact (all x but (-1/2, 0)) it gives the floats of the floor form,
    # half-integers included; on (-1/2, 0) that form rounded x + 1
    rng = random.Random(16)
    xs = ([rng.uniform(0.0, 1.0) for _ in range(2000)]
          + [rng.uniform(-60.0, 60.0) for _ in range(2000)]
          + [k + 0.5 for k in range(-20, 21)] + [1e-300, 0.25, 0.75])
    for x in xs:
        if not -0.5 < x < 0.0:
            assert K._cot_pi(x).hex() == _cot_pi_by_floor(x).hex(), x
    for x in (0.0, -3.0, 7.0, 2.0 ** 53):
        with pytest.raises(PoleError):
            K._cot_pi(x)


def test_reflection_grids():
    # psi(1-x) - psi(x) = pi cot(pi x); log-gamma reflection on the same grid
    for i in range(1, 98):
        x = i / 98.0
        cot = math.cos(PI * x) / math.sin(PI * x)
        assert abs(K.digamma(1.0 - x).value - K.digamma(x).value
                   - PI * cot) < 1e-11
        assert abs(K.log_gamma(x).value + K.log_gamma(1.0 - x).value
                   - math.log(PI) + math.log(math.sin(PI * x))) < 1e-12


def test_polygamma_examples():
    # psi'(1/4) = pi^2 + 8 * Catalan
    assert K.polygamma(1, 0.25).value == pytest.approx(
        PI ** 2 + 8.0 * C.catalan, rel=1e-12)
    # psi''(1/2) = -14 zeta(3)
    assert K.polygamma(2, 0.5).value == pytest.approx(-14.0 * C.zeta3,
                                                      rel=1e-12)
    # psi'(1) = zeta(2)
    assert K.polygamma(1, 1.0).value == pytest.approx(PI ** 2 / 6.0,
                                                      rel=1e-13)


def test_polygamma_errors():
    with pytest.raises(UnsupportedOrderError):
        K.polygamma(3, 1.0)
    with pytest.raises(DomainError):
        K.polygamma(1, -1.0)


# ---------------------------------------------------------------------------
# the regularised-sum kernel
# ---------------------------------------------------------------------------

def test_lambda_at_zero_is_gamma():
    assert K.lambda_fn(0.0).value == pytest.approx(GAMMA, abs=1e-14)


def test_lambda_derivatives_at_zero():
    h = 1e-3
    d1 = (K.lambda_fn(h).value - K.lambda_fn(-h).value) / (2 * h)
    assert abs(d1) < 1e-10          # odd function: derivative vanishes
    d2 = (K.lambda_fn(h).value - 2 * K.lambda_fn(0.0).value
          + K.lambda_fn(-h).value) / h ** 2
    assert d2 == pytest.approx(-2.0 * C.zeta3, abs=1e-4)


def test_lambda_two_route_agreement_grid():
    # the verdicts take only the digamma route (registry._lam), so this is
    # where its direct series cross-checks it over every v their closed
    # forms reach: |v| <= 1.28 (I-1.8), v <= 7.96 (I-1.12), x <= 4 (I-5.x)
    for v in _grid(-1.3, 8.0, 187):
        a, ea = K._lambda_digamma(v)
        b, eb = K._lambda_series(v)
        assert abs(a - b) <= ea + eb, v


def test_lambda_route_guard_raises_on_forced_mismatch(monkeypatch):
    monkeypatch.setattr(K, "_lambda_series", lambda v: (0.0, 1e-16))
    with pytest.raises(RouteInconsistencyError):
        K.lambda_fn(2.0)


def test_lambda_route_guard_raises_on_nan_route(monkeypatch):
    # NaN compares false with everything, so the guard must not pass it
    monkeypatch.setattr(K, "_lambda_series", lambda v: (math.nan, 1e-16))
    with pytest.raises(RouteInconsistencyError):
        K.lambda_fn(2.0)


# ---------------------------------------------------------------------------
# Si / Ci / Ei
# ---------------------------------------------------------------------------

def test_sici_examples():
    assert K.sine_integral(0.0).value == 0.0
    si, ci = K.sici(PI)
    assert ci.value == pytest.approx(0.073667912046425, abs=1e-12)
    si, _ = K.sici(1000.0)
    assert abs(si.value - 0.5 * PI) < 1.1e-3   # asymptotic approach
    with pytest.raises(PoleError):
        K.sici(0.0)
    with pytest.raises(DomainError):
        K.sici(-1.0)


def test_si_tiny_x_terminates():
    # below x ~ 1e-306 the series' stop test compared 0 with an underflowed
    # 0 and never ended; a fresh process with a timeout fails rather than
    # hangs the suite
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("from gammalab import cli, kernels as K\n"
              "print(K.sine_integral(1e-306).value, K.sici(5e-324)[0].value)\n"
              "raise SystemExit(cli.main(['eval', 'fn', 'si', '1e-320']))\n")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    si_a, si_b = out.stdout.splitlines()[0].split()
    assert (float(si_a), float(si_b)) == (1e-306, 5e-324)
    # Si(x) = x: the CLI prints the value exactly as it prints x
    lhs, rhs = out.stdout.splitlines()[1].split(" = ")
    assert rhs.split(" ± ")[0] == lhs.split()[1]


def test_sici_derivatives_match_integrands():
    h = 2e-4
    for x in (0.5, 1.0, 2.0, 5.0, 10.0):
        si_p = (K.sici(x + h)[0].value - K.sici(x - h)[0].value) / (2 * h)
        ci_p = (K.sici(x + h)[1].value - K.sici(x - h)[1].value) / (2 * h)
        assert abs(si_p - math.sin(x) / x) < 1e-6
        assert abs(ci_p - math.cos(x) / x) < 1e-6


def test_exp_integral_series_oracle():
    # 30-term alternating series at x = -1
    acc = GAMMA
    term = 1.0
    for k in range(1, 31):
        term *= -1.0 / k
        acc += term / k
    got = K.exp_integral(-1.0)
    assert got.value == pytest.approx(acc, abs=1e-14)
    assert got.value == pytest.approx(-0.2193839343955203, abs=1e-12)


def test_exp_integral_small_x_limit():
    # Ei(-x) - log x -> gamma as x -> 0+
    x = 1e-8
    assert K.exp_integral(-x).value - math.log(x) == pytest.approx(
        GAMMA, abs=1e-7)


def test_exp_integral_closure_via_quadrature():
    from gammalab.quad import integrate
    r = integrate(lambda x, da, db: math.exp(-x) * math.log(da), 0.0, 1.0,
                  tol=1e-12)
    rhs = -(GAMMA + 0.0 - K.exp_integral(-1.0).value)
    assert abs(r.value - rhs) < 1e-10


def test_exp_integral_domain():
    with pytest.raises(DomainError):
        K.exp_integral(0.5)


# ---------------------------------------------------------------------------
# zeta family, Stieltjes constant
# ---------------------------------------------------------------------------

def test_power_sum_stops_after_the_first_negligible_term():
    # 1 + 1/2 + 1/4 + ...: 2^-59 is the first term at most 1e-18 of the
    # sum, so 60 coefficients are read; a zero sum stops at once, as Si's
    # does where x^2 underflows; a short table ends the sum
    coeffs = iter([1.0] * 100)
    assert K._power_sum(coeffs, 1.0, 0.5) == 2.0
    assert len(list(coeffs)) == 40
    coeffs = iter([1.0] * 5)
    assert K._power_sum(coeffs, 0.0, 0.5) == 0.0
    assert len(list(coeffs)) == 4
    assert K._power_sum((3.0, 2.0), 1.0, 0.5, acc=1.0) == 5.0


def _bernoulli_oracle(n_max):
    """B_0 .. B_{n_max} by the defining recurrence in ``Fraction``."""
    bs = [Fraction(1)]
    for m in range(1, n_max + 1):
        bs.append(-sum(math.comb(m + 1, k) * bs[k] for k in range(m))
                  / (m + 1))
    return bs


def test_bernoulli_floats_equal_exact_fractions():
    # the stored table of reduced (numerator, denominator) pairs is the
    # defining recurrence's B_0 .. B_30, and each float is rounded once
    oracle = _bernoulli_oracle(30)
    assert K._BERNOULLI == tuple((b.numerator, b.denominator)
                                 for b in oracle)
    for n in range(31):
        assert K._bernoulli_float(n) == float(oracle[n]), n
    for n in range(K._BPOLY_MAX + 1):
        assert K._bpoly_coeffs(n) == tuple(
            float(math.comb(n, k) * oracle[k]) for k in range(n + 1)), n
    # past the table's end a polynomial is refused, not cut short
    with pytest.raises(IndexError):
        K._bpoly_coeffs(31)


def test_zeta_examples():
    assert K.zeta_family("zeta", 2.0).value == pytest.approx(PI ** 2 / 6,
                                                             rel=1e-13)
    assert K.zeta_family("zeta_prime_neg1").value == pytest.approx(
        -0.165421143700, abs=1e-10)
    assert K.zeta_family("hurwitz", 3.0, 0.5).value == pytest.approx(
        7.0 * C.zeta3, rel=1e-12)
    with pytest.raises(DomainError):
        K.zeta_family("zeta", 0.5)
    with pytest.raises(DomainError):
        K.zeta_family("hurwitz", 2.0, -1.0)
    with pytest.raises(DomainError):
        K.zeta_family("nope")


@pytest.mark.parametrize("args", [("zeta", math.inf),
                                  ("zeta_prime", math.inf),
                                  ("hurwitz", math.inf, 1.0),
                                  ("hurwitz", 2.0, math.inf),
                                  ("zeta", math.nan)])
def test_zeta_family_rejects_non_finite(args):
    with pytest.raises(DomainError, match="must be finite"):
        K.zeta_family(*args)


@pytest.mark.parametrize("args, value", [(("zeta", 1e100), 1.0),
                                         (("zeta", 1e160), 1.0),
                                         (("zeta_prime", 1e100), 0.0),
                                         (("hurwitz", 1e160, 2.0), 0.0)])
def test_zeta_family_huge_s_is_finite(args, value):
    # the first term is the whole sum; the Euler-Maclaurin route gave NaN
    # or raised a bare OverflowError here
    r = K.zeta_family(*args)
    assert math.isfinite(r.value)
    assert abs(r.value - value) <= r.abs_err


@pytest.mark.parametrize("s, a", [(2000.0, 0.5), (2.0, 1e-200)])
def test_hurwitz_overflow_is_a_range_error(s, a):
    with pytest.raises(RangeOverflowError):
        K.zeta_family("hurwitz", s, a)


@pytest.mark.parametrize("fn, args", [
    (K.polygamma, (1, 1e-155)), (K.polygamma, (2, 1e-155)),
    (K.polygamma, (2, 1e-103)), (K.polygamma, (1, 5e-324)),
    (K.bernoulli_poly, (6, 1e300)), (K.bernoulli_poly, (6, -1e300)),
    (K.bernoulli_poly, (12, 1e26)), (K.bernoulli_poly, (1, 1.7e308)),
    (K.digamma, (1e-320,)), (K.digamma, (-1e-320,)), (K.digamma, (5e-324,)),
    (K.digamma, (complex(1e-320, 0.0),)), (K.digamma, (1e-320 + 1e-320j,)),
    (K.digamma, (complex(1.0, 1e308),)), (K.digamma, (1.7e308 + 1.7e308j,)),
    (K.lambda_fn, (1e308,)), (K.lambda_fn, (-1.7976931348623157e308,)),
])
def test_kernels_at_float_range_edges(fn, args):
    # each raised a bare OverflowError, FnEvalResult's ValueError, or (the
    # lambda routes, NaN passing their agreement test) returned NaN
    try:
        r = fn(*args)
    except RangeOverflowError:
        return
    assert math.isfinite(abs(r.value)) and math.isfinite(r.abs_err)
    if fn is K.lambda_fn:
        # -log|v| - 1/(12 v^2) to double precision
        assert abs(r.value + math.log(abs(args[0]))) <= r.abs_err


def test_hurwitz_em_same_bits_cold_or_warm():
    # the tail coefficients are cached per s: a value must not depend on
    # which s filled the cache first, and an int s (a key of its own) must
    # build the same coefficients as the float
    ss = (2.0, 2.5, 7.3, 26.0, 60.0)
    points = [(s, a, order) for s in ss for a in (0.5, 1.0, 65.0, 4001.0)
              for order in (0, 1, 2)]
    K._em_tail_coeffs.cache_clear()
    cold = [K._hurwitz_em(*p).hex() for p in points]
    cold_coeffs = [K._em_tail_coeffs(s) for s in ss]
    K._em_tail_coeffs.cache_clear()
    for s in (60, 26, 7.3, 2.5, 2):
        K._em_tail_coeffs(s)
    warm = [K._hurwitz_em(*p).hex() for p in reversed(points)]
    assert warm[::-1] == cold
    assert [K._em_tail_coeffs(s) for s in ss] == cold_coeffs
    assert [K._em_tail_coeffs(int(s)) for s in (2.0, 26.0, 60.0)] == [
        cold_coeffs[0], cold_coeffs[3], cold_coeffs[4]]


def test_gamma1_independent_em_oracle():
    # recompute the limit with a different cutoff and correction depth
    n = 200_000
    acc = 0.0
    for k in range(2, n + 1):
        acc += math.log(k) / k
    ln = math.log(n)
    oracle = acc - 0.5 * ln * ln - 0.5 * ln / n - (1 - ln) / (12.0 * n * n)
    got = K.stieltjes_gamma1()
    assert got.value == pytest.approx(oracle, abs=1e-11)
    assert got.value == pytest.approx(-0.0728158454836767, abs=1e-10)


def test_gamma1_furdui_closure():
    from gammalab.series_catalog import sum_catalog
    lhs = sum_catalog("S-4.31.1").value
    rhs = C.gamma1 - 0.5 * (C.zeta2 - C.gamma ** 2)
    assert abs(lhs - rhs) < 1e-8


def test_gamma1_log_pair_closure():
    # sum {(gamma+log n)/n - H_n log(1+1/n)} = 2 gamma_1 + gamma^2
    from gammalab.series_catalog import sum_catalog
    lhs = sum_catalog("S-4.31.1").value - sum_catalog("S-4.32").value
    assert abs(lhs - (2.0 * C.gamma1 + C.gamma ** 2)) < 1e-8


def test_constants_cache_relations():
    # the stored constants against each other; test_oracle checks each one
    rel = (1.0 - C.gamma - C.log_2pi) / 12.0 + C.zeta_prime_2 / (2 * PI ** 2)
    assert abs(C.zeta_prime_neg1 - rel) < 1e-12
    assert C.catalan == pytest.approx(0.915965594177219, abs=1e-14)


# ---------------------------------------------------------------------------
# Barnes G
# ---------------------------------------------------------------------------

def test_barnes_g_examples():
    assert K.log_barnes_g(1.0).value == 0.0
    closed = (math.log(2) / 24.0 - math.log(PI) / 4.0
              + 1.5 * C.zeta_prime_neg1)
    assert K.log_barnes_g(0.5).value == pytest.approx(closed, abs=1e-12)
    # G(3/4)/G(5/4) against the Catalan closed form
    lhs = K.log_barnes_g(0.75).value - K.log_barnes_g(1.25).value
    rhs = C.catalan / (2 * PI) - math.log(2) / 8.0 - math.log(PI) / 4.0
    assert abs(lhs - rhs) < 1e-10


def test_barnes_functional_equation_grid():
    for x in _grid(0.25, 2.0, 36):
        r = (K.log_barnes_g(1.0 + x).value
             - K.log_barnes_g(x).value - K.log_gamma(x).value)
        assert abs(r) < 1e-10, x


def test_barnes_vardi_closure_at_one():
    # log G(2) = zeta'(-1) - zeta'(-1) + 1*log Gamma(1) = 0
    assert abs(K.log_barnes_g(2.0).value) < 1e-13


def test_barnes_domain():
    with pytest.raises(DomainError):
        K.log_barnes_g(0.0)
    with pytest.raises(DomainError):
        K.log_barnes_g(4.5)


# ---------------------------------------------------------------------------
# Clausen, Bernoulli polynomials
# ---------------------------------------------------------------------------

def test_clausen_special_points():
    assert K.clausen_cl2(0.0).value == 0.0
    assert abs(K.clausen_cl2(PI).value) < 1e-15
    # Cl2(pi/2) = Catalan, by mpmath
    mp = pytest.importorskip("mpmath")
    r = K.clausen_cl2(PI / 2)
    with mp.workdps(30):
        assert abs(mp.mpf(r.value) - mp.catalan) <= r.abs_err


def test_clausen_periodicity_and_oddness():
    assert K.clausen_cl2(0.7 + 2 * PI).value == pytest.approx(
        K.clausen_cl2(0.7).value, abs=1e-13)
    assert K.clausen_cl2(-0.7).value == pytest.approx(
        -K.clausen_cl2(0.7).value, abs=1e-15)


def test_bernoulli_poly_examples():
    assert K.bernoulli_poly(1, 0.3).value == pytest.approx(-0.2, abs=1e-15)
    assert K.bernoulli_poly(3, 0.5).value == 0.0
    with pytest.raises(UnsupportedOrderError):
        K.bernoulli_poly(13, 0.5)
    with pytest.raises(UnsupportedOrderError):
        K.bernoulli_poly(-1, 0.5)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("x", [0.1, 0.25, 0.5])
def test_bernoulli_poly_vs_truncated_fourier(n, x):
    # the Fourier series' sum, B_n(x), by mpmath
    mp = pytest.importorskip("mpmath")
    r = K.bernoulli_poly(n, x)
    with mp.workdps(30):
        assert abs(mp.mpf(r.value) - mp.bernpoly(n, x)) <= r.abs_err
