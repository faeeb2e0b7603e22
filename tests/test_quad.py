"""Quadrature engine tests: the error-honesty suite, additivity and
symmetry properties, closure checks, and the catalog error paths."""

import math
import random

import pytest

from gammalab import kernels as K
from gammalab.errors import DomainError, EvaluationError, UnknownKeyError
from gammalab.integral_catalog import (
    INTEGRAL_CATALOG,
    integral_catalog,
    probe_cauchy,
)
from gammalab.quad import integrate, integrate_semi_infinite

C = K.get_constants()
PI = math.pi
GAMMA = C.gamma


def _logsin(x, da, db):
    d = min(da, db)
    return math.log(math.sin(PI * d)) if d < 0.5 else 0.0


def _lgamma_s(x, da, db):
    if da <= 0.5:
        return K._lgamma1p(da) - math.log(da)
    return K._lgamma1p(-db)


def _gauss_integrand(t):
    # 1/(e^t - 1) - 1/(t e^t), patched at the removable point
    if t < 1e-4:
        return 0.5 - 5.0 * t / 12.0 + t * t / 6.0
    return 1.0 / math.expm1(t) - math.exp(-t) / t


# ---------------------------------------------------------------------------
# error honesty: 12 integrals with known values, true error <= 2x reported
# ---------------------------------------------------------------------------

def _honesty_cases():
    cases = [
        ("euler log-sin",
         integrate(_logsin, 0.0, 1.0, tol=1e-11),
         -math.log(2.0)),
        ("log Gamma mean",
         integrate(_lgamma_s, 0.0, 1.0, tol=1e-11),
         0.5 * C.log_2pi),
        ("odd log-sin moment", integral_catalog("Q-2.13", (1,)), 0.0),
        ("gauss gamma",
         integrate_semi_infinite(_gauss_integrand, 1.0, 1e-11),
         GAMMA),
    ]
    for k in (1, 2, 3):
        cases.append((f"cos coefficient k={k}",
                      integral_catalog("Q-6.17", (k,)), 0.25 / k))
        cases.append((f"sin coefficient k={k}",
                      integral_catalog("Q-6.9", (k,)),
                      (GAMMA + math.log(2 * PI * k)) / (2 * PI * k)))
    for n in (1, 2):
        cases.append((f"x log x sine moment n={n}",
                      integral_catalog("Q-4.25", (n,)),
                      -K._sici_raw(2 * PI * n)[0] / (4 * PI ** 2 * n * n)))
    return cases


def test_error_honesty_suite():
    cases = _honesty_cases()
    assert len(cases) == 12
    for name, result, exact in cases:
        true_err = abs(result.value - exact)
        assert true_err <= max(2.0 * result.abs_err, 1e-15), (
            f"{name}: true {true_err:.2e} vs reported {result.abs_err:.2e}")


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_interval_additivity_random_smooth():
    rng = random.Random(20260810)
    for _ in range(6):
        a_c, b_c, c_c = (rng.uniform(-2, 2) for _ in range(3))
        f = (lambda a_c, b_c, c_c:
             lambda x, da, db: a_c * x * x + b_c * math.sin(3 * x)
             + c_c * math.exp(-x))(a_c, b_c, c_c)
        cut = rng.uniform(0.2, 0.8)
        whole = integrate(f, 0.0, 1.0, tol=1e-12)
        left = integrate(f, 0.0, cut, tol=1e-12)
        right = integrate(f, cut, 1.0, tol=1e-12)
        assert abs(left.value + right.value - whole.value) <= (
            left.abs_err + right.abs_err + whole.abs_err + 1e-14)


def test_odd_symmetry_annihilation():
    # any f with f(x) = -f(1-x) integrates to zero over [0,1]
    candidates = [
        lambda x, da, db: (x - 0.5) * math.sin(PI * x),
        lambda x, da, db: (x - 0.5) ** 3 * math.cos(PI * (x - 0.5)),
        lambda x, da, db: math.sin(2 * PI * x) * math.exp(-(x - 0.5) ** 2),
    ]
    for f in candidates:
        r = integrate(f, 0.0, 1.0, tol=1e-12)
        assert abs(r.value) <= r.abs_err + 1e-14


def test_laplace_closure_small_p():
    r = integral_catalog("Q-1.1", (1e-6,))
    assert abs(r.value - 0.5 * C.log_2pi) < 1e-5


def test_parametric_derivative_check():
    h = 1e-3
    up = integral_catalog("Q-1.1", (0.5 + h,), tol=1e-12)
    dn = integral_catalog("Q-1.1", (0.5 - h,), tol=1e-12)
    deriv = (up.value - dn.value) / (2 * h)
    moment = integral_catalog("Q-2.6-moment", (0.5,), tol=1e-12)
    assert abs(deriv + moment.value) < 1e-6


def test_zero_integrands():
    r = integrate(lambda x, da, db: 0.0, 0.0, 1.0)
    assert r.value == 0.0
    r = integrate_semi_infinite(lambda t: math.exp(-t) * 0.0, 1.0)
    assert r.value == 0.0


def test_converged_flag_respects_tolerance():
    r = integrate(lambda x, da, db: math.exp(x), 0.0, 1.0, tol=1e-10)
    assert r.converged and r.abs_err <= 1e-10


def test_oscillation_cap():
    with pytest.raises(DomainError):
        integral_catalog("Q-6.17", (9,))
    with pytest.raises(DomainError):
        integral_catalog("Q-4.8", (0,))


@pytest.mark.parametrize("key,params,tol", [
    ("Q-4.31", (), 1e-8),
    ("Q-3.13", (), 1e-10),
    ("Q-6.34", (), 1e-10),
    ("Q-1.1", (1.0,), 1e-10),
])
def test_converged_implies_within_tolerance(key, params, tol):
    r = integral_catalog(key, params, tol=tol)
    if r.converged:
        assert r.abs_err <= tol


def test_semi_infinite_tail_contract():
    # e^-t on [0, 46] plus an exact tail e^-T integrates to 1
    calls = []
    def tail(t):
        calls.append(t)
        return math.exp(-t), 1e-30
    r = integrate_semi_infinite(lambda t: math.exp(-t), 1.0, 1e-12,
                                tail=tail)
    assert calls == [46.0]
    assert abs(r.value - 1.0) <= r.abs_err
    # the default tail bounds the rest by 2|f(T)|/rate and adds nothing
    r = integrate_semi_infinite(lambda t: math.exp(-0.5 * t), 0.5, 1e-12)
    assert r.abs_err >= 2.0 * math.exp(-46.0) / 0.5
    assert abs(r.value - 2.0) <= r.abs_err
    with pytest.raises(DomainError):
        integrate_semi_infinite(lambda t: 0.0, 0.0)


def test_engine_error_paths():
    with pytest.raises(DomainError):
        integrate(lambda x, da, db: 0.0, 1.0, 0.0)
    with pytest.raises(EvaluationError):
        integrate(lambda x, da, db: math.nan, 0.0, 1.0)
    with pytest.raises(DomainError):
        integrate(lambda x, da, db: 0.0, 0.0, 1.0, max_level=15)


def test_removable_hint():
    r = integrate(lambda x, da, db: math.sin(x) / x if x > 1e-12 else 1.0,
                  0.0, 1.0, (1.0, None), 1e-12)
    assert r.value == pytest.approx(K._sici_raw(1.0)[0], abs=1e-13)


# ---------------------------------------------------------------------------
# catalog behaviour
# ---------------------------------------------------------------------------

def test_catalog_unknown_and_arity():
    with pytest.raises(UnknownKeyError):
        integral_catalog("Q-0.0")
    with pytest.raises(DomainError):
        integral_catalog("Q-1.1")          # missing parameter
    with pytest.raises(DomainError):
        integral_catalog("Q-5.34", (1.5,))  # outside (0,1)


def test_catalog_spot_values():
    assert integral_catalog("Q-3.13").value == pytest.approx(
        (math.log(PI / 2) + 1.0) / PI, abs=1e-11)
    assert integral_catalog("Q-6.14").value == pytest.approx(
        -0.09114787415977, abs=1e-11)
    assert integral_catalog("Q-4.26-lhs").value == pytest.approx(
        -0.121551651580, abs=1e-9)
    # semi-infinite: int t^2/(e^t-1) = 2 zeta(3)
    r = integrate_semi_infinite(
        lambda t: t * t / math.expm1(t) if t > 1e-8 else t, 1.0, 1e-11)
    assert r.value == pytest.approx(2.0 * C.zeta3, abs=1e-10)


def test_divergence_probes_not_cauchy():
    for which in ("logGamma_cot", "logx_cot"):
        vals = [probe_cauchy(which, eps).value for eps in (1e-2, 1e-3, 1e-4)]
        d1 = vals[1] - vals[0]
        d2 = vals[2] - vals[1]
        assert abs(d2) > 0.5 * abs(d1)
        assert abs(d1) > 1.0  # nowhere near converging


@pytest.mark.parametrize("x", [0.95, 0.99, 0.999])
def test_sinh_cosh_transforms_near_one(x):
    # the window [0, 46/(1-x)] passes t = 709, where e^t overflows
    exact = {
        "Q-5.34": 0.5 * (math.lgamma(1.0 - x) - math.lgamma(1.0 + x)),
        "Q-5.36": -0.5 * (K.digamma(1.0 + x).value
                          + K.digamma(1.0 - x).value),
    }
    for key, value in exact.items():
        r = integral_catalog(key, (x,))
        assert math.isfinite(r.value) and math.isfinite(r.abs_err)
        assert abs(r.value - value) <= r.abs_err, key


def test_rounding_floor_does_not_grow_with_level():
    # Q-5.36 at x = 0.999 is ~500; a floor that doubled per level passed the
    # tolerance after five levels and ran the rule to the level cap
    r = integral_catalog("Q-5.36", (0.999,))
    assert r.converged
    assert r.evals <= 1024
    exact = -0.5 * (K.digamma(1.999).value + K.digamma(0.001).value)
    assert abs(r.value - exact) <= r.abs_err


@pytest.mark.parametrize("key", sorted(k for k, e in INTEGRAL_CATALOG.items()
                                       if e.nparams))
def test_catalog_rejects_non_finite_parameters(key):
    # every slot: an infinite parameter once gave 0 +- 0 for Q-1.1
    nparams = INTEGRAL_CATALOG[key].nparams
    for slot in range(nparams):
        for bad in (math.nan, math.inf, -math.inf):
            params = tuple(bad if i == slot else 0.5 for i in range(nparams))
            with pytest.raises(DomainError,
                               match=f"{key} parameter {slot + 1} must be "
                                     "finite"):
                integral_catalog(key, params)
