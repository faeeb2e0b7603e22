"""Tail-summation primitive and catalog tests."""

import inspect
import math
import random

import pytest

from gammalab import kernels as K
from gammalab import series, series_catalog
from gammalab.errors import DomainError, EvaluationError, UnknownKeyError
from gammalab.series import (
    TARGET_ERR,
    cvz_alternating,
    quad_tail,
    target_terms,
    zeta_tail_sum,
)
from gammalab.series_catalog import (
    SERIES_CATALOG,
    _tn_asymptotic,
    power_series_eval,
    sum_catalog,
)

C = K.get_constants()
PI = math.pi


# ---------------------------------------------------------------------------
# the tail-summation primitive
# ---------------------------------------------------------------------------

def _quarter_square(n_last, tail, omitted={}):
    """sum 1/(4n^2-1) at the fixed N = ``n_last``."""
    return zeta_tail_sum(lambda n_top: (1.0 / (4.0 * n * n - 1.0)
                                        for n in range(1, n_top + 1)),
                         tail, omitted=omitted, n_min=n_last, cap=n_last)


def test_zeta_tail_sum_quarter_square_telescoping():
    # telescoping oracle: sum_{n<=N} 1/(4n^2-1) = N/(2N+1) -> 1/2
    for n_last in (1, 3, 10, 100, 1000):
        direct = _quarter_square(n_last, {})
        assert direct.value == pytest.approx(n_last / (2.0 * n_last + 1.0),
                                             rel=1e-15)
        r = _quarter_square(n_last, lambda n: quad_tail(0.25, {0: 0.25}, n))
        assert abs(r.value - 0.5) <= r.abs_err < 1e-13
        assert r.terms_used == n_last


def test_zeta_tail_sum_error_shrinks_with_n():
    # a tail cut after two orders: 1/(4n^2-1) = n^-2/4 + n^-4/16 + n^-6/64...
    errs = []
    for n_last in (1, 2, 5, 20, 100, 1000):
        r = _quarter_square(n_last, {2: 0.25, 4: 0.0625},
                            omitted={6: 0.25 ** 3})
        assert abs(r.value - 0.5) <= r.abs_err
        errs.append(r.abs_err)
    assert errs == sorted(errs, reverse=True) and errs[0] > 1e3 * errs[-1]


def test_zeta_tail_sum_zero_series():
    r = zeta_tail_sum(lambda n_last: [0.0] * n_last, n_min=50, cap=50)
    assert r.value == 0.0 and r.abs_err < 1e-13


def test_zeta_tail_sum_quartic_lattice():
    # sum n/(4n^2-1)^2 = 1/8; the tail is sum_m m q^(m-1) n^-(2m+1)/16
    for n_last in (1, 5, 50):
        r = zeta_tail_sum(
            lambda n_top: (n / (4.0 * n * n - 1.0) ** 2
                           for n in range(1, n_top + 1)),
            {2 * m + 1: m * 0.25 ** (m - 1) / 16.0 for m in (1, 2, 3)},
            omitted={9: 4 * 0.25 ** 3 / 16.0}, n_min=n_last, cap=n_last)
        assert abs(r.value - 0.125) <= r.abs_err


def test_zeta_tail_sum_log_tail():
    # sum log n/n^2 = -zeta'(2), ten terms and an exact log tail
    r = zeta_tail_sum(lambda n_last: (math.log(n) / (n * n)
                                      for n in range(1, n_last + 1)),
                      log_tail={2: 1.0}, n_min=10, cap=10)
    assert r.value == pytest.approx(-K._zeta_prime_int(2), abs=1e-15)


def test_zeta_tail_sum_nonfinite_raises():
    with pytest.raises(EvaluationError):
        zeta_tail_sum(lambda n_last: (math.inf if n == 5 else 0.0
                                      for n in range(1, n_last + 1)),
                      n_min=10, cap=10)


def test_zeta_tail_sum_expansion_of_n_brings_its_omitted_orders():
    # a second copy of the omitted orders could disagree with the first
    with pytest.raises(TypeError, match="own omitted orders"):
        _quarter_square(10, lambda n: quad_tail(0.25, {0: 0.25}, n),
                        omitted={6: 1.0})


@pytest.mark.parametrize("v", [0.0, 1.3, 40.0])
def test_fixed_n_sum_never_probes_its_bound(v, monkeypatch):
    # n_min = cap sums at that N at once: lambda_fn's series builds its
    # expansion once, calls Hurwitz once per tail order, and evaluates one
    # bound, the one it reports, which makes no Hurwitz call
    n_last = max(64, math.ceil(4.0 * abs(v)))
    tail = K._lambda_tail(v * v, n_last)[1]()
    calls = {"expansion": [], "bound": 0, "hurwitz": 0}
    lambda_tail, tail_bound, hurwitz = (K._lambda_tail, series.tail_bound,
                                        series._hurwitz)

    def counted_tail(c, n):
        calls["expansion"].append(n)
        return lambda_tail(c, n)

    def counted_bound(*args):
        calls["bound"] += 1
        return tail_bound(*args)

    def counted_hurwitz(s, a):
        calls["hurwitz"] += 1
        return hurwitz(s, a)
    monkeypatch.setattr(K, "_lambda_tail", counted_tail)
    monkeypatch.setattr(series, "tail_bound", counted_bound)
    monkeypatch.setattr(series, "_hurwitz", counted_hurwitz)
    r = K._lambda_sum(v * v, n_last, n_last)
    assert r.terms_used == n_last
    assert calls == {"expansion": [n_last], "bound": 1,
                     "hurwitz": len(tail)}
    assert len(tail) == 39


@pytest.mark.parametrize("q", [-3.0, -400.0])
def test_searched_sum_reuses_its_last_probe(q, monkeypatch):
    # the N-search takes the omitted orders once per probed N and evaluates
    # the bound once per N whose expansion holds ((N+1)^2 >= 2|q|); the
    # chosen N takes both from its probe, builds its tail orders once, and
    # sums to the same bits as a fixed-N sum at that N
    calls = {"expansion": [], "bound": [], "build": []}
    quad_tail_, tail_bound = series_catalog.quad_tail, series.tail_bound

    def counted_tail(q, orders, n, *args):
        calls["expansion"].append(n)
        omitted, build = quad_tail_(q, orders, n, *args)

        def counted_build():
            calls["build"].append(n)
            return build()
        return omitted, counted_build

    def counted_bound(n, *args):
        calls["bound"].append(n)
        return tail_bound(n, *args)
    monkeypatch.setattr(series_catalog, "quad_tail", counted_tail)
    monkeypatch.setattr(series, "tail_bound", counted_bound)
    r = series_catalog.log_quarter_sum(q)
    n_last, probed = r.terms_used, calls["expansion"]
    assert len(probed) >= 2 and len(set(probed)) == len(probed)
    assert calls["bound"] == [n for n in probed if (n + 1) ** 2 >= 2 * -q]
    assert probed.count(n_last) == calls["bound"].count(n_last) == 1
    assert calls["build"] == [n_last]
    fixed = zeta_tail_sum(
        lambda n_top: (math.log(n) / (4.0 * (n * n - q))
                       for n in range(2, n_top + 1)),
        log_tail=lambda n: quad_tail_(q, {0: 0.25}, n), n_min=n_last,
        cap=n_last, floor=0.0)
    assert (r.value.hex(), r.abs_err.hex()) == (fixed.value.hex(),
                                                fixed.abs_err.hex())


def test_catalog_rejects_max_terms_below_n_min():
    assert SERIES_CATALOG["S-4.4-Tn"].n_min == 11
    with pytest.raises(DomainError):
        sum_catalog("S-4.4-Tn", (1.0,), max_terms=10)
    # S-5.13 takes any N >= 1 whose tail expansion converges at its x
    with pytest.raises(DomainError):
        sum_catalog("S-5.13", (1.5,), max_terms=1)
    with pytest.raises(DomainError):
        cvz_alternating(lambda k: 1.0 / (k + 1.0), 8)
    # the n^2 - q expansion needs (N+1)^2 >= 2|q|
    with pytest.raises(DomainError):
        quad_tail(64.0, {0: 1.0}, 10)
    with pytest.raises(DomainError):
        sum_catalog("S-4.4-Tn", (40.0,), max_terms=50)


@pytest.mark.parametrize("x", [0.0, 0.25, 0.5, 0.95, 1.0 - 1e-6])
def test_s_5_13_tail_takes_few_hurwitz_orders(x, monkeypatch):
    # gamma + x^2 sum 1/(n (n^2 - x^2)): from N = 8 the tail's n^-3 orders
    # shrink by x^2/81 each, so at most 9 of them meet the target on
    # [0, 1); the lambda sum at -x^2 took 39, one per log(1+1/n) order
    calls = []
    hurwitz_em = K._hurwitz_em

    def counted(*args, **kwargs):
        calls.append(args)
        return hurwitz_em(*args, **kwargs)
    monkeypatch.setattr(K, "_hurwitz_em", counted)
    r = sum_catalog("S-5.13", (x,))
    assert r.terms_used == 8
    assert 1 <= len(calls) <= 9


def test_quad_tail_large_q_never_overflows():
    # near (N+1)^2 = 2|q| the expansion needs ~50 orders of q^j; where |q|^j
    # leaves the float range it refuses the N, which a larger N cures
    with pytest.raises(DomainError):
        quad_tail(-1e6, {-1: 1.0}, 1415)
    with pytest.raises(DomainError):
        sum_catalog("S-4.4-Tn", (2000.0,), max_terms=3000)
    r = sum_catalog("S-4.4-Tn", (2000.0,))
    assert math.isfinite(r.value) and r.abs_err < 1e-10


def test_cvz_alternating_log2():
    v, e = cvz_alternating(lambda k: 1.0 / (k + 1.0))
    assert v == pytest.approx(math.log(2.0), abs=1e-13)
    assert abs(v - math.log(2.0)) <= max(e, 1e-15)


def test_terms_used_never_exceeds_budget():
    r = sum_catalog("S-6.3", max_terms=800)
    assert r.terms_used <= 800
    assert power_series_eval("PS-5.41", 0.9, max_terms=50).terms_used <= 50


# ---------------------------------------------------------------------------
# every catalog entry: the error grows as max_terms shrinks
# ---------------------------------------------------------------------------

_TEST_PARAMS = {
    "S-1.20": [(0.5,), (1.2,)], "S-1.23": [(0.5,), (1.2,)],
    "S-3.8": [(1.0,), (1.9,)], "S-3.14": [(0.5,), (1.5,)],
    "S-4.4-Tn": [(1.0,), (8.0,)], "S-5.13": [(0.25,), (0.95,)],
    "S-6.24-aux": [(2.0,), (3.0,)],
    "FS-6.2": [(0.3,)], "FS-7.1": [(0.3,)], "FS-4.16": [(0.25,), (1e-3,)],
    "FS-8.13": [(0.3,)], "FS-8.14": [(0.3,)],
}
_N_GRID = (1, 2, 3, 5, 8, 9, 11, 20, 64, 100, 256, 1000, 4000)


def _test_params(key):
    if key.startswith("PS-"):
        return [(0.5,), (0.95,)]
    return _TEST_PARAMS.get(key, [()])


@pytest.mark.parametrize("key", sorted(SERIES_CATALOG))
def test_catalog_error_grows_as_max_terms_shrinks(key):
    # the reference sums at the N its own bound picks; every cap, above or
    # below that N, must agree with it within both errors.  No entry keeps
    # a fixed N as its default
    entry = SERIES_CATALOG[key]
    assert inspect.signature(entry.fn).parameters["max_terms"].default is None
    grid = sorted(set(_N_GRID) | {entry.n_min})
    for params in _test_params(key):
        ref = sum_catalog(key, params)
        for n in grid:
            if n < entry.n_min:
                with pytest.raises(DomainError):
                    sum_catalog(key, params, max_terms=n)
                continue
            r = sum_catalog(key, params, max_terms=n)
            assert r.terms_used <= n, (key, params, n)
            assert abs(r.value - ref.value) <= r.abs_err + ref.abs_err, \
                (key, params, n)


@pytest.mark.parametrize("key", sorted(set(SERIES_CATALOG) - {"FS-7.1"}))
def test_target_n_is_small(key):
    # each entry's own bound meets the target within 1024 terms; only the
    # test-only FS-7.1 (~35k terms at x = 0.3) sums more
    for params in _test_params(key):
        r = sum_catalog(key, params)
        assert r.terms_used <= 1024, (key, params, r.terms_used)


def _exact_tail_bound(n_last, omitted={}, log_omitted={}, shift=1.0):
    """``tail_bound`` with each zeta order evaluated, not bounded."""
    a = n_last + shift
    return 2.0 * (sum(abs(e) * K._hurwitz(float(k), a)
                      for k, e in omitted.items())
                  + sum(abs(e * K._hurwitz_prime(float(k), a))
                        for k, e in log_omitted.items()))


def _searched_ns(key, monkeypatch, bound=None):
    """The N of every target_terms search an entry makes at its test
    parameters, with ``tail_bound`` replaced by ``bound`` if given."""
    found = []

    def recording(*args, **kwargs):
        found.append(target_terms(*args, **kwargs))
        return found[-1]
    monkeypatch.setattr(series_catalog, "target_terms", recording)
    monkeypatch.setattr(series, "target_terms", recording)
    if bound is not None:
        monkeypatch.setattr(series_catalog, "tail_bound", bound)
        monkeypatch.setattr(series, "tail_bound", bound)
    series_catalog._log_g_residuals.cache_clear()  # FS-4.16's T_n sums
    for params in _test_params(key):
        sum_catalog(key, params)
    monkeypatch.undo()
    series_catalog._log_g_residuals.cache_clear()
    return found


@pytest.mark.parametrize("key", sorted(k for k in SERIES_CATALOG
                                       if not k.startswith("PS-")))
def test_closed_form_tail_bound_moves_n_by_one_at_most(key, monkeypatch):
    # tail_bound bounds each zeta order in closed form, within 1.2x (1.35x
    # for zeta'); every search then picks the N that the exact zeta values
    # pick, or the next one
    exact = _searched_ns(key, monkeypatch, _exact_tail_bound)
    closed = _searched_ns(key, monkeypatch)
    assert len(closed) == len(exact)
    for n, n_exact in zip(closed, exact):
        assert n_exact <= n <= n_exact + 1, (key, n, n_exact)


# ---------------------------------------------------------------------------
# target_terms: the secant search finds the N doubling and bisecting find
# ---------------------------------------------------------------------------

def _doubling_bisection(bound, n_min=1, cap=None, target=TARGET_ERR):
    """The reference search: double to a bracket, then bisect it."""
    top = 1 << 16 if cap is None else cap

    def met(n):
        try:
            return bound(n) <= target
        except DomainError:
            return False

    if n_min >= top or met(n_min):
        return min(n_min, top)
    lo = hi = n_min
    while True:
        hi = min(2 * hi, top)
        if met(hi):
            break
        if hi == top:
            return top
        lo = hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if met(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _search(search, bound, *args, **kwargs):
    """(N, bound probes) of one search."""
    probes = []

    def counted(n):
        probes.append(n)
        return bound(n)
    return search(counted, *args, **kwargs), len(probes)


def _same_n(bound, *args, **kwargs):
    """Both searches' probe counts, after asserting that they agree."""
    n_new, p_new = _search(target_terms, bound, *args, **kwargs)
    n_ref, p_ref = _search(_doubling_bisection, bound, *args, **kwargs)
    assert n_new == n_ref, (args, kwargs, n_new, n_ref)
    return p_new, p_ref


def _catalog_searches(key, monkeypatch):
    """Every target_terms call an entry makes at its test parameters, with
    and without caps: its own, and those of zeta_tail_sum."""
    searches = []

    def recording(bound, *args, **kwargs):
        searches.append((bound, args, kwargs))
        return target_terms(bound, *args, **kwargs)
    monkeypatch.setattr(series_catalog, "target_terms", recording)
    monkeypatch.setattr(series, "target_terms", recording)
    for params in _test_params(key):
        for cap in (None, 1, 20, 1000):
            try:
                sum_catalog(key, params, max_terms=cap)
            except DomainError:
                pass  # a cap below the entry's n_min
    monkeypatch.undo()
    return searches


def test_target_terms_matches_doubling_and_bisection(monkeypatch):
    # the same N on every search of every catalog entry, in fewer probes
    new = ref = 0
    for key in sorted(SERIES_CATALOG):
        for bound, args, kwargs in _catalog_searches(key, monkeypatch):
            p_new, p_ref = _same_n(bound, *args, **kwargs)
            new += p_new
            ref += p_ref
    assert ref > 100 and new < 0.7 * ref, (new, ref)


def test_target_terms_synthetic_bounds():
    # power laws in N + shift, with caps, targets and expansions that only
    # hold (no DomainError) from a threshold on
    rng = random.Random(7)
    for _ in range(500):
        p = rng.uniform(0.5, 30.0)
        c = 10.0 ** rng.uniform(-6.0, 6.0)
        shift = rng.choice((0.0, 0.5, 1.0, 3.0))
        threshold = rng.choice((0, rng.randint(1, 5000)))

        def bound(n, p=p, c=c, shift=shift, threshold=threshold):
            if n < threshold:
                raise DomainError("the expansion does not hold yet")
            return c * (n + shift) ** -p
        _same_n(bound, rng.choice((1, 2, 11, 64, rng.randint(1, 500))),
                rng.choice((None, rng.randint(1, 100_000))),
                target=rng.choice((TARGET_ERR, 1e-8)))
    # steps give the secant nothing to follow
    for threshold in (1, 2, 3, 100, 4097, 65535, 65536, 70000):
        for cap in (None, 1000):
            _same_n(lambda n: 1.0 if n < threshold else 0.0, 1, cap)


# ---------------------------------------------------------------------------
# coth closed form and the Taylor-vs-direct lemmas
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0])
def test_coth_closed_form(x):
    # sum 2x/(x^2 + 4 pi^2 n^2) = (2x/4pi^2) sum 1/(n^2 + (x/2pi)^2)
    c = 2.0 * x / (4.0 * PI ** 2)
    r = zeta_tail_sum(lambda n_last: (2.0 * x / (x * x + 4.0 * PI ** 2 * n * n)
                                      for n in range(1, n_last + 1)),
                      lambda n: quad_tail(-(x / (2.0 * PI)) ** 2, {0: c}, n),
                      n_min=1000, cap=1000)
    closed = 1.0 / math.expm1(x) - 1.0 / x + 0.5
    assert r.value == pytest.approx(closed, abs=1e-13)
    assert abs(r.value - closed) <= r.abs_err


@pytest.mark.parametrize("u", [0.1, 0.3, 0.5])
def test_lemma_taylor_vs_direct(u):
    # direct sums against their zeta(')-Taylor expansions
    direct_log = sum_catalog("S-1.20", (u,)).value
    taylor_log = sum((-1.0) ** m * K._zeta_prime_int(2 * m) * u ** (2 * m - 2)
                     for m in range(1, 40))
    assert abs(direct_log - taylor_log) < 1e-9

    direct = sum_catalog("S-1.23", (u,)).value
    taylor = sum((-1.0) ** (m + 1) * K._zeta_int(2 * m) * u ** (2 * m - 2)
                 for m in range(1, 40))
    assert abs(direct - taylor) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_partial_fraction_lemma(n):
    # sum_{m != n} 1/(m^2-n^2) = 3/(4n^2)
    m_hi = 20_000
    vals = [0.0 if m == n else 1.0 / (m * m - n * n)
            for m in range(1, m_hi + 1)]
    total = zeta_tail_sum(lambda m_last: vals[:m_last],
                          lambda m: quad_tail(float(n * n), {0: 1.0}, m),
                          n_min=m_hi, cap=m_hi).value
    assert abs(total - 0.75 / (n * n)) < 1e-10


@pytest.mark.parametrize("k", [3, 10])
@pytest.mark.parametrize("x", [0.25, 0.4])
def test_finite_cot_sum(k, x):
    lhs = -2.0 * x * sum(1.0 / (n * n - x * x) for n in range(1, k + 1))
    cot = math.cos(PI * x) / math.sin(PI * x)
    rhs = (K.digamma(1.0 + k + x).value - K.digamma(1.0 + k - x).value
           + PI * cot - 1.0 / x)
    assert abs(lhs - rhs) < 1e-11


# ---------------------------------------------------------------------------
# catalog values
# ---------------------------------------------------------------------------

def test_catalog_unknown_id():
    with pytest.raises(UnknownKeyError):
        sum_catalog("S-0.0")


def test_catalog_param_validation():
    with pytest.raises(DomainError):
        sum_catalog("S-6.3", (1.0,))
    with pytest.raises(DomainError):
        sum_catalog("S-5.13", (2.0,))  # pole at integer argument


@pytest.mark.parametrize("key", sorted(k for k, e in SERIES_CATALOG.items()
                                       if e.nparams))
def test_catalog_rejects_non_finite_parameters(key):
    # every slot, before any entry code runs: nan and inf never reach a
    # loop bound, an int() or a value
    nparams = SERIES_CATALOG[key].nparams
    for slot in range(nparams):
        for bad in (math.nan, math.inf, -math.inf):
            params = tuple(bad if i == slot else 0.5 for i in range(nparams))
            with pytest.raises(DomainError,
                               match=f"{key} parameter {slot + 1} must be "
                                     "finite"):
                sum_catalog(key, params)


def test_catalog_spot_values():
    g = C.gamma
    assert sum_catalog("S-5.13", (0.5,)).value == pytest.approx(
        -1.0 + g + math.log(4.0), abs=1e-10)
    assert sum_catalog("S-6.3").value == pytest.approx(-math.log(2.0),
                                                       abs=1e-12)
    assert sum_catalog("S-5.46.2").value == pytest.approx(0.25, abs=1e-10)
    # brute-force oracle (numpy partial sum to 1e7 plus integral correction)
    assert sum_catalog("S-4.4-Tn", (1,)).value == pytest.approx(
        1.0231387264281, abs=1e-10)
    assert sum_catalog("S-8.11").value == pytest.approx(0.5, abs=1e-12)


def test_tn_expansion_agrees_with_direct_series():
    # FS-4.16 takes T_n from n = 12 on from its large-n expansion
    for n in range(11, 201):
        direct = sum_catalog("S-4.4-Tn", (float(n),))
        value, err = _tn_asymptotic(n)
        assert abs(direct.value - value) <= direct.abs_err + err, n


def test_log_g_coefficients_within_their_first_omitted_orders():
    # FS-4.16 sums the residuals a_n - A_n and b_n - B_n to n = 11 and
    # bounds them from n = 12 on by the first orders A_n and B_n leave out,
    # zeta'(-14)/(pi^2 n^16) and B_14/(28 pi n^15).  At 60 digits: a_n with
    # T_n from its expansion, within that order plus T_n's error, and b_n
    # with the exact H_n
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        g, l2pi, pi2 = mp.euler, mp.log(2 * mp.pi), mp.pi ** 2
        zp = [mp.zeta(-2 * j, 1, 1) for j in range(1, 8)]
        bern = [mp.bernoulli(2 * k) for k in range(1, 8)]
        h = mp.fsum(mp.mpf(1) / m for m in range(1, 12))
        for n in range(12, 2001):
            h += mp.mpf(1) / n
            tn, tn_err = _tn_asymptotic(n)
            a_n = ((mp.log(n) / 2 - g - l2pi - 1) / (2 * pi2 * n * n)
                   - mp.mpf(1) / (4 * n) - mp.mpf(tn) / pi2)
            big_a = (-mp.mpf(1) / (2 * n) - g / (2 * pi2 * n * n)
                     - mp.fsum(zp[j - 1] / (pi2 * mp.mpf(n) ** (2 * j + 2))
                               for j in range(1, 7)))
            assert abs(a_n - big_a) <= (abs(zp[6]) / (pi2 * mp.mpf(n) ** 16)
                                        + tn_err / pi2), n
            b_n = ((mp.mpf(1) / (2 * n) - g - mp.log(4 * pi2 * n) - h)
                   / (2 * mp.pi * n))
            big_b = (-(mp.log(n) + g + l2pi) / (mp.pi * n)
                     + mp.fsum(bern[k - 1] / (4 * mp.pi * k
                                              * mp.mpf(n) ** (2 * k + 1))
                               for k in range(1, 7)))
            assert abs(b_n - big_b) <= abs(bern[6]) / (
                28 * mp.pi * mp.mpf(n) ** 15), n


def test_si_lattice_sums():
    # frozen from the lattice oracle: sum Si(2 pi n)/n^2
    assert sum_catalog("S-4.26").value == pytest.approx(2.39933343078027,
                                                        abs=1e-10)
    r = sum_catalog("S-3.8", (1.0,))
    assert r.value * 2.0 / PI == pytest.approx(
        3.0 + K._sici_raw(PI)[1] - C.gamma - math.log(4.0 * PI), abs=1e-12)


def test_power_series_examples():
    g = C.gamma
    # constant term only
    assert power_series_eval("PS-5.1", 0.0).value == pytest.approx(g,
                                                                   abs=1e-15)
    v = power_series_eval("PS-5.32", 0.5).value
    closed = (0.5 * math.log(PI / 2.0 / math.sin(PI / 2)) * 1.0)
    rhs = (0.5 * math.log(PI * 0.5 / math.sin(PI * 0.5)) - g * 0.5
           - K.log_gamma(1.5).value)
    assert v == pytest.approx(rhs, abs=1e-13)
    assert v == pytest.approx(0.0579657578, abs=1e-9)
    v17 = power_series_eval("PS-5.17", 0.5).value
    rhs17 = (-(1.0 + g) * 0.25 - K.log_barnes_g(1.5).value
             - K.log_barnes_g(0.5).value)
    # value frozen only after both routes above agreed to <1e-13
    assert v17 == pytest.approx(rhs17, abs=1e-13)
    assert v17 == pytest.approx(0.0441972499, abs=1e-9)
    with pytest.raises(DomainError):
        power_series_eval("PS-5.1", 1.0)
    with pytest.raises(UnknownKeyError):
        power_series_eval("PS-9.9", 0.1)


@pytest.mark.parametrize("x", [0.95, 0.99, 0.999])
def test_ps_5_41_accurate_near_one(x):
    # Re log Gamma(1+ix) = log(pi x/sinh(pi x))/2
    r = power_series_eval("PS-5.41", x)
    exact = 0.5 * math.log(PI * x / math.sinh(PI * x))
    assert abs(r.value.real - exact) <= r.abs_err
    assert r.abs_err < 1e-12


def test_alternating_catalog_entries():
    assert sum_catalog("S-6.5").value == pytest.approx(math.log(PI / 2),
                                                       abs=1e-12)
    assert sum_catalog("S-7.11").value == pytest.approx(-0.176011999819,
                                                        abs=1e-9)
    assert sum_catalog("S-7.11-aux").value == pytest.approx(0.04400299995,
                                                            abs=1e-9)


def test_quartic_and_sextic_lattice_sums():
    # sum n/(4n^2-1)^2 = 1/8 and its cubic companion
    assert sum_catalog("S-6.24-aux", (2,)).value == pytest.approx(0.125,
                                                                  abs=1e-12)
    assert sum_catalog("S-6.24-aux", (3,)).value == pytest.approx(
        (7.0 * K._zeta_int(3) - 6.0) / 64.0, abs=1e-12)


@pytest.mark.parametrize("n_stop", [10, 100, 1000])
def test_alternating_entries_respect_tail_bound(n_stop):
    # |value - partial(N)| <= |term(N+1)| for the alternating entries
    value = sum_catalog("S-7.11").value
    partial = sum((-1.0) ** n * math.log1p(1.0 / n) / (2 * n + 1)
                  for n in range(1, n_stop + 1))
    nxt = math.log1p(1.0 / (n_stop + 1)) / (2 * n_stop + 3)
    assert abs(value - partial) <= nxt
    # the partial sum exactly rounded, and only the rounding the value
    # cannot avoid on top of the window
    value = sum_catalog("S-6.33").value
    partial = math.fsum((-1.0) ** (n % 2) * n / (4.0 * n * n - 1.0) ** 3
                        for n in range(1, n_stop + 1))
    nxt = (n_stop + 1.0) / (4.0 * (n_stop + 1.0) ** 2 - 1.0) ** 3
    room = nxt + 2.0 * math.ulp(value)
    assert abs(value - partial) <= room
    if room < 1e-15:
        # the window still catches a value 1e-15 off
        assert abs(value + 1e-15 - partial) > room
        assert abs(value - 1e-15 - partial) > room


def test_fourier_partial_sums():
    # the Lerch-type cosine series against its digamma closed form
    for x in (0.2, 0.45, 0.8):
        lhs = -sum_catalog("FS-6.2", (x,)).value
        rhs = (math.log(2.0) + 0.5 * PI * math.sin(2 * PI * x)
               + (1.0 - math.cos(2 * PI * x))
               * (math.log(PI) + C.gamma + K.digamma(x).value))
        assert abs(lhs - rhs) < 1e-10, x
    # the sine series against its digamma closed form
    for x in (0.2, 0.45, 0.8):
        lhs = -sum_catalog("FS-7.1", (x,)).value
        rhs = (K.digamma(x).value * math.sin(PI * x)
               + 0.5 * PI * math.cos(PI * x)
               + (C.gamma + C.log_2pi) * math.sin(PI * x))
        assert abs(lhs - rhs) < 1e-9, x


# ---------------------------------------------------------------------------
# psi_sin_partial's second summation by parts; per-process tables
# ---------------------------------------------------------------------------

def test_psi_sin_coefficients_fall_and_are_convex():
    # the second summation by parts bounds each remainder by
    # dc_{N+1}/(2 s^2), dc_n = c_n - c_{n+1}, only if dc_n > 0 does not grow
    # past N, i.e. c falls and is convex; checked from n = 2 to 2^16, the
    # largest N a search tries.  Each second difference is above 12/n^2 of
    # c_n, far above the rounding of the three c it is taken from
    eps = 2.0 ** -52
    for c in zip(*(series_catalog._psi_sin_coeffs(float(n))
                   for n in range(2, 2 ** 16 + 3))):
        d = [a - b for a, b in zip(c, c[1:])]
        d2 = [a - b for a, b in zip(d, d[1:])]
        assert min(d) > 0.0
        assert all(x > 64.0 * eps * y for x, y in zip(d2, c))


def _table_points():
    """The entries that read a per-process table or cache, as calls."""
    from gammalab.integral_catalog import integral_catalog
    psi = series_catalog.psi_sin_partial
    points = [lambda u=u: psi(u)
              for u in (1e-4, 0.002, 0.05, 0.25, 0.37, 0.5, 0.9, 0.9999,
                        1.0)]
    points += [lambda key=key, t=t, cap=cap: sum_catalog(key, (t,),
                                                         max_terms=cap)
               for key in ("FS-8.13", "FS-8.14", "FS-6.2")
               for t in (0.05, 0.3, 0.85) for cap in (None, 3, 40)]
    points += [lambda t=t: series_catalog.log_weighted_sin_sum(t)
               for t in (0.05, 0.3, 0.85)]
    points += [lambda t=t: sum_catalog("S-3.14", (t,)) for t in (0.5, 1.99)]
    points += [lambda u=u: integral_catalog("Q-5.53-lhs", (u,))
               for u in (0.1, 0.45, 0.9)]
    return points


def _clear_tables(monkeypatch):
    monkeypatch.setattr(series_catalog, "_PSI_SIN_TABLE", ([], [], []))
    for cached in (series_catalog._sum_log_4n2m1,
                   series_catalog._quarter_residual,
                   series_catalog._log_square_residual, K._two_zeta_even):
        cached.cache_clear()


def test_tables_cannot_change_a_result(monkeypatch):
    # the same bytes whatever ran before in the process: each entry with
    # empty tables, and after a suite and a spread of I-7.15 draws have
    # grown them in several steps, in both orders
    from gammalab.registry import Registry
    points = _table_points()

    def bits(r):
        return r.value.hex(), r.abs_err.hex()

    def cold():
        out = []
        for call in points:
            _clear_tables(monkeypatch)
            out.append(bits(call()))
        return out

    def warm():
        reg = Registry()
        reg.run_suite()
        for k in range(1, 40):
            reg.verify_identity("I-7.15", (k / 40.0,))
        reg.verify_identity("I-7.15", (0.001,))
        return [bits(call()) for call in points]
    assert cold() == warm()
    # u = 0.002 sums to N = 338, u = 0.001 to 322
    assert len(series_catalog._PSI_SIN_TABLE[0]) == 337
    assert warm() == cold()
