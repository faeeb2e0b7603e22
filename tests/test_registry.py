"""Registry tests: catalog contracts, verdict semantics, determinism,
route independence, dispute adjudication."""

import itertools
import json
import math
import random
import tracemalloc

import pytest

from gammalab import kernels as K
from gammalab import registry as R
from gammalab.errors import (
    DomainError,
    EvaluationError,
    UnknownKeyError,
    UnsupportedOrderError,
)
from gammalab.integral_catalog import integral_catalog, probe_cauchy
from gammalab.quad import integrate
from gammalab.registry import (
    EvalOptions,
    IdentityRecord,
    Recipe,
    Registry,
    build_records,
    failures,
)
from gammalab.series import SeriesResult
from gammalab.series_catalog import sum_catalog


@pytest.fixture(scope="module")
def reg():
    return Registry()


@pytest.fixture(scope="module")
def all_verdicts(reg):
    return reg.run_suite()


# ---------------------------------------------------------------------------
# record types
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [{"max_terms": 0}, {"level_cap": 2},
                                    {"level_cap": 15}])
def test_eval_options_checked_at_construction(kwargs):
    with pytest.raises(DomainError):
        EvalOptions(**kwargs)


def test_eval_options_defaults_and_replace():
    opts = EvalOptions()
    assert repr(opts) == "EvalOptions(max_terms=None, level_cap=10)"
    capped = opts._replace(level_cap=12)
    assert type(capped) is EvalOptions and capped.level_cap == 12
    assert EvalOptions(5, 14) == EvalOptions(max_terms=5, level_cap=14)


def test_records_are_read_only(reg):
    verdict = reg.verify_identity("I-4.31")
    quad = integrate(lambda x, xa, bx: x, 0.0, 1.0)
    for rec in (K.FnEvalResult(1.0, 0.0), quad, verdict):
        with pytest.raises(AttributeError):
            rec.value = 2.0
    with pytest.raises(AttributeError):
        verdict.status = "CONFIRMED"


def test_default_mappings_are_not_shared_dicts():
    # a namedtuple default is one object for every instance: the mapping
    # defaults must be immutable, so no verdict or record can alter another
    args = ("X", (), 1.0, 0.0, 1.0, 0.0, 0.0, 1e-9, "CONFIRMED",
            "CONFIRMED", "strict", 0.0)
    a, b = R.Verdict(*args), R.Verdict(*args)
    for diag in (a.diagnostics, b.diagnostics):
        assert diag == {} and not isinstance(diag, dict)
        with pytest.raises(TypeError):
            diag["x"] = 1
    recipe = Recipe("expr 1", lambda p, o: (1.0, 0.0))
    assert repr(recipe) == "Recipe(label='expr 1')"
    rec = IdentityRecord("X", 1, "", recipe, recipe)
    assert rec.reported == {} and not isinstance(rec.reported, dict)
    # a DISPUTED record without quoted values reports a plain empty dict
    disputed = Registry([rec._replace(expected="DISPUTED")])
    assert json.dumps(disputed.verify_identity("X").diagnostics) == (
        '{"reported": {}}')


# ---------------------------------------------------------------------------
# catalog contracts
# ---------------------------------------------------------------------------

def test_catalog_size(reg):
    assert len(reg.list_identities()) >= 60


def test_catalog_order_is_lexicographic(reg):
    ids = [r.id for r in reg.list_identities()]
    assert ids == sorted(ids)


def test_section_filter(reg):
    sec6 = {r.id for r in reg.list_identities(section=6)}
    for rid in ("I-6.16", "I-6.24", "I-6.34", "I-6.38"):
        assert rid in sec6


def test_disputed_filter(reg):
    disputed = {r.id for r in reg.list_identities(expected="DISPUTED")}
    assert {"D-4.26", "D-4.27", "D-4.28", "D-4.29", "D-4.30", "D-5.18",
            "D-5.55", "D-7.11"} <= disputed


def test_unknown_id(reg):
    with pytest.raises(UnknownKeyError):
        reg.verify_identity("I-0.0")


def test_param_domain_enforced(reg):
    with pytest.raises(DomainError):
        reg.verify_identity("I-2.6", (5.0,))
    with pytest.raises(DomainError):
        reg.verify_identity("I-2.6", (0.5, 0.5))


@pytest.mark.parametrize("rid", ["I-4.25", "I-6.9", "I-6.17"])
def test_integer_parameters_reject_non_integers(reg, rid):
    # Fourier coefficients on [0, 1] exist only for integer k: a non-integer
    # is refused before any route runs, never truncated
    assert reg.record(rid).integer_params == reg.record(rid).param_names
    with pytest.raises(DomainError, match="must be an integer"):
        reg.verify_identity(rid, (2.5,))
    assert reg.verify_identity(rid, (2.0,)).status == "CONFIRMED"


@pytest.mark.parametrize("key", ["Q-2.13", "Q-4.4", "Q-4.8", "Q-4.12.7",
                                 "Q-4.12.8", "Q-4.12.10", "Q-4.25", "Q-6.9",
                                 "Q-6.17", "S-4.4-Tn", "S-6.24-aux"])
def test_catalog_integer_arguments_are_not_truncated(key):
    fn = sum_catalog if key.startswith("S-") else integral_catalog
    with pytest.raises(DomainError, match="must be an integer"):
        fn(key, (2.5,))
    fn(key, (2.0,))


def test_route_failure_becomes_inconclusive():
    bad = IdentityRecord(
        "I-9.1", 9, "scratch: failing route",
        Recipe("boom", lambda p, b: 1 / 0),
        Recipe("one", lambda p, b: (1.0, 1e-15)))
    r = Registry(records=[bad])
    v = r.verify_identity("I-9.1")
    assert v.status == "INCONCLUSIVE"
    assert "route failure" in v.note


@pytest.mark.parametrize("route", [(math.inf, math.inf), (1.0, math.inf),
                                   (math.nan, 0.0), (-math.inf, 0.0)])
def test_non_finite_route_is_a_route_failure(route):
    # a residual of inf is <= a budget of inf: it confirmed
    bad = IdentityRecord(
        "I-9.1", 9, "scratch: non-finite route",
        Recipe("inf", lambda p, opts: route),
        Recipe("one", lambda p, opts: (1.0, 1e-15)))
    v = Registry(records=[bad]).verify_identity("I-9.1")
    assert v.status == "INCONCLUSIVE"
    assert v.note.startswith("route failure: not finite")


@pytest.mark.parametrize("x", [1e-320, 5e-324])
def test_fs_4_16_at_float_range_edge_is_a_route_failure(reg, x):
    # inside I-4.16's domain [0, 1]: its left side was inf +- inf, CONFIRMED
    with pytest.raises(EvaluationError, match="not finite"):
        sum_catalog("FS-4.16", (x,))
    v = reg.verify_identity("I-4.16", (x,))
    assert v.status == "INCONCLUSIVE"
    assert v.note.startswith("route failure: FS-4.16 is not finite")


@pytest.mark.parametrize("value, err", [(1.0, math.inf), (math.nan, 0.0),
                                        (complex(math.inf, 0.0), 0.0)])
def test_sum_catalog_rejects_a_non_finite_result(monkeypatch, value, err):
    from gammalab import series_catalog
    monkeypatch.setitem(series_catalog.SERIES_CATALOG, "S-9.1",
                        series_catalog.SeriesEntry(
                            "scratch", 0, lambda: SeriesResult(value, err, 1,
                                                               "direct")))
    with pytest.raises(EvaluationError, match="S-9.1 is not finite"):
        sum_catalog("S-9.1")


@pytest.mark.parametrize("key, n", [("Q-4.12.7", 6.0), ("Q-4.12.8", 7.0),
                                    ("Q-4.12.10", 7.0), ("Q-4.12.8", -1.0)])
def test_bernoulli_entries_cap_their_order(key, n):
    # the exact Bernoulli table was built to order 2n+1 with no cap, so a
    # large n never returned (test_cli's eval at 1e17); the records' domain
    # [1, 3] stays inside the cap
    with pytest.raises(UnsupportedOrderError, match="Bernoulli order"):
        integral_catalog(key, (n,))
    for inside in (1.0, 3.0, 5.0):
        integral_catalog(key, (inside,))


def test_program_error_in_route_propagates():
    bad = IdentityRecord(
        "I-9.1", 9, "scratch: buggy route",
        Recipe("bug", lambda p, opts: (p[0], 0.0)),
        Recipe("one", lambda p, opts: (1.0, 1e-15)))
    with pytest.raises(IndexError):
        Registry(records=[bad]).verify_identity("I-9.1")


# catalog entries that only tests call; every other key must be reached by
# the suite, so an entry that loses its last identity fails the guard below
_TEST_ONLY_KEYS = {
    "Q-2.6-moment",   # test_quad::test_parametric_derivative_check
    "Q-5.34",         # reached by the suite as its alias Q-5.35
    "S-1.23",         # test_series::test_lemma_taylor_vs_direct
    "S-6.24-aux",     # test_series::test_quartic_and_sextic_lattice_sums
    "FS-6.2",         # test_series::test_fourier_partial_sums
    "FS-7.1",         # test_series::test_fourier_partial_sums
}


def test_every_catalog_entry_is_reached(monkeypatch):
    from gammalab import registry
    from gammalab.integral_catalog import INTEGRAL_CATALOG
    from gammalab.series_catalog import SERIES_CATALOG

    reached = set()
    for name in ("integral_catalog", "sum_catalog", "power_series_eval"):
        def spy(key, *args, _fn=getattr(registry, name), **kwargs):
            reached.add(key)
            return _fn(key, *args, **kwargs)
        monkeypatch.setattr(registry, name, spy)
    Registry().run_suite()
    keys = set(INTEGRAL_CATALOG) | set(SERIES_CATALOG)
    assert _TEST_ONLY_KEYS <= keys
    assert not _TEST_ONLY_KEYS & reached, "test-only key now has an identity"
    assert keys - reached == _TEST_ONLY_KEYS, "orphan catalog entries"


# ---------------------------------------------------------------------------
# verdict semantics
# ---------------------------------------------------------------------------

def test_verdict_classification_thresholds():
    # the gaps are multiples of the verdict's own budget, the two bars
    def verdict(gap):
        return Registry([IdentityRecord(
            "I-9.2", 9, "scratch: controlled residual",
            Recipe("a", lambda p, b: (1.0, 1e-7)),
            Recipe("b", lambda p, b: (1.0 + gap, 2e-7)))]).verify_identity(
                "I-9.2")
    budget = verdict(0.0).budget
    assert budget == 1e-7 + 2e-7
    assert verdict(0.5 * budget).status == "CONFIRMED"
    assert verdict(50 * budget).status == "INCONCLUSIVE"
    assert verdict(1e4 * budget).status == "REFUTED"


@pytest.mark.parametrize("rid", ["I-4.16", "I-5.7", "I-7.15"])
def test_one_floor_confirms_across_the_domain(reg, rid):
    # the three records that once had a floor of 1e-7 or 1e-5 hold within
    # their two bars: 500 seeded draws plus points 10^-k of the span from
    # each end
    (lo, hi), = reg.record(rid).param_domain
    span = hi - lo
    points = [p for k in (3, 6, 9) for p in (lo + 10.0 ** -k * span,
                                             hi - 10.0 ** -k * span)]
    rng = random.Random(18)
    points += [rng.uniform(lo, hi) for _ in range(500)]
    bad = []
    for x in points:
        v = reg.verify_identity(rid, (x,))
        assert v.budget == v.lhs_err + v.rhs_err
        if v.status != "CONFIRMED":
            bad.append((x, v.status, v.residual, v.budget, v.note))
    assert bad == []


def test_suite_green_except_for_claimed_disputes(all_verdicts):
    assert failures(all_verdicts) == []
    bad = [v for v in all_verdicts
           if v.status != "CONFIRMED" and v.expected == "CONFIRMED"]
    assert bad == []


def test_budget_is_the_two_bars(all_verdicts):
    # the report's budget rule holds for every verdict, the divergence
    # probes included
    assert {"P-logGcot", "P-logxcot"} <= {v.id for v in all_verdicts}
    assert [v.id for v in all_verdicts
            if v.budget != v.lhs_err + v.rhs_err] == []


def test_confirmed_verdicts_hold_within_their_two_bars(reg, all_verdicts):
    # the two bars are the whole budget: no margin outside them confirms
    # (the worst is I-2.10 and I-8.15, at 0.48 of their bars)
    out = [(v.id, v.params, v.residual / (v.lhs_err + v.rhs_err))
           for v in all_verdicts if v.status == "CONFIRMED"
           and reg.record(v.id).probe is None
           and not v.residual <= v.lhs_err + v.rhs_err]
    assert out == []


def _near_end_points(reg):
    """lo + 10^-k w and hi - 10^-k w, k = 3, 6, 9, for each non-integer
    parameter of each parametric record in turn, the others at the first
    default: 270 points."""
    for rec in reg.list_identities():
        if not rec.param_names or rec.probe is not None:
            continue
        for i, (name, (lo, hi)) in enumerate(zip(rec.param_names,
                                                 rec.param_domain)):
            if name in rec.integer_params:
                continue
            for k in (3, 6, 9):
                for x in (lo + 10.0 ** -k * (hi - lo),
                          hi - 10.0 ** -k * (hi - lo)):
                    params = list(rec.default_params[0])
                    params[i] = x
                    yield rec.id, tuple(params)


def test_near_end_points_hold_within_their_two_bars(reg):
    # I-5.20 and I-5.53 were out at 1 - 1e-6 and 1 - 1e-9 (6x to 62x),
    # before their quadratures took the pole of cot just past b out
    points = list(_near_end_points(reg))
    assert len(points) == 270
    bad = []
    for rid, params in points:
        v = reg.verify_identity(rid, params)
        if not v.residual <= v.lhs_err + v.rhs_err or (
                v.expected == "CONFIRMED" and v.status != "CONFIRMED"):
            bad.append((rid, params, v.status, v.residual, v.budget, v.note))
    assert bad == []


def test_suite_size_and_order(all_verdicts):
    assert len(all_verdicts) >= 60
    ids = [v.id for v in all_verdicts]
    assert ids == sorted(ids)


def test_determinism(reg, all_verdicts):
    rerun = reg.run_suite()
    for a, b in zip(all_verdicts, rerun):
        assert a.id == b.id and a.params == b.params
        assert a.lhs_value == b.lhs_value and a.rhs_value == b.rhs_value
        assert a.residual == b.residual and a.status == b.status


def test_route_independence_audit(reg):
    for rid in ("I-4.31", "I-6.34", "I-5.35", "I-3.13", "I-8.11"):
        plain = reg.verify_identity(rid)
        rec = reg.record(rid)
        swapped = Registry([rec._replace(lhs=rec.rhs, rhs=rec.lhs)]) \
            .verify_identity(rid)
        assert plain.status == swapped.status
        assert plain.residual == pytest.approx(swapped.residual, rel=1e-12)


@pytest.mark.parametrize("rid,n_points", [
    ("I-2.6", 5), ("I-2.9", 5), ("I-2.10", 5), ("I-3.8", 5),
    ("I-5.35", 5), ("I-5.36", 5),
])
def test_parametric_identities_cover_domain(reg, rid, n_points):
    rec = reg.record(rid)
    assert len(rec.default_params) >= n_points
    lo, hi = rec.param_domain[0]
    span = hi - lo
    closest = min(min(p[0] - lo, hi - p[0]) for p in rec.default_params)
    assert closest <= 0.15 * span  # at least one point near a boundary


def test_whole_line_identity_has_five_points(reg):
    # the exponential transform holds for every real p; five samples
    # including negative arguments stand in for boundary stress
    rec = reg.record("I-1.8")
    assert len(rec.default_params) >= 5
    assert any(p[0] < 0 for p in rec.default_params)


def test_equivalence_cluster_1_17(reg):
    for p in (0.2, 0.5):
        v = reg.verify_identity("I-1.17", (p,))
        assert v.status == "CONFIRMED"


# ---------------------------------------------------------------------------
# disputes and probes
# ---------------------------------------------------------------------------

def test_adjudication_diagnostics(reg):
    v = reg.verify_identity("D-4.26")
    assert v.diagnostics["reported"] == {"lhs": -0.121552, "rhs": -0.121155}
    # both sides to eight significant digits
    assert v.lhs_err < 1e-8 and v.rhs_err < 1e-8
    # our finding: the identity actually holds; the quoted series value
    # was the wrong side
    assert v.status == "CONFIRMED"
    assert v.lhs_value == pytest.approx(-0.1215516516, abs=1e-9)


def test_dispute_5_55_refutes(reg):
    v = reg.verify_identity("D-5.55")
    assert v.status == "REFUTED"
    # the gap is exactly the dropped 2 log 2 - 1
    assert v.residual == pytest.approx(2 * math.log(2.0) - 1.0, abs=1e-9)


def test_dispute_7_11_symmetric_values(reg):
    v = reg.verify_identity("D-7.11")
    assert v.status == "CONFIRMED"
    assert v.lhs_value == pytest.approx(-0.176012, abs=5e-7)
    assert v.rhs_value == pytest.approx(-0.176012, abs=5e-7)


def test_adjudication_equals_suite_verdict(reg, all_verdicts):
    suite = next(v for v in all_verdicts if v.id == "D-4.30")
    adjudicated = reg.verify_identity("D-4.30")
    assert adjudicated._replace(wall_time=0.0) == suite._replace(
        wall_time=0.0)
    assert adjudicated.diagnostics["reported"] == {}


def test_probes_confirm_divergence(reg):
    for rid in ("P-logGcot", "P-logxcot"):
        v = reg.verify_identity(rid)
        assert v.expected == "DIVERGENT-PROBE"
        assert v.status == "CONFIRMED"
        assert len(v.diagnostics["values"]) == 3
        # each increment carries the errors of its own two quadratures
        e0, e1, e2 = (probe_cauchy(reg.record(rid).probe, eps).abs_err
                      for eps in (1e-2, 1e-3, 1e-4))
        assert (v.lhs_err, v.rhs_err) == (e0 + e1, e1 + e2)


def test_probes_reject_parameters(reg):
    # a probe takes no parameter: it must not answer a request it ignores
    for rid in ("P-logGcot", "P-logxcot"):
        with pytest.raises(DomainError, match="takes 0 parameter"):
            reg.verify_identity(rid, (1.0,))


def test_run_suite_rejects_empty_selection(reg):
    with pytest.raises(DomainError):
        reg.run_suite([])


@pytest.mark.parametrize("max_terms", [1, 3, 20])
def test_small_term_caps_never_refute(reg, max_terms):
    # every series route widens its error as the cap shrinks, or refuses a
    # cap below its minimum (INCONCLUSIVE); a true identity is never REFUTED
    series_ids = [r.id for r in reg.list_identities()
                  if "series" in r.lhs.label or "series" in r.rhs.label]
    verdicts = reg.run_suite(series_ids, opts=EvalOptions(max_terms=max_terms))
    assert failures(verdicts) == []


def test_exit_code_contract_with_corrupted_entry():
    # a deliberately wrong rhs must surface as an expected-CONFIRMED REFUTED
    records = build_records()
    good = next(r for r in records if r.id == "I-8.11")
    corrupted = IdentityRecord(
        good.id, good.section, good.anchor, good.lhs,
        Recipe("wrong constant", lambda p, b: (0.75, 1e-15)),
        good.expected)
    r = Registry(records=[corrupted])
    verdicts = r.run_suite()
    assert len(failures(verdicts)) == 1


@pytest.mark.parametrize("x", [0.95, 0.99, 0.999])
def test_laplace_identities_near_one(reg, x):
    # the sinh/cosh windows reach 46/(1-x); no route may overflow there,
    # and log Gamma(1+ix) must stay accurate as |x| -> 1
    for rid in ("I-5.35", "I-5.36", "I-5.4"):
        v = reg.verify_identity(rid, (x,))
        assert not v.note.startswith("route failure"), (rid, v.note)
        assert v.status == "CONFIRMED", (rid, v.residual, v.budget)


@pytest.mark.parametrize("rid,t", [
    ("I-1.25", 0.95), ("I-1.25", 0.99), ("I-1.25", 0.999),
    ("I-1.17", 0.95), ("I-1.17", 0.99)])
def test_zeta_power_series_near_one(reg, rid, t):
    # sum zeta(k) t^k converges at ratio t; the zeta -> 1 part is summed in
    # closed form, so the series route stays exact up to the domain's top
    v = reg.verify_identity(rid, (t,))
    assert v.status == "CONFIRMED", (rid, t, v.residual, v.budget)
    assert v.residual <= 1e-13 * max(1.0, abs(v.rhs_value))


def _alt_quarter_sum_per_term():
    """I-8.15's left side summed one Leibniz-split term at a time: the
    reference for the telescoped sum in ``registry._alt_quarter_sum``."""
    s = 0.5 * math.fsum(
        (-1.0) ** (n % 2) * (1.0 / (2 * n - 1.0) - 1.0 / (2 * n + 1.0))
        for n in range(1, 100_000))
    rest = 0.5 * (1.0 / 199_999.0 - 1.0 / 200_001.0)
    return SeriesResult(2.0 / math.pi - 4.0 / math.pi * s,
                        4.0 / math.pi * rest, 99_999, "alternating")


def test_alt_quarter_sum_matches_per_term_reference():
    new, ref = R._alt_quarter_sum(), _alt_quarter_sum_per_term()
    assert new.value.hex() == ref.value.hex()
    assert new.abs_err.hex() == ref.abs_err.hex()
    assert (new.terms_used, new.method) == (ref.terms_used, ref.method)


def _rhs_2_10_per_term(p):
    """I-2.10's right side summed one term at a time: the reference for the
    iterator sum in ``registry._rhs_2_10``."""
    acc = -math.log(2.0)
    acc += p * p * math.fsum((-1.0) ** (n % 2) / (n * (n * n - p * p))
                             for n in range(2, 4000))
    scale = K._sincos_pi(p)[0] / (2.0 * math.pi * p) if p else 0.5
    one_m = (1.0 - p) * (1.0 + p)
    first = -scale * p * p / one_m if one_m else -0.25
    return SeriesResult(scale * acc + first,
                        abs(scale) * p * p / (4000.0 * (4000.0 ** 2 - p * p)),
                        3999, "alternating")


def test_rhs_2_10_matches_per_term_reference():
    rng = random.Random(210)
    for p in [0.0, 0.5, 1.0] + [rng.random() for _ in range(500)]:
        new, ref = R._rhs_2_10(p), _rhs_2_10_per_term(p)
        assert new.value.hex() == ref.value.hex(), p
        assert new.abs_err.hex() == ref.abs_err.hex(), p
        assert (new.terms_used, new.method) == (ref.terms_used, ref.method)


def test_rhs_2_10_holds_no_term_list():
    # a list of its 3 998 terms would be ~0.13 MB, and nothing is kept
    R._rhs_2_10(0.3)
    tracemalloc.start()
    try:
        R._rhs_2_10(0.7)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024 and current < 1024, (current, peak)


def test_alt_quarter_sum_holds_no_term_list():
    # a list of its 100 000 terms would be ~3.2 MB
    R._alt_quarter_sum()
    tracemalloc.start()
    try:
        R._alt_quarter_sum()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


# ---------------------------------------------------------------------------
# the regularised sum lambda(v) in closed forms
# ---------------------------------------------------------------------------

_LAMBDA_RECORDS = ("I-1.8", "I-1.12", "I-1.13", "I-5.1", "I-5.5", "I-5.7")


def test_lam_is_lambda_fn_bit_for_bit():
    # test_kernels' two-route grid: [-1.3, 8] covers every v these reach
    for v in (-1.3 + 9.3 * i / 186 for i in range(187)):
        assert R._lam(v).hex() == K.lambda_fn(v).value.hex(), v


def test_verdicts_never_sum_the_lambda_series(monkeypatch):
    # lambda_fn's direct series only cross-checks its digamma value; the
    # verdicts skip it, and test_kernels' two-route grid runs it instead
    calls = []
    series = K._lambda_series
    monkeypatch.setattr(K, "_lambda_series",
                        lambda v: calls.append(v) or series(v))
    reg = Registry()
    reg.run_suite()
    for rid in _LAMBDA_RECORDS:
        rec = reg.record(rid)
        for params in (*rec.default_params,
                       *itertools.product(*rec.param_domain)):
            reg.verify_identity(rid, params)
    assert calls == []
    K.lambda_fn(1.0)  # the counter does see the public kernel's series
    assert calls == [1.0]
