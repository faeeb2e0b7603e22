"""Registry tests: catalog contracts, verdict semantics, determinism,
route independence, dispute adjudication."""

import math
from dataclasses import replace

import pytest

from gammalab.errors import DomainError, UnknownKeyError
from gammalab.integral_catalog import integral_catalog
from gammalab.registry import (
    EvalOptions,
    IdentityRecord,
    Recipe,
    Registry,
    TOL_CLASS,
    build_records,
    failures,
)
from gammalab.series_catalog import sum_catalog


@pytest.fixture(scope="module")
def reg():
    return Registry()


@pytest.fixture(scope="module")
def all_verdicts(reg):
    return reg.run_suite()


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
    def rec_with_gap(gap):
        return IdentityRecord(
            "I-9.2", 9, "scratch: controlled residual",
            Recipe("a", lambda p, b: (1.0, 0.0)),
            Recipe("b", lambda p, b: (1.0 + gap, 0.0)))
    tol = TOL_CLASS["strict"]
    assert Registry([rec_with_gap(0.5 * tol)]).verify_identity(
        "I-9.2").status == "CONFIRMED"
    assert Registry([rec_with_gap(50 * tol)]).verify_identity(
        "I-9.2").status == "INCONCLUSIVE"
    assert Registry([rec_with_gap(1e4 * tol)]).verify_identity(
        "I-9.2").status == "REFUTED"


def test_suite_green_except_for_claimed_disputes(all_verdicts):
    assert failures(all_verdicts) == []
    bad = [v for v in all_verdicts
           if v.status != "CONFIRMED" and v.expected == "CONFIRMED"]
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
        swapped = Registry([replace(rec, lhs=rec.rhs, rhs=rec.lhs)]) \
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
    assert v.tol_class == "strict"
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
    assert replace(adjudicated, wall_time=0.0) == replace(suite,
                                                          wall_time=0.0)
    assert adjudicated.diagnostics["reported"] == {}


def test_probes_confirm_divergence(reg):
    for rid in ("P-logGcot", "P-logxcot"):
        v = reg.verify_identity(rid)
        assert v.expected == "DIVERGENT-PROBE"
        assert v.status == "CONFIRMED"
        assert len(v.diagnostics["values"]) == 3


def test_probes_reject_parameters(reg):
    # a probe takes no parameter: it must not answer a request it ignores
    for rid in ("P-logGcot", "P-logxcot"):
        with pytest.raises(DomainError, match="takes 0 parameter"):
            reg.verify_identity(rid, (1.0,))


def test_run_suite_rejects_empty_selection(reg):
    with pytest.raises(DomainError):
        reg.run_suite(section=9)


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
        good.tol_class, good.expected)
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
