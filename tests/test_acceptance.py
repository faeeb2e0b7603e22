"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here and nowhere else."""

import json
import math

import pytest

from gammalab import cli
from gammalab import kernels as K
from gammalab.integral_catalog import integral_catalog, probe_cauchy
from gammalab.registry import Registry
from gammalab.series_catalog import sum_catalog

C = K.get_constants()
PI = math.pi


@pytest.fixture(scope="module")
def reg():
    return Registry()


def _report(n, ok, desc):
    print(f"ACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, desc


def test_criterion_01_gamma1_cot_integral(reg):
    lhs = integral_catalog("Q-4.31")
    rhs = (C.gamma1 + 0.5 * (C.zeta2 + C.gamma ** 2)) / (2 * PI)
    ok = (round(lhs.value, 6) == 0.145824 and round(rhs, 6) == 0.145824
          and abs(lhs.value - rhs) <= 1e-7)
    _report(1, ok, "x log Gamma cot integral = 0.145824 (6 dp), routes "
                   "within 1e-7")


def test_criterion_02_sine_moment(reg):
    v = reg.verify_identity("I-6.16")
    ok = abs(v.lhs_value - C.gamma / (4 * PI)) <= 1e-9
    _report(2, ok, "x log Gamma sine moment = gamma/(4 pi) within 1e-9")


def test_criterion_03_log_gamma_sin_pi(reg):
    lhs = integral_catalog("Q-3.13")
    ok = abs(lhs.value - (math.log(PI / 2) + 1.0) / PI) <= 1e-9
    _report(3, ok, "log Gamma sin(pi x) integral = (log(pi/2)+1)/pi "
                   "within 1e-9")


def test_criterion_04_barnes_cot_integral(reg):
    lhs = integral_catalog("Q-4.33")
    rhs = (C.gamma1 + 0.5 * C.gamma ** 2) / (2 * PI)
    ok = (round(lhs.value, 7) == round(0.0149245, 7) or
          abs(lhs.value - 0.0149245) <= 5e-8) and abs(lhs.value - rhs) <= 1e-8
    _report(4, ok, "log G cot integral reproduces 0.0149245 against the "
                   "gamma_1 form")


def test_criterion_05_cos2_transform(reg):
    lhs = integral_catalog("Q-6.14")
    closed = 0.25 * (math.log(PI) - C.gamma + 2.0 * K._sici_raw(PI)[1]
                     - 3.0 * math.log(2.0) + 1.0)
    ok = (abs(lhs.value - (-0.09114787)) <= 1e-7
          and abs(lhs.value - closed) <= 1e-9)
    _report(5, ok, "psi(1+x) cos^2 integral = -0.09114787 and matches the "
                   "Ci(pi) closed form")


def test_criterion_06_zeta3_pair(reg):
    i634 = integral_catalog("Q-6.34")
    ok1 = abs(i634.value - (2.0 - 3.5 * C.zeta3) / PI ** 2) <= 1e-8
    i624 = integral_catalog("Q-6.24")
    ok2 = abs(i624.value - (7.0 * C.zeta3 - 4.0) / PI ** 3) <= 1e-8
    _report(6, ok1 and ok2, "psi x(1-x) cos and its cot companion hit the "
                            "zeta(3) closed forms within 1e-8")


def test_criterion_07_exponential_sweep(reg):
    ok = True
    for p in (-2.0, -0.5, 0.5, 1.0, 3.0):
        v = reg.verify_identity("I-1.8", (p,))
        ok = ok and v.residual <= 1e-8
    _report(7, ok, "exponential transform matches its series form within "
                   "1e-8 for p in {-2,-0.5,0.5,1,3}")


def test_criterion_08_series_closed_forms(reg):
    targets = [
        ("S-6.3", -math.log(2.0)),
        ("S-6.6", math.log(PI / 2.0)),
        ("S-5.46.2", 0.25),
        ("S-5.56", 0.5 * (C.gamma + C.log_2pi - 3.0)),
        ("S-5.58.1", 0.5 * (C.gamma - C.log_2pi) + 1.0),
    ]
    ok = all(abs(sum_catalog(k).value - v) <= 1e-9 for k, v in targets)
    _report(8, ok, "five accelerated series land on their closed forms "
                   "within 1e-9")


def test_criterion_09_adjudications(reg):
    ok = True
    for rid in ("D-4.26", "D-4.27", "D-5.18", "D-7.11"):
        v = reg.verify_identity(rid)
        ok = ok and v.lhs_err < 1e-8 and v.rhs_err < 1e-8
        ok = ok and math.isfinite(v.lhs_value) and math.isfinite(v.rhs_value)
    d518 = reg.verify_identity("D-5.18")
    # the series side settles the reported gap: it lands on the closed
    # form -0.1885012, not on the quoted machine value -0.187878
    ok = ok and abs(d518.lhs_value - (-0.1885012)) < 1e-6
    ok = ok and abs(d518.lhs_value - (-0.187878)) > 1e-4
    d711 = reg.verify_identity("D-7.11")
    ok = ok and round(d711.lhs_value, 6) == -0.176012
    ok = ok and round(-d711.rhs_value, 6) == 0.176012
    _report(9, ok, "disputed items produce 8-digit sides; the series side "
                   "settles the quarter-square gap; the alternating pair "
                   "reproduces -/+0.176012")


def test_criterion_10_property_suites(reg):
    # spot-check the probe and honesty properties here; the full property
    # suites run in the dedicated test modules
    ok = True
    for which in ("logGamma_cot", "logx_cot"):
        vals = [probe_cauchy(which, eps).value for eps in (1e-2, 1e-3, 1e-4)]
        ok = ok and abs(vals[2] - vals[1]) > 0.5 * abs(vals[1] - vals[0])
    r = integral_catalog("Q-6.17", (1.0,))
    ok = ok and abs(r.value - 0.25) <= 2.0 * r.abs_err
    for v in (0.0, 1.5, 3.0):
        a, ea = K._lambda_digamma(v)
        b, eb = K._lambda_series(v)
        ok = ok and abs(a - b) <= ea + eb
    _report(10, ok, "invariant spot checks: divergence probes non-Cauchy, "
                    "honesty margin, two-route agreement")


def test_criterion_11_full_suite_gate(reg, tmp_path, capsys):
    path = tmp_path / "report.json"
    code = cli.main(["verify", "--all", "--json", str(path), "--no-timing"])
    capsys.readouterr()
    doc = json.loads(path.read_text())
    n = len(doc["verdicts"])
    bad = [v for v in doc["verdicts"]
           if v["expected_status"] == "CONFIRMED" and v["status"] == "REFUTED"]
    ok = code == 0 and n >= 60 and not bad
    _report(11, ok, f"verify --all exits 0 with {n} verdicts and zero "
                    "REFUTED among expected-CONFIRMED")
