"""JSON report tests: ``report.to_json`` writes exactly the bytes of
``json.dumps(doc, indent=2)`` over the reference document built below, and
the suite's report has the same bytes on every supported Python."""

import hashlib
import json
import math

import pytest

from gammalab import cli
from gammalab.registry import Registry, Verdict
from gammalab.report import build_report, to_json

# sha256 of the file `gammalab verify --all --no-timing --json PATH` writes;
# the same on CPython 3.10, 3.11, 3.12 and 3.13
SUITE_DIGEST = (
    "283785c444d8bf2bc06a66d1ac5f9750612582cb5cf1b331ab6f45d1d7c32516")


def _num(x):
    if not math.isfinite(x):
        return repr(x)
    return float(format(x, ".15g"))


def _verdict_dict(v, anchor, timing):
    d = {
        "id": v.id,
        "anchor": anchor,
        "params": [_num(p) for p in v.params],
        "lhs": {"value": _num(v.lhs_value), "abs_err": _num(v.lhs_err)},
        "rhs": {"value": _num(v.rhs_value), "abs_err": _num(v.rhs_err)},
        "residual": _num(v.residual),
        "budget": _num(v.budget),
        "status": v.status,
        "expected_status": v.expected,
    }
    if timing:
        d["wall_time"] = v.wall_time
    if v.note:
        d["note"] = v.note
    if v.diagnostics:
        d["diagnostics"] = {
            k: [_num(x) for x in val] if isinstance(val, list) else val
            for k, val in v.diagnostics.items()}
    return d


def reference_json(report, timing):
    """The report as one document through ``json.dumps(indent=2)``."""
    doc = {
        "schema_version": report.schema_version,
        "config": report.config,
        "verdicts": [_verdict_dict(v, report.anchors.get(v.id, ""), timing)
                     for v in report.verdicts],
        "summary": report.summary,
    }
    if timing:
        doc["total_wall_time"] = report.total_wall_time
    return json.dumps(doc, indent=2)


@pytest.fixture(scope="module")
def reg():
    return Registry()


@pytest.fixture(scope="module")
def suite(reg):
    return build_report(reg, reg.run_suite(), {
        "max_terms": "per-entry", "quad_level_cap": 10, "parallelism": 1})


@pytest.mark.parametrize("timing", [True, False])
def test_suite_report_equals_reference(suite, timing):
    assert len(suite.verdicts) == 222
    assert to_json(suite, timing) == reference_json(suite, timing)


@pytest.mark.parametrize("timing", [True, False])
def test_sweep_report_equals_reference(timing, tmp_path, monkeypatch, capsys):
    seen = []

    def recorded(report, timing):
        seen.append((report, timing))
        return to_json(report, timing)
    monkeypatch.setattr(cli, "to_json", recorded)
    path = tmp_path / "sweep.json"
    argv = ["sweep", "I-3.14", "--param", "p", "--from", "0.5", "--to",
            "1.5", "--steps", "3", "--json", str(path)]
    assert cli.main(argv + ([] if timing else ["--no-timing"])) == 0
    capsys.readouterr()
    ((report, used),) = seen
    assert used is timing
    assert path.read_text() == reference_json(report, timing) + "\n"


def _crafted(**fields):
    base = dict(id="X-1", params=(0.5,), lhs_value=1.0, lhs_err=1e-16,
                rhs_value=1.0, rhs_err=2e-16, residual=0.0, budget=3e-16,
                status="CONFIRMED", expected="CONFIRMED", wall_time=1.5e-4)
    return Verdict(**{**base, **fields})


_EDGES = (1e15, 999999999999999.9, 1e15 + 0.5, 1234567890123456.0,
          9999999999999998.0, 1e16, 1e300, -1e300, 1e-300, 5e-324,
          1.7976931348623157e308, -1.7976931348623157e308, -0.0, 3)

CRAFTED = {
    "route failure": _crafted(
        lhs_value=math.nan, lhs_err=math.inf, rhs_value=math.nan,
        rhs_err=math.inf, residual=math.inf, budget=-math.inf,
        status="INCONCLUSIVE", note="route failure: overflow"),
    "note text": _crafted(note='a "quoted" word, é, ✓ and a\nnewline\t\\'),
    "disputed": _crafted(expected="DISPUTED", diagnostics={
        "reported": {"lhs": -0.121552, "rhs": 1e300, "é": "\n"}}),
    "disputed, no quotes": _crafted(expected="DISPUTED",
                                    diagnostics={"reported": {}}),
    "probe": _crafted(params=(), diagnostics={
        "values": [1.0 / 3.0, math.nan, math.inf, *_EDGES]}),
    "no params": _crafted(params=()),
    "edge values": _crafted(params=_EDGES, lhs_value=_EDGES[1],
                            lhs_err=_EDGES[8], rhs_value=_EDGES[2],
                            rhs_err=_EDGES[9], residual=_EDGES[10],
                            budget=_EDGES[11]),
}


@pytest.mark.parametrize("timing", [True, False])
@pytest.mark.parametrize("name", CRAFTED)
def test_crafted_verdict_equals_reference(name, timing):
    v = CRAFTED[name]
    report = build_report(Registry([]), [], {"sweep": "X-1", "é": [1, 2.5]})
    report = report._replace(verdicts=[v, v], summary={"total": 2},
                             anchors={v.id: "anchor \"é\""})
    assert to_json(report, timing) == reference_json(report, timing)


@pytest.mark.parametrize("timing", [True, False])
def test_empty_report_equals_reference(timing):
    report = build_report(Registry([]), [], {})
    assert to_json(report, timing) == reference_json(report, timing)


NESTED = {
    "empty dict": {},
    "empty list": [],
    "nested": {"a": {}, "b": [[], {"c": [1, {"d": None}]}], "e": True,
               "f": False, "g": (2, ())},
    "numbers": [0, -7, 10 ** 30, -0.0, 0.1, 5e-324, 1e16,
                1.7976931348623157e308, -1.7976931348623157e308],
    "non-finite": {"nan": math.nan, "inf": math.inf, "-inf": -math.inf},
    "strings": {'"': "\\", "a\nb": "\t", "é": ["✓", ""]},
    "string": 'a "quoted" é ✓',
    "int": 3,
    "float": -0.0,
    "none": None,
    "true": True,
    "false": False,
}


@pytest.mark.parametrize("pad", ["", "  ", "      "])
@pytest.mark.parametrize("name", NESTED)
def test_nested_part_equals_json_dumps(name, pad):
    # config, summary and diagnostics are written without the json package
    from gammalab.report import _nested
    part = NESTED[name]
    assert _nested(part, pad) == json.dumps(part, indent=2).replace(
        "\n", "\n" + pad)


@pytest.mark.parametrize("part", [{(1,): 2}, {1: 2}, {"a": [{1.5}]},
                                  object()], ids=["tuple key", "int key",
                                                  "set", "object"])
def test_nested_part_raises_type_error(part):
    # as json.dumps does, except that an int key is refused too, not
    # written as a string: every key of a report part is a string
    from gammalab.report import _nested
    with pytest.raises(TypeError):
        _nested(part, "")


def _float_grid():
    """Every binary exponent at a few mantissas, and each power of ten with
    its neighbours and the values that round up to it at 15 digits."""
    for e in range(-1074, 1024):
        for m in (1.0, 1.2345678901234567, 1.5, 1.9999999999999998):
            yield math.ldexp(m, e)
    for k in range(-324, 309):
        for m in ("1", "9.99999999999999", "9.999999999999995", "5"):
            x = float(f"{m}e{k}")
            yield from (x, math.nextafter(x, 0.0), math.nextafter(x, math.inf))


def test_number_text_equals_json_of_the_rounded_value():
    # the fast path writes format(x, ".15g") itself; it must still give
    # what json.dumps writes for the rounded value, over the whole range
    from gammalab.report import _number
    values = [s * x for x in _float_grid() for s in (1.0, -1.0)]
    values += [0.0, -0.0, 5e-324, 1.7976931348623157e308, 3]
    bad = [x for x in values if _number(x) != json.dumps(_num(x))]
    assert len(values) > 20000
    assert bad == []


def test_suite_report_digest(tmp_path, capsys):
    # the same bytes on every supported Python: no float total may depend
    # on the interpreter's builtin sum (see test_float_sum_guard.py)
    path = tmp_path / "report.json"
    assert cli.main(["verify", "--all", "--no-timing", "--json",
                     str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SUITE_DIGEST
