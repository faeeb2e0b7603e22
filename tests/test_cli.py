"""Command-line front end tests: outputs, exit codes, report files."""

import importlib.util
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gammalab import cli, kernels, registry
from gammalab.registry import (
    EvalOptions,
    IdentityRecord,
    Recipe,
    Registry,
    build_records,
)
from gammalab.report import fmt15


def run(argv):
    return cli.main(argv)


def test_eval_fn_lambda_zero(capsys):
    assert run(["eval", "fn", "lambda", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("lambda 0 = 0.577215664901533")
    assert "±" in out


def test_eval_fn_si_zero(capsys):
    # Si(0) = 0 exactly; only Ci diverges there
    assert run(["eval", "fn", "si", "0"]) == 0
    assert capsys.readouterr().out == "si 0 = 0 ± 0\n"


def test_eval_integral_and_series(capsys):
    assert run(["eval", "integral", "Q-6.14"]) == 0
    assert "-0.0911478741597" in capsys.readouterr().out
    assert run(["eval", "series", "S-6.3"]) == 0
    out = capsys.readouterr().out
    assert "-0.693147180559" in out
    # a complex value: log Gamma(1 + i/2)
    assert run(["eval", "series", "PS-5.41", "0.5"]) == 0
    assert capsys.readouterr().out.startswith(
        "PS-5.41 0.5 = -0.190945499186779-0.244058298905428j ± ")


def test_eval_unknown_key(capsys):
    assert run(["eval", "series", "S-0.0"]) == 1
    assert run(["eval", "fn", "nosuch"]) == 1
    assert run(["eval", "integral", "Q-6.14", "3"]) == 1  # arity


def test_eval_rejects_non_integer_order(capsys):
    # an order or index is refused, not truncated to the integer below
    for argv in (["fn", "polygamma", "1.7", "2"],
                 ["fn", "bernoulli_poly", "2.5", "0.3"],
                 ["integral", "Q-4.4", "2.5"], ["series", "S-4.4-Tn", "2.5"]):
        assert run(["eval", *argv]) == 1, argv
        assert "must be an integer" in capsys.readouterr().err
    assert run(["eval", "fn", "polygamma", "1", "2"]) == 0


def test_verify_single_id(tmp_path, capsys):
    assert run(["verify", "--ids", "I-6.16"]) == 0
    out = capsys.readouterr().out
    assert "I-6.16" in out and "CONFIRMED" in out


def test_verify_unknown_id_lists_near_matches(capsys):
    assert run(["verify", "--ids", "NO-SUCH"]) == 1
    err = capsys.readouterr().err
    assert "unknown identity id" in err


def test_verify_all_writes_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    md = tmp_path / "report.md"
    code = run(["verify", "--all", "--json", str(path), "--md", str(md),
                "--no-timing"])
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == "1.3"
    assert len(doc["verdicts"]) >= 60
    assert not any("tol_class" in v for v in doc["verdicts"])
    assert doc["summary"]["failures"] == 0
    assert "wall_time" not in doc["verdicts"][0]
    text = md.read_text()
    assert "## Section 4" in text
    assert "Disputed items" in text
    capsys.readouterr()


def test_probe_rows_name_their_fields(tmp_path, capsys):
    # a probe's lhs and rhs are its cutoff increments d1 and d2, and its
    # residual is |d2| - |d1|: the console and the Markdown say so on the
    # probe rows alone, and the JSON report holds only the numbers
    md, js = tmp_path / "r.md", tmp_path / "r.json"
    assert run(["verify", "--ids", "P-logGcot,I-6.16", "--no-timing",
                "--md", str(md), "--json", str(js)]) == 0
    out = capsys.readouterr().out.splitlines()
    probe = json.loads(js.read_text())["verdicts"][1]
    assert probe["id"] == "P-logGcot"
    d1, d2 = (fmt15(probe[side]["value"]) for side in ("lhs", "rhs"))
    assert out[0].startswith("I-6.16 ") and "d1" not in out[0]
    assert out[1].endswith(f" lhs=d1={d1} rhs=d2={d2} "
                           "(cutoff increments; residual=|d2|-|d1|)")
    rows = {r.split()[1]: r for r in md.read_text().splitlines()
            if r.startswith(("| I-", "| P-"))}
    assert "d1" not in rows["I-6.16"]
    assert rows["P-logGcot"].startswith(
        f"| P-logGcot |  | d1 = {d1} | d2 = {d2} | \\|d2\\| - \\|d1\\| = ")
    assert "d1" not in js.read_text()


def test_verify_json_is_reproducible(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(["verify", "--section", "8", "--json", str(p1), "--no-timing"])
    run(["verify", "--section", "8", "--json", str(p2), "--no-timing"])
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_exit_two_on_refuted_confirmed(monkeypatch, capsys):
    records = build_records()
    good = next(r for r in records if r.id == "I-8.11")
    corrupted = IdentityRecord(
        good.id, good.section, good.anchor, good.lhs,
        Recipe("wrong", lambda p, b: (0.75, 1e-15)),
        good.expected)
    monkeypatch.setattr(cli, "Registry",
                        lambda: Registry(records=[corrupted]))
    assert run(["verify", "--all"]) == 2
    capsys.readouterr()


def test_sweep_identity(capsys):
    code = run(["sweep", "I-2.6", "--param", "p", "--from", "0.1",
                "--to", "0.9", "--steps", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("CONFIRMED") == 5


def test_sweep_verdicts_equal_verify(tmp_path, capsys):
    # one verdict path: a sweep over a DISPUTED record's default points
    # reports what `verify` does, the source's quoted values included
    sweep, verify = tmp_path / "sweep.json", tmp_path / "verify.json"
    assert run(["sweep", "I-3.14", "--param", "p", "--from", "0.5",
                "--to", "1.5", "--steps", "3", "--json", str(sweep),
                "--no-timing"]) == 0
    assert run(["verify", "--ids", "I-3.14", "--json", str(verify),
                "--no-timing"]) == 0
    capsys.readouterr()
    swept = json.loads(sweep.read_text())["verdicts"]
    assert swept == json.loads(verify.read_text())["verdicts"]
    assert [v["params"] for v in swept] == [[0.5], [1.0], [1.5]]
    assert all(v["diagnostics"]["reported"] == {} for v in swept)


def test_quad_level_cap_reaches_divergence_probes(monkeypatch, capsys):
    levels = []
    catalog = importlib.import_module("gammalab.integral_catalog")
    original = catalog.integrate

    def recording(f, a, b, limits=(None, None), tol=1e-10, max_level=10):
        levels.append(max_level)
        return original(f, a, b, limits, tol, max_level)
    monkeypatch.setattr(catalog, "integrate", recording)
    assert run(["verify", "--ids", "P-logGcot,P-logxcot",
                "--quad-level-cap", "4"]) == 0
    capsys.readouterr()
    assert levels == [4] * 6


def test_closed_form_quadratures_obey_options(monkeypatch, capsys):
    # the quadratures inside I-1.17's lhs and I-4.36's and I-6.37's closed
    # forms take the level cap like any quadrature route, and no tolerance
    # of their own, and report |scale| times their own error
    calls = []
    catalog = importlib.import_module("gammalab.integral_catalog")
    original = catalog.integrate

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)
    monkeypatch.setattr(catalog, "integrate", recording)
    assert run(["verify", "--ids", "I-1.17,I-4.36,I-6.37",
                "--quad-level-cap", "3"]) == 0
    capsys.readouterr()
    assert calls == [{"max_level": 3}] * 5
    reg = Registry()
    for rid, route, params, key, qparams, scale in [
            ("I-1.17", "lhs", (0.5,), "Q-1.1", (math.pi,),
             2.0 * math.pi ** 2 / -math.expm1(-math.pi)),
            ("I-4.36", "rhs", (), "Q-4.36", (), -0.5),
            ("I-6.37", "lhs", (), "Q-6.34", (), -2.0 / math.pi)]:
        recipe = getattr(reg.record(rid), route)
        calls.clear()
        value, err = recipe.evaluate(params, EvalOptions(level_cap=12))
        assert calls == [{"max_level": 12}]
        r = catalog.integral_catalog(key, qparams, max_level=12)
        assert (value, err) == (scale * r.value, abs(scale) * r.abs_err)


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    # every `$ gammalab ...` line of the README's command-line block runs,
    # so a removed flag cannot linger in the docs
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1]
    block = block.split("```console", 1)[1].split("```", 1)[0]
    lines = [line.removeprefix("$ gammalab ") for line in block.splitlines()
             if line.startswith("$ gammalab ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    # twice in one directory: the second run rewrites the first's reports
    for _ in range(2):
        for line in lines:
            assert run(shlex.split(line, comments=True)) == 0, line
        doc = json.loads((tmp_path / "report.json").read_text())
        assert len(doc["verdicts"]) == 222
    capsys.readouterr()


_REPORT_IDS = ["verify", "--ids", "I-8.11,I-3.14", "--no-timing"]


def _fresh_reports(tmp_path, capsys):
    """The bytes of ``_REPORT_IDS``' JSON and Markdown reports written
    into files that did not exist."""
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    js, md = fresh / "r.json", fresh / "r.md"
    assert run(_REPORT_IDS + ["--json", str(js), "--md", str(md)]) == 0
    capsys.readouterr()
    return js.read_bytes(), md.read_bytes()


def test_report_rewrite_gives_fresh_bytes(tmp_path, capsys):
    # a report is rewritten in place, not truncated first: over a longer
    # and over a shorter existing file it must leave exactly the fresh bytes
    fresh_js, fresh_md = _fresh_reports(tmp_path, capsys)
    js, md = tmp_path / "r.json", tmp_path / "r.md"
    longer = (b"x" * 3 * len(fresh_js), b"y" * 3 * len(fresh_md))
    for old_js, old_md in [longer, (b"{}\n", b"#\n")]:
        js.write_bytes(old_js)
        md.write_bytes(old_md)
        assert run(_REPORT_IDS + ["--json", str(js), "--md", str(md)]) == 0
        assert js.read_bytes() == fresh_js
        assert md.read_bytes() == fresh_md
    capsys.readouterr()


def test_report_rewrite_keeps_file_links_and_mode(tmp_path, capsys):
    fresh_js, _ = _fresh_reports(tmp_path, capsys)
    js, twin = tmp_path / "r.json", tmp_path / "twin.json"
    js.write_bytes(b"x" * 3 * len(fresh_js))
    js.chmod(0o640)
    os.link(js, twin)
    before = js.stat()
    assert run(_REPORT_IDS + ["--json", str(js)]) == 0
    capsys.readouterr()
    after = js.stat()
    assert (after.st_ino, after.st_nlink) == (before.st_ino, 2)
    assert after.st_mode == before.st_mode
    assert twin.read_bytes() == js.read_bytes() == fresh_js


def test_report_written_through_symlink(tmp_path, capsys):
    fresh_js, _ = _fresh_reports(tmp_path, capsys)
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"x" * 3 * len(fresh_js))
    link.symlink_to(target)
    assert run(_REPORT_IDS + ["--json", str(link)]) == 0
    capsys.readouterr()
    assert link.is_symlink()
    assert target.read_bytes() == fresh_js


def test_report_to_devnull(capsys):
    # a target that is not a regular file is written and not trimmed
    assert run(["verify", "--ids", "I-8.11", "--json", os.devnull,
                "--md", os.devnull]) == 0
    assert "CONFIRMED" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["verify", "--ids", "I-8.11", "--json", "{ok}", "--md", "{bad}"],
    ["sweep", "I-2.6", "--param", "p", "--from", "0.1", "--to", "0.9",
     "--steps", "3", "--json", "{bad}"],
    ["verify", "--ids", "I-8.11", "--json", "{new}", "--md", "{bad}"],
])
def test_unwritable_report_fails_before_the_work(argv, tmp_path, monkeypatch,
                                                 capsys):
    # the report paths are opened before any verdict is computed: a path
    # that cannot be written exits 1 at once, an existing report named
    # beside it keeps its bytes, and a new one is not left behind
    def no_work(*args, **kwargs):
        raise AssertionError("verified an identity")
    monkeypatch.setattr(Registry, "verify_identity", no_work)
    ok, bad = tmp_path / "ok.json", tmp_path / "missing" / "r.json"
    new = tmp_path / "new.json"
    ok.write_bytes(b"old report\n")
    argv = [a.format(ok=ok, bad=bad, new=new) for a in argv]
    assert run(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: cannot write report {bad}: "
                       "No such file or directory\n")
    assert ok.read_bytes() == b"old report\n"
    assert not new.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--ids", "I-8.11", "--json", "{new}", "--md", "{old}"],
    ["verify", "--ids", "I-8.11", "--json", "{old}", "--md", "{new}"],
    ["sweep", "I-2.6", "--param", "p", "--from", "0.1", "--to", "0.9",
     "--steps", "3", "--json", "{new}"],
])
def test_failed_run_removes_only_the_reports_it_created(argv, tmp_path,
                                                        monkeypatch, capsys):
    # a run that stops before writing its reports takes back the report
    # files it created, and leaves an existing one as it was
    def fail(*args, **kwargs):
        raise ValueError("no verdict")
    monkeypatch.setattr(Registry, "verify_identity", fail)
    new, old = tmp_path / "new.json", tmp_path / "old.md"
    old.write_bytes(b"old report\n")
    assert run([a.format(new=new, old=old) for a in argv]) == 1
    assert capsys.readouterr().err == "error: no verdict\n"
    assert not new.exists()
    assert old.read_bytes() == b"old report\n"


def test_sweep_rejects_non_parametric(capsys):
    assert run(["sweep", "I-6.16", "--param", "p", "--from", "0.1",
                "--to", "0.9", "--steps", "3"]) == 1


def test_sweep_rejects_bad_range(capsys):
    assert run(["sweep", "I-2.6", "--param", "p", "--from", "0.9",
                "--to", "0.1", "--steps", "5"]) == 1
    assert run(["sweep", "I-2.6", "--param", "q", "--from", "0.1",
                "--to", "0.9", "--steps", "5"]) == 1


def test_sweep_rejects_non_integer_index(capsys):
    # n = 1, 4.5, 8: the second step is refused, exit 1
    assert run(["sweep", "I-4.25", "--param", "n", "--from", "1",
                "--to", "8", "--steps", "3"]) == 1
    assert "must be an integer" in capsys.readouterr().err
    assert run(["sweep", "I-4.25", "--param", "n", "--from", "1",
                "--to", "8", "--steps", "8"]) == 0


def test_sweep_checks_whole_grid_before_first_row(capsys):
    # n = 1, 2.75, ...: the bad grid prints only the error, no n = 1 row
    assert run(["sweep", "I-4.25", "--param", "n", "--from", "1",
                "--to", "8", "--steps", "5"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "n must be an integer, got 2.75" in out.err
    assert run(["sweep", "I-4.25", "--param", "n", "--from", "1",
                "--to", "8", "--steps", "8"]) == 0
    assert capsys.readouterr().out.count("CONFIRMED") == 8


@pytest.mark.parametrize("argv, err", [
    (["verify", "--section", "9"], "error: no identities in section 9"),
    (["eval", "fn", "digamma", "1", "2"],
     "error: digamma takes 1 parameter(s)"),
    (["sweep", "I-99.9", "--param", "p", "--from", "0", "--to", "1",
      "--steps", "3"], "error: unknown identity id 'I-99.9'"),
    (["sweep", "I-2.6", "--param", "p", "--from", "-1", "--to", "0.5",
      "--steps", "3"], "error: sweep range outside domain [0.0, 2.0]")])
def test_cli_rejects_with_one_error_line(argv, err, capsys):
    assert run(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(err)
    assert out.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["polygamma", "1", "1e-200"],
                                  ["bernoulli_poly", "6", "1e300"],
                                  ["digamma", "1e-320"]])
def test_eval_fn_overflow_exits_1(argv, capsys):
    assert run(["eval", "fn", *argv]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:")
    assert "overflows" in out.err and "Traceback" not in out.err


@pytest.mark.parametrize("argv, message", [
    (["series", "FS-4.16", "1e-320"], "FS-4.16 is not finite"),
    (["integral", "Q-1.1", "--", "-1e300"], "math range error"),
    (["integral", "Q-6.15", "1e-320"], "division by zero"),
    (["integral", "Q-4.12.7", "7"], "Bernoulli order 15"),
    (["integral", "Q-4.12.7", "0"], "Bernoulli order 1,"),
    (["integral", "Q-2.6-moment", "--", "-1e300"],
     "error: Q-2.6-moment at (-1e+300,): math range error")])
def test_eval_numeric_failure_exits_1(argv, message, capsys):
    # FS-4.16 printed `= inf ± inf`, the quadratures a traceback or a bare
    # "math range error", and Q-4.12.7 returned a value past the Bernoulli
    # order cap and at the divergent n = 0
    assert run(["eval", *argv]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:")
    assert message in out.err and "Traceback" not in out.err


def test_eval_huge_bernoulli_index_exits_at_once():
    # the exact Bernoulli table was built to order 2n+1: this never returned
    out = _python("from gammalab.cli import main\n"
                  "raise SystemExit(main(['eval', 'integral', 'Q-4.12.7', "
                  "'1e17']))\n", timeout=10)
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.startswith("error: n = 1e+17")
    assert "Traceback" not in out.stderr


def test_eval_rejects_non_finite_parameter(capsys):
    for argv in (["series", "S-5.13", "inf"], ["series", "FS-8.13", "inf"],
                 ["series", "S-1.20", "nan"], ["integral", "Q-1.1", "inf"]):
        assert run(["eval", *argv]) == 1, argv
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:"), argv
        assert "must be finite" in out.err, argv


def test_list_filters(capsys):
    assert run(["list", "--section", "6"]) == 0
    out = capsys.readouterr().out
    assert "I-6.16" in out and "I-4.31" not in out
    assert run(["list", "--status", "DISPUTED"]) == 0
    out = capsys.readouterr().out
    assert "D-4.26" in out and "I-6.16" not in out


def test_list_statuses_are_the_catalogs():
    assert sorted(registry.EXPECTED_STATUSES) == sorted(
        {r.expected for r in Registry().list_identities()})


@pytest.mark.parametrize("argv, err", [
    (["--section", "99"], "error: no identities in section 99\n"),
    (["--section", "6", "--status", "DISPUTED"],
     "error: no identities in section 6 with expected status "
     "DISPUTED\n"),
    (["--status", "confirmed"], "invalid choice: 'confirmed'"),
])
def test_list_empty_selection_exits_1(argv, err, capsys):
    # an empty listing printed nothing and exited 0
    assert run(["list", *argv]) == 1
    out = capsys.readouterr()
    assert out.out == "" and err in out.err


def test_usage_error_exit_code(capsys):
    assert run(["verify", "--tol-class", "bogus"]) == 1
    # each record's own tolerance class decides: no flag overrides it
    assert run(["verify", "--ids", "I-6.16", "--tol-class", "strict"]) == 1
    assert "unrecognized arguments: --tol-class" in capsys.readouterr().err


def test_options_do_not_leak_between_calls(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    base = ["verify", "--ids", "I-5.45.3", "--no-timing", "--json"]
    assert run(base + [str(a)]) == 0
    run(base + [str(b), "--max-terms", "20"])
    assert run(base + [str(c)]) == 0
    capsys.readouterr()
    assert c.read_bytes() == a.read_bytes()


def test_parallel_verdicts_equal_serial(tmp_path, capsys):
    docs = []
    for par in ("1", "2"):
        path = tmp_path / f"p{par}.json"
        assert run(["verify", "--ids", "D-4.30,I-3.14,D-5.18,I-8.11",
                    "--no-timing", "--json", str(path),
                    "--parallelism", par]) == 0
        docs.append(json.loads(path.read_text()))
    capsys.readouterr()
    serial, parallel = docs
    assert parallel["verdicts"] == serial["verdicts"]
    assert parallel["summary"] == serial["summary"]
    assert parallel["config"] == {**serial["config"], "parallelism": 2}


@pytest.mark.parametrize("extra", [
    ["--max-terms", "0"],
    ["--quad-level-cap", "2"],
    ["--quad-level-cap", "15"],
    ["--parallelism", "0"],
])
def test_verify_rejects_bad_options(extra, capsys):
    assert run(["verify", "--ids", "I-6.16"] + extra) == 1
    assert "error:" in capsys.readouterr().err


def test_max_terms_reaches_disputed_series_route(monkeypatch, capsys):
    caps = []
    original = registry.sum_catalog

    def recording(key, params=(), max_terms=None):
        caps.append((key, max_terms))
        return original(key, params, max_terms)
    monkeypatch.setattr(registry, "sum_catalog", recording)
    assert run(["verify", "--ids", "D-5.18", "--max-terms", "20"]) == 0
    capsys.readouterr()
    assert caps == [("S-5.18", 20)]


def _python(script, *args, flags=(), timeout=120):
    """``python flags -c script args`` in a fresh process with this tree's
    ``src/`` on its path, stopped after ``timeout`` seconds."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *flags, "-c", script, *args],
                          env=env, capture_output=True, text=True,
                          timeout=timeout)


# registered before anything from gammalab, so it runs after every exit
# hook the process adds: it reports whether the heap was frozen at exit.
# It compares with the count read when it is registered, which a bare
# 3.12.1 process already puts at 375
_FREEZE_PROBE = ("import atexit, gc\n"
                 "atexit.register(lambda n=gc.get_freeze_count(): print(\n"
                 "    'frozen at exit:', gc.get_freeze_count() > n))\n")


_FORBIDDEN = ("typing", "numpy", "multiprocessing",
              "concurrent.futures.process", "dataclasses", "inspect",
              "fractions", "decimal", "json", "json.decoder", "json.scanner",
              "json.encoder")


@pytest.mark.parametrize("par", ["1", "2"])
def test_verify_all_import_guard(par, tmp_path):
    # the package has no runtime dependency, and every run computes in one
    # process: `import gammalab`, and then a whole cold run, lazy imports
    # and both reports included, must finish without numpy or the
    # process-pool machinery, whatever its --parallelism.  Its records and
    # results are collections.namedtuple classes and no annotation is
    # evaluated, so typing stays out; its Bernoulli numbers are integer
    # pairs, so fractions and decimal do too, and so do dataclasses and the
    # inspect it pulls in.  The reports are written without the json
    # package, whose decoder no command uses.  Its constants, Bernoulli
    # numbers and zeta tables are stored, its derived coefficient tables are
    # built on first use and its parameter-free series summed on first use,
    # so the import computes no table and sums no series.  The process then
    # exits with its heap frozen.  -S keeps out what a site .pth file
    # imports (typing, on some installs)
    js, md = str(tmp_path / "r.json"), str(tmp_path / "r.md")
    script = (_FREEZE_PROBE
              + "import sys\n"
              f"loaded = lambda: [m for m in {_FORBIDDEN!r}\n"
              "                  if m in sys.modules]\n"
              "import gammalab\n"
              "print(loaded())\n"
              "from gammalab import kernels, series_catalog as S\n"
              "print(*(f.cache_info().currsize for f in (\n"
              "    kernels._em_tail_coeffs, kernels._sici_coeffs,\n"
              "    kernels._two_zeta_even, kernels._lnG_taylor_coeffs,\n"
              "    kernels._cl2_coeffs, S._tn_orders,\n"
              "    S._sum_parameter_free)))\n"
              "from gammalab.cli import main\n"
              "rc = main(['verify', '--all', '--no-timing', '--parallelism',\n"
              f"           '{par}', '--json', {js!r}, '--md', {md!r}])\n"
              "print(loaded())\n"
              "sys.exit(rc)\n")
    out = _python(script, flags=["-S"])
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[:2] == ["[]", "0 0 0 0 0 0 0"]
    assert lines[-2:] == ["[]", "frozen at exit: True"]
    assert json.loads(Path(js).read_text())["summary"]["total"] == 222
    assert Path(md).read_text().startswith("# Identity verification")


def test_cold_suite_reads_stored_tables():
    # a cold `verify --all` takes zeta(k) - 1, zeta'(k), the log Gamma(1+y)
    # coefficients and FS-4.16's residuals from their stored tables: no
    # Euler-Maclaurin call under the functions that once built them, and
    # no S-4.4-Tn sum for FS-4.16.  The zeta tails of the series, at
    # a = N + 1, and zeta''(2) keep their calls
    script = (
        "import json, sys\n"
        "from gammalab import kernels, series_catalog\n"
        "TABLES = {'_zeta_m1', '_zeta_prime_int', '_lgamma1p_coeffs',\n"
        "          '_log_g_residuals'}\n"
        "seen = {'tables': 0, 'zeta_tail_sum': 0, '_em_log2gamma': 0,\n"
        "        's_4_4_tn': 0}\n"
        "em, tn = kernels._hurwitz_em, series_catalog.s_4_4_tn\n"
        "def stack():\n"
        "    f, names = sys._getframe(2), set()\n"
        "    while f is not None:\n"
        "        names.add(f.f_code.co_name)\n"
        "        f = f.f_back\n"
        "    return names\n"
        "def counted_em(*args, **kwargs):\n"
        "    names = stack()\n"
        "    seen['tables'] += bool(names & TABLES)\n"
        "    for name in ('zeta_tail_sum', '_em_log2gamma'):\n"
        "        seen[name] += name in names\n"
        "    return em(*args, **kwargs)\n"
        "def counted_tn(*args, **kwargs):\n"
        "    seen['s_4_4_tn'] += 1\n"
        "    return tn(*args, **kwargs)\n"
        "kernels._hurwitz_em = counted_em\n"
        "series_catalog.s_4_4_tn = counted_tn\n"
        "from gammalab.cli import main\n"
        "rc = main(['verify', '--all', '--no-timing'])\n"
        "print(json.dumps(seen), file=sys.stderr)\n"
        "sys.exit(rc)\n")
    out = _python(script)
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stderr.strip().splitlines()[-1])
    assert seen["tables"] == 0 and seen["s_4_4_tn"] == 0, seen
    assert seen["zeta_tail_sum"] > 0 and seen["_em_log2gamma"] == 1, seen


def test_parameter_free_series_memo_keeps_report_bytes(tmp_path, capsys):
    # each parameter-free series is summed once per process for each cap:
    # a `verify --all` run after a `--max-terms 5` run in the same process
    # writes the bytes a fresh process writes
    capped, warm = tmp_path / "capped.json", tmp_path / "warm.json"
    cold = tmp_path / "cold.json"
    cli.main(["verify", "--all", "--no-timing", "--max-terms", "5",
              "--json", str(capped)])
    assert cli.main(["verify", "--all", "--no-timing", "--json",
                     str(warm)]) == 0
    capsys.readouterr()
    out = _python("from gammalab.cli import main\n"
                  "raise SystemExit(main(['verify', '--all', '--no-timing',\n"
                  f"                       '--json', {str(cold)!r}]))\n")
    assert out.returncode == 0, out.stderr
    assert warm.read_bytes() == cold.read_bytes()
    assert capped.read_bytes() != cold.read_bytes()


def test_import_registers_no_exit_hook():
    # importing the library or the CLI module freezes nothing and adds no
    # exit hook: only a process that ran main() skips the final collections
    script = (_FREEZE_PROBE
              + "n = atexit._ncallbacks()\n"
              "import gammalab, gammalab.cli\n"
              "print('hooks added:', atexit._ncallbacks() - n)\n")
    out = _python(script)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["hooks added: 0",
                                       "frozen at exit: False"]


def test_main_registers_one_freeze_hook():
    # tests call main() many times in one process; its exit hook stays single
    script = ("import atexit, gc\n"
              "calls, freeze = [], gc.freeze\n"
              "gc.freeze = lambda: calls.append(freeze())\n"
              "atexit.register(lambda: print('freezes:', len(calls)))\n"
              "from gammalab.cli import main\n"
              "for argv in (['list'], ['list'], ['eval', 'fn', 'si', '0']):\n"
              "    main(argv)\n")
    out = _python(script)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "freezes: 1"


_CONSOLE = "import sys; from gammalab.cli import main; sys.exit(main())"


@pytest.mark.parametrize("argv, reports, last", [
    (["verify", "--ids", "I-4.31,I-6.16", "--no-timing", "--json",
      "{d}/a.json", "--md", "{d}/b.md"], ["a.json", "b.md"],
     "summary: CONFIRMED=2; failures=0"),
    (["sweep", "I-2.6", "--param", "p", "--from", "0.1", "--to", "0.9",
      "--steps", "5", "--no-timing", "--json", "{d}/c.json"], ["c.json"],
     "p=0.9 "),
    (["eval", "fn", "lambda", "0"], [], "lambda 0 = "),
    (["list"], [], "P-logxcot "),
], ids=["verify", "sweep", "eval", "list"])
def test_cli_process_exit_path(argv, reports, last, tmp_path, capsys):
    # the console script's process, which exits with a frozen heap, prints
    # and writes what the same command run through main() does
    sub, here = tmp_path / "sub", tmp_path / "here"
    sub.mkdir()
    here.mkdir()
    out = _python(_CONSOLE, *[a.format(d=sub) for a in argv])
    assert run([a.format(d=here) for a in argv]) == 0
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == capsys.readouterr().out
    assert out.stdout.splitlines()[-1].startswith(last)
    written = {p.name: p.read_bytes() for p in sub.iterdir()}
    assert sorted(written) == reports
    assert written == {p.name: p.read_bytes() for p in here.iterdir()}


def test_cli_process_unwritable_report_exits_1(tmp_path):
    bad = tmp_path / "missing" / "r.json"
    out = _python(_CONSOLE, "verify", "--ids", "I-6.16", "--json", str(bad))
    assert out.returncode == 1
    assert (out.stdout, out.stderr) == (
        "", f"error: cannot write report {bad}: No such file or directory\n")


def test_verify_all_passes_benchmark_reference(tmp_path, monkeypatch):
    # the gate the benchmark applies to every `verify-all` iteration: same
    # statuses as its reference file, and no route value drifting from it
    # by more than both errors
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    if not (bench / "run.py").exists():
        pytest.skip("no perfbench/ next to the tests")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  bench / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    out = tmp_path / "report.json"
    assert run(["verify", "--all", "--no-timing", "--json", str(out)]) == 0
    verdicts = json.loads(out.read_text())["verdicts"]
    reference = json.loads(bench_run.REFERENCE.read_text())
    assert bench_run.check_report(verdicts, reference) == (0, False)


def test_sweep_pass_passes_benchmark_reference(monkeypatch):
    # the gate the benchmark applies to every `sweep` pass: each failing
    # (round, id) is one its reference file lists, and a pass fails no more
    # than the 408 verdicts of the non-integer draws of integer indices
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    if not (bench / "worker.py").exists():
        pytest.skip("no perfbench/ next to the tests")
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  bench / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    # the pass's Hurwitz zeta work, 5 298 calls in a fresh process: 9 609
    # when S-5.13 closed its tail with 39 orders, not the 9 it needs now
    calls = [0]
    hurwitz_em = kernels._hurwitz_em

    def counted(*args, **kwargs):
        calls[0] += 1
        return hurwitz_em(*args, **kwargs)
    monkeypatch.setattr(kernels, "_hurwitz_em", counted)
    # and no verdict's residual is outside its two bars, its whole budget
    # (the pool's I-1.8 draw at p = 0.00405 was, at 1.49x, before its rhs
    # took the Bernoulli series)
    out_of_bars = []
    verify = Registry.verify_identity

    def checked(self, *args, **kwargs):
        v = verify(self, *args, **kwargs)
        if v.residual > v.lhs_err + v.rhs_err:
            out_of_bars.append(v)
        return v
    monkeypatch.setattr(Registry, "verify_identity", checked)
    res = worker.run_sweep({"seed": 0, "pass": 0})
    reference = json.loads((bench / "reference" / "sweep.json").read_text())
    known = {(i, rid) for i, rid, _ in reference["failing"]}
    assert res["tally"]["attempted"] == reference["verdicts"]
    assert [f for f in res["failures"] if (f[0], f[1]) not in known] == []
    assert len(res["failures"]) <= 408
    assert calls[0] <= 5300
    assert out_of_bars == []


def test_perfbench_tracer_binds_current_names(tmp_path, monkeypatch):
    # perfbench wraps gammalab functions by the names its callers look up,
    # so a rename in the package breaks a traced benchmark run: run one,
    # and resolve every kernel name the reference maker records; I-1.12's
    # quadrature is the one on a finite interval, so it reaches quad.integrate
    root = Path(__file__).resolve().parents[1]
    bench = root / "perfbench"
    if not (bench / "worker.py").exists():
        pytest.skip("no perfbench/ next to the tests")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, str(bench / "worker.py"), "cli", str(tmp_path), "--",
         "verify", "--ids", "I-1.12,I-3.8,I-5.4,I-4.16", "--no-timing"],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    (spans_file,) = tmp_path.glob("spans-*.json")
    names = {span[0] for span in json.loads(spans_file.read_text())["spans"]}
    assert {"series_catalog", "series_catalog.ps", "integral_catalog",
            "quad.integrate"} <= names, names
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location(
        "perfbench_make_reference", bench / "make_reference.py")
    make_reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_reference)
    from gammalab import kernels
    missing = [name for src in make_reference.SOURCES.values()
               for name in src if not hasattr(kernels, name)]
    assert missing == []
