"""Command-line front end: verify / eval / sweep / list.

Exit codes: 0 success, 1 usage or internal error, 2 verification failure
(an expected-CONFIRMED identity came back REFUTED).  A report path that
cannot be opened for writing exits 1 with ``error: cannot write report
PATH: <reason>`` before any identity is verified, and leaves an existing
report as it was.  A run that stops before writing its reports removes
the report files it created.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import stat
import sys
from contextlib import ExitStack, suppress

from . import kernels
from .errors import GammalabError, integer_arg
from .integral_catalog import integral_catalog, list_integral_ids
from .registry import EXPECTED_STATUSES, EvalOptions, Registry, failures
from .report import build_report, fmt15, to_json, to_markdown
from .series_catalog import list_series_ids, sum_catalog


_FN_KEYS = {
    "log_gamma": (kernels.log_gamma, 1),
    "digamma": (kernels.digamma, 1),
    "polygamma": (lambda k, x: kernels.polygamma(integer_arg(k, "k"), x),
                  2),
    "lambda": (kernels.lambda_fn, 1),
    "si": (kernels.sine_integral, 1),
    "ci": (lambda x: kernels.sici(x)[1], 1),
    "ei": (kernels.exp_integral, 1),
    "zeta": (lambda s: kernels.zeta_family("zeta", s), 1),
    "zeta_prime": (lambda s: kernels.zeta_family("zeta_prime", s), 1),
    "zeta_prime2_at_2": (lambda: kernels.zeta_family("zeta_prime2_at_2"), 0),
    "zeta_prime_neg1": (lambda: kernels.zeta_family("zeta_prime_neg1"), 0),
    "hurwitz": (lambda s, a: kernels.zeta_family("hurwitz", s, a), 2),
    "gamma1": (kernels.stieltjes_gamma1, 0),
    "log_barnes_g": (kernels.log_barnes_g, 1),
    "clausen_cl2": (kernels.clausen_cl2, 1),
    "bernoulli_poly": (lambda n, x: kernels.bernoulli_poly(
        integer_arg(n, "n"), x), 2),
}


def _near_matches(key: str, pool) -> str:
    import difflib
    close = difflib.get_close_matches(key, list(pool), n=4, cutoff=0.4)
    return f" (near matches: {', '.join(close)})" if close else ""


# no O_TRUNC: on ext4, a file truncated to zero and rewritten has its new
# data forced to disk when it is closed, tens of ms a report
_REPORT_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _open_report(reports: ExitStack, path: str | None):
    """``path`` opened for text writing at its start, created with the
    default mode if missing but not truncated, and closed with ``reports``;
    None for no path.  An existing file keeps its inode, links and mode; a
    file this call creates is removed again if ``reports`` closes before
    :func:`_write_report` has written it."""
    if not path:
        return None
    try:
        try:
            fd = os.open(path, _REPORT_FLAGS | os.O_EXCL, 0o666)
            created = True
        except FileExistsError:
            fd = os.open(path, _REPORT_FLAGS, 0o666)
            created = False
    except OSError as exc:
        raise ValueError(f"cannot write report {path}: "
                         f"{exc.strerror or exc}") from None
    fh = reports.enter_context(open(fd, "w"))
    if created:
        reports.callback(_remove_unwritten, fh, path)
    return fh


def _remove_unwritten(fh, path: str) -> None:
    """Close and remove the report file ``path`` this run created, unless
    :func:`_write_report` has written and closed ``fh``."""
    if not fh.closed:
        fh.close()
        with suppress(FileNotFoundError):
            os.unlink(path)


def _write_report(fh, text: str) -> None:
    """Write ``text`` and a newline over ``fh`` from its start, trim a
    regular file to them (/dev/null and pipes cannot be trimmed) and close
    ``fh``."""
    with fh:
        fh.write(text)
        fh.write("\n")
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _run_suite(reg: Registry, records, args, opts: EvalOptions):
    """The suite's verdicts for ``records``, all computed in this process;
    ``args.parallelism``, read here by perfbench's tracer, is only recorded."""
    return reg.run_suite([r.id for r in records], opts=opts)


def cmd_verify(args) -> int:
    opts = EvalOptions(args.max_terms, args.quad_level_cap)
    if args.parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    reg = Registry()
    if args.ids:
        records = []
        for rid in args.ids.split(","):
            rid = rid.strip()
            try:
                records.append(reg.record(rid))
            except GammalabError:
                known = [r.id for r in reg.list_identities()]
                print(f"error: unknown identity id {rid!r}"
                      f"{_near_matches(rid, known)}", file=sys.stderr)
                return 1
    elif args.section is not None:
        records = reg.list_identities(section=args.section)
        if not records:
            print(f"error: no identities in section {args.section}",
                  file=sys.stderr)
            return 1
    else:
        records = reg.list_identities()
    with ExitStack() as reports:
        json_fh = _open_report(reports, args.json)
        md_fh = _open_report(reports, args.md)
        verdicts = _run_suite(reg, records, args, opts)
        report = build_report(reg, verdicts, {
            "max_terms": opts.max_terms or "per-entry",
            "quad_level_cap": opts.level_cap,
            "parallelism": args.parallelism})
        timing = not args.no_timing
        if json_fh:
            _write_report(json_fh, to_json(report, timing=timing))
        if md_fh:
            _write_report(md_fh, to_markdown(report, reg, timing=timing))
    for v in verdicts:
        pstr = "(" + ", ".join(fmt15(p) for p in v.params) + ")"
        print(f"{v.id:12s} {pstr:18s} {v.status:12s} "
              f"residual={fmt15(v.residual)} budget={fmt15(v.budget)}")
    bad = failures(verdicts)
    counts = report.summary["counts"]
    print("summary: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
          + f"; failures={len(bad)}")
    return 2 if bad else 0


def cmd_eval(args) -> int:
    params = tuple(float(p) for p in args.params)
    key = args.key
    try:
        if args.kind == "fn":
            if key not in _FN_KEYS:
                print(f"error: unknown function {key!r}"
                      f"{_near_matches(key, _FN_KEYS)}", file=sys.stderr)
                return 1
            fn, nparams = _FN_KEYS[key]
            if len(params) != nparams:
                print(f"error: {key} takes {nparams} parameter(s)",
                      file=sys.stderr)
                return 1
            r = fn(*params)
            value, err = r.value, r.abs_err
        elif args.kind == "series":
            r = sum_catalog(key, params)
            value, err = r.value, r.abs_err
        else:
            r = integral_catalog(key, params)
            value, err = r.value, r.abs_err
    except (GammalabError, ArithmeticError) as exc:
        pool = (list_series_ids() if args.kind == "series"
                else list_integral_ids() if args.kind == "integral" else [])
        extra = _near_matches(key, pool) if "unknown" in str(exc) else ""
        print(f"error: {exc}{extra}", file=sys.stderr)
        return 1
    pstr = " ".join(fmt15(p) for p in params)
    print(f"{key} {pstr} = {fmt15(value)} ± {fmt15(err)}".replace("  ", " "))
    return 0


def cmd_sweep(args) -> int:
    reg = Registry()
    try:
        rec = reg.record(args.id)
    except GammalabError:
        known = [r.id for r in reg.list_identities()]
        print(f"error: unknown identity id {args.id!r}"
              f"{_near_matches(args.id, known)}", file=sys.stderr)
        return 1
    if not rec.param_names:
        print(f"error: {args.id} is not parametric", file=sys.stderr)
        return 1
    if args.param not in rec.param_names:
        print(f"error: {args.id} has parameters {rec.param_names}",
              file=sys.stderr)
        return 1
    if args.steps < 2 or not args.start < args.stop:
        print("error: need steps >= 2 and from < to", file=sys.stderr)
        return 1
    idx = rec.param_names.index(args.param)
    lo, hi = rec.param_domain[idx]
    if not (lo <= args.start and args.stop <= hi):
        print(f"error: sweep range outside domain [{lo}, {hi}]",
              file=sys.stderr)
        return 1
    base = list(rec.default_params[0])
    # every grid point is checked before the first row is printed
    grid = []
    for k in range(args.steps):
        val = args.start + (args.stop - args.start) * k / (args.steps - 1)
        base[idx] = val
        grid.append(tuple(base))
        reg.check_params(rec, grid[-1])
    with ExitStack() as reports:
        json_fh = _open_report(reports, args.json)
        rows = []
        for params in grid:
            v = reg.verify_identity(args.id, params)
            rows.append(v)
            print(f"{args.param}={fmt15(params[idx]):22s} "
                  f"lhs={fmt15(v.lhs_value):22s} "
                  f"rhs={fmt15(v.rhs_value):22s} "
                  f"residual={fmt15(v.residual):13s} {v.status}")
        if json_fh:
            report = build_report(reg, rows, {"sweep": args.id,
                                              "param": args.param})
            _write_report(json_fh, to_json(report,
                                           timing=not args.no_timing))
    return 0


def cmd_list(args) -> int:
    reg = Registry()
    records = reg.list_identities(section=args.section, expected=args.status)
    if not records:
        where = [] if args.section is None else [f"in section {args.section}"]
        if args.status:
            where.append(f"with expected status {args.status}")
        print(f"error: no identities {' '.join(where)}", file=sys.stderr)
        return 1
    for rec in records:
        pnames = ",".join(rec.param_names) or "-"
        print(f"{rec.id:12s} sec {rec.section}  params [{pnames}]  "
              f"{rec.expected:15s} {rec.anchor}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gammalab",
        description="Verify log-gamma integral and series identities "
                    "by independent numerical routes.")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the verification suite")
    sel = v.add_mutually_exclusive_group()
    sel.add_argument("--ids", help="comma-separated identity ids")
    sel.add_argument("--section", type=int, help="restrict to one section")
    sel.add_argument("--all", action="store_true", help="full catalog "
                     "(default)")
    v.add_argument("--max-terms", type=int, default=None,
                   help="cap on the terms of every series route; by default "
                   "each sums the terms its own error bound needs for 1e-14, "
                   "and below that a capped entry reports its larger error")
    v.add_argument("--quad-level-cap", type=int,
                   default=EvalOptions().level_cap)
    v.add_argument("--parallelism", type=int, default=1,
                   help="accepted (N >= 1) and recorded in the report's "
                   "config; the suite runs in one process")
    v.add_argument("--json", metavar="PATH")
    v.add_argument("--md", metavar="PATH")
    v.add_argument("--no-timing", action="store_true",
                   help="omit wall-time fields (reproducible output)")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("eval", help="evaluate one catalogued object")
    e.add_argument("kind", choices=("fn", "series", "integral"))
    e.add_argument("key")
    e.add_argument("params", nargs="*")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("sweep", help="scan a parametric identity")
    s.add_argument("id")
    s.add_argument("--param", required=True)
    s.add_argument("--from", dest="start", type=float, required=True)
    s.add_argument("--to", dest="stop", type=float, required=True)
    s.add_argument("--steps", type=int, required=True)
    s.add_argument("--json", metavar="PATH")
    s.add_argument("--no-timing", action="store_true")
    s.set_defaults(func=cmd_sweep)

    ls = sub.add_parser("list", help="list catalogued identities")
    ls.add_argument("--section", type=int, default=None)
    ls.add_argument("--status", default=None, choices=EXPECTED_STATUSES,
                    help="filter by expected status")
    ls.set_defaults(func=cmd_list)
    return ap


def main(argv: list[str] | None = None) -> int:
    # the final collections at exit walk all ~13 500 tracked objects, ~5.6 ms
    # of a 55-ms cold `verify --all` (Python 3.11); frozen ones are skipped
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (GammalabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
