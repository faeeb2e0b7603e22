"""Report assembly: JSON and markdown renderings of a verdict batch."""

from __future__ import annotations

import math
from collections import namedtuple

try:  # what json.dumps uses; the json package would load its decoder too
    from _json import encode_basestring_ascii as _string
except ImportError:
    from json.encoder import encode_basestring_ascii as _string

from .registry import _NO_ENTRIES, Registry, Verdict, failures

SCHEMA_VERSION = "1.3"

__all__ = ["Report", "SCHEMA_VERSION", "build_report", "to_json",
           "to_markdown", "fmt15"]


def fmt15(x: float) -> str:
    """Fixed 15-significant-digit rendering (IEEE round-half-even)."""
    if isinstance(x, complex):
        return f"{fmt15(x.real)}{'+' if x.imag >= 0 else '-'}{fmt15(abs(x.imag))}j"
    if not math.isfinite(x):
        return repr(x)
    return format(x, ".15g")


# schema_version: str; config: dict; verdicts: list[Verdict]; summary: dict;
# total_wall_time: float; anchors: Mapping
Report = namedtuple("Report", "schema_version config verdicts summary "
                    "total_wall_time anchors", defaults=(_NO_ENTRIES,))


def build_report(registry: Registry, verdicts: list[Verdict],
                 config: dict) -> Report:
    counts: dict[str, int] = {}
    cross: dict[str, dict[str, int]] = {}
    for v in verdicts:
        counts[v.status] = counts.get(v.status, 0) + 1
        row = cross.setdefault(v.expected, {})
        row[v.status] = row.get(v.status, 0) + 1
    summary = {
        "total": len(verdicts),
        "counts": counts,
        "by_expected": cross,
        "failures": len(failures(verdicts)),
    }
    anchors = {v.id: registry.record(v.id).anchor for v in verdicts}
    return Report(SCHEMA_VERSION, config, verdicts, summary,
                  sum(v.wall_time for v in verdicts), anchors)


def _num(x: float):
    """``x`` rounded to 15 significant digits; a non-finite value as the
    string of its repr."""
    if not math.isfinite(x):
        return repr(x)
    return float(format(x, ".15g"))


def _number(x: float) -> str:
    """JSON text of :func:`_num` (``x``), as ``json.dumps`` writes it.

    No two decimals of at most 15 significant digits round to one normal
    double, so the repr of ``_num(x)`` has the digits of
    ``format(x, ".15g")`` and that text is written as is, except that repr
    adds ``.0`` to a whole number and writes [1e15, 1e16) without an
    exponent.  Subnormals, and the rounding that overflows at
    1.79769313486232e308, take the full rule."""
    if not math.isfinite(x):
        return _string(repr(x))
    s = format(x, ".15g")
    if "e" not in s:
        return s if "." in s else s + ".0"
    if abs(x) > 1e-307 and not s.endswith(("e+15", "e+308")):
        return s
    return _nested(float(s), "")


def _nested(part, pad: str) -> str:
    """``json.dumps(part, indent=2)`` with every line after the first
    indented by ``pad``; a key that is not a string raises TypeError in
    :func:`_string`."""
    if isinstance(part, str):
        return _string(part)
    if part is None or isinstance(part, bool):
        return "null" if part is None else "true" if part else "false"
    if isinstance(part, int):
        return int.__repr__(part)
    if isinstance(part, float):
        if math.isfinite(part):
            return float.__repr__(part)
        return ("NaN" if part != part
                else "Infinity" if part > 0 else "-Infinity")
    inner = pad + "  "
    if isinstance(part, (list, tuple)):
        items, ends = [_nested(x, inner) for x in part], "[]"
    elif isinstance(part, dict):
        items, ends = [f"{_string(k)}: {_nested(x, inner)}"
                       for k, x in part.items()], "{}"
    else:
        raise TypeError(f"Object of type {type(part).__name__} "
                        "is not JSON serializable")
    if not items:
        return ends
    return (f"{ends[0]}\n{inner}" + f",\n{inner}".join(items)
            + f"\n{pad}{ends[1]}")


def _verdict_json(v: Verdict, anchor: str, timing: bool) -> str:
    n = _number
    params = ("[\n        " + ",\n        ".join(map(n, v.params))
              + "\n      ]") if v.params else "[]"
    text = (f'    {{\n      "id": {_string(v.id)},\n'
            f'      "anchor": {_string(anchor)},\n'
            f'      "params": {params},\n'
            f'      "lhs": {{\n        "value": {n(v.lhs_value)},\n'
            f'        "abs_err": {n(v.lhs_err)}\n      }},\n'
            f'      "rhs": {{\n        "value": {n(v.rhs_value)},\n'
            f'        "abs_err": {n(v.rhs_err)}\n      }},\n'
            f'      "residual": {n(v.residual)},\n'
            f'      "budget": {n(v.budget)},\n'
            f'      "status": {_string(v.status)},\n'
            f'      "expected_status": {_string(v.expected)}')
    if timing:
        text += f',\n      "wall_time": {v.wall_time!r}'
    if v.note:
        text += f',\n      "note": {_string(v.note)}'
    if v.diagnostics:
        diag = {k: [_num(x) for x in val] if isinstance(val, list) else val
                for k, val in v.diagnostics.items()}
        text += f',\n      "diagnostics": {_nested(diag, "      ")}'
    return text + "\n    }"


def to_json(report: Report, timing: bool = True) -> str:
    """The report as ``json.dumps(doc, indent=2)`` would write it, byte for
    byte, with each verdict rendered from one template: below Python 3.13
    ``indent`` selects the stdlib's pure-Python encoder, which took two
    thirds of the time of rendering through ``json.dumps``.  Numbers have
    15 significant digits; a non-finite one is written as the JSON string
    of its repr."""
    anchors = report.anchors
    verdicts = ("[\n" + ",\n".join(
        [_verdict_json(v, anchors.get(v.id, ""), timing)
         for v in report.verdicts]) + "\n  ]") if report.verdicts else "[]"
    text = (f'{{\n  "schema_version": {_string(report.schema_version)},\n'
            f'  "config": {_nested(report.config, "  ")},\n'
            f'  "verdicts": {verdicts},\n'
            f'  "summary": {_nested(report.summary, "  ")}')
    if timing:
        text += f',\n  "total_wall_time": {report.total_wall_time!r}'
    return text + "\n}"


def to_markdown(report: Report, registry: Registry,
                timing: bool = True) -> str:
    lines = ["# Identity verification report", ""]
    c = report.summary["counts"]
    lines.append(f"{report.summary['total']} verdicts: "
                 + ", ".join(f"{k} {v}" for k, v in sorted(c.items())))
    if timing:
        lines.append(f"Total wall time: {report.total_wall_time:.2f} s")
    lines.append("")
    by_section: dict[int, list[Verdict]] = {}
    for v in report.verdicts:
        sec = registry.record(v.id).section
        by_section.setdefault(sec, []).append(v)
    for sec in sorted(by_section):
        lines.append(f"## Section {sec}")
        lines.append("")
        lines.append("| id | params | lhs | rhs | residual | status |")
        lines.append("|---|---|---|---|---|---|")
        for v in by_section[sec]:
            pstr = ", ".join(fmt15(p) for p in v.params)
            lines.append(
                f"| {v.id} | {pstr} | {fmt15(v.lhs_value)} "
                f"| {fmt15(v.rhs_value)} | {fmt15(v.residual)} "
                f"| {v.status} |")
        lines.append("")
    disputed = [v for v in report.verdicts if v.expected == "DISPUTED"]
    if disputed:
        lines.append("## Disputed items: adjudication")
        lines.append("")
        lines.append("Each row shows this run's two routes next to the "
                     "machine values quoted in the source material.")
        lines.append("")
        lines.append("| id | this run: lhs | this run: rhs | quoted | "
                     "finding |")
        lines.append("|---|---|---|---|---|")
        seen = set()
        for v in disputed:
            if v.id in seen:
                continue
            seen.add(v.id)
            rep = registry.record(v.id).reported
            quoted = "; ".join(f"{k}={val}" for k, val in rep.items()) or "-"
            lines.append(f"| {v.id} | {fmt15(v.lhs_value)} "
                         f"| {fmt15(v.rhs_value)} | {quoted} | {v.status} |")
        lines.append("")
    return "\n".join(lines)
