"""Report assembly: JSON and markdown renderings of a verdict batch."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .registry import Registry, Verdict, failures

SCHEMA_VERSION = "1.1"

__all__ = ["Report", "SCHEMA_VERSION", "build_report", "to_json",
           "to_markdown", "fmt15"]


def fmt15(x: float) -> str:
    """Fixed 15-significant-digit rendering (IEEE round-half-even)."""
    if isinstance(x, complex):
        return f"{fmt15(x.real)}{'+' if x.imag >= 0 else '-'}{fmt15(abs(x.imag))}j"
    if not math.isfinite(x):
        return repr(x)
    return format(x, ".15g")


def _num(x: float):
    if not math.isfinite(x):
        return repr(x)
    return float(format(x, ".15g"))


@dataclass(frozen=True)
class Report:
    schema_version: str
    config: dict
    verdicts: list[Verdict]
    summary: dict
    total_wall_time: float
    anchors: dict = field(default_factory=dict)


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


def _verdict_dict(v: Verdict, anchor: str, timing: bool) -> dict:
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
        "tol_class": v.tol_class,
    }
    if timing:
        d["wall_time"] = v.wall_time
    if v.note:
        d["note"] = v.note
    if v.diagnostics:
        diag = {}
        for k, val in v.diagnostics.items():
            if isinstance(val, list):
                diag[k] = [_num(x) for x in val]
            else:
                diag[k] = val
        d["diagnostics"] = diag
    return d


def to_json(report: Report, timing: bool = True) -> str:
    doc = {
        "schema_version": report.schema_version,
        "config": report.config,
        "verdicts": [_verdict_dict(v, report.anchors.get(v.id, ""), timing)
                     for v in report.verdicts],
        "summary": report.summary,
    }
    if timing:
        doc["total_wall_time"] = report.total_wall_time
    return json.dumps(doc, indent=2, sort_keys=False)


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
