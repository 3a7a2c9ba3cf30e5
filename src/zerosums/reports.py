"""Human-readable rendering of results and reports.

Structured (JSON) serialization lives next to the result types; this module
only formats tables. Stdout output contains no wall-clock timing, so repeated
runs render identically.
"""

from __future__ import annotations

from fractions import Fraction

from .invariants import INVARIANTS, FamilyReport, InvariantResult
from .multisets import to_lists


def format_value(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def render_invariant_table(result: InvariantResult, show_witness: bool) -> str:
    lines = [
        f"group       {result.group.key}",
        f"invariant   {result.invariant}",
        f"value       {format_value(result.value)}",
    ]
    if not result.complete:
        lines.append("status      incomplete (budget exhausted); value is a lower bound")
    if show_witness:
        witness = (
            to_lists(result.witness) if result.witness is not None else None
        )
        lines.append(f"witness     {witness}")
    prunes = " ".join(
        f"{k}={v}" for k, v in sorted(result.stats.prunes.items())
    )
    lines.append(f"stats       nodes={result.stats.nodes} prunes[{prunes}]")
    lines.append(f"provenance  {result.provenance}")
    return "\n".join(lines)


def render_family_report(report: FamilyReport) -> str:
    lines = [report.summary()]
    for inst in report.instances:
        mark = "pass" if inst.passed else "FAIL"
        note = f"  ({inst.note})" if inst.note else ""
        lines.append(
            f"  [{mark}] {inst.label}: lhs={inst.lhs} rhs={inst.rhs}{note}"
        )
    return "\n".join(lines)


def render_catalog_table(rows: list[dict]) -> str:
    # Each invariant beside its closed form: the sizes, then the cross numbers.
    names = [
        name
        for measure in ("size", "cross")
        for name, spec in INVARIANTS.items()
        if spec.measure == measure
    ]
    columns = ["group", *(c for n in names for c in (n, f"{n}*"))]
    columns += ["K1 gap", "provenance"]
    table = [columns]
    for row in rows:
        table.append([str(row[c]) for c in columns])
    widths = [max(len(r[i]) for r in table) for i in range(len(columns))]
    lines = []
    for i, r in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
