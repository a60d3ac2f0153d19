"""Audit-report rendering: human text, machine JSON, and SARIF 2.1.0.

The SARIF shape mirrors :mod:`repro.lint.render` (``runs[].tool.driver``
with a rule catalogue, results anchored to logical locations) so audit
findings land in the same code-scanning UIs as lint findings.  Verdicts
map onto a small fixed rule catalogue (``AUD0xx``).
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..reporting.sarif import sarif_log
from .engine import AuditReport, KeyBitReport, LutAudit, Verdict

TOOL_NAME = "repro-audit"

#: SARIF rule catalogue: one rule per reportable verdict class.
AUDIT_RULES: List[Dict[str, Any]] = [
    {
        "id": "AUD001",
        "name": "provably-inferable-key-bit",
        "shortDescription": {
            "text": "Key bit recoverable with one oracle query"
        },
        "fullDescription": {
            "text": (
                "A concrete distinguishing input drives the LUT fan-in to "
                "this row and propagates the row's value to an observation "
                "point regardless of every other withheld bit."
            )
        },
        "defaultConfiguration": {"level": "warning"},
        "properties": {"category": "security"},
    },
    {
        "id": "AUD002",
        "name": "dont-care-key-bit",
        "shortDescription": {
            "text": "Key bit provably redundant (unreachable or ODC row)"
        },
        "fullDescription": {
            "text": (
                "Flipping this withheld bit cannot change the circuit: the "
                "row is never exercised or never observed.  The bit inflates "
                "the nominal key length without protecting anything."
            )
        },
        "defaultConfiguration": {"level": "note"},
        "properties": {"category": "security"},
    },
    {
        "id": "AUD003",
        "name": "structurally-weak-key-bit",
        "shortDescription": {
            "text": "Key bit in a structurally degenerate position"
        },
        "fullDescription": {
            "text": (
                "The LUT is unobservable, ODC-masked, or carries a "
                "mux-bypass configuration; the bit contributes far less "
                "than a nominal key bit to the attack cost."
            )
        },
        "defaultConfiguration": {"level": "warning"},
        "properties": {"category": "security"},
    },
]


def _rule_for(bit: KeyBitReport) -> str:
    if bit.verdict is Verdict.PROVABLY_INFERABLE:
        return "AUD001"
    if bit.dont_care:
        return "AUD002"
    return "AUD003"


def render_text(report: AuditReport) -> str:
    lines = [report.summary()]
    for audit in report.luts:
        scope = "exhaustive" if audit.exhaustive else "sampled"
        if audit.from_cache:
            scope += ", cached"
        lines.append(
            f"  {audit.lut}: {audit.n_rows} rows, "
            f"support {len(audit.support)} ({scope}), "
            f"{len(audit.observation_points)} observation point(s)"
        )
        if audit.mux_bypass is not None:
            lines.append(
                f"    mux-bypass: configuration passes through "
                f"{audit.mux_bypass!r}"
            )
        for bit in audit.bits:
            if bit.verdict is Verdict.OPAQUE:
                continue
            lines.append(
                f"    row {bit.row}: {bit.verdict.value} — {bit.reason}"
            )
            if bit.witness is not None:
                w = bit.witness
                lines.append(
                    f"      witness: observe {w.observe!r} "
                    f"(0→{w.value_if_zero}, 1→{w.value_if_one}), "
                    f"{w.queries} query"
                )
    if report.verification is not None:
        lines.append(f"  verification: {report.verification.summary()}")
        for failure in report.verification.failures:
            lines.append(
                f"    FAILED {failure.kind} {failure.lut} row "
                f"{failure.row}: {failure.detail}"
            )
    return "\n".join(lines)


def to_json_dict(report: AuditReport) -> dict:
    return {
        "tool": TOOL_NAME,
        "netlist": report.netlist_name,
        "max_support": report.max_support,
        "summary": report.counts(),
        "luts": [audit.to_dict() for audit in report.luts],
        "verification": (
            report.verification.to_dict()
            if report.verification is not None
            else None
        ),
    }


def _sarif_result(
    audit: LutAudit, bit: KeyBitReport, rule_index: Dict[str, int]
) -> dict:
    rule_id = _rule_for(bit)
    message = (
        f"LUT {audit.lut!r} row {bit.row}: {bit.verdict.value} "
        f"({bit.reason})"
    )
    if bit.witness is not None:
        message += (
            f"; distinguishing input observes {bit.witness.observe!r} "
            f"in {bit.witness.queries} oracle query"
        )
    levels = {"AUD001": "warning", "AUD002": "note", "AUD003": "warning"}
    return {
        "ruleId": rule_id,
        "ruleIndex": rule_index[rule_id],
        "level": levels[rule_id],
        "message": {"text": message},
        "locations": [
            {
                "logicalLocations": [
                    {"name": audit.lut, "kind": "element"}
                ]
            }
        ],
    }


def to_sarif_dict(report: AuditReport) -> dict:
    reportable = [
        (audit, bit)
        for audit in report.luts
        for bit in audit.bits
        if bit.verdict is not Verdict.OPAQUE
    ]
    referenced = sorted({_rule_for(bit) for _, bit in reportable})
    rules = [
        rule for rule in AUDIT_RULES if rule["id"] in referenced
    ]
    rule_index = {rule["id"]: i for i, rule in enumerate(rules)}
    return sarif_log(
        TOOL_NAME,
        "https://example.org/repro/docs/DATAFLOW.md",
        rules,
        [_sarif_result(audit, bit, rule_index) for audit, bit in reportable],
    )
