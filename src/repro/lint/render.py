"""Finding serialisation: human text, machine JSON, and SARIF 2.1.0.

The SARIF output follows the 2.1.0 schema shape (``runs[].tool.driver``
with a rule catalogue, ``runs[].results`` referencing rules by ID and
index) so findings land directly in code-scanning UIs.  Netlists have no
line numbers, so findings anchor to SARIF *logical locations* — the net
name — plus the artifact URI when a file path is known.
"""

from __future__ import annotations

from typing import Dict, List

from ..reporting.sarif import sarif_log
from .core import RULES, Finding, LintReport, Severity

TOOL_NAME = "repro-lint"


def _severity_to_level(severity: Severity) -> str:
    return severity.value  # Severity values mirror SARIF levels


def render_text(report: LintReport) -> str:
    """Multi-line human-readable rendering."""
    counts = report.counts()
    suffix = (
        f" ({counts['suppressed']} suppressed)" if counts["suppressed"] else ""
    )
    if not report.findings:
        lines = [f"lint: {report.netlist_name} — clean{suffix}"]
    else:
        note_part = (
            f", {counts['notes']} note(s)" if counts["notes"] else ""
        )
        lines = [
            f"lint: {report.netlist_name} — {counts['errors']} error(s), "
            f"{counts['warnings']} warning(s){note_part}{suffix}"
        ]
        for finding in report.findings:
            lines.append(f"  {finding}")
            if finding.autofix:
                lines.append(f"      fix: {finding.autofix}")
    for note in report.diagnostics:
        lines.append(f"  [note] {note}")
    return "\n".join(lines)


def to_json_dict(report: LintReport) -> dict:
    """Plain-JSON rendering (stable keys, no external schema)."""
    return {
        "tool": TOOL_NAME,
        "netlist": report.netlist_name,
        "artifact": report.artifact,
        "summary": report.counts(),
        "findings": [
            {
                "rule": f.rule_id,
                "slug": f.slug,
                "severity": f.severity.value,
                "category": f.category.value,
                "message": f.message,
                "net": f.net,
                "autofix": f.autofix,
            }
            for f in report.findings
        ],
        "diagnostics": list(report.diagnostics),
    }


def _sarif_rule(rule_id: str) -> dict:
    cls = RULES[rule_id]
    descriptor = {
        "id": rule_id,
        "name": cls.slug,
        "shortDescription": {"text": cls.title},
        "fullDescription": {"text": cls.rationale or cls.title},
        "defaultConfiguration": {"level": _severity_to_level(cls.severity)},
        "properties": {"category": cls.category.value},
    }
    if cls.autofix:
        descriptor["help"] = {"text": cls.autofix}
    return descriptor


def _sarif_result(finding: Finding, rule_index: Dict[str, int], artifact) -> dict:
    location: dict = {
        "logicalLocations": [
            {"name": finding.net or finding.slug, "kind": "element"}
        ]
    }
    if artifact:
        location["physicalLocation"] = {
            "artifactLocation": {"uri": str(artifact)}
        }
    return {
        "ruleId": finding.rule_id,
        "ruleIndex": rule_index[finding.rule_id],
        "level": _severity_to_level(finding.severity),
        "message": {"text": finding.message},
        "locations": [location],
    }


def to_sarif_dict(report: LintReport) -> dict:
    """SARIF 2.1.0 rendering (rule catalogue + results)."""
    referenced: List[str] = []
    for finding in report.findings:
        if finding.rule_id in RULES and finding.rule_id not in referenced:
            referenced.append(finding.rule_id)
    referenced.sort()
    rule_index = {rule_id: i for i, rule_id in enumerate(referenced)}
    return sarif_log(
        TOOL_NAME,
        "https://example.org/repro/docs/LINTING.md",
        [_sarif_rule(r) for r in referenced],
        [
            _sarif_result(f, rule_index, report.artifact)
            for f in report.findings
            if f.rule_id in rule_index
        ],
    )
