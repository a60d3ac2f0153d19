"""Aggregation: sweep rows → the paper's report objects and tables.

The runner emits plain JSON rows; this module is the bridge back into
:mod:`repro.reporting` and the analysis dataclasses, so the benchmark
harness (Table I/II, Fig. 3, the variance bench) renders from sweep rows
exactly as it used to render from in-process objects.
"""

from __future__ import annotations

import csv
import io
import statistics
from collections import OrderedDict
from typing import Any, Iterable, List, Mapping, Sequence, Tuple

from ..analysis.ppa import OverheadReport
from ..locking.metrics import SecurityReport
from ..reporting import format_table


def _report(cls, row: Mapping[str, Any], block: str, analysis: str):
    """A row's *block* is the report dataclass's fields but the trial's
    ``circuit`` and ``algorithm`` (see :mod:`repro.sweep.trial`)."""
    data = (row.get("metrics") or {}).get(block)
    if data is None:
        raise ValueError(f"row has no {analysis!r} analysis to rebuild from")
    trial = row["trial"]
    return cls(circuit=trial["circuit"], algorithm=trial["algorithm"], **data)


def overhead_report(row: Mapping[str, Any]) -> OverheadReport:
    """Rebuild the Table I :class:`OverheadReport` from an ``ok`` row that
    ran the ``ppa`` analysis."""
    return _report(OverheadReport, row, "overhead", "ppa")


def security_report(row: Mapping[str, Any]) -> SecurityReport:
    """Rebuild the Fig. 3 :class:`SecurityReport` from an ``ok`` row that
    ran the ``security`` analysis."""
    return _report(SecurityReport, row, "security", "security")


def group_rows(
    rows: Iterable[Mapping[str, Any]],
    by: Sequence[str] = ("circuit", "algorithm"),
) -> "OrderedDict[Tuple, List[Mapping[str, Any]]]":
    """Group rows by trial fields, preserving first-seen order."""
    groups: "OrderedDict[Tuple, List[Mapping[str, Any]]]" = OrderedDict()
    for row in rows:
        key = tuple(row["trial"][field] for field in by)
        groups.setdefault(key, []).append(row)
    return groups


def _lookup(row: Mapping[str, Any], path: str) -> Any:
    """The value at a dotted *path* of *row*, or ``None`` if it has none."""
    node: Any = row
    for part in path.split("."):
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    return node


def mean_std(values: Sequence[float]) -> str:
    """``μ±σ`` rendering used by the variance tables."""
    if not values:
        return "-"
    if len(values) == 1:
        return f"{values[0]:.1f}"
    return f"{statistics.mean(values):.1f}±{statistics.stdev(values):.1f}"


#: Default summary columns: (header, row path) pairs.
SUMMARY_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("delay %", "metrics.overhead.performance_degradation_pct"),
    ("power %", "metrics.overhead.power_overhead_pct"),
    ("area %", "metrics.overhead.area_overhead_pct"),
    ("#STT", "metrics.n_stt"),
)

#: Appended when some row ran an attack.
ATTACK_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("atk ok", "metrics.attack.success"),
    ("queries", "metrics.attack.oracle_queries"),
    ("clocks", "metrics.attack.test_clocks"),
)


def summarize(
    rows: Iterable[Mapping[str, Any]],
    by: Sequence[str] = ("circuit", "algorithm"),
) -> Tuple[List[str], List[Tuple[Any, ...]]]:
    """Aggregate ok-rows into (headers, table rows): one output row per
    group, each metric cell ``μ±σ`` over the group's rows that have it."""
    ok_rows = [row for row in rows if row.get("status") == "ok"]
    columns = SUMMARY_COLUMNS
    if any(_lookup(row, "metrics.attack") for row in ok_rows):
        columns += ATTACK_COLUMNS
    table: List[Tuple[Any, ...]] = []
    for key, group in group_rows(ok_rows, by).items():
        cells: List[Any] = [*key, len(group)]
        for _, path in columns:
            values = [_lookup(row, path) for row in group]
            cells.append(mean_std([float(v) for v in values if v is not None]))
        table.append(tuple(cells))
    return [*by, "trials", *(header for header, _ in columns)], table


def render_table(
    rows: Sequence[Mapping[str, Any]],
    by: Sequence[str] = ("circuit", "algorithm"),
    title: str = "sweep summary",
) -> str:
    """Render ok-rows as a fixed-width summary table (the CLI's
    ``--format table``)."""
    headers, table_rows = summarize(rows, by)
    return format_table(
        headers, table_rows, title=title, align_left_columns=len(by)
    )


#: Flat columns for CSV export, in order: (header, row path).
_CSV_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("circuit", "trial.circuit"),
    ("algorithm", "trial.algorithm"),
    ("seed", "trial.seed"),
    ("attack", "trial.attack"),
    ("status", "status"),
    ("size", "metrics.size"),
    ("n_stt", "metrics.n_stt"),
    ("key_bits", "metrics.key_bits"),
    ("delay_pct", "metrics.overhead.performance_degradation_pct"),
    ("power_pct", "metrics.overhead.power_overhead_pct"),
    ("area_pct", "metrics.overhead.area_overhead_pct"),
    ("log10_n_indep", "metrics.security.log10_n_indep"),
    ("log10_n_dep", "metrics.security.log10_n_dep"),
    ("log10_n_bf", "metrics.security.log10_n_bf"),
    ("attack_success", "metrics.attack.success"),
    ("oracle_queries", "metrics.attack.oracle_queries"),
    ("test_clocks", "metrics.attack.test_clocks"),
    ("select_seconds", "timing.select_seconds"),
)


def render_csv(rows: Sequence[Mapping[str, Any]]) -> str:
    """Flatten rows (including failed ones) to CSV."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([header for header, _ in _CSV_FIELDS])
    for row in rows:
        values = (_lookup(row, path) for _, path in _CSV_FIELDS)
        writer.writerow(["" if v is None else v for v in values])
    return buffer.getvalue()
