"""Exporters: human text, plain JSON, and Chrome trace-event format.

The Chrome format is the ``chrome://tracing`` / Perfetto "JSON trace
event" profile: a ``traceEvents`` list of complete (``"ph": "X"``)
events with microsecond ``ts``/``dur``, one event per span, plus one
counter (``"ph": "C"``) event per recorded counter and an instant
(``"ph": "i"``) event per error-channel entry.  Load the file at
``chrome://tracing`` or https://ui.perfetto.dev to see the lock → attack
→ sweep timeline.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple, Union

from .core import Recorder

Payload = Union[Recorder, Dict[str, Any]]


def _as_dict(source: Payload) -> Dict[str, Any]:
    return source.to_dict() if isinstance(source, Recorder) else source


def to_json(source: Payload, indent: int = 2) -> str:
    """The recorder's own JSON serialization (lossless; re-mergeable)."""
    return json.dumps(_as_dict(source), indent=indent, sort_keys=True)


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------
def to_chrome_trace(source: Payload) -> Dict[str, Any]:
    """Convert a recorder payload to a Chrome trace-event document."""
    payload = _as_dict(source)
    tids: Dict[tuple, int] = {}
    events: List[Dict[str, Any]] = []
    last_us = 0.0
    for span in payload.get("spans", ()):
        lane = (span.get("pid", 0), span.get("thread", "main"))
        tid = tids.setdefault(lane, len(tids) + 1)
        ts = round(float(span["start"]) * 1e6, 3)
        dur = round(float(span["duration"]) * 1e6, 3)
        last_us = max(last_us, ts + dur)
        events.append(
            {
                "name": span["name"],
                "cat": span["name"].split(".", 1)[0],
                "ph": "X",
                "ts": ts,
                "dur": dur,
                "pid": span.get("pid", 0),
                "tid": tid,
                "args": dict(span.get("attrs", {})),
            }
        )
    for name, value in sorted(payload.get("counters", {}).items()):
        events.append(
            {
                "name": name,
                "ph": "C",
                "ts": last_us,
                "pid": 0,
                "tid": 0,
                "args": {"value": value},
            }
        )
    for error in payload.get("errors", ()):
        events.append(
            {
                "name": f"error: {error.get('message', '')}"[:120],
                "ph": "i",
                "s": "g",
                "ts": round(float(error.get("time", 0.0)) * 1e6, 3),
                "pid": 0,
                "tid": 0,
                "args": dict(error.get("details", {})),
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs",
            "gauges": dict(payload.get("gauges", {})),
        },
    }


def summarize_chrome_trace(document: Dict[str, Any]) -> str:
    """Aggregate a Chrome trace document into a per-span-name table,
    sorted by self time (:func:`span_self_seconds`).

    Accepts both the dict form (``{"traceEvents": [...]}``) and the bare
    event-array form the format also permits.
    """
    events = (
        document.get("traceEvents", [])
        if isinstance(document, dict)
        else list(document)
    )
    complete = [event for event in events if event.get("ph") == "X"]
    rows: Dict[str, Dict[str, float]] = {}
    for event, self_s in zip(complete, span_self_seconds(complete)):
        entry = rows.setdefault(
            event.get("name", "?"),
            {"count": 0, "self": 0.0, "total": 0.0, "max": 0.0},
        )
        dur = float(event.get("dur", 0.0)) / 1e6
        entry["count"] += 1
        entry["self"] += self_s
        entry["total"] += dur
        entry["max"] = max(entry["max"], dur)
    counters = [
        (event.get("name", "?"), event.get("args", {}).get("value"))
        for event in events
        if event.get("ph") == "C"
    ]
    errors = sum(1 for event in events if event.get("ph") == "i")
    lines = ["span summary (by self time):"]
    header = (
        f"  {'span':<36} {'count':>6} {'self s':>10} {'total s':>10} "
        f"{'mean s':>10} {'max s':>10}"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for name, entry in sorted(
        rows.items(), key=lambda item: (-item[1]["self"], item[0])
    ):
        mean = entry["total"] / entry["count"] if entry["count"] else 0.0
        lines.append(
            f"  {name:<36} {int(entry['count']):>6} {entry['self']:>10.3f} "
            f"{entry['total']:>10.3f} {mean:>10.4f} {entry['max']:>10.3f}"
        )
    if counters:
        lines.append("counters:")
        for name, value in sorted(counters):
            lines.append(f"  {name:<36} {value}")
    if errors:
        lines.append(f"errors: {errors} (see 'i' events in the trace)")
    return "\n".join(lines)


def span_self_seconds(events: List[Dict[str, Any]]) -> List[float]:
    """Each complete event's self time in seconds: its ``dur`` minus the
    parts of its interval covered by its child events on the same
    pid/tid.

    A child is an event that starts inside another's interval.  A stack
    walk in start order finds each event's parent; an event that starts
    inside a child becomes that child's child, so the children of one
    event never overlap.  A child running past its parent's end (rounded
    timestamps) counts only up to that end.
    """
    starts = [float(event.get("ts", 0.0)) for event in events]
    durs = [float(event.get("dur", 0.0)) for event in events]
    lanes: Dict[tuple, List[int]] = {}
    for k, event in enumerate(events):
        lanes.setdefault((event.get("pid", 0), event.get("tid", 0)), []).append(k)
    self_us = list(durs)
    for ids in lanes.values():
        ids.sort(key=lambda k: (starts[k], -durs[k]))
        enclosing: List[Tuple[int, float]] = []  # (index, end), innermost last
        for k in ids:
            start, end = starts[k], starts[k] + durs[k]
            while enclosing and enclosing[-1][1] <= start:
                enclosing.pop()
            if enclosing:
                parent, parent_end = enclosing[-1]
                self_us[parent] -= min(end, parent_end) - start
            enclosing.append((k, end))
    return [value / 1e6 for value in self_us]


# ----------------------------------------------------------------------
# human text
# ----------------------------------------------------------------------
def render_text(source: Payload, max_depth: Optional[int] = None) -> str:
    """The span tree as an indented text outline, plus metric tables."""
    payload = _as_dict(source)
    spans = payload.get("spans", [])
    by_parent: Dict[Optional[int], List[Dict[str, Any]]] = {}
    for span in spans:
        by_parent.setdefault(span.get("parent"), []).append(span)
    for children in by_parent.values():
        children.sort(key=lambda s: (s["start"], s["index"]))

    lines: List[str] = []

    def walk(parent: Optional[int], depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        for span in by_parent.get(parent, ()):
            attrs = span.get("attrs") or {}
            suffix = (
                " {" + ", ".join(f"{k}={v}" for k, v in sorted(attrs.items())) + "}"
                if attrs
                else ""
            )
            lines.append(
                f"{'  ' * depth}{span['name']}  "
                f"{span['duration'] * 1000:.2f}ms{suffix}"
            )
            walk(span["index"], depth + 1)

    walk(None, 0)
    counters = payload.get("counters", {})
    if counters:
        lines.append("counters:")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:<36} {value}")
    gauges = payload.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for name, value in sorted(gauges.items()):
            lines.append(f"  {name:<36} {value:g}")
    errors = payload.get("errors", [])
    if errors:
        lines.append("errors:")
        for error in errors:
            lines.append(f"  {error.get('message', '')}")
    return "\n".join(lines) if lines else "(empty trace)"
