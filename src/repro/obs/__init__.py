"""Unified observability: tracing spans + metrics for the whole pipeline.

Every stage of the lock → attack → sweep pipeline used to keep its own
ad-hoc ``time.perf_counter()`` pairs and hand-rolled counters.  This
package replaces them with one zero-dependency substrate:

* **hierarchical spans** — ``with span("attack.testing", circuit=...):``
  records a timed node in a tree; nested ``span`` calls become children.
* **monotonic timers** — :class:`Stopwatch` is the sanctioned way to
  measure a duration (``time.perf_counter`` is banned outside this
  package; see the ruff ``TID251`` configuration).
* **typed counters / gauges** — counters are integer-accumulating
  (``oracle.test_clocks``, ``sim.evaluations``, ``sat.conflicts``,
  ``sweep.cache_hits``); gauges are last-write-wins floats.
* a **thread/process-safe in-memory recorder** — workers record into
  their own :class:`Recorder` and the sweep runner merges the serialized
  buffer back into the parent with wall-clock rebasing
  (:meth:`Recorder.merge_child`).
* **exporters** — human text, plain JSON, and Chrome ``chrome://tracing``
  trace-event format (:mod:`repro.obs.export`).

Instrumented code never checks whether tracing is on: :func:`span`,
:func:`add_counter`, :func:`set_gauge`, and :func:`record_error` are
no-ops (a shared null span, one global read) when no recorder is
installed, so the hot paths pay almost nothing by default.  A recorder is
installed for a scope with :func:`use_recorder`; the CLI does this for
``repro-lock <cmd> --trace out.json``.

See ``docs/OBSERVABILITY.md`` for the span/counter model and how to read
a trace of a testing attack.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .core import (
    NULL_SPAN,
    Recorder,
    SpanRecord,
    Stopwatch,
    add_counter,
    enabled,
    get_recorder,
    record_error,
    set_gauge,
    set_recorder,
    span,
    use_recorder,
)

if TYPE_CHECKING:
    from .export import (
        render_text,
        summarize_chrome_trace,
        to_chrome_trace,
        to_json,
    )

# Exporters render a finished trace, never inside a trial: they load on
# first use.
__getattr__ = lazy_exports(
    __name__,
    {
        "render_text": ".export",
        "summarize_chrome_trace": ".export",
        "to_chrome_trace": ".export",
        "to_json": ".export",
    },
)

__all__ = [
    "NULL_SPAN",
    "Recorder",
    "SpanRecord",
    "Stopwatch",
    "add_counter",
    "enabled",
    "get_recorder",
    "record_error",
    "render_text",
    "set_gauge",
    "set_recorder",
    "span",
    "summarize_chrome_trace",
    "to_chrome_trace",
    "to_json",
    "use_recorder",
]
