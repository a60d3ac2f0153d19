"""Parallel Monte Carlo experiment engine with a resumable result cache.

The paper's whole evaluation is one experiment shape — a grid of circuits
× selection algorithms × seeds × attacks — and this package turns that
grid into a first-class object:

* :class:`SweepSpec` declares the grid; it expands into independent,
  deterministically seeded :class:`Trial` cells.
* :class:`SweepRunner` / :func:`run_sweep` execute trials inline
  (``workers=1``) or on N local lease workers
  (:mod:`repro.sweep.backends`) that claim trials from the result cache —
  identical canonical rows either way.
  :meth:`SweepRunner.stream` yields rows as they complete.
* :class:`ResultCache` is a content-addressed on-disk row store keyed by
  (netlist content hash, algorithm + params, seed, attack, code version):
  interrupted sweeps resume, unchanged trials are served from cache.  It
  doubles as the lease workers' coordination store (atomic lock-file
  leases).
* :mod:`repro.sweep.aggregate` folds rows back into the
  :mod:`repro.reporting` tables and the analysis report dataclasses.

See ``docs/SWEEP.md`` for the executors and the lease protocol.

Quickstart::

    from repro.sweep import SweepSpec, run_sweep

    spec = SweepSpec(circuits=["s641", "s1238"], seeds=range(4))
    result = run_sweep(spec, workers=4, cache_dir=".sweep-cache")
    print(result.stats.summary())
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .cache import RESULT_SCHEMA, ResultCache, netlist_sha, trial_key
from .runner import (
    SweepResult,
    SweepRunner,
    SweepStats,
    default_workers,
    run_sweep,
)
from .spec import (
    KNOWN_ANALYSES,
    KNOWN_ATTACKS,
    SweepSpec,
    Trial,
    derive_seed,
)
from .trial import canonical_row, circuit_sha, load_circuit, run_trial

if TYPE_CHECKING:
    from .backends import WorkStealingJob
    from .aggregate import (
        group_rows,
        overhead_report,
        render_csv,
        render_table,
        security_report,
        summarize,
    )

# The aggregates fold rows after a sweep, never inside a trial, and the
# lease workers run only when a sweep asks for them: both load on first
# use.
__getattr__ = lazy_exports(
    __name__,
    {
        "WorkStealingJob": ".backends",
        "group_rows": ".aggregate",
        "overhead_report": ".aggregate",
        "render_csv": ".aggregate",
        "render_table": ".aggregate",
        "security_report": ".aggregate",
        "summarize": ".aggregate",
    },
)

__all__ = [
    "KNOWN_ANALYSES",
    "KNOWN_ATTACKS",
    "RESULT_SCHEMA",
    "ResultCache",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "SweepStats",
    "Trial",
    "WorkStealingJob",
    "canonical_row",
    "circuit_sha",
    "default_workers",
    "derive_seed",
    "group_rows",
    "load_circuit",
    "netlist_sha",
    "overhead_report",
    "render_csv",
    "render_table",
    "run_sweep",
    "run_trial",
    "security_report",
    "summarize",
    "trial_key",
]
