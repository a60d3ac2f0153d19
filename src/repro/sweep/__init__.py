"""Parallel Monte Carlo experiment engine with a resumable result cache.

The paper's whole evaluation is one experiment shape — a grid of circuits
× selection algorithms × seeds × attacks — and this package turns that
grid into a first-class object:

* :class:`SweepSpec` declares the grid; it expands into independent,
  deterministically seeded :class:`Trial` cells.
* :class:`SweepRunner` / :func:`run_sweep` execute trials inline
  (``workers=1``) or on N lease workers (:mod:`repro.sweep.backends`)
  that claim trials from the result cache and may also join from other
  hosts — identical canonical rows either way.
  :meth:`SweepRunner.stream` yields rows as they complete, feeding
  :class:`StreamSummary` incremental aggregates.
* :class:`ResultCache` is a content-addressed on-disk row store keyed by
  (netlist content hash, algorithm + params, seed, attack, code version):
  interrupted sweeps resume, unchanged trials are served from cache.  It
  doubles as the lease workers' coordination store (atomic lock-file
  leases).
* :mod:`repro.sweep.aggregate` folds rows back into the
  :mod:`repro.reporting` tables and the analysis report dataclasses.

See ``docs/SWEEP.md`` for the executors, the lease protocol and the
``sweep-worker`` recipe.

Quickstart::

    from repro.sweep import SweepSpec, run_sweep

    spec = SweepSpec(circuits=["s641", "s1238"], seeds=range(4))
    result = run_sweep(spec, workers=4, cache_dir=".sweep-cache")
    print(result.stats.summary())
"""

from .aggregate import (
    RunningStat,
    StreamSummary,
    group_rows,
    overhead_report,
    render_csv,
    render_table,
    security_report,
    summarize,
)
from .backends import WorkStealingJob, work_stealing_worker
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

__all__ = [
    "KNOWN_ANALYSES",
    "KNOWN_ATTACKS",
    "RESULT_SCHEMA",
    "ResultCache",
    "RunningStat",
    "StreamSummary",
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
    "work_stealing_worker",
]
