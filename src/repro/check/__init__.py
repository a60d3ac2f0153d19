"""Differential verification: cross-check every redundant pair in the stack.

The reproduction deliberately keeps redundant implementations of its core
facts — compiled vs reference simulation, SAT equivalence vs exhaustive
simulation, serial vs parallel vs cached sweep rows, attack-reported costs
vs an external re-count, transformed netlists vs their originals.  This
package confronts each pair on randomized inputs:

* :mod:`repro.check.core` — the check registry, deterministic per-check
  RNG streams, and the runner/report machinery.
* ``checks_sim`` / ``checks_sat`` / ``checks_sweep`` / ``checks_attacks``
  / ``checks_metamorphic`` — the built-in check families.
* :mod:`repro.check.faults` — the fault-injection self-test: deliberately
  break each guarded layer and demand the matching family fires.

Quickstart::

    from repro.check import run_checks

    report = run_checks(circuits=["s27"], seeds=[0, 1, 2], trials=25)
    assert report.ok, report.summary()

or from the command line: ``repro-lock check --seeds 0:3 --trials 25``.
"""

from .core import (
    MINI_SUITE,
    Check,
    CheckContext,
    CheckError,
    CheckOutcome,
    CheckReport,
    Divergence,
    all_checks,
    families,
    register,
    resolve_checks,
    run_checks,
)
from .faults import (
    FAULTS,
    Fault,
    FaultInjectionReport,
    FaultOutcome,
    run_fault_injection,
)
from .render import (
    render_fault_json,
    render_fault_text,
    render_json,
    render_text,
)

__all__ = [
    "MINI_SUITE",
    "Check",
    "CheckContext",
    "CheckError",
    "CheckOutcome",
    "CheckReport",
    "Divergence",
    "all_checks",
    "families",
    "register",
    "resolve_checks",
    "run_checks",
    "FAULTS",
    "Fault",
    "FaultInjectionReport",
    "FaultOutcome",
    "run_fault_injection",
    "render_fault_json",
    "render_fault_text",
    "render_json",
    "render_text",
]
