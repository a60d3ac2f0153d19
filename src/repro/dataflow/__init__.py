"""Abstract interpretation of hybrid STT-CMOS netlists for key leakage.

The locking algorithms withhold LUT configuration bits from the foundry;
this package asks, *statically*, how much of that key an attacker can
recover from structure alone.  It propagates ternary (0/1/X) values
word-parallel through the netlist — key inputs and unprogrammed LUT rows
are ⊤ (unknown) — extracts each locked gate's key-dependency cone, and
classifies every withheld configuration bit:

* ``provably-inferable`` — a concrete distinguishing input exists that
  recovers the bit with one oracle query, *regardless* of how the other
  withheld bits are programmed (a constructive proof, with the witness
  attached);
* ``structurally-weak`` — the bit sits in a structurally degenerate
  position (unreachable or ODC-redundant row, unobservable LUT,
  mux-bypass configuration) and protects little or nothing;
* ``opaque`` — no weakness found; the bit is entangled with the other
  withheld rows (the Eq. 2/3 regime the paper's algorithms aim for).

Every claim stronger than ``opaque`` is designed to be *checkable*:
:mod:`repro.dataflow.verify` recovers inferable bits against the
provisioned ground truth and SAT-proves claimed don't-care rows
redundant, and the ``dataflow`` family in :mod:`repro.check` keeps the
analyzer honest continuously.  See ``docs/DATAFLOW.md``.

:mod:`repro.dataflow.lattice` is also the three-valued spec the testing
attack's implication (:mod:`repro.sim.justify`) runs on, so every
submodule loads on first use: a trial that imports the lattice does not
load the audit engine.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .absint import TernaryPropagator, structural_constants
    from .cones import KeyCone, closure_gaps, cone_signature, extract_key_cone
    from .engine import (
        AuditConfig,
        AuditReport,
        KeyBitReport,
        KeyLeakAnalyzer,
        LutAudit,
        Verdict,
        Witness,
        audit_netlist,
    )
    from .lattice import TernaryWord
    from .verify import BitVerification, VerificationReport, verify_report

__getattr__ = lazy_exports(
    __name__,
    {
        "TernaryPropagator": ".absint",
        "structural_constants": ".absint",
        "KeyCone": ".cones",
        "closure_gaps": ".cones",
        "cone_signature": ".cones",
        "extract_key_cone": ".cones",
        "AuditConfig": ".engine",
        "AuditReport": ".engine",
        "KeyBitReport": ".engine",
        "KeyLeakAnalyzer": ".engine",
        "LutAudit": ".engine",
        "Verdict": ".engine",
        "Witness": ".engine",
        "audit_netlist": ".engine",
        "TernaryWord": ".lattice",
        "BitVerification": ".verify",
        "VerificationReport": ".verify",
        "verify_report": ".verify",
    },
)

__all__ = [
    "AuditConfig",
    "AuditReport",
    "BitVerification",
    "KeyBitReport",
    "KeyCone",
    "KeyLeakAnalyzer",
    "LutAudit",
    "TernaryPropagator",
    "TernaryWord",
    "VerificationReport",
    "Verdict",
    "Witness",
    "audit_netlist",
    "closure_gaps",
    "cone_signature",
    "extract_key_cone",
    "structural_constants",
    "verify_report",
]
