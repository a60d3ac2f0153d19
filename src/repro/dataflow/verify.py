"""Ground-truth verification of audit verdicts.

The engine's two strong claims are both replayable, and this module
replays them against a *provisioned* netlist (every LUT programmed):

* ``provably-inferable`` — simulate the provisioned cone at the witness
  pattern, decode the key bit from the predicted responses, and compare
  with the actual configuration bit.  A mismatch (or a response matching
  neither prediction) is an analyzer bug, never a rounding error.
* ``dont_care`` — flip the claimed bit in the provisioned design and
  SAT-prove the cone (or, for a LUT with no observation points, the
  whole netlist) equivalent via the miter of
  :mod:`repro.sat.equivalence`.

The ``dataflow`` family in :mod:`repro.check` runs this continuously;
``repro-lock audit --verify`` runs it on demand and the CI audit job
fails on any unverified ``provably-inferable`` verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..netlist.netlist import Netlist, NetlistError
from ..netlist.transform import extract_cone
from ..obs import add_counter, span
from ..sat.equivalence import EquivalenceSession
from ..sim.logicsim import CombinationalSimulator
from .engine import AuditReport, KeyBitReport, LutAudit, Verdict


@dataclass
class BitVerification:
    """Outcome of replaying one claim against ground truth."""

    lut: str
    row: int
    kind: str  # "recovery" | "dont-care"
    ok: bool
    detail: str = ""
    #: For recoveries: the bit read through the witness vs the truth.
    recovered: Optional[int] = None
    expected: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "lut": self.lut,
            "row": self.row,
            "kind": self.kind,
            "ok": self.ok,
            "detail": self.detail,
            "recovered": self.recovered,
            "expected": self.expected,
        }


@dataclass
class VerificationReport:
    """All claim replays for one audit."""

    results: List[BitVerification] = field(default_factory=list)
    #: LUTs skipped because the netlist held no configuration for them.
    unverifiable_luts: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.unverifiable_luts and all(r.ok for r in self.results)

    @property
    def failures(self) -> List[BitVerification]:
        return [r for r in self.results if not r.ok]

    def summary(self) -> str:
        recoveries = [r for r in self.results if r.kind == "recovery"]
        proofs = [r for r in self.results if r.kind == "dont-care"]
        parts = [
            f"{sum(r.ok for r in recoveries)}/{len(recoveries)} "
            "inferable bits recovered",
            f"{sum(r.ok for r in proofs)}/{len(proofs)} "
            "don't-care claims SAT-proved",
        ]
        if self.unverifiable_luts:
            parts.append(
                f"{len(self.unverifiable_luts)} LUT(s) unverifiable "
                "(no ground-truth configuration)"
            )
        return "; ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "summary": self.summary(),
            "unverifiable_luts": list(self.unverifiable_luts),
            "results": [r.to_dict() for r in self.results],
        }


def recover_bit(
    provisioned: Netlist, audit: LutAudit, bit: KeyBitReport
) -> BitVerification:
    """Read one inferable bit out of the provisioned design via its witness."""
    witness = bit.witness
    if witness is None:
        return BitVerification(
            lut=bit.lut,
            row=bit.row,
            kind="recovery",
            ok=False,
            detail="inferable verdict carries no witness",
        )
    truth = provisioned.node(bit.lut).lut_config
    expected = (truth >> bit.row) & 1
    cone = extract_cone(
        provisioned, audit.observation_points, name=f"{bit.lut}:verify"
    )
    simulator = CombinationalSimulator(cone, backend="interpreted")
    inputs = {name: witness.pattern.get(name, 0) for name in cone.inputs}
    response = simulator.evaluate(inputs)[witness.observe] & 1
    if response == witness.value_if_one and response != witness.value_if_zero:
        recovered: Optional[int] = 1
    elif response == witness.value_if_zero:
        recovered = 0
    else:
        recovered = None
    if recovered is None:
        return BitVerification(
            lut=bit.lut,
            row=bit.row,
            kind="recovery",
            ok=False,
            detail=(
                f"response {response} at {witness.observe!r} matches "
                "neither predicted value"
            ),
            expected=expected,
        )
    return BitVerification(
        lut=bit.lut,
        row=bit.row,
        kind="recovery",
        ok=recovered == expected,
        detail="" if recovered == expected else "recovered bit != truth",
        recovered=recovered,
        expected=expected,
    )


class DontCareProver:
    """SAT-proves don't-care claims for one audited LUT.

    The proof obligation's left-hand side — the observation cone of the
    audited LUT (or the whole netlist when it reaches no observation
    point) — is the same for every claimed bit, so all of an audit's
    proofs run through one :class:`EquivalenceSession`: the cone is
    encoded once and each flipped candidate rides the same incremental
    solver.
    """

    def __init__(self, provisioned: Netlist, audit: LutAudit):
        if audit.observation_points:
            self._base = extract_cone(
                provisioned, audit.observation_points, name=f"{audit.lut}:dc"
            )
        else:
            # The LUT reaches no observation point; the proof obligation
            # is whole-netlist equivalence under the flip.
            self._base = provisioned
        self._session: Optional[EquivalenceSession] = None

    def prove(self, bit: KeyBitReport) -> BitVerification:
        flipped = self._base.copy(f"{self._base.name}:flipped")
        node = flipped.node(bit.lut)
        node.lut_config ^= 1 << bit.row
        try:
            if self._session is None:
                self._session = EquivalenceSession(self._base)
            result = self._session.check(flipped)
        except NetlistError as exc:
            return BitVerification(
                lut=bit.lut,
                row=bit.row,
                kind="dont-care",
                ok=False,
                detail=f"equivalence check failed to run: {exc}",
            )
        add_counter("dataflow.sat_proofs", 1)
        return BitVerification(
            lut=bit.lut,
            row=bit.row,
            kind="dont-care",
            ok=result.equivalent,
            detail=(
                ""
                if result.equivalent
                else "flip is observable: "
                f"counterexample {result.counterexample}"
            ),
        )


def prove_dont_care(
    provisioned: Netlist, audit: LutAudit, bit: KeyBitReport
) -> BitVerification:
    """SAT-prove that flipping the claimed don't-care bit changes nothing.

    One-shot form of :class:`DontCareProver` (which amortizes the cone
    encoding across all of an audit's claimed bits).
    """
    return DontCareProver(provisioned, audit).prove(bit)


def verify_report(
    report: AuditReport, provisioned: Netlist
) -> VerificationReport:
    """Replay every strong claim in *report* against *provisioned*.

    The result is also attached to ``report.verification``.  LUTs the
    provisioned netlist holds no configuration for (a pure foundry view)
    are listed as unverifiable — the report is then not ``ok``, because
    an unverified ``provably-inferable`` claim is exactly what the CI
    audit gate must refuse to wave through.
    """
    verification = VerificationReport()
    with span("dataflow.verify", circuit=provisioned.name) as verify_span:
        for audit in report.luts:
            node = (
                provisioned.node(audit.lut)
                if audit.lut in provisioned
                else None
            )
            has_truth = node is not None and node.lut_config is not None
            claims = [
                b
                for b in audit.bits
                if b.dont_care or b.verdict is Verdict.PROVABLY_INFERABLE
            ]
            if not has_truth:
                if claims:
                    verification.unverifiable_luts.append(audit.lut)
                continue
            prover: Optional[DontCareProver] = None
            for bit in claims:
                if bit.verdict is Verdict.PROVABLY_INFERABLE:
                    verification.results.append(
                        recover_bit(provisioned, audit, bit)
                    )
                if bit.dont_care:
                    if prover is None:
                        prover = DontCareProver(provisioned, audit)
                    verification.results.append(prover.prove(bit))
        verify_span.set(
            ok=verification.ok,
            checked=len(verification.results),
            failures=len(verification.failures),
        )
    report.verification = verification
    return verification
