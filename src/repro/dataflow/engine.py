"""The key-leakage verdict engine.

For every withheld LUT configuration bit the engine produces a verdict:

* :attr:`Verdict.PROVABLY_INFERABLE` — constructive proof: a concrete
  input pattern (the attached :class:`Witness`) drives the LUT's fan-in
  to exactly that row *and* makes some observation point differ
  concretely between the LUT outputting 0 and outputting 1, no matter
  how every other withheld bit is programmed.  One oracle query at the
  witness pattern reads the bit.
* :attr:`Verdict.STRUCTURALLY_WEAK` — a structural degeneracy: the row
  is provably unreachable or ODC-redundant (``dont_care=True``, later
  SAT-verified), the LUT reaches no observation point, or a provisioned
  configuration is a mux-bypass of a single pin.
* :attr:`Verdict.OPAQUE` — neither; the bit is entangled with the other
  withheld rows, which is the regime the locking algorithms aim for.

Soundness is one-directional by design: the engine may say ``opaque``
about a bit a clever attacker could still get (sampling budgets, the
independence over-approximation), but a ``provably-inferable`` or
``dont_care`` claim is backed by a replayable artifact that
:mod:`repro.dataflow.verify` and the ``dataflow`` check family confront
with ground truth.

Dual forced runs, the core trick: propagate ternary rails twice over the
cone with the audited LUT's output *overridden* to concrete 0 and then
concrete 1, every other unknown left at X.  Patterns where an
observation point is concrete in both runs with different values are
distinguishing for the LUT's output; intersecting with the patterns that
provably select row *r* yields the witnesses for bit *r*.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..netlist.netlist import Netlist
from ..obs import add_counter, span
from ..sim.logicsim import exhaustive_input_words
from ..sweep.spec import derive_seed
from .absint import TernaryPropagator
from .cones import KeyCone, extract_key_cone
from .lattice import (
    TernaryWord,
    decode_assignment,
    row_compatible,
    row_selected,
)


class Verdict(enum.Enum):
    """Leakage classification of one withheld key bit."""

    PROVABLY_INFERABLE = "provably-inferable"
    STRUCTURALLY_WEAK = "structurally-weak"
    OPAQUE = "opaque"


@dataclass(frozen=True)
class Witness:
    """A distinguishing input that reads one key bit in one oracle query."""

    #: Support net (PI / flip-flop output) → 0/1.
    pattern: Dict[str, int]
    #: Observation point (PO or D-pin net) where the responses differ.
    observe: str
    #: Predicted concrete response when the bit is 0 / is 1.
    value_if_zero: int
    value_if_one: int
    #: Distinguishing-input upper bound on the oracle queries needed.
    queries: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pattern": dict(self.pattern),
            "observe": self.observe,
            "value_if_zero": self.value_if_zero,
            "value_if_one": self.value_if_one,
            "queries": self.queries,
        }


@dataclass
class KeyBitReport:
    """Verdict for one withheld configuration bit (one LUT row)."""

    lut: str
    row: int
    verdict: Verdict
    reason: str
    #: The row is provably never exercised (or never observed): flipping
    #: the bit cannot change the circuit.  SAT-verifiable.
    dont_care: bool = False
    witness: Optional[Witness] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "lut": self.lut,
            "row": self.row,
            "verdict": self.verdict.value,
            "reason": self.reason,
            "dont_care": self.dont_care,
            "witness": self.witness.to_dict() if self.witness else None,
        }


@dataclass
class LutAudit:
    """All verdicts for one locked gate, plus its cone fingerprint."""

    lut: str
    n_rows: int
    support: List[str] = field(default_factory=list)
    observation_points: List[str] = field(default_factory=list)
    unknown_luts: List[str] = field(default_factory=list)
    signature: str = ""
    #: Whether the cone was analysed over all ``2**|support|`` patterns
    #: (don't-care and unobservability claims need this) or sampled.
    exhaustive: bool = False
    from_cache: bool = False
    #: Pin whose provisioned configuration the LUT merely buffers/inverts.
    mux_bypass: Optional[str] = None
    bits: List[KeyBitReport] = field(default_factory=list)

    def rows_with(self, verdict: Verdict) -> List[int]:
        return [b.row for b in self.bits if b.verdict is verdict]

    @property
    def dont_care_rows(self) -> List[int]:
        return [b.row for b in self.bits if b.dont_care]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "lut": self.lut,
            "n_rows": self.n_rows,
            "support": list(self.support),
            "observation_points": list(self.observation_points),
            "unknown_luts": list(self.unknown_luts),
            "signature": self.signature,
            "exhaustive": self.exhaustive,
            "from_cache": self.from_cache,
            "mux_bypass": self.mux_bypass,
            "bits": [b.to_dict() for b in self.bits],
        }


@dataclass
class AuditReport:
    """The leakage audit of one netlist."""

    netlist_name: str
    luts: List[LutAudit] = field(default_factory=list)
    max_support: int = 0
    #: Filled by :func:`repro.dataflow.verify.verify_report`.
    verification: Optional["Any"] = None

    def bits(self) -> List[KeyBitReport]:
        return [b for audit in self.luts for b in audit.bits]

    @property
    def n_key_bits(self) -> int:
        return sum(audit.n_rows for audit in self.luts)

    def _count(self, verdict: Verdict) -> int:
        return sum(1 for b in self.bits() if b.verdict is verdict)

    @property
    def n_inferable(self) -> int:
        return self._count(Verdict.PROVABLY_INFERABLE)

    @property
    def n_weak(self) -> int:
        return self._count(Verdict.STRUCTURALLY_WEAK)

    @property
    def n_opaque(self) -> int:
        return self._count(Verdict.OPAQUE)

    @property
    def n_dont_care(self) -> int:
        return sum(1 for b in self.bits() if b.dont_care)

    def counts(self) -> Dict[str, int]:
        return {
            "key_bits": self.n_key_bits,
            "inferable": self.n_inferable,
            "weak": self.n_weak,
            "opaque": self.n_opaque,
            "dont_care": self.n_dont_care,
        }

    def summary(self) -> str:
        c = self.counts()
        return (
            f"audit: {self.netlist_name} — {len(self.luts)} LUT(s), "
            f"{c['key_bits']} key bits: {c['inferable']} inferable, "
            f"{c['weak']} weak ({c['dont_care']} don't-care), "
            f"{c['opaque']} opaque"
        )

    # -- rendering (implemented in repro.dataflow.report) ---------------
    def render_text(self) -> str:
        from .report import render_text

        return render_text(self)

    def to_json_dict(self) -> dict:
        from .report import to_json_dict

        return to_json_dict(self)

    def to_sarif_dict(self) -> dict:
        from .report import to_sarif_dict

        return to_sarif_dict(self)


@dataclass(frozen=True)
class AuditConfig:
    """Analysis budgets."""

    #: Largest cone support analysed exhaustively (``2**max_support``
    #: patterns per forced run); larger cones are sampled.
    max_support: int = 12
    #: Sampled mode: number of packed words and patterns per word.
    sample_words: int = 4
    sample_width: int = 256


# Cached per-signature row outcomes: (row, verdict value, reason,
# dont_care, witness pattern index, observation-point position, v0, v1).
_CachedBits = List[Tuple[int, str, str, bool, Optional[int], Optional[int], int, int]]


class KeyLeakAnalyzer:
    """Runs the audit over every LUT of a netlist.

    The analyzer always works on a foundry view it derives itself (all
    configurations stripped) so verdicts never depend on the key;
    provisioned configurations, when present on the input netlist, are
    used only for the configuration-shape checks (mux-bypass).
    """

    def __init__(self, config: Optional[AuditConfig] = None):
        self.config = config or AuditConfig()
        self._signature_cache: Dict[str, _CachedBits] = {}
        self.cache_hits = 0

    # ------------------------------------------------------------------
    def analyze(self, netlist: Netlist) -> AuditReport:
        report = AuditReport(
            netlist_name=netlist.name, max_support=self.config.max_support
        )
        luts = list(netlist.luts)
        with span(
            "dataflow.audit", circuit=netlist.name, luts=len(luts)
        ) as audit_span:
            if not luts:
                return report
            configs = {
                name: netlist.node(name).lut_config
                for name in luts
                if netlist.node(name).lut_config is not None
            }
            foundry = netlist.copy(netlist.name)
            for name in foundry.luts:
                foundry.node(name).lut_config = None
            for name in sorted(luts):
                with span("dataflow.lut", lut=name) as lut_span:
                    cone = extract_key_cone(foundry, name)
                    audit = self._audit_lut(foundry, name, cone)
                    self._apply_config_shape(
                        foundry, name, audit, configs.get(name)
                    )
                    lut_span.set(
                        support=len(audit.support),
                        exhaustive=audit.exhaustive,
                        from_cache=audit.from_cache,
                        inferable=len(
                            audit.rows_with(Verdict.PROVABLY_INFERABLE)
                        ),
                    )
                report.luts.append(audit)
            counts = report.counts()
            audit_span.set(cache_hits=self.cache_hits, **counts)
            add_counter("dataflow.luts_audited", len(luts))
            add_counter("dataflow.inferable_bits", counts["inferable"])
            add_counter("dataflow.dont_care_bits", counts["dont_care"])
        return report

    # ------------------------------------------------------------------
    def _audit_lut(
        self, foundry: Netlist, lut: str, cone: KeyCone
    ) -> LutAudit:
        n_rows = 1 << foundry.node(lut).n_inputs
        audit = LutAudit(
            lut=lut,
            n_rows=n_rows,
            support=list(cone.support),
            observation_points=list(cone.observation_points),
            unknown_luts=list(cone.unknown_luts),
            signature=cone.signature,
        )
        if cone.cone is None:
            # Nothing downstream ever reaches a PO or a flip-flop: the
            # whole LUT is dead weight and every bit is redundant.
            audit.bits = [
                KeyBitReport(
                    lut=lut,
                    row=row,
                    verdict=Verdict.STRUCTURALLY_WEAK,
                    reason="no-observation-path",
                    dont_care=True,
                )
                for row in range(n_rows)
            ]
            return audit
        cached = self._signature_cache.get(cone.signature)
        if cached is not None:
            audit.exhaustive = True
            audit.from_cache = True
            audit.bits = self._rebind_cached(lut, cone, cached)
            self.cache_hits += 1
            add_counter("dataflow.cache_hits", 1)
            return audit
        if len(cone.support) <= self.config.max_support:
            audit.exhaustive = True
            audit.bits = self._exhaustive_bits(lut, cone, n_rows)
            self._signature_cache[cone.signature] = [
                (
                    b.row,
                    b.verdict.value,
                    b.reason,
                    b.dont_care,
                    self._pattern_index(cone.support, b.witness),
                    (
                        cone.cone.outputs.index(b.witness.observe)
                        if b.witness
                        else None
                    ),
                    b.witness.value_if_zero if b.witness else 0,
                    b.witness.value_if_one if b.witness else 0,
                )
                for b in audit.bits
            ]
        else:
            audit.bits = self._sampled_bits(foundry.name, lut, cone, n_rows)
        return audit

    @staticmethod
    def _pattern_index(
        support: Sequence[str], witness: Optional[Witness]
    ) -> Optional[int]:
        if witness is None:
            return None
        index = 0
        for i, name in enumerate(support):
            index |= (witness.pattern[name] & 1) << i
        return index

    @staticmethod
    def _rebind_cached(
        lut: str, cone: KeyCone, cached: _CachedBits
    ) -> List[KeyBitReport]:
        """Translate a cached positional result onto this cone's names."""
        bits: List[KeyBitReport] = []
        for row, verdict, reason, dont_care, pattern, obs_pos, v0, v1 in cached:
            witness = None
            if pattern is not None and obs_pos is not None:
                witness = Witness(
                    pattern=decode_assignment(cone.support, pattern),
                    observe=cone.cone.outputs[obs_pos],
                    value_if_zero=v0,
                    value_if_one=v1,
                )
            bits.append(
                KeyBitReport(
                    lut=lut,
                    row=row,
                    verdict=Verdict(verdict),
                    reason=reason,
                    dont_care=dont_care,
                    witness=witness,
                )
            )
        return bits

    # ------------------------------------------------------------------
    def _dual_runs(
        self,
        cone: KeyCone,
        inputs: Dict[str, TernaryWord],
        width: int,
    ) -> Tuple[Dict[str, TernaryWord], Dict[str, TernaryWord], Dict[str, int], int]:
        """Forced runs (LUT=0, LUT=1) plus per-point distinguishing words."""
        mask = (1 << width) - 1
        propagator = TernaryPropagator(cone.cone)
        run0 = propagator.propagate(
            inputs, width, overrides={cone.lut: TernaryWord.const(0, mask)}
        )
        run1 = propagator.propagate(
            inputs, width, overrides={cone.lut: TernaryWord.const(1, mask)}
        )
        diff: Dict[str, int] = {}
        distinguish = 0
        for point in cone.cone.outputs:
            a, b = run0[point], run1[point]
            word = (a.concrete0() & b.concrete1()) | (
                a.concrete1() & b.concrete0()
            )
            diff[point] = word
            distinguish |= word
        return run0, run1, diff, distinguish

    def _witness_at(
        self,
        cone: KeyCone,
        run0: Dict[str, TernaryWord],
        run1: Dict[str, TernaryWord],
        diff: Dict[str, int],
        pattern: int,
        support_values: Optional[Dict[str, int]] = None,
    ) -> Witness:
        observe = next(
            point
            for point in cone.cone.outputs
            if (diff[point] >> pattern) & 1
        )
        if support_values is None:
            assignment = decode_assignment(cone.support, pattern)
        else:
            assignment = {
                name: (support_values[name] >> pattern) & 1
                for name in cone.support
            }
        return Witness(
            pattern=assignment,
            observe=observe,
            value_if_zero=(run0[observe].concrete1() >> pattern) & 1,
            value_if_one=(run1[observe].concrete1() >> pattern) & 1,
        )

    def _exhaustive_bits(
        self, lut: str, cone: KeyCone, n_rows: int
    ) -> List[KeyBitReport]:
        width = 1 << len(cone.support)
        mask = (1 << width) - 1
        words = exhaustive_input_words(cone.cone)
        inputs = {
            name: TernaryWord.from_word(word, mask)
            for name, word in words.items()
        }
        run0, run1, diff, distinguish = self._dual_runs(cone, inputs, width)
        # The LUT's fan-in rails are upstream of the override, so either
        # run carries the same (unforced) values.
        fanin = [run0[src] for src in cone.cone.node(lut).fanin]
        pure = not cone.unknown_luts
        bits: List[KeyBitReport] = []
        for row in range(n_rows):
            selected = row_selected(fanin, row, mask)
            possible = row_compatible(fanin, row, mask)
            hits = selected & distinguish
            if hits:
                pattern = (hits & -hits).bit_length() - 1
                bits.append(
                    KeyBitReport(
                        lut=lut,
                        row=row,
                        verdict=Verdict.PROVABLY_INFERABLE,
                        reason="distinguishing input found (exhaustive)",
                        witness=self._witness_at(
                            cone, run0, run1, diff, pattern
                        ),
                    )
                )
            elif not possible:
                bits.append(
                    KeyBitReport(
                        lut=lut,
                        row=row,
                        verdict=Verdict.STRUCTURALLY_WEAK,
                        reason="row-unreachable",
                        dont_care=True,
                    )
                )
            elif pure and not (possible & distinguish):
                # With no other unknowns in the cone both forced runs are
                # fully concrete, so "never differs at a selecting
                # pattern" is a proof of ODC redundancy, not an X-mask.
                bits.append(
                    KeyBitReport(
                        lut=lut,
                        row=row,
                        verdict=Verdict.STRUCTURALLY_WEAK,
                        reason="row-odc-redundant",
                        dont_care=True,
                    )
                )
            elif not distinguish:
                bits.append(
                    KeyBitReport(
                        lut=lut,
                        row=row,
                        verdict=Verdict.STRUCTURALLY_WEAK,
                        reason="lut-unobservable",
                    )
                )
            elif not (possible & distinguish):
                bits.append(
                    KeyBitReport(
                        lut=lut,
                        row=row,
                        verdict=Verdict.STRUCTURALLY_WEAK,
                        reason="row-odc-masked",
                    )
                )
            else:
                bits.append(
                    KeyBitReport(
                        lut=lut,
                        row=row,
                        verdict=Verdict.OPAQUE,
                        reason="entangled with other withheld rows",
                    )
                )
        return bits

    def _sampled_bits(
        self, design: str, lut: str, cone: KeyCone, n_rows: int
    ) -> List[KeyBitReport]:
        """Large-support cones: deterministic sampling, sound claims only.

        Inferable verdicts stay constructive (the witness is a concrete
        sampled pattern); don't-care claims come only from structure —
        constant pins (the all-X pass) and duplicated pins — never from
        sampling.
        """
        width = self.config.sample_width
        mask = (1 << width) - 1
        rng = random.Random(derive_seed("dataflow", design, lut))
        fanin_nets = list(cone.cone.node(lut).fanin)
        pin_constants = self._pin_constants(cone, fanin_nets)
        # Two pins wired to the same net must agree, so any row assigning
        # them different values is unreachable — sound without sampling.
        duplicate_pins = [
            (i, j)
            for i in range(len(fanin_nets))
            for j in range(i + 1, len(fanin_nets))
            if fanin_nets[i] == fanin_nets[j]
        ]
        found: Dict[int, Witness] = {}
        for _ in range(self.config.sample_words):
            support_values = {
                name: rng.getrandbits(width) for name in cone.support
            }
            inputs = {
                name: TernaryWord.from_word(word, mask)
                for name, word in support_values.items()
            }
            run0, run1, diff, distinguish = self._dual_runs(
                cone, inputs, width
            )
            if not distinguish:
                continue
            fanin = [run0[src] for src in fanin_nets]
            for row in range(n_rows):
                if row in found:
                    continue
                hits = row_selected(fanin, row, mask) & distinguish
                if hits:
                    pattern = (hits & -hits).bit_length() - 1
                    found[row] = self._witness_at(
                        cone, run0, run1, diff, pattern, support_values
                    )
        bits: List[KeyBitReport] = []
        for row in range(n_rows):
            if row in found:
                bits.append(
                    KeyBitReport(
                        lut=lut,
                        row=row,
                        verdict=Verdict.PROVABLY_INFERABLE,
                        reason="distinguishing input found (sampled)",
                        witness=found[row],
                    )
                )
            elif any(
                (row >> pin) & 1 != value
                for pin, value in pin_constants.items()
            ) or any(
                (row >> i) & 1 != (row >> j) & 1
                for i, j in duplicate_pins
            ):
                bits.append(
                    KeyBitReport(
                        lut=lut,
                        row=row,
                        verdict=Verdict.STRUCTURALLY_WEAK,
                        reason="row-unreachable (pin constant)",
                        dont_care=True,
                    )
                )
            else:
                bits.append(
                    KeyBitReport(
                        lut=lut,
                        row=row,
                        verdict=Verdict.OPAQUE,
                        reason=(
                            "not distinguished within the sampled "
                            "pattern budget"
                        ),
                    )
                )
        return bits

    @staticmethod
    def _pin_constants(
        cone: KeyCone, fanin_nets: Sequence[str]
    ) -> Dict[int, int]:
        """Pins of the audited LUT forced constant by structure alone."""
        rails = TernaryPropagator(cone.cone).propagate(width=1)
        constants: Dict[int, int] = {}
        for pin, net in enumerate(fanin_nets):
            word = rails[net]
            if word.concrete1():
                constants[pin] = 1
            elif word.concrete0():
                constants[pin] = 0
        return constants

    # ------------------------------------------------------------------
    @staticmethod
    def _apply_config_shape(
        foundry: Netlist,
        lut: str,
        audit: LutAudit,
        config: Optional[int],
    ) -> None:
        """Provisioned-configuration shape checks (mux-bypass)."""
        node = foundry.node(lut)
        if config is None or node.n_inputs < 2:
            return
        rows = 1 << node.n_inputs
        table = config & ((1 << rows) - 1)
        for pin in range(node.n_inputs):
            passthrough = 0
            for row in range(rows):
                if (row >> pin) & 1:
                    passthrough |= 1 << row
            if table not in (passthrough, passthrough ^ ((1 << rows) - 1)):
                continue
            audit.mux_bypass = node.fanin[pin]
            inverted = table != passthrough
            for bit in audit.bits:
                if bit.verdict is Verdict.OPAQUE:
                    bit.verdict = Verdict.STRUCTURALLY_WEAK
                    bit.reason = (
                        "mux-bypass configuration ("
                        + ("inverter of" if inverted else "buffer of")
                        + f" pin {pin})"
                    )
            return


def audit_netlist(
    netlist: Netlist, config: Optional[AuditConfig] = None
) -> AuditReport:
    """One-shot convenience: audit *netlist* with a fresh analyzer."""
    return KeyLeakAnalyzer(config).analyze(netlist)
