"""Tests for ``repro.dataflow`` — the ternary lattice, the word-parallel
propagator, cone extraction/signatures, the verdict engine (with verified
witnesses and SAT-proved don't-cares), and the report renderings."""

from __future__ import annotations

import json

import pytest

from repro.dataflow import (
    AuditConfig,
    KeyLeakAnalyzer,
    TernaryPropagator,
    TernaryWord,
    Verdict,
    audit_netlist,
    closure_gaps,
    cone_signature,
    extract_key_cone,
    structural_constants,
    verify_report,
)
from repro.dataflow.lattice import (
    decode_assignment,
    eval_gate3,
    eval_lut3,
    row_compatible,
    row_selected,
)
from repro.locking import ALGORITHMS
from repro.netlist import GateType, Netlist
from repro.sim.logicsim import CombinationalSimulator, exhaustive_input_words

pytestmark = pytest.mark.dataflow


# ---------------------------------------------------------------------------
# Crafted netlists with hand-computable verdicts
# ---------------------------------------------------------------------------


def _pi_lut(config=0x6):
    """A single LUT fed straight from primary inputs: every row should be
    provably inferable (the fan-in is always concrete and the output is
    the only driver of the PO)."""
    n = Netlist("pilut")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("l1", GateType.LUT, ["a", "b"], lut_config=config)
    n.add_output("l1")
    return n


def _const_tied_lut():
    """LUT pin 1 is tied to a structural constant 0: rows 2 and 3 (pin1=1)
    are unreachable, rows 0 and 1 stay inferable."""
    n = Netlist("consttied")
    n.add_input("a")
    n.add_gate("z", GateType.CONST0, [])
    n.add_gate("l1", GateType.LUT, ["a", "z"], lut_config=0x6)
    n.add_output("l1")
    return n


def _odc_masked_lut():
    """The LUT's only fanout is AND-ed with a constant 0: every row is an
    observability don't-care (the output can never reach the PO)."""
    n = Netlist("odc")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("z", GateType.CONST0, [])
    n.add_gate("l1", GateType.LUT, ["a", "b"], lut_config=0x6)
    n.add_gate("y", GateType.AND, ["l1", "z"])
    n.add_output("y")
    return n


def _serial_lock():
    """Two chained unprogrammed-at-audit LUTs: the upstream one is never
    observable independently of the downstream key (weak), the downstream
    one has X fan-in (opaque)."""
    n = Netlist("serial")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("l1", GateType.LUT, ["a", "b"], lut_config=0x6)
    n.add_gate("l2", GateType.LUT, ["l1", "b"], lut_config=0x9)
    n.add_output("l2")
    return n


def _twin_lock():
    """Two disjoint, isomorphic locked cones — the second must be served
    from the signature cache and rebound positionally."""
    n = Netlist("twins")
    for i in (1, 2):
        n.add_input(f"a{i}")
        n.add_input(f"b{i}")
        n.add_gate(f"g{i}", GateType.NAND, [f"a{i}", f"b{i}"])
        n.add_gate(
            f"l{i}", GateType.LUT, [f"g{i}", f"b{i}"], lut_config=0x6
        )
        n.add_output(f"l{i}")
    return n


# ---------------------------------------------------------------------------
# Lattice
# ---------------------------------------------------------------------------


class TestLattice:
    CONCRETE_GATES = {
        GateType.AND: lambda a, b: a & b,
        GateType.NAND: lambda a, b: 1 - (a & b),
        GateType.OR: lambda a, b: a | b,
        GateType.NOR: lambda a, b: 1 - (a | b),
        GateType.XOR: lambda a, b: a ^ b,
        GateType.XNOR: lambda a, b: 1 - (a ^ b),
    }

    @pytest.mark.parametrize("gate_type", sorted(CONCRETE_GATES, key=lambda g: g.value))
    def test_transfer_matches_concrete_truth_table(self, gate_type):
        truth = self.CONCRETE_GATES[gate_type]
        mask = (1 << 4) - 1
        # Pattern i encodes (a, b) = (i & 1, i >> 1); fully concrete rails
        # must reproduce the gate's truth table bit for bit.
        a = TernaryWord.from_word(0b1010, mask)
        b = TernaryWord.from_word(0b1100, mask)
        out = eval_gate3(gate_type, [a, b], mask)
        expected = sum(
            truth((i >> 0) & 1, (i >> 1) & 1) << i for i in range(4)
        )
        assert out.is_concrete(mask)
        assert out.concrete1() == expected

    def test_kleene_strongest_absorption(self):
        mask = 1
        zero = TernaryWord.const(0, mask)
        one = TernaryWord.const(1, mask)
        x = TernaryWord.unknown(mask)
        # Controlling values win over X...
        assert eval_gate3(GateType.AND, [zero, x], mask) == zero
        assert eval_gate3(GateType.NAND, [zero, x], mask) == one
        assert eval_gate3(GateType.OR, [one, x], mask) == one
        # ...but XOR has no controlling value: X stays X.
        assert eval_gate3(GateType.XOR, [x, zero], mask) == x
        assert eval_gate3(GateType.NOT, [x], mask) == x

    def test_predicates_and_join(self):
        mask = (1 << 3) - 1
        w = TernaryWord.from_word(0b010, mask)
        assert w.concrete1() == 0b010
        assert w.concrete0() == 0b101
        assert w.unknown_mask() == 0
        joined = w.join(TernaryWord.from_word(0b011, mask))
        # Patterns that disagree between the joined words become X.
        assert joined.unknown_mask() == 0b001
        assert not joined.is_concrete(mask)

    def test_programmed_lut_atomic_precision(self):
        mask = 1
        x = TernaryWord.unknown(mask)
        zero = TernaryWord.const(0, mask)
        # XOR-configured LUT with an X pin is X...
        assert eval_lut3(0x6, [x, zero], mask) == x
        # ...but a constant-configured LUT absorbs the X atomically
        # (decomposing into gates would widen this to X).
        assert eval_lut3(0x0, [x, x], mask) == TernaryWord.const(0, mask)
        assert eval_lut3(0xF, [x, x], mask) == TernaryWord.const(1, mask)

    def test_row_compatible_vs_row_selected(self):
        mask = 1
        x = TernaryWord.unknown(mask)
        one = TernaryWord.const(1, mask)
        # An X pin is compatible with both pin values but selects neither;
        # the concrete pin 1 rules out rows where its bit is 0.
        for row in range(4):
            expected = mask if (row >> 1) & 1 else 0
            assert row_compatible([x, one], row, mask) == expected
            assert row_selected([x, one], row, mask) == 0
        concrete = [TernaryWord.const(0, mask), one]
        assert row_selected(concrete, 0b10, mask) == mask
        assert row_selected(concrete, 0b11, mask) == 0

    def test_decode_assignment_matches_packing_layout(self, tiny_comb):
        words = exhaustive_input_words(tiny_comb)
        names = list(tiny_comb.inputs)
        for pattern in range(1 << len(names)):
            assignment = decode_assignment(names, pattern)
            for i, name in enumerate(names):
                assert assignment[name] == (words[name] >> pattern) & 1


# ---------------------------------------------------------------------------
# Propagator
# ---------------------------------------------------------------------------


class TestPropagator:
    def test_concrete_rails_match_interpreted_simulation(self, tiny_comb):
        words = exhaustive_input_words(tiny_comb)
        width = 1 << len(tiny_comb.inputs)
        mask = (1 << width) - 1
        rails = TernaryPropagator(tiny_comb).propagate(
            inputs={
                pi: TernaryWord.from_word(word, mask)
                for pi, word in words.items()
            },
            width=width,
        )
        sim = CombinationalSimulator(tiny_comb).evaluate(words, width=width)
        for net, word in sim.items():
            assert rails[net].is_concrete(mask), net
            assert rails[net].concrete1() == word & mask, net

    def test_missing_inputs_default_to_unknown(self, tiny_comb):
        rails = TernaryPropagator(tiny_comb).propagate(width=1)
        # y1 = (a AND b) XOR c has no controlling path: all-X in, X out.
        assert rails["y1"].unknown_mask() == 1

    def test_overrides_force_downstream_values(self):
        netlist = _serial_lock()
        rails = TernaryPropagator(netlist).propagate(
            inputs={
                "a": TernaryWord.const(0, 1),
                "b": TernaryWord.const(1, 1),
            },
            width=1,
            overrides={"l1": TernaryWord.const(1, 1)},
        )
        assert rails["l1"] == TernaryWord.const(1, 1)
        # l2 stays X: it is an unprogrammed LUT (the ⊤ source) even with
        # fully concrete fan-in once its config is stripped...
        foundry = netlist.copy("foundry")
        for lut in foundry.luts:
            foundry.node(lut).lut_config = None
        rails = TernaryPropagator(foundry).propagate(
            inputs={
                "a": TernaryWord.const(0, 1),
                "b": TernaryWord.const(1, 1),
            },
            width=1,
        )
        assert rails["l2"].unknown_mask() == 1

    def test_structural_constants_found(self):
        netlist = _odc_masked_lut()
        constants = structural_constants(netlist)
        assert constants.get("z") == 0
        # The AND absorbs the constant even though l1 is locked.
        assert constants.get("y") == 0
        assert "l1" not in constants


# ---------------------------------------------------------------------------
# Cones and signatures
# ---------------------------------------------------------------------------


class TestCones:
    def test_cone_interface_of_sequential_lock(self, s27):
        hybrid = ALGORITHMS["independent"](seed=3).run(s27).hybrid
        foundry = hybrid.copy("foundry")
        for lut in foundry.luts:
            foundry.node(lut).lut_config = None
        lut = sorted(foundry.luts)[0]
        cone = extract_key_cone(foundry, lut)
        assert cone.cone is not None
        controllable = set(foundry.inputs) | set(foundry.flip_flops)
        assert set(cone.support) <= controllable
        assert cone.observation_points
        assert cone.signature
        assert lut not in cone.unknown_luts

    def test_isomorphic_cones_share_a_signature(self):
        netlist = _twin_lock()
        for lut in netlist.luts:
            netlist.node(lut).lut_config = None
        sig1 = extract_key_cone(netlist, "l1").signature
        sig2 = extract_key_cone(netlist, "l2").signature
        assert sig1 == sig2

    def test_signature_tracks_config_presence_not_value(self):
        provisioned = _pi_lut(config=0x6)
        other_key = _pi_lut(config=0x9)
        stripped = _pi_lut()
        stripped.node("l1").lut_config = None
        sig = lambda n: cone_signature(
            extract_key_cone(n, "l1").cone, "l1"
        )
        # The withheld key value must not perturb the hash...
        assert sig(provisioned) == sig(other_key)
        # ...but programmed-vs-stripped is a structural difference.
        assert sig(provisioned) != sig(stripped)

    def test_closure_gaps_matches_alg2_semantics(self):
        n = Netlist("uslgap")
        n.add_input("a")
        n.add_input("b")
        n.add_gate("u", GateType.NAND, ["a", "b"])
        n.add_gate("m", GateType.NOR, ["u", "b"])
        n.add_gate("inv", GateType.NOT, ["m"])
        n.add_output("inv")
        assert closure_gaps(n, ["u"], []) == [("u", "m")]
        # A recorded justification or USL membership silences the gap;
        # single-input neighbours (inv) never count.
        assert closure_gaps(n, ["u"], ["m"]) == []
        assert closure_gaps(n, ["u", "m"], []) == []


# ---------------------------------------------------------------------------
# Verdict engine
# ---------------------------------------------------------------------------


class TestVerdicts:
    def test_pi_fed_lut_every_bit_inferable_and_recovered(self):
        netlist = _pi_lut()
        report = KeyLeakAnalyzer().analyze(netlist)
        [audit] = report.luts
        assert audit.exhaustive
        assert report.n_key_bits == 4
        assert audit.rows_with(Verdict.PROVABLY_INFERABLE) == [0, 1, 2, 3]
        for bit in audit.bits:
            assert bit.witness is not None
            assert bit.witness.queries == 1
            assert bit.witness.observe in audit.observation_points
        verification = verify_report(report, netlist)
        assert report.verification is verification
        assert verification.ok, verification.summary()
        assert len(verification.results) == 4

    def test_unreachable_rows_are_dont_care_and_sat_proved(self):
        netlist = _const_tied_lut()
        report = KeyLeakAnalyzer().analyze(netlist)
        [audit] = report.luts
        assert audit.dont_care_rows == [2, 3]
        assert audit.rows_with(Verdict.PROVABLY_INFERABLE) == [0, 1]
        for row in (2, 3):
            bit = audit.bits[row]
            assert bit.verdict is Verdict.STRUCTURALLY_WEAK
            assert "unreachable" in bit.reason
        verification = verify_report(report, netlist)
        assert verification.ok, verification.summary()
        kinds = sorted(r.kind for r in verification.results)
        assert kinds == ["dont-care", "dont-care", "recovery", "recovery"]

    def test_odc_masked_rows_are_dont_care(self):
        netlist = _odc_masked_lut()
        report = KeyLeakAnalyzer().analyze(netlist)
        [audit] = report.luts
        assert report.n_inferable == 0
        assert audit.dont_care_rows == [0, 1, 2, 3]
        for bit in audit.bits:
            assert "odc" in bit.reason
        assert verify_report(report, netlist).ok

    def test_serial_lock_upstream_weak_downstream_opaque(self):
        netlist = _serial_lock()
        report = KeyLeakAnalyzer().analyze(netlist)
        audits = {audit.lut: audit for audit in report.luts}
        assert report.n_inferable == 0
        assert report.n_dont_care == 0
        # l1 never reaches the PO independently of l2's key...
        assert audits["l1"].rows_with(Verdict.STRUCTURALLY_WEAK) == [
            0, 1, 2, 3,
        ]
        # ...and l1's X output makes l2's rows unreadable (entangled).
        assert audits["l2"].rows_with(Verdict.OPAQUE) == [0, 1, 2, 3]
        assert "l1" in audits["l2"].unknown_luts
        assert verify_report(report, netlist).ok  # nothing strong to refute

    def test_mux_bypass_configuration_detected(self):
        n = Netlist("bypass")
        n.add_input("a")
        n.add_input("b")
        n.add_gate("g1", GateType.NAND, ["a", "b"])
        # Config 0b1010 outputs exactly pin 0: a pure passthrough.
        n.add_gate("l1", GateType.LUT, ["g1", "b"], lut_config=0xA)
        n.add_output("l1")
        report = KeyLeakAnalyzer().analyze(n)
        [audit] = report.luts
        assert audit.mux_bypass == "g1"

    def test_isomorphic_cone_is_cache_served_and_rebound(self):
        netlist = _twin_lock()
        analyzer = KeyLeakAnalyzer()
        report = analyzer.analyze(netlist)
        assert analyzer.cache_hits == 1
        first, second = sorted(report.luts, key=lambda a: a.lut)
        assert not first.from_cache
        assert second.from_cache
        assert first.signature == second.signature
        # The cached verdicts must rebind to the second cone's own nets:
        # witnesses name a2/b2, and replay against ground truth still works.
        assert [b.verdict for b in first.bits] == [
            b.verdict for b in second.bits
        ]
        witnesses = [b.witness for b in second.bits if b.witness]
        assert witnesses
        for witness in witnesses:
            assert set(witness.pattern) == {"a2", "b2"}
        assert verify_report(report, netlist).ok

    def test_sampled_mode_keeps_strong_claims_constructive(self):
        netlist = _pi_lut()
        config = AuditConfig(max_support=1, sample_words=2, sample_width=64)
        report = KeyLeakAnalyzer(config).analyze(netlist)
        [audit] = report.luts
        assert not audit.exhaustive
        # 128 sampled patterns over 2 inputs hit every row: all four bits
        # stay inferable, each with a replayable sampled witness.
        assert audit.rows_with(Verdict.PROVABLY_INFERABLE) == [0, 1, 2, 3]
        assert verify_report(report, netlist).ok
        # Sampling never makes reachability claims it cannot prove.
        assert report.n_dont_care == 0

    def test_unobservable_lut_has_no_observation_points(self):
        n = Netlist("deadend")
        n.add_input("a")
        n.add_input("b")
        n.add_gate("l1", GateType.LUT, ["a", "b"], lut_config=0x6)
        n.add_gate("y", GateType.OR, ["a", "b"])
        n.add_output("y")
        report = KeyLeakAnalyzer().analyze(n)
        [audit] = report.luts
        assert audit.observation_points == []
        assert report.n_inferable == 0

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_locked_benchmark_audit_verifies(self, s27, algorithm):
        hybrid = ALGORITHMS[algorithm](seed=0).run(s27).hybrid
        report = audit_netlist(hybrid)
        assert report.n_key_bits == sum(
            1 << hybrid.node(lut).n_inputs for lut in hybrid.luts
        )
        counts = report.counts()
        assert (
            counts["inferable"] + counts["weak"] + counts["opaque"]
            == counts["key_bits"]
        )
        verification = verify_report(report, hybrid)
        assert verification.ok, verification.summary()

    def test_foundry_view_claims_are_unverifiable(self):
        netlist = _pi_lut()
        stripped = netlist.copy("stripped")
        stripped.node("l1").lut_config = None
        report = KeyLeakAnalyzer().analyze(stripped)
        verification = verify_report(report, stripped)
        # Strong claims with no ground truth must not verify silently.
        assert not verification.ok
        assert verification.unverifiable_luts == ["l1"]


# ---------------------------------------------------------------------------
# Renderings
# ---------------------------------------------------------------------------


class TestRenderings:
    @pytest.fixture
    def verified_report(self):
        netlist = _const_tied_lut()
        report = KeyLeakAnalyzer().analyze(netlist)
        verify_report(report, netlist)
        return report

    def test_summary_and_text(self, verified_report):
        summary = verified_report.summary()
        assert "4 key bits" in summary
        assert "2 inferable" in summary
        text = verified_report.render_text()
        assert "provably-inferable" in text
        assert "witness" in text
        assert "verification:" in text

    def test_json_dict_round_trips(self, verified_report):
        payload = verified_report.to_json_dict()
        blob = json.loads(json.dumps(payload))
        assert blob["netlist"] == "consttied"
        assert blob["summary"]["key_bits"] == 4
        assert blob["verification"]["ok"] is True
        [lut] = blob["luts"]
        witnesses = [b["witness"] for b in lut["bits"] if b["witness"]]
        assert all(w["queries"] == 1 for w in witnesses)

    def test_sarif_shape_and_rule_levels(self, verified_report):
        sarif = verified_report.to_sarif_dict()
        assert sarif["version"] == "2.1.0"
        assert "sarif-2.1.0" in sarif["$schema"]
        [run] = sarif["runs"]
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        results = run["results"]
        # Inferable rows report AUD001/warning, don't-cares AUD002/note.
        assert {"AUD001", "AUD002"} <= rules
        levels = {r["ruleId"]: r["level"] for r in results}
        assert levels["AUD001"] == "warning"
        assert levels["AUD002"] == "note"
        for result in results:
            assert result["ruleIndex"] == [
                r["id"] for r in run["tool"]["driver"]["rules"]
            ].index(result["ruleId"])
