"""Tests for miter-based equivalence checking."""

from __future__ import annotations

import pytest

from repro.netlist import GateType, Netlist, NetlistError
from repro.sat import assert_equivalent, check_equivalence
from repro.sim import CombinationalSimulator


def de_morgan_pair():
    """NOT(a AND b) vs (NOT a) OR (NOT b) — equivalent by De Morgan."""
    left = Netlist("nandish")
    left.add_input("a")
    left.add_input("b")
    left.add_gate("y", GateType.NAND, ["a", "b"])
    left.add_output("y")

    right = Netlist("orish")
    right.add_input("a")
    right.add_input("b")
    right.add_gate("na", GateType.NOT, ["a"])
    right.add_gate("nb", GateType.NOT, ["b"])
    right.add_gate("y", GateType.OR, ["na", "nb"])
    right.add_output("y")
    return left, right


class TestEquivalent:
    def test_de_morgan(self):
        left, right = de_morgan_pair()
        result = check_equivalence(left, right)
        assert result.equivalent
        assert bool(result)
        assert result.counterexample is None

    def test_lut_replacement_is_equivalent(self, tiny_comb):
        hybrid = tiny_comb.copy()
        for g in list(hybrid.gates):
            hybrid.replace_with_lut(g)
        assert check_equivalence(tiny_comb, hybrid).equivalent

    def test_sequential_equivalence_via_next_state(self, tiny_seq):
        hybrid = tiny_seq.copy()
        hybrid.replace_with_lut("m")
        hybrid.replace_with_lut("x")
        assert check_equivalence(tiny_seq, hybrid).equivalent

    def test_assert_equivalent_passes(self, tiny_comb):
        assert_equivalent(tiny_comb, tiny_comb.copy())


class TestInequivalent:
    def test_wrong_gate_found(self):
        left, right = de_morgan_pair()
        right.set_gate_type("y", GateType.AND)  # now inequivalent
        result = check_equivalence(left, right)
        assert not result.equivalent
        assert result.counterexample is not None

    def test_counterexample_is_valid(self, tiny_comb):
        hybrid = tiny_comb.copy()
        hybrid.replace_with_lut("y1")
        hybrid.node("y1").lut_config ^= 0b0100  # corrupt one row
        result = check_equivalence(tiny_comb, hybrid)
        assert not result.equivalent
        cex = result.counterexample
        sim_l = CombinationalSimulator(tiny_comb)
        sim_r = CombinationalSimulator(hybrid)
        inputs = {pi: cex[pi] for pi in tiny_comb.inputs}
        out_l = sim_l.evaluate(inputs)
        out_r = sim_r.evaluate(inputs)
        assert any(out_l[po] != out_r[po] for po in tiny_comb.outputs)

    def test_single_row_corruption_in_sequential(self, tiny_seq):
        hybrid = tiny_seq.copy()
        hybrid.replace_with_lut("x")
        hybrid.node("x").lut_config ^= 0b0001
        result = check_equivalence(tiny_seq, hybrid)
        assert not result.equivalent

    def test_assert_equivalent_raises(self):
        left, right = de_morgan_pair()
        right.set_gate_type("y", GateType.NOR)
        with pytest.raises(NetlistError, match="differ"):
            assert_equivalent(left, right)


class TestInterfaceChecks:
    def test_different_inputs_rejected(self, tiny_comb, tiny_seq):
        with pytest.raises(NetlistError, match="primary inputs"):
            check_equivalence(tiny_comb, tiny_seq)

    def test_unprogrammed_lut_rejected(self, tiny_comb):
        hybrid = tiny_comb.copy()
        hybrid.replace_with_lut("y1", program=False)
        with pytest.raises(NetlistError):
            check_equivalence(tiny_comb, hybrid)

    def test_different_ff_sets_rejected(self, tiny_seq):
        other = Netlist("other")
        for pi in tiny_seq.inputs:
            other.add_input(pi)
        other.add_gate("x", GateType.XOR, ["a", "b"])
        other.add_gate("out", GateType.BUF, ["x"])
        other.add_output("out")
        with pytest.raises(NetlistError, match="flip-flops"):
            check_equivalence(tiny_seq, other)


class TestComparedPoints:
    """``compared_points`` is the number of miter pairs (POs + flip-flops)
    on *both* verdict paths — the counterexample path used to double-count
    by summing both sides' observation points."""

    def test_equivalent_path_counts_pairs(self):
        left, right = de_morgan_pair()
        result = check_equivalence(left, right)
        assert result.equivalent
        assert result.compared_points == 1  # one PO, no flip-flops

    def test_counterexample_path_counts_pairs(self):
        left, right = de_morgan_pair()
        right.set_gate_type("y", GateType.AND)
        result = check_equivalence(left, right)
        assert not result.equivalent
        assert result.compared_points == 1  # was 2 (double-counted)

    def test_both_paths_agree_with_sequential_pairs(self, tiny_seq):
        pairs = len(tiny_seq.outputs) + len(tiny_seq.flip_flops)
        same = check_equivalence(tiny_seq, tiny_seq.copy())
        assert same.equivalent
        assert same.compared_points == pairs
        broken = tiny_seq.copy()
        broken.replace_with_lut("x")
        broken.node("x").lut_config ^= 0b0001
        diff = check_equivalence(tiny_seq, broken)
        assert not diff.equivalent
        assert diff.compared_points == pairs


class TestEquivalenceSession:
    def test_many_candidates_one_solver(self, tiny_comb):
        from repro.sat import EquivalenceSession

        session = EquivalenceSession(tiny_comb)
        good = tiny_comb.copy("good")
        good.replace_with_lut("y1")
        bad = tiny_comb.copy("bad")
        bad.replace_with_lut("y1")
        bad.node("y1").lut_config ^= 0b0100
        assert session.check(good).equivalent
        r_bad = session.check(bad)
        assert not r_bad.equivalent
        assert r_bad.counterexample is not None
        # Verdicts stay independent: a failing candidate must not poison
        # the session for later candidates.
        assert session.check(tiny_comb.copy("again")).equivalent
        assert session.checks_run == 3
        assert session.stats["propagations"] > 0

    def test_session_counterexample_is_valid(self, tiny_comb):
        from repro.sat import EquivalenceSession
        from repro.sim import CombinationalSimulator

        session = EquivalenceSession(tiny_comb)
        bad = tiny_comb.copy("bad")
        bad.replace_with_lut("y1")
        bad.node("y1").lut_config ^= 0b0100
        cex = session.check(bad).counterexample
        inputs = {pi: cex[pi] for pi in tiny_comb.inputs}
        out_l = CombinationalSimulator(tiny_comb).evaluate(inputs)
        out_r = CombinationalSimulator(bad).evaluate(inputs)
        assert any(out_l[po] != out_r[po] for po in tiny_comb.outputs)

    def test_session_matches_oneshot_verdicts(self, tiny_seq):
        from repro.sat import EquivalenceSession

        session = EquivalenceSession(tiny_seq)
        candidates = []
        for row in range(4):
            cand = tiny_seq.copy(f"cand{row}")
            cand.replace_with_lut("x")
            cand.node("x").lut_config ^= 1 << row
            candidates.append(cand)
        for cand in candidates:
            assert (
                session.check(cand).equivalent
                == check_equivalence(tiny_seq, cand).equivalent
            )

    def test_session_interface_checks(self, tiny_comb, tiny_seq):
        from repro.sat import EquivalenceSession

        session = EquivalenceSession(tiny_comb)
        with pytest.raises(NetlistError, match="primary inputs"):
            session.check(tiny_seq)
        # The session survives a rejected candidate.
        assert session.check(tiny_comb.copy()).equivalent
