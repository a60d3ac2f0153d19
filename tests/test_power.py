"""Tests for signal probabilities, activities, and power accounting."""

from __future__ import annotations

import pytest

from repro.analysis import (
    PowerAnalyzer,
    estimate_activities,
    signal_probabilities,
)
from repro.netlist import GateType, Netlist, NetlistError


class TestSignalProbabilities:
    def test_basic_gates(self, tiny_comb):
        probs = signal_probabilities(tiny_comb)
        assert probs["a"] == pytest.approx(0.5)
        assert probs["t_and"] == pytest.approx(0.25)
        assert probs["t_or"] == pytest.approx(0.75)
        assert probs["y2"] == pytest.approx(0.25)
        # y1 = t_and XOR c with c independent-ish: p = p1(1-p2)+p2(1-p1)
        assert probs["y1"] == pytest.approx(0.25 * 0.5 + 0.5 * 0.75)

    def test_xor_chain(self):
        n = Netlist()
        for pi in "abc":
            n.add_input(pi)
        n.add_gate("y", GateType.XOR, ["a", "b", "c"])
        n.add_output("y")
        assert signal_probabilities(n)["y"] == pytest.approx(0.5)

    def test_lut_probability_exact(self, tiny_comb):
        hybrid = tiny_comb.copy()
        hybrid.replace_with_lut("t_and")
        assert signal_probabilities(hybrid)["t_and"] == pytest.approx(0.25)

    def test_unprogrammed_lut_is_half(self, tiny_comb):
        tiny_comb.replace_with_lut("t_and", program=False)
        assert signal_probabilities(tiny_comb)["t_and"] == pytest.approx(0.5)

    def test_sequential_fixpoint(self, tiny_seq):
        probs = signal_probabilities(tiny_seq)
        # reg1 <= a XOR b -> 0.5; m = reg1 AND b -> 0.25; reg2 <= m.
        assert probs["reg1"] == pytest.approx(0.5, abs=1e-4)
        assert probs["reg2"] == pytest.approx(0.25, abs=1e-4)

    def test_constants(self):
        n = Netlist()
        n.add_input("a")
        n.add_gate("zero", GateType.CONST0, [])
        n.add_gate("one", GateType.CONST1, [])
        n.add_gate("y", GateType.AND, ["a", "one"])
        n.add_output("y")
        probs = signal_probabilities(n)
        assert probs["zero"] == 0.0
        assert probs["one"] == 1.0
        assert probs["y"] == pytest.approx(0.5)

    def test_flip_flop_reading_an_undriven_net_is_rejected(self):
        n = Netlist()
        n.add_input("a")
        n.add_gate("r", GateType.DFF, ["nowhere"])
        n.add_gate("y", GateType.AND, ["a", "r"])
        n.add_output("y")
        with pytest.raises(NetlistError, match="nobody drives"):
            signal_probabilities(n)


class TestActivities:
    def test_probabilistic_alpha(self, tiny_comb):
        acts = estimate_activities(tiny_comb, input_activity=0.5)
        # alpha = 2 p (1-p); for p=0.25 -> 0.375 (full input activity).
        assert acts["t_and"] == pytest.approx(2 * 0.25 * 0.75)
        assert acts["a"] == pytest.approx(0.5)

    def test_input_activity_scaling(self, tiny_comb):
        full = estimate_activities(tiny_comb, input_activity=0.5)
        half = estimate_activities(tiny_comb, input_activity=0.25)
        assert half["t_and"] == pytest.approx(full["t_and"] / 2)

    def test_simulation_close_to_probabilistic(self, tiny_comb):
        prob = estimate_activities(tiny_comb, input_activity=0.5)
        sim = estimate_activities(
            tiny_comb, method="simulation", cycles=512, width=64, seed=3
        )
        assert sim["t_and"] == pytest.approx(prob["t_and"], abs=0.05)

    def test_unknown_method(self, tiny_comb):
        with pytest.raises(ValueError):
            estimate_activities(tiny_comb, method="tarot")


class TestPowerAnalyzer:
    def test_report_totals(self, tiny_comb):
        report = PowerAnalyzer().analyze(tiny_comb)
        assert report.total_uw == pytest.approx(
            report.dynamic_uw + report.leakage_uw
        )
        assert report.total_uw > 0
        assert set(report.per_node_uw) == {"t_and", "y1", "t_or", "y2"}

    def test_zero_activity_leaves_leakage(self, tiny_comb):
        acts = {name: 0.0 for name in tiny_comb.node_names()}
        report = PowerAnalyzer().analyze(tiny_comb, activities=acts)
        assert report.dynamic_uw == pytest.approx(0.0)
        assert report.leakage_uw > 0

    def test_lut_power_function_independent(self, tiny_comb):
        """The STT LUT's charge must not depend on the programmed function
        (the paper's side-channel argument)."""
        analyzer = PowerAnalyzer()
        acts = estimate_activities(tiny_comb)
        h1 = tiny_comb.copy()
        h1.replace_with_lut("t_and")
        h2 = tiny_comb.copy()
        h2.replace_with_lut("t_and")
        h2.node("t_and").lut_config = 0b0110  # reprogram as XOR
        p1 = analyzer.analyze(h1, activities=acts).per_node_uw["t_and"]
        p2 = analyzer.analyze(h2, activities=acts).per_node_uw["t_and"]
        assert p1 == pytest.approx(p2)

    def test_replacement_costs_power(self, tiny_comb):
        analyzer = PowerAnalyzer()
        hybrid = tiny_comb.copy()
        hybrid.replace_with_lut("t_and")
        overhead = analyzer.power_overhead_pct(tiny_comb, hybrid)
        assert overhead > 0

    def test_overhead_grows_with_replacements(self, s641):
        analyzer = PowerAnalyzer()
        h1 = s641.copy()
        gates = s641.gates
        for g in gates[:3]:
            h1.replace_with_lut(g)
        h5 = s641.copy()
        for g in gates[:15]:
            h5.replace_with_lut(g)
        assert analyzer.power_overhead_pct(
            s641, h5
        ) > analyzer.power_overhead_pct(s641, h1)

    def test_frequency_scales_dynamic(self, tiny_comb):
        analyzer = PowerAnalyzer()
        slow = analyzer.analyze(tiny_comb, freq_ghz=0.5)
        fast = analyzer.analyze(tiny_comb, freq_ghz=1.0)
        assert fast.dynamic_uw == pytest.approx(2 * slow.dynamic_uw)
        assert fast.leakage_uw == pytest.approx(slow.leakage_uw)
