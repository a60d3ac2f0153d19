"""Tests for three-valued implication and PODEM-style justification."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.netlist import GateType, Netlist
from repro.sim import (
    CombinationalSimulator,
    Implication,
    is_observable,
    justify,
    justify_and_propagate,
    random_observable_pattern,
)
from repro.netlist.transform import replace_gates_with_luts
from repro.sim.justify import _eval3, _imply, _schedule


class TestThreeValuedEval:
    def test_and_controlling_zero(self):
        assert _eval3(GateType.AND, None, [0, None]) == 0
        assert _eval3(GateType.NAND, None, [0, None]) == 1

    def test_or_controlling_one(self):
        assert _eval3(GateType.OR, None, [None, 1]) == 1
        assert _eval3(GateType.NOR, None, [None, 1]) == 0

    def test_unknown_propagates(self):
        assert _eval3(GateType.AND, None, [1, None]) is None
        assert _eval3(GateType.XOR, None, [1, None]) is None
        assert _eval3(GateType.NOT, None, [None]) is None

    def test_xor_known(self):
        assert _eval3(GateType.XOR, None, [1, 1, 0]) == 0
        assert _eval3(GateType.XNOR, None, [1, 0]) == 0

    def test_constants(self):
        assert _eval3(GateType.CONST0, None, []) == 0
        assert _eval3(GateType.CONST1, None, []) == 1

    def test_unprogrammed_lut_is_x(self):
        assert _eval3(GateType.LUT, None, [1, 1]) is None

    def test_programmed_lut_partial_inputs(self):
        # AND-LUT: output 0 as soon as one input is 0 even if other is X.
        assert _eval3(GateType.LUT, 0b1000, [0, None]) == 0
        assert _eval3(GateType.LUT, 0b1000, [1, None]) is None
        # Constant-1 LUT is determined regardless of X inputs.
        assert _eval3(GateType.LUT, 0b1111, [None, None]) == 1


    @pytest.mark.parametrize("n", range(4))
    def test_lut_output_is_determined_iff_every_completion_agrees(self, n):
        rng = random.Random(n)
        configs = {0, (1 << (1 << n)) - 1} | {
            rng.getrandbits(1 << n) for _ in range(24)
        }
        for config in configs:
            for inputs in itertools.product((0, 1, None), repeat=n):
                unknown = [i for i, v in enumerate(inputs) if v is None]
                outputs = set()
                for bits in itertools.product((0, 1), repeat=len(unknown)):
                    row_bits = list(inputs)
                    for pin, bit in zip(unknown, bits):
                        row_bits[pin] = bit
                    row = sum(bit << pin for pin, bit in enumerate(row_bits))
                    outputs.add((config >> row) & 1)
                expected = outputs.pop() if len(outputs) == 1 else None
                assert _eval3(GateType.LUT, config, inputs) == expected


class TestImplication:
    def test_full_assignment(self, tiny_comb):
        engine = Implication(tiny_comb)
        values = engine.run({"a": 1, "b": 1, "c": 0})
        assert values["y1"] == 1
        assert values["y2"] == 0

    def test_partial_assignment(self, tiny_comb):
        engine = Implication(tiny_comb)
        values = engine.run({"a": 0})
        assert values["t_and"] == 0  # controlled by a=0
        assert values["y1"] is None  # depends on unknown c

    def test_startpoints_include_ffs(self, tiny_seq):
        engine = Implication(tiny_seq)
        assert "reg1" in engine.startpoints
        assert "a" in engine.startpoints


    def test_config_writes_reach_a_built_schedule(self, s27):
        hybrid = s27.copy("s27_luts")
        replace_gates_with_luts(hybrid, ["G8", "G12"], program=False)
        engine = Implication(hybrid)
        full = {sp: 1 for sp in engine.startpoints}
        assert engine.run(full)["G8"] is None
        revision = hybrid.structure_revision
        hybrid.node("G8").lut_config = 0b1111  # constant 1
        assert hybrid.structure_revision == revision
        assert engine.run({})["G8"] == 1

    def test_cone_reimplication_equals_a_full_pass(self, s27):
        rng = random.Random(5)
        schedule = _schedule(s27)
        engine = Implication(s27)
        for _ in range(50):
            assignment = {}
            values = engine.values(assignment)
            for name in rng.sample(schedule.startpoints, 5):
                assignment[name] = rng.getrandbits(1)
                sp = schedule.index[name]
                values[sp] = assignment[name]
                _imply(values, schedule.cone_steps(sp))
                assert values == engine.values(assignment)


class TestJustify:
    def test_justify_internal_net(self, tiny_comb, rng):
        pattern = justify(tiny_comb, {"t_and": 1}, rng=rng)
        assert pattern is not None
        assert pattern["a"] == 1 and pattern["b"] == 1

    def test_justify_multiple_objectives(self, tiny_comb, rng):
        pattern = justify(tiny_comb, {"t_and": 1, "y1": 0}, rng=rng)
        assert pattern is not None
        sim = CombinationalSimulator(tiny_comb)
        values = sim.evaluate({pi: pattern[pi] for pi in tiny_comb.inputs})
        assert values["t_and"] == 1 and values["y1"] == 0

    def test_unjustifiable_returns_none(self, rng):
        n = Netlist()
        n.add_input("a")
        n.add_gate("x", GateType.AND, ["a", "a"])
        n.add_gate("y", GateType.XOR, ["x", "a"])  # always 0
        n.add_output("y")
        assert justify(n, {"y": 1}, rng=rng) is None

    def test_justify_through_ff_startpoint(self, tiny_seq, rng):
        pattern = justify(tiny_seq, {"m": 1}, rng=rng)
        assert pattern is not None
        assert pattern["reg1"] == 1 and pattern["b"] == 1

    def test_justify_on_s27(self, s27, rng):
        for target, value in [("G8", 1), ("G12", 1), ("G16", 0)]:
            pattern = justify(s27, {target: value}, rng=rng)
            assert pattern is not None, (target, value)
            sim = CombinationalSimulator(s27)
            values = sim.evaluate(
                {pi: pattern[pi] for pi in s27.inputs},
                {ff: pattern[ff] for ff in s27.flip_flops},
            )
            assert values[target] == value


class TestObservability:
    def test_output_always_observable(self, tiny_comb):
        assert is_observable(tiny_comb, "y1", {"a": 0, "b": 0, "c": 0})

    def test_masked_net(self, tiny_comb):
        # t_and feeds y1 = t_and XOR c; XOR never masks, so always observable.
        assert is_observable(tiny_comb, "t_and", {"a": 0, "b": 0, "c": 0})

    def test_blocked_net(self, tiny_seq):
        # m -> reg2 D-pin is an observation point itself; x -> reg1 D-pin too.
        assert is_observable(tiny_seq, "x", {"a": 0, "b": 0})

    def test_and_masking(self):
        n = Netlist()
        n.add_input("a")
        n.add_input("sel")
        n.add_gate("t", GateType.NOT, ["a"])
        n.add_gate("y", GateType.AND, ["t", "sel"])
        n.add_output("y")
        assert not is_observable(n, "t", {"a": 0, "sel": 0})
        assert is_observable(n, "t", {"a": 0, "sel": 1})

    def test_justify_and_propagate(self, s27, rng):
        pattern = justify_and_propagate(s27, "G8", {"G14": 1, "G6": 1}, rng=rng)
        assert pattern is not None
        sim = CombinationalSimulator(s27)
        values = sim.evaluate(
            {pi: pattern[pi] for pi in s27.inputs},
            {ff: pattern[ff] for ff in s27.flip_flops},
        )
        assert values["G14"] == 1 and values["G6"] == 1
        assert is_observable(s27, "G8", pattern)

    def test_random_observable_pattern(self, tiny_comb, rng):
        pattern = random_observable_pattern(tiny_comb, "t_and", rng)
        assert pattern is not None
        assert is_observable(tiny_comb, "t_and", pattern)
