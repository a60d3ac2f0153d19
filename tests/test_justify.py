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
from repro.dataflow.lattice import TernaryWord, eval_gate3, eval_lut3, unknown_lut3
from repro.netlist.gates import evaluate_gate, max_arity, min_arity
from repro.netlist.transform import replace_gates_with_luts
from repro.sim.justify import _imply, _schedule


def _rails(value):
    """A 0/1/X value as a width-1 lattice word."""
    return TernaryWord.unknown(1) if value is None else TernaryWord.const(value, 1)


def _value(word):
    """A width-1 lattice word as 0/1/X."""
    if word.concrete1():
        return 1
    return 0 if word.concrete0() else None


def _lattice3(gate_type, config, inputs):
    """The lattice (the one three-valued spec) at width 1, on 0/1/X."""
    fanin = [_rails(v) for v in inputs]
    if gate_type is not GateType.LUT:
        return _value(eval_gate3(gate_type, fanin, 1))
    if config is None:
        return _value(unknown_lut3(fanin, 1))
    return _value(eval_lut3(config, fanin, 1))


def _by_completion(function, inputs):
    """Kleene's definition: the output is determined exactly when every
    completion of the X inputs agrees on it."""
    unknown = [pin for pin, v in enumerate(inputs) if v is None]
    outputs = set()
    for bits in itertools.product((0, 1), repeat=len(unknown)):
        completed = list(inputs)
        for pin, bit in zip(unknown, bits):
            completed[pin] = bit
        outputs.add(function(completed))
    return outputs.pop() if len(outputs) == 1 else None


def _lut_function(config):
    return lambda bits: (config >> sum(b << pin for pin, b in enumerate(bits))) & 1


def _gate_function(gate_type):
    return lambda bits: evaluate_gate(gate_type, bits) & 1


#: (gate type, pins): every primitive gate at 1–4 pins, constants at none.
_PRIMITIVES = [
    (gate_type, pins)
    for gate_type in (
        GateType.AND,
        GateType.NAND,
        GateType.OR,
        GateType.NOR,
        GateType.XOR,
        GateType.XNOR,
    )
    for pins in (1, 2, 3, 4)
] + [(GateType.NOT, 1), (GateType.BUF, 1), (GateType.CONST0, 0), (GateType.CONST1, 0)]

#: The primitives a netlist can hold (AND/OR/XOR families take ≥ 2 pins).
_LEGAL_PRIMITIVES = [
    (gate_type, pins)
    for gate_type, pins in _PRIMITIVES
    if min_arity(gate_type) <= pins <= max_arity(gate_type)
]


def _primitive_id(case):
    gate_type, pins = case
    return f"{gate_type.value}{pins}"


class TestThreeValuedEval:
    """The lattice at width 1 against Kleene's definition: hand-picked
    cases, then every 0/1/X input by enumeration of its completions."""

    def test_and_controlling_zero(self):
        assert _lattice3(GateType.AND, None, [0, None]) == 0
        assert _lattice3(GateType.NAND, None, [0, None]) == 1

    def test_or_controlling_one(self):
        assert _lattice3(GateType.OR, None, [None, 1]) == 1
        assert _lattice3(GateType.NOR, None, [None, 1]) == 0

    def test_unknown_propagates(self):
        assert _lattice3(GateType.AND, None, [1, None]) is None
        assert _lattice3(GateType.XOR, None, [1, None]) is None
        assert _lattice3(GateType.NOT, None, [None]) is None

    def test_xor_known(self):
        assert _lattice3(GateType.XOR, None, [1, 1, 0]) == 0
        assert _lattice3(GateType.XNOR, None, [1, 0]) == 0

    def test_constants(self):
        assert _lattice3(GateType.CONST0, None, []) == 0
        assert _lattice3(GateType.CONST1, None, []) == 1

    def test_unprogrammed_lut_is_x(self):
        assert _lattice3(GateType.LUT, None, [1, 1]) is None

    def test_programmed_lut_partial_inputs(self):
        # AND-LUT: output 0 as soon as one input is 0 even if other is X.
        assert _lattice3(GateType.LUT, 0b1000, [0, None]) == 0
        assert _lattice3(GateType.LUT, 0b1000, [1, None]) is None
        # Constant-1 LUT is determined regardless of X inputs.
        assert _lattice3(GateType.LUT, 0b1111, [None, None]) == 1

    @pytest.mark.parametrize("n", range(5))
    def test_lut_output_is_determined_iff_every_completion_agrees(self, n):
        """Every configuration up to 3 pins; seeded samples at 4."""
        if n <= 3:
            configs = range(1 << (1 << n))
        else:
            rng = random.Random(2016)
            configs = {0, 0xFFFF} | {rng.getrandbits(16) for _ in range(64)}
        for config in configs:
            for inputs in itertools.product((0, 1, None), repeat=n):
                expected = _by_completion(_lut_function(config), inputs)
                assert _lattice3(GateType.LUT, config, inputs) == expected

    @pytest.mark.parametrize("case", _PRIMITIVES, ids=_primitive_id)
    def test_gate_output_is_determined_iff_every_completion_agrees(self, case):
        gate_type, pins = case
        for inputs in itertools.product((0, 1, None), repeat=pins):
            expected = _by_completion(_gate_function(gate_type), inputs)
            assert _lattice3(gate_type, None, inputs) == expected, inputs


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

    @pytest.mark.parametrize("case", _LEGAL_PRIMITIVES, ids=_primitive_id)
    def test_inline_steps_agree_with_the_lattice(self, case):
        gate_type, pins = case
        netlist = Netlist(f"one_{gate_type.value}")
        names = [f"i{pin}" for pin in range(pins)]
        for name in names:
            netlist.add_input(name)
        netlist.add_gate("g", gate_type, names)
        netlist.add_output("g")
        engine = Implication(netlist)
        for inputs in itertools.product((0, 1, None), repeat=pins):
            assignment = {n: v for n, v in zip(names, inputs) if v is not None}
            assert engine.run(assignment)["g"] == _lattice3(
                gate_type, None, inputs
            ), inputs

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lut_steps_agree_with_the_lattice(self, n):
        netlist = Netlist(f"one_lut{n}")
        names = [f"i{pin}" for pin in range(n)]
        for name in names:
            netlist.add_input(name)
        netlist.add_gate("g", GateType.LUT, names)
        netlist.add_output("g")
        engine = Implication(netlist)
        rng = random.Random(n)
        for config in [None, 0, (1 << (1 << n)) - 1] + [
            rng.getrandbits(1 << n) for _ in range(8)
        ]:
            netlist.node("g").lut_config = config
            for inputs in itertools.product((0, 1, None), repeat=n):
                assignment = {
                    name: v for name, v in zip(names, inputs) if v is not None
                }
                assert engine.run(assignment)["g"] == _lattice3(
                    GateType.LUT, config, inputs
                ), (config, inputs)


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
