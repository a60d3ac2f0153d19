"""Tests for circuit-to-CNF translation: every gate encoding is checked
exhaustively against the simulator."""

from __future__ import annotations

import itertools

import pytest

from repro.netlist import GateType, Netlist, NetlistError
from repro.sat import CircuitEncoder, Cnf, Solver, encode_netlist
from repro.sat.tseitin import gated_miter
from repro.sim import CombinationalSimulator


def single_gate_netlist(gate_type: GateType, n_inputs: int) -> Netlist:
    n = Netlist(f"one_{gate_type.value}")
    pins = [f"i{k}" for k in range(n_inputs)]
    for pin in pins:
        n.add_input(pin)
    n.add_gate("y", gate_type, pins)
    n.add_output("y")
    return n


def enumerate_cnf_models(netlist, cnf, enc):
    """For every input assignment, solve the CNF with the inputs pinned and
    return the forced output value."""
    results = {}
    n_inputs = len(netlist.inputs)
    for row in range(1 << n_inputs):
        solver = Solver()
        solver.add_cnf(cnf)
        assumptions = []
        for pin_index, pin in enumerate(netlist.inputs):
            var = enc.net_vars[pin]
            assumptions.append(var if (row >> pin_index) & 1 else -var)
        assert solver.solve(assumptions), "gate CNF must be satisfiable"
        results[row] = int(solver.model()[enc.net_vars["y"]])
    return results


GATE_CASES = [
    (GateType.BUF, 1),
    (GateType.NOT, 1),
    (GateType.AND, 2),
    (GateType.AND, 3),
    (GateType.NAND, 2),
    (GateType.NAND, 4),
    (GateType.OR, 2),
    (GateType.OR, 3),
    (GateType.NOR, 2),
    (GateType.NOR, 4),
    (GateType.XOR, 2),
    (GateType.XOR, 3),
    (GateType.XNOR, 2),
    (GateType.XNOR, 3),
]


class TestGateEncodings:
    @pytest.mark.parametrize("gate_type,n_inputs", GATE_CASES)
    def test_exhaustive_against_simulator(self, gate_type, n_inputs):
        netlist = single_gate_netlist(gate_type, n_inputs)
        cnf, enc = encode_netlist(netlist)
        sim = CombinationalSimulator(netlist)
        cnf_out = enumerate_cnf_models(netlist, cnf, enc)
        for row in range(1 << n_inputs):
            inputs = {
                pin: (row >> k) & 1 for k, pin in enumerate(netlist.inputs)
            }
            assert cnf_out[row] == sim.evaluate(inputs)["y"], (gate_type, row)

    def test_constants(self):
        n = Netlist()
        n.add_input("a")
        n.add_gate("zero", GateType.CONST0, [])
        n.add_gate("one", GateType.CONST1, [])
        n.add_gate("y", GateType.AND, ["a", "one"])
        n.add_output("y")
        cnf, enc = encode_netlist(n)
        solver = Solver()
        solver.add_cnf(cnf)
        assert solver.solve([enc.net_vars["a"]])
        assert solver.model()[enc.net_vars["y"]] is True

    def test_programmed_lut_encoding(self, tiny_comb):
        hybrid = tiny_comb.copy()
        for g in list(hybrid.gates):
            hybrid.replace_with_lut(g)
        cnf, enc = encode_netlist(hybrid)
        sim = CombinationalSimulator(tiny_comb)
        for row in range(8):
            inputs = {
                pin: (row >> k) & 1 for k, pin in enumerate(hybrid.inputs)
            }
            solver = Solver()
            solver.add_cnf(cnf)
            assumptions = [
                enc.net_vars[p] if inputs[p] else -enc.net_vars[p]
                for p in hybrid.inputs
            ]
            assert solver.solve(assumptions)
            want = sim.evaluate(inputs)
            for po in hybrid.outputs:
                assert solver.model()[enc.net_vars[po]] == bool(want[po])


class TestSymbolicLuts:
    def test_key_vars_created_per_row(self, tiny_comb):
        tiny_comb.replace_with_lut("t_and", program=False)
        cnf, enc = encode_netlist(tiny_comb, symbolic_luts=True)
        rows = enc.lut_rows("t_and")
        assert [row for row, _ in rows] == [0, 1, 2, 3]

    def test_key_semantics(self, tiny_comb):
        """Forcing the key to the AND table makes the circuit behave as the
        original on every input."""
        original = tiny_comb.copy()
        tiny_comb.replace_with_lut("t_and", program=False)
        cnf, enc = encode_netlist(tiny_comb, symbolic_luts=True)
        sim = CombinationalSimulator(original)
        and_table = 0b1000
        key_lits = [
            var if (and_table >> row) & 1 else -var
            for row, var in enc.lut_rows("t_and")
        ]
        for row in range(8):
            inputs = {
                pin: (row >> k) & 1 for k, pin in enumerate(original.inputs)
            }
            solver = Solver()
            solver.add_cnf(cnf)
            assumptions = key_lits + [
                enc.net_vars[p] if inputs[p] else -enc.net_vars[p]
                for p in original.inputs
            ]
            assert solver.solve(assumptions)
            want = sim.evaluate(inputs)
            assert solver.model()[enc.net_vars["y1"]] == bool(want["y1"])

    def test_symbolic_disabled_raises(self, tiny_comb):
        tiny_comb.replace_with_lut("t_and", program=False)
        with pytest.raises(NetlistError):
            encode_netlist(tiny_comb, symbolic_luts=False)

    def test_shared_keys_between_copies(self, tiny_comb):
        tiny_comb.replace_with_lut("t_and", program=False)
        encoder = CircuitEncoder(Cnf())
        shared = {}
        enc1 = encoder.encode(tiny_comb, prefix="a.", key_vars=shared)
        enc2 = encoder.encode(tiny_comb, prefix="b.", key_vars=shared)
        assert enc1.key_vars == enc2.key_vars

    def test_independent_keys_without_sharing(self, tiny_comb):
        tiny_comb.replace_with_lut("t_and", program=False)
        encoder = CircuitEncoder(Cnf())
        enc1 = encoder.encode(tiny_comb, prefix="a.")
        enc2 = encoder.encode(tiny_comb, prefix="b.")
        assert enc1.key_vars != enc2.key_vars


class TestSharedInputs:
    def test_input_vars_reused(self, tiny_comb):
        encoder = CircuitEncoder(Cnf())
        enc1 = encoder.encode(tiny_comb, prefix="a.")
        shared = {pi: enc1.net_vars[pi] for pi in tiny_comb.inputs}
        enc2 = encoder.encode(tiny_comb, prefix="b.", input_vars=shared)
        for pi in tiny_comb.inputs:
            assert enc1.net_vars[pi] == enc2.net_vars[pi]
        assert enc1.net_vars["y1"] != enc2.net_vars["y1"]


class TestGatedMiter:
    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    def test_unsat_under_act_exactly_when_every_pair_is_equal(self, n_pairs):
        cnf = Cnf()
        pairs = [(cnf.new_var(), cnf.new_var()) for _ in range(n_pairs)]
        act = cnf.new_var()
        gated_miter(cnf, pairs, act)
        solver = Solver()
        solver.add_cnf(cnf)
        for bits in itertools.product((0, 1), repeat=2 * n_pairs):
            fixed = [
                var if bit else -var
                for var, bit in zip(itertools.chain(*pairs), bits)
            ]
            some_differ = any(
                bits[2 * k] != bits[2 * k + 1] for k in range(n_pairs)
            )
            assert solver.solve([act] + fixed) == some_differ, bits
            assert solver.solve([-act] + fixed), bits

    def test_retired_miter_keeps_the_formula_satisfiable(self):
        cnf = Cnf()
        a, b = cnf.new_var(), cnf.new_var()
        act = cnf.new_var()
        gated_miter(cnf, [(a, b)], act)
        cnf.add_clauses([[-a, b], [a, -b]])  # the sides are equal
        solver = Solver()
        solver.add_cnf(cnf)
        assert not solver.solve([act])
        solver.add_clause([-act])
        assert solver.solve()
