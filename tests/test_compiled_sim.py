"""Parity suite: the compiled backend must match the interpreter bit-exactly.

Every test drives the same netlist through ``backend="interpreted"`` and
``backend="compiled"`` and compares the full output dictionaries.  Netlists
are randomised (generated circuits across several seeds), locked with
programmed, unprogrammed and decoy-widened LUTs, and exercised with
overrides, width sweeps, and multi-cycle sequential runs.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import load_benchmark
from repro.circuits.generator import CircuitSpec, generate
from repro.netlist import GateType, Netlist, NetlistError
from repro.netlist.cache import cached_keys
from repro.netlist.transform import (
    replace_gates_with_luts,
    widen_lut_with_decoys,
)
from repro.obs import Recorder, use_recorder
from repro.sim import (
    BACKENDS,
    CombinationalSimulator,
    SequentialSimulator,
    compiled_source,
    evaluate_configs,
    exhaustive_input_words,
    get_program,
)


def _lockable_gates(netlist: Netlist):
    return [
        g
        for g in netlist.gates
        if netlist.node(g).is_combinational
        and not netlist.node(g).is_lut
        and netlist.node(g).gate_type
        not in (GateType.CONST0, GateType.CONST1)
    ]


def _assert_parity(netlist, trials=20, seed=0, overrides_from=()):
    """Random inputs/state/width; both backends must agree exactly."""
    rng = random.Random(seed)
    interpreted = CombinationalSimulator(netlist, backend="interpreted")
    compiled = CombinationalSimulator(netlist, backend="compiled")
    overridable = list(overrides_from)
    for trial in range(trials):
        width = rng.choice([1, 3, 32, 64])
        inputs = {pi: rng.getrandbits(width) for pi in netlist.inputs}
        state = {ff: rng.getrandbits(width) for ff in netlist.flip_flops}
        overrides = None
        if overridable and trial % 3 == 0:
            overrides = {
                name: rng.getrandbits(width)
                for name in rng.sample(
                    overridable, rng.randint(1, len(overridable))
                )
            }
        expected = interpreted.evaluate(inputs, state, width, overrides=overrides)
        actual = compiled.evaluate(inputs, state, width, overrides=overrides)
        assert actual == expected, f"trial {trial} (width {width}) diverged"


class TestBackendSelection:
    def test_backends_constant(self):
        assert set(BACKENDS) == {"compiled", "interpreted"}

    def test_unknown_backend_rejected(self, tiny_comb):
        with pytest.raises(ValueError):
            CombinationalSimulator(tiny_comb, backend="quantum")

    def test_compiled_source_is_python(self, tiny_comb):
        source = compiled_source(tiny_comb)
        compile(source, "<test>", "exec")  # must be valid Python
        assert "def _run" in source


class TestPlainGateParity:
    def test_tiny_exhaustive(self, tiny_comb):
        words = exhaustive_input_words(tiny_comb)
        width = 1 << len(tiny_comb.inputs)
        a = CombinationalSimulator(tiny_comb, backend="interpreted").evaluate(
            words, width=width
        )
        b = CombinationalSimulator(tiny_comb, backend="compiled").evaluate(
            words, width=width
        )
        assert a == b

    def test_s27(self, s27):
        _assert_parity(s27, seed=1)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_generated_circuits(self, seed):
        spec = CircuitSpec(
            name=f"parity{seed}",
            n_inputs=6,
            n_outputs=4,
            n_flip_flops=5,
            n_gates=60,
            seed=seed,
        )
        _assert_parity(generate(spec), seed=seed)

    def test_constants_and_buffers(self):
        n = Netlist("consts")
        n.add_input("a")
        n.add_gate("one", GateType.CONST1, [])
        n.add_gate("zero", GateType.CONST0, [])
        n.add_gate("buf", GateType.BUF, ["a"])
        n.add_gate("y", GateType.AND, ["one", "buf"])
        n.add_gate("z", GateType.OR, ["zero", "a"])
        for out in ("y", "z", "one", "zero"):
            n.add_output(out)
        _assert_parity(n, seed=5)

    def test_duplicate_fanin_pins(self):
        n = Netlist("dup")
        n.add_input("a")
        n.add_input("b")
        n.add_gate("x", GateType.XOR, ["a", "a"])
        n.add_gate("y", GateType.NAND, ["a", "b", "a"])
        n.add_output("x")
        n.add_output("y")
        _assert_parity(n, seed=6)


class TestLutParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_programmed_luts(self, seed):
        rng = random.Random(seed)
        spec = CircuitSpec(
            name=f"lut{seed}",
            n_inputs=6,
            n_outputs=4,
            n_flip_flops=4,
            n_gates=50,
            seed=seed,
        )
        netlist = generate(spec)
        candidates = _lockable_gates(netlist)
        picked = rng.sample(candidates, min(8, len(candidates)))
        replace_gates_with_luts(netlist, picked, program=True)
        _assert_parity(netlist, seed=seed, overrides_from=list(netlist.luts))

    def test_decoy_widened_luts(self, s27):
        rng = random.Random(9)
        replace_gates_with_luts(s27, _lockable_gates(s27)[:3], program=True)
        for lut in list(s27.luts):
            if s27.node(lut).n_inputs <= 6:
                widen_lut_with_decoys(s27, lut, 2, rng)
        _assert_parity(s27, seed=9, overrides_from=list(s27.luts))

    def test_unprogrammed_lut_raises_on_both_backends(self, s27):
        replace_gates_with_luts(s27, _lockable_gates(s27)[:2], program=False)
        inputs = {pi: 1 for pi in s27.inputs}
        state = {ff: 0 for ff in s27.flip_flops}
        for backend in BACKENDS:
            sim = CombinationalSimulator(s27, backend=backend)
            with pytest.raises(NetlistError, match="unprogrammed"):
                sim.evaluate(inputs, state, width=2)

    def test_unprogrammed_lut_with_override(self, s27):
        rng = random.Random(3)
        replace_gates_with_luts(s27, _lockable_gates(s27)[:2], program=False)
        unprogrammed = [
            l for l in s27.luts if s27.node(l).lut_config is None
        ]
        inputs = {pi: rng.getrandbits(8) for pi in s27.inputs}
        state = {ff: rng.getrandbits(8) for ff in s27.flip_flops}
        overrides = {l: rng.getrandbits(8) for l in unprogrammed}
        a = CombinationalSimulator(s27, backend="interpreted").evaluate(
            inputs, state, 8, overrides=overrides
        )
        b = CombinationalSimulator(s27, backend="compiled").evaluate(
            inputs, state, 8, overrides=overrides
        )
        assert a == b

    def test_config_sweep_reuses_program(self, s27):
        """ml_attack idiom: mutate lut_config between evaluates on one
        simulator.  The compiled program must track the live config without
        recompiling per sweep (and must stay correct)."""
        rng = random.Random(4)
        replace_gates_with_luts(s27, _lockable_gates(s27)[:2], program=False)
        luts = list(s27.luts)
        for lut in luts:
            node = s27.node(lut)
            node.lut_config = rng.getrandbits(1 << node.n_inputs)
        interpreted = CombinationalSimulator(s27, backend="interpreted")
        compiled = CombinationalSimulator(s27, backend="compiled")
        inputs = {pi: rng.getrandbits(16) for pi in s27.inputs}
        state = {ff: rng.getrandbits(16) for ff in s27.flip_flops}
        first = compiled.evaluate(inputs, state, 16)
        assert first == interpreted.evaluate(inputs, state, 16)
        program = get_program(s27)
        for _ in range(5):
            for lut in luts:
                node = s27.node(lut)
                # XOR with 1 guarantees the configuration actually changes.
                node.lut_config = node.lut_config ^ 1
            assert compiled.evaluate(inputs, state, 16) == interpreted.evaluate(
                inputs, state, 16
            )
        assert get_program(s27) is program, "config sweeps must not recompile"


class TestOneStalenessRule:
    """A compiled program is a view memoized on ``structure_revision``;
    LUT configurations are runtime data read at call time."""

    def test_programmed_config_writes_keep_every_kernel(self, s27):
        """In-place writes to programmed LUTs neither replace the program
        nor compile anything, and the plain, override and config-lane
        kernels all read the new configurations."""
        rng = random.Random(11)
        replace_gates_with_luts(s27, _lockable_gates(s27)[:3], program=True)
        luts = sorted(s27.luts)
        interpreted = CombinationalSimulator(s27, backend="interpreted")
        compiled = CombinationalSimulator(s27, backend="compiled")
        inputs = {pi: rng.getrandbits(8) for pi in s27.inputs}
        state = {ff: rng.getrandbits(8) for ff in s27.flip_flops}
        overrides = {luts[0]: rng.getrandbits(8)}
        pattern = {pi: rng.getrandbits(1) for pi in s27.inputs}
        bits = {ff: rng.getrandbits(1) for ff in s27.flip_flops}
        swept = s27.node(luts[1])
        lanes = [
            {swept.name: rng.getrandbits(1 << swept.n_inputs)}
            for _ in range(9)
        ]
        rec = Recorder()
        with use_recorder(rec):
            assert compiled.evaluate(inputs, state, 8) == interpreted.evaluate(
                inputs, state, 8
            )
            program = get_program(s27)
            for sweep in range(4):
                if sweep:
                    for lut in luts:
                        node = s27.node(lut)
                        node.lut_config = rng.getrandbits(1 << node.n_inputs)
                assert compiled.evaluate(
                    inputs, state, 8
                ) == interpreted.evaluate(inputs, state, 8)
                assert compiled.evaluate(
                    inputs, state, 8, overrides=overrides
                ) == interpreted.evaluate(inputs, state, 8, overrides=overrides)
                assert evaluate_configs(
                    s27, pattern, lanes, state=bits
                ) == evaluate_configs(
                    s27, pattern, lanes, state=bits, backend="interpreted"
                )
                assert get_program(s27) is program
        # one compile per kernel: plain, override, config-lane
        assert rec.counters["sim.codegen_compiles"] == 3

    @pytest.mark.parametrize("mutation", ["set_gate_type", "replace_with_lut"])
    def test_gate_type_rewrite_builds_a_new_program(self, s27, mutation):
        gate = _lockable_gates(s27)[0]
        inputs = {pi: 1 for pi in s27.inputs}
        compiled = CombinationalSimulator(s27, backend="compiled")
        compiled.evaluate(inputs, None, 1)
        program = get_program(s27)
        if mutation == "set_gate_type":
            s27.set_gate_type(gate, GateType.NOT, fanin=[s27.inputs[0]])
        else:
            s27.replace_with_lut(gate, program=True)
        assert get_program(s27) is not program
        assert compiled.evaluate(inputs, None, 1) == CombinationalSimulator(
            s27, backend="interpreted"
        ).evaluate(inputs, None, 1)

    def test_program_lives_in_the_structure_cache(self, s27):
        get_program(s27)
        assert "compiled" in cached_keys(s27)
        s27.add_gate("extra", GateType.NOT, [s27.inputs[0]])
        assert "compiled" not in cached_keys(s27)


class TestSequentialParity:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_multi_cycle(self, seed):
        rng = random.Random(seed)
        spec = CircuitSpec(
            name=f"seq{seed}",
            n_inputs=5,
            n_outputs=3,
            n_flip_flops=6,
            n_gates=40,
            seed=seed,
        )
        netlist = generate(spec)
        interpreted = SequentialSimulator(netlist, width=8, backend="interpreted")
        compiled = SequentialSimulator(netlist, width=8, backend="compiled")
        for cycle in range(20):
            inputs = {pi: rng.getrandbits(8) for pi in netlist.inputs}
            assert interpreted.step(inputs) == compiled.step(inputs), cycle
            assert interpreted.state == compiled.state, cycle


@st.composite
def locked_scenarios(draw):
    """A generated circuit, a random LUT-locking of it, and a stimulus:
    the search space for the property below is the cross product the
    example-based tests sample only pointwise."""
    seed = draw(st.integers(0, 31))
    spec = CircuitSpec(
        name=f"prop{seed}",
        n_inputs=draw(st.integers(3, 6)),
        n_outputs=draw(st.integers(2, 4)),
        n_flip_flops=draw(st.integers(0, 4)),
        n_gates=draw(st.integers(10, 45)),
        seed=seed,
    )
    netlist = generate(spec)
    candidates = _lockable_gates(netlist)
    n_locked = draw(st.integers(0, min(5, len(candidates))))
    rng = random.Random(draw(st.integers(0, 1 << 16)))
    picked = rng.sample(candidates, n_locked)
    replace_gates_with_luts(netlist, picked, program=True)
    width = draw(st.sampled_from([1, 2, 7, 32, 64]))
    stimulus_rng = random.Random(draw(st.integers(0, 1 << 16)))
    inputs = {pi: stimulus_rng.getrandbits(width) for pi in netlist.inputs}
    state = {ff: stimulus_rng.getrandbits(width) for ff in netlist.flip_flops}
    overrides = None
    overridable = sorted(netlist.luts)
    if overridable and draw(st.booleans()):
        overrides = {
            name: stimulus_rng.getrandbits(width)
            for name in overridable[: draw(st.integers(1, len(overridable)))]
        }
    return netlist, inputs, state, width, overrides


class TestPropertyBasedParity:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(locked_scenarios())
    def test_backends_agree_on_any_locked_circuit(self, scenario):
        netlist, inputs, state, width, overrides = scenario
        expected = CombinationalSimulator(
            netlist, backend="interpreted"
        ).evaluate(inputs, state, width, overrides=overrides)
        actual = CombinationalSimulator(netlist, backend="compiled").evaluate(
            inputs, state, width, overrides=overrides
        )
        assert actual == expected


@st.composite
def config_lane_scenarios(draw):
    """A generated circuit with unprogrammed (optionally decoy-widened)
    LUTs plus a batch of candidate configurations: the config-lane kernel's
    search space.  Tables mix random, constant-0 and constant-1 entries so
    constant lanes in the lane packer are exercised too."""
    seed = draw(st.integers(0, 31))
    spec = CircuitSpec(
        name=f"cfgprop{seed}",
        n_inputs=draw(st.integers(3, 6)),
        n_outputs=draw(st.integers(2, 4)),
        n_flip_flops=draw(st.integers(0, 3)),
        n_gates=draw(st.integers(10, 40)),
        seed=seed,
    )
    netlist = generate(spec)
    candidates = _lockable_gates(netlist)
    n_locked = draw(st.integers(1, min(4, len(candidates))))
    rng = random.Random(draw(st.integers(0, 1 << 16)))
    picked = rng.sample(candidates, n_locked)
    replace_gates_with_luts(netlist, picked, program=False)
    if draw(st.booleans()):
        # Decoy pins create don't-care truth-table rows; the per-lane
        # reference and the config-lane kernel both read the full table
        # and must agree on every lane.
        for lut in sorted(netlist.luts):
            if netlist.node(lut).n_inputs <= 4 and draw(st.booleans()):
                try:
                    widen_lut_with_decoys(netlist, lut, 1, rng)
                except NetlistError:
                    pass  # every other net is in the LUT's fan-in or fan-out
    luts = sorted(netlist.luts)
    lanes = draw(st.integers(1, 70))
    configs = []
    for _ in range(lanes):
        lane = {}
        for name in luts:
            n_rows = 1 << netlist.node(name).n_inputs
            kind = draw(st.sampled_from(["random", "zero", "ones"]))
            if kind == "zero":
                lane[name] = 0
            elif kind == "ones":
                lane[name] = (1 << n_rows) - 1
            else:
                lane[name] = rng.getrandbits(n_rows)
        configs.append(lane)
    stimulus_rng = random.Random(draw(st.integers(0, 1 << 16)))
    inputs = {pi: stimulus_rng.getrandbits(1) for pi in netlist.inputs}
    state = {ff: stimulus_rng.getrandbits(1) for ff in netlist.flip_flops}
    width = draw(st.sampled_from([None, 1, 7, 64]))
    return netlist, inputs, state, configs, width


class TestConfigLaneProperty:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(config_lane_scenarios())
    def test_every_lane_matches_per_config_folded_evaluation(self, scenario):
        """Property: lane l of ``evaluate_configs`` equals evaluating a
        fresh copy of the netlist with lane l's configs *programmed* —
        through both the plain compiled kernel and the interpreter."""
        netlist, inputs, state, configs, width = scenario
        batched = evaluate_configs(
            netlist, inputs, configs, state=state, width=width
        )
        for lane, assignment in enumerate(configs):
            reference = netlist.copy(f"lane{lane}")
            for name, table in assignment.items():
                reference.node(name).lut_config = table
            for backend in BACKENDS:
                expected = CombinationalSimulator(
                    reference, backend=backend
                ).evaluate(inputs, state, 1)
                for net, word in batched.items():
                    assert (word >> lane) & 1 == expected[net], (
                        f"lane {lane} net {net} diverged on {backend}"
                    )


class TestErrorParity:
    def test_missing_input(self, tiny_comb):
        for backend in BACKENDS:
            sim = CombinationalSimulator(tiny_comb, backend=backend)
            with pytest.raises(NetlistError, match="primary input"):
                sim.evaluate({"a": 1}, width=1)


class TestRecompilation:
    def test_structural_edit_recompiles(self, s27):
        sim = CombinationalSimulator(s27, backend="compiled")
        inputs = {pi: 1 for pi in s27.inputs}
        state = {ff: 0 for ff in s27.flip_flops}
        before = sim.evaluate(inputs, state, 1)
        program = get_program(s27)
        s27.add_gate("extra", GateType.NOT, [s27.inputs[0]])
        s27.add_output("extra")
        fresh = CombinationalSimulator(s27, backend="compiled")
        after = fresh.evaluate(inputs, state, 1)
        assert get_program(s27) is not program
        assert "extra" in after
        for name, value in before.items():
            assert after[name] == value

    def test_program_cached_across_simulators(self, s27):
        """testing_attack builds a fresh simulator per justification call;
        the program cache must make that free."""
        CombinationalSimulator(s27, backend="compiled").evaluate(
            {pi: 1 for pi in s27.inputs},
            {ff: 0 for ff in s27.flip_flops},
            1,
        )
        first = get_program(s27)
        CombinationalSimulator(s27, backend="compiled").evaluate(
            {pi: 0 for pi in s27.inputs},
            {ff: 0 for ff in s27.flip_flops},
            1,
        )
        assert get_program(s27) is first
