"""Key-parallel batched simulation (`repro.sim.keybatch`) and the
config-lane axis of the compiled kernels.

The contract under test everywhere: the batched path is a *throughput*
change only — survivor sets, lane values, score counts, budget accounting,
and oracle bills are bit-identical to the serial per-key loop.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.attacks import ConfiguredOracle, candidate_configs
from repro.lut import HybridMapper
from repro.netlist import NetlistError
from repro.obs import Recorder, use_recorder
from repro.sim import (
    evaluate_configs,
    get_program,
    iter_hypotheses,
    score_keys,
    screen_hypotheses,
    surviving_lanes,
)
from repro.sim.compiled import CompiledProgram


def lock(netlist, names, seed=0):
    mapper = HybridMapper(rng=random.Random(seed))
    hybrid = netlist.copy(netlist.name + "_locked")
    mapper.replace(hybrid, names)
    foundry = mapper.strip_configs(hybrid)
    record = mapper.extract_provisioning(hybrid)
    return hybrid, foundry, record


@pytest.fixture
def screening(s27):
    """A locked s27 plus recorded oracle responses for screening tests."""
    hybrid, foundry, record = lock(s27, ["G8", "G13"], seed=0)
    oracle = ConfiguredOracle(hybrid, scan=True)
    rng = random.Random(7)
    startpoints = list(foundry.inputs) + list(foundry.flip_flops)
    patterns = [
        {sp: rng.getrandbits(1) for sp in startpoints} for _ in range(24)
    ]
    responses = [
        oracle.query(
            {pi: p.get(pi, 0) for pi in foundry.inputs},
            {ff: p.get(ff, 0) for ff in foundry.flip_flops},
        )
        for p in patterns
    ]
    points = oracle.observation_points()
    luts = sorted(foundry.luts)
    spaces = [candidate_configs(foundry.node(n).n_inputs) for n in luts]
    return foundry, record, patterns, responses, points, luts, spaces


class TestEvaluateConfigs:
    def test_lane_parity_against_interpreted(self, s27):
        _, foundry, _ = lock(s27, ["G8", "G13"], seed=1)
        luts = sorted(foundry.luts)
        rng = random.Random(0)
        configs = [
            {
                n: rng.getrandbits(1 << foundry.node(n).n_inputs)
                for n in luts
            }
            for _ in range(70)
        ]
        pattern = {pi: rng.getrandbits(1) for pi in foundry.inputs}
        state = {ff: rng.getrandbits(1) for ff in foundry.flip_flops}
        batched = evaluate_configs(foundry, pattern, configs, state=state)
        serial = evaluate_configs(
            foundry, pattern, configs, state=state, backend="interpreted"
        )
        assert batched == serial

    def test_width_chunking_is_invisible(self, s27):
        _, foundry, _ = lock(s27, ["G8"], seed=1)
        rng = random.Random(3)
        configs = [{"G8": rng.getrandbits(4)} for _ in range(33)]
        pattern = {pi: rng.getrandbits(1) for pi in foundry.inputs}
        state = {ff: rng.getrandbits(1) for ff in foundry.flip_flops}
        whole = evaluate_configs(foundry, pattern, configs, state=state)
        for width in (1, 7, 16, 33, 64):
            chunked = evaluate_configs(
                foundry, pattern, configs, state=state, width=width
            )
            assert chunked == whole, width

    def test_error_paths(self, s27):
        _, foundry, _ = lock(s27, ["G8"], seed=1)
        pattern = {pi: 0 for pi in foundry.inputs}
        with pytest.raises(NetlistError, match="at least one"):
            evaluate_configs(foundry, pattern, [])
        with pytest.raises(NetlistError, match="no net"):
            evaluate_configs(foundry, pattern, [{"nope": 1}])
        with pytest.raises(NetlistError, match="only sweep LUT"):
            evaluate_configs(foundry, pattern, [{foundry.inputs[0]: 1}])
        # an unprogrammed LUT must be covered by every lane
        with pytest.raises(NetlistError, match="unprogrammed"):
            program = get_program(foundry)
            program.pack_configs([{}])

    def test_unknown_backend_rejected(self, s27):
        _, foundry, _ = lock(s27, ["G8"], seed=1)
        with pytest.raises(ValueError, match="unknown simulation backend"):
            evaluate_configs(
                foundry,
                {pi: 0 for pi in foundry.inputs},
                [{"G8": 1}],
                backend="quantum",
            )


class TestSurvivingLanes:
    def test_extraction(self):
        assert surviving_lanes(0, 8) == []
        assert surviving_lanes(0b1011, 4) == [0, 1, 3]
        assert surviving_lanes((1 << 64) - 1, 64) == list(range(64))

    def test_out_of_range_bits_ignored(self):
        assert surviving_lanes(0b10010, 4) == [1]


class TestScreenHypotheses:
    def test_batched_matches_serial(self, screening):
        foundry, record, patterns, responses, points, luts, spaces = screening
        working = foundry.copy("w")
        outcomes = {
            width: screen_hypotheses(
                working,
                iter_hypotheses(luts, spaces),
                patterns,
                responses,
                points,
                batch_width=width,
            )
            for width in (1, 3, 64, 256)
        }
        reference = outcomes[1]
        assert reference.tested == 36
        assert record.configs in reference.survivors
        for width, outcome in outcomes.items():
            assert outcome.survivors == reference.survivors, width
            assert outcome.tested == reference.tested, width
            assert not outcome.exhausted

    def test_budget_accounting_matches_serial(self, screening):
        foundry, _, patterns, responses, points, luts, spaces = screening
        working = foundry.copy("w")
        total = 36
        for budget in (0, 1, 10, total - 1, total, total + 1):
            serial = screen_hypotheses(
                working,
                iter_hypotheses(luts, spaces),
                patterns,
                responses,
                points,
                batch_width=1,
                max_hypotheses=budget,
            )
            batched = screen_hypotheses(
                working,
                iter_hypotheses(luts, spaces),
                patterns,
                responses,
                points,
                batch_width=64,
                max_hypotheses=budget,
            )
            assert serial.tested == batched.tested == min(total, budget)
            assert serial.exhausted == batched.exhausted == (budget < total)
            assert serial.survivors == batched.survivors

    def test_interpreted_backend_falls_back_to_serial(self, screening):
        foundry, _, patterns, responses, points, luts, spaces = screening
        working = foundry.copy("w")
        compiled = screen_hypotheses(
            working,
            iter_hypotheses(luts, spaces),
            patterns,
            responses,
            points,
            batch_width=64,
        )
        interpreted = screen_hypotheses(
            working,
            iter_hypotheses(luts, spaces),
            patterns,
            responses,
            points,
            batch_width=64,
            backend="interpreted",
        )
        assert interpreted.survivors == compiled.survivors
        assert interpreted.batches == 1  # one serial "batch" of 36

    def test_screening_restores_working_configs(self, screening):
        foundry, _, patterns, responses, points, luts, spaces = screening
        working = foundry.copy("w")
        screen_hypotheses(
            working,
            iter_hypotheses(luts, spaces),
            patterns,
            responses,
            points,
            batch_width=1,
        )
        for name in luts:
            assert working.node(name).lut_config is None

    def test_lane_counters_and_span(self, screening):
        foundry, _, patterns, responses, points, luts, spaces = screening
        working = foundry.copy("w")
        rec = Recorder()
        with use_recorder(rec):
            screen_hypotheses(
                working,
                iter_hypotheses(luts, spaces),
                patterns,
                responses,
                points,
                batch_width=16,
            )
        # 36 hypotheses at width 16: batches of 16/16/4 -> 12 wasted lanes
        assert rec.counters["sim.keybatch.batches"] == 3
        assert rec.counters["sim.keybatch.lanes_filled"] == 36
        assert rec.counters["sim.keybatch.lanes_wasted"] == 12
        (screen_record,) = rec.find("sim.keybatch.screen")
        assert screen_record.attrs["width"] == 16
        assert screen_record.attrs["tested"] == 36
        assert screen_record.attrs["lanes_wasted"] == 12


class TestScoreKeys:
    def test_batched_matches_serial(self, screening):
        foundry, _, patterns, responses, points, luts, spaces = screening
        working = foundry.copy("w")
        keys = [
            dict(zip(luts, assignment))
            for assignment in itertools.product(*spaces)
        ]
        serial = score_keys(
            working, keys, patterns, responses, points, batch_width=1
        )
        for width in (7, 64):
            batched = score_keys(
                working, keys, patterns, responses, points, batch_width=width
            )
            assert batched == serial, width
        assert max(serial) == len(patterns) * len(points)  # true key present

    def test_empty_keys(self, screening):
        foundry, _, patterns, responses, points, _, _ = screening
        assert score_keys(foundry, [], patterns, responses, points) == []


class TestCodegenSpanAttrs:
    """Satellite: `sim.codegen` spans must carry kernel/width/lanes attrs
    so traces can tell pattern-packed from key-packed compiles apart."""

    def test_plain_override_and_config_kernels_are_distinguishable(self, s27):
        hybrid, foundry, _ = lock(s27, ["G8"], seed=1)
        rec = Recorder()
        with use_recorder(rec):
            program = CompiledProgram(foundry)
            pattern = {pi: 0 for pi in foundry.inputs}
            foundry.node("G8").lut_config = 0b1000
            program.evaluate(pattern, width=4, overrides={"G8": 0})
            foundry.node("G8").lut_config = None
            program.evaluate_configs(
                pattern, [{"G8": c} for c in candidate_configs(2)]
            )
        kernels = [
            s.attrs.get("kernel")
            for s in rec.find("sim.codegen")
        ]
        assert kernels == ["plain", "override", "configs"]
        by_kernel = {s.attrs.get("kernel"): s for s in rec.find("sim.codegen")}
        assert by_kernel["override"].attrs["width"] == 4
        assert by_kernel["configs"].attrs["lanes"] == 6
        assert rec.counters["sim.codegen_compiles"] == 3
        assert rec.counters["sim.compiled_config_evaluations"] == 1
