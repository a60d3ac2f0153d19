"""Key-parallel batched simulation (`repro.sim.keybatch`) and the
config-lane axis of the compiled kernels.

The contract under test everywhere: the batch width is a *throughput*
knob only — survivor sets, lane values, score counts, budget accounting,
and oracle bills are the same at every width and equal the per-key
reference of :mod:`repro.check.checks_keybatch` (one programmed copy per
key, simulated by ``reference_evaluate``).
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.attacks import ConfiguredOracle, candidate_configs
from repro.attacks.oracle import draw_patterns
from repro.circuits import load_benchmark
from repro.check.checks_keybatch import (
    reference_lane_words,
    reference_survivors,
    reference_values,
)
from repro.lut import HybridMapper
from repro.netlist import NetlistError
from repro.netlist.gates import GateType
from repro.netlist.netlist import Node
from repro.obs import Recorder, use_recorder
from repro.sim import (
    KeyScorer,
    evaluate_configs,
    get_program,
    iter_hypotheses,
    score_keys,
    screen_hypotheses,
    surviving_lanes,
)
from repro.sim.compiled import CompiledProgram
from repro.sim.keybatch import MAX_SCORE_WORD_BITS


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
        assert batched == reference_lane_words(
            foundry, configs, {**pattern, **state}
        )

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
        # widths below one lane are rejected like keybatch's batch_width;
        # None still means one pass over every lane
        for width in (0, -3):
            with pytest.raises(ValueError, match="at least 1"):
                evaluate_configs(foundry, pattern, [{"G8": 1}], width=width)
            with pytest.raises(ValueError, match="at least 1"):
                get_program(foundry).evaluate_configs(
                    pattern, [{"G8": 1}], width=width
                )
        assert evaluate_configs(
            foundry, pattern, [{"G8": 1}], width=None
        ) == evaluate_configs(foundry, pattern, [{"G8": 1}], width=1)
        # an unprogrammed LUT must be covered by every lane
        with pytest.raises(NetlistError, match="unprogrammed"):
            program = get_program(foundry)
            program.pack_configs([{}])

    def test_reference_runs_no_compiled_kernel(self, s27):
        """The reference side is independent of the config-lane kernel:
        it compiles nothing and evaluates no config lanes, and it leaves
        the netlist unprogrammed."""
        _, foundry, _ = lock(s27, ["G8"], seed=1)
        pattern = {sp: 1 for sp in foundry.inputs + foundry.flip_flops}
        configs = [{"G8": c} for c in candidate_configs(2)]
        rec = Recorder()
        with use_recorder(rec):
            reference = reference_lane_words(foundry, configs, pattern)
        assert "sim.codegen_compiles" not in rec.counters
        assert "sim.compiled_config_evaluations" not in rec.counters
        assert foundry.node("G8").lut_config is None
        assert reference == evaluate_configs(
            foundry,
            {pi: 1 for pi in foundry.inputs},
            configs,
            state={ff: 1 for ff in foundry.flip_flops},
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
        reference = reference_survivors(
            foundry, iter_hypotheses(luts, spaces), patterns, responses, points
        )
        assert record.configs in reference
        for width in (1, 3, 64, 256):
            outcome = screen_hypotheses(
                working,
                iter_hypotheses(luts, spaces),
                patterns,
                responses,
                points,
                batch_width=width,
            )
            assert outcome.survivors == reference, width
            assert outcome.tested == 36, width
            assert not outcome.exhausted

    def test_budget_accounting_matches_serial(self, screening):
        foundry, _, patterns, responses, points, luts, spaces = screening
        working = foundry.copy("w")
        hypotheses = list(iter_hypotheses(luts, spaces))
        total = 36
        for budget in (0, 1, 10, total - 1, total, total + 1):
            reference = reference_survivors(
                foundry, hypotheses[:budget], patterns, responses, points
            )
            for width in (1, 64):
                outcome = screen_hypotheses(
                    working,
                    iter(hypotheses),
                    patterns,
                    responses,
                    points,
                    batch_width=width,
                    max_hypotheses=budget,
                )
                assert outcome.tested == min(total, budget)
                assert outcome.exhausted == (budget < total)
                assert outcome.survivors == reference

    def test_one_lane_screen_matches_reference_filter(self, screening):
        """Width 1 is the same kernel with one lane: one batch per
        hypothesis, no lane wasted, the reference's survivors."""
        foundry, _, patterns, responses, points, luts, spaces = screening
        outcome = screen_hypotheses(
            foundry.copy("w"),
            iter_hypotheses(luts, spaces),
            patterns,
            responses,
            points,
            batch_width=1,
        )
        assert outcome.survivors == reference_survivors(
            foundry, iter_hypotheses(luts, spaces), patterns, responses, points
        )
        assert outcome.batches == outcome.lanes_filled == 36
        assert outcome.lanes_wasted == 0

    @pytest.mark.parametrize("width", [1, 64])
    def test_screening_never_writes_lut_config(
        self, screening, monkeypatch, width
    ):
        foundry, _, patterns, responses, points, luts, spaces = screening
        working = foundry.copy("w")
        watched = {id(working.node(name)) for name in luts}
        writes = []
        original = Node.__setattr__

        def spy(node, attr, value):
            if attr == "lut_config" and id(node) in watched:
                writes.append((node.name, value))
            original(node, attr, value)

        monkeypatch.setattr(Node, "__setattr__", spy)
        screen_hypotheses(
            working,
            iter_hypotheses(luts, spaces),
            patterns,
            responses,
            points,
            batch_width=width,
        )
        assert writes == []
        for name in luts:
            assert working.node(name).lut_config is None

    @pytest.mark.parametrize("width", [0, -3])
    def test_width_below_one_lane_rejected(self, screening, width):
        foundry, _, patterns, responses, points, luts, spaces = screening
        with pytest.raises(ValueError, match="batch_width"):
            screen_hypotheses(
                foundry,
                iter_hypotheses(luts, spaces),
                patterns,
                responses,
                points,
                batch_width=width,
            )
        with pytest.raises(ValueError, match="batch_width"):
            score_keys(
                foundry, [{}], patterns, responses, points, batch_width=width
            )

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
        reference = [
            sum(
                values[p] == response[p]
                for values, response in zip(
                    reference_values(foundry, key, patterns), responses
                )
                for p in points
            )
            for key in keys
        ]
        for width in (1, 7, 64):
            batched = score_keys(
                working, keys, patterns, responses, points, batch_width=width
            )
            assert batched == reference, width
        assert max(reference) == len(patterns) * len(points)  # true key present

    def test_empty_keys(self, screening):
        foundry, _, patterns, responses, points, _, _ = screening
        assert score_keys(foundry, [], patterns, responses, points) == []


#: Key-chunk widths of the two-axis scoring tests: one lane, and one
#: machine word and a lane either side.
TWO_AXIS_WIDTHS = (1, 63, 64, 65)
#: Training-set sizes of the two-axis scoring tests: empty, one to three
#: blocks, 97 (odd at every fold), and one that needs two pattern chunks
#: at width 65.
TWO_AXIS_PATTERNS = (0, 1, 2, 3, 97, MAX_SCORE_WORD_BITS // 65 + 2)


@pytest.fixture(scope="module")
def two_axis():
    """A locked s27, 70 random keys (the true key among them; widths 63,
    64 and 65 leave a ragged last key chunk), the longest training set of
    :data:`TWO_AXIS_PATTERNS` with the true key's labels, and each key's
    per-key reference match count on every pattern (a prefix sums to a
    shorter training set's reference)."""
    hybrid, foundry, record = lock(load_benchmark("s27"), ["G8", "G13"], 4)
    rng = random.Random(11)
    luts = sorted(foundry.luts)
    keys = [
        {n: rng.getrandbits(1 << foundry.node(n).n_inputs) for n in luts}
        for _ in range(69)
    ]
    keys.insert(40, dict(record.configs))
    points = ConfiguredOracle(hybrid).observation_points()
    patterns = draw_patterns(rng, foundry, max(TWO_AXIS_PATTERNS))
    labels = [
        {p: values[p] for p in points}
        for values in reference_values(hybrid, {}, patterns)
    ]
    matched = [
        [
            sum(values[p] == label[p] for p in points)
            for values, label in zip(
                reference_values(foundry, key, patterns), labels
            )
        ]
        for key in keys
    ]
    return foundry, keys, patterns, labels, points, matched


class TestTwoAxisScoring:
    """Patterns × keys in one word: block *p* of every word is training
    pattern *p*, so one kernel call per key chunk (and pattern chunk)
    scores every pair."""

    @pytest.mark.parametrize("n_patterns", TWO_AXIS_PATTERNS)
    @pytest.mark.parametrize("width", TWO_AXIS_WIDTHS)
    def test_counts_equal_reference(self, two_axis, n_patterns, width):
        foundry, keys, patterns, labels, points, matched = two_axis
        assert width == 1 or len(keys) % width  # a ragged last chunk
        reference = [sum(row[:n_patterns]) for row in matched]
        counts = score_keys(
            foundry,
            keys,
            patterns[:n_patterns],
            labels[:n_patterns],
            points,
            batch_width=width,
        )
        assert counts == reference
        assert counts[40] == n_patterns * len(points)  # the true key

    def test_longest_set_crosses_the_word_bound(self, two_axis):
        _, _, patterns, _, _, _ = two_axis
        assert len(patterns) * 65 > MAX_SCORE_WORD_BITS
        assert len(patterns) * 64 <= 2 * MAX_SCORE_WORD_BITS

    @pytest.mark.parametrize(
        "n_patterns, width",
        [(0, 64), (1, 64), (97, 1), (97, 63), (97, 64), (97, 65)]
        + [(max(TWO_AXIS_PATTERNS), 65)],
    )
    def test_one_kernel_call_per_key_and_pattern_chunk(
        self, two_axis, n_patterns, width
    ):
        foundry, keys, patterns, labels, points, _ = two_axis
        # A ragged last key chunk has fewer lanes, so more patterns fit
        # one word.
        expected = sum(
            -(-n_patterns // max(1, MAX_SCORE_WORD_BITS // lanes))
            for lanes in (
                min(width, len(keys) - start)
                for start in range(0, len(keys), width)
            )
        )
        rec = Recorder()
        with use_recorder(rec):
            score_keys(
                foundry,
                keys,
                patterns[:n_patterns],
                labels[:n_patterns],
                points,
                batch_width=width,
            )
        assert (
            rec.counters.get("sim.compiled_config_evaluations", 0) == expected
        )

    def test_scorer_is_reused_across_key_sets(self, two_axis):
        """A scorer built once (as the ML attack does) scores any number
        of key sets exactly as one-shot ``score_keys`` calls do."""
        foundry, keys, patterns, labels, points, matched = two_axis
        scorer = KeyScorer(foundry, patterns, labels, points, batch_width=64)
        for part in (keys[:64], keys[64:], keys[10:30]):
            assert scorer.score(part) == score_keys(
                foundry, part, patterns, labels, points, batch_width=64
            )
        assert scorer.score(keys) == [sum(row) for row in matched]


class TestCodegenSpanAttrs:
    """Satellite: `sim.codegen` spans must carry kernel/width/lanes attrs
    so traces can tell pattern-packed from key-packed compiles apart."""

    @staticmethod
    def _drive(program, foundry):
        pattern = {pi: 0 for pi in foundry.inputs}
        foundry.node("G8").lut_config = 0b1000
        program.evaluate(pattern, width=4, overrides={"G8": 0})
        foundry.node("G8").lut_config = None
        program.evaluate_configs(
            pattern, [{"G8": c} for c in candidate_configs(2)]
        )

    def test_plain_override_and_config_kernels_are_distinguishable(self, s27):
        # Kernels are shared per structure for the whole process: a probe
        # net no other test adds makes this structure compile cold.
        probe = s27.copy("s27_codegen_probe")
        probe.add_gate("codegen_probe", GateType.NOT, [probe.inputs[0]])
        probe.add_output("codegen_probe")
        _, foundry, _ = lock(probe, ["G8"], seed=1)
        rec = Recorder()
        with use_recorder(rec):
            self._drive(CompiledProgram(foundry), foundry)
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
        assert "sim.codegen_shared" not in rec.counters

        # A second view of the same structure compiles nothing: each
        # variant is found in the store once.
        twin = foundry.copy("s27_codegen_probe_twin")
        rec = Recorder()
        with use_recorder(rec):
            self._drive(CompiledProgram(twin), twin)
        assert rec.find("sim.codegen") == []
        assert "sim.codegen_compiles" not in rec.counters
        assert rec.counters["sim.codegen_shared"] == 3
