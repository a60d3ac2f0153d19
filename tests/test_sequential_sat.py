"""Tests for the sequential (scan-disabled) SAT attack."""

from __future__ import annotations

import random

import pytest

from repro.attacks import (
    ConfiguredOracle,
    SatAttack,
    SequentialSatAttack,
)
from repro.lut import HybridMapper
from repro.sim import functional_match


def lock(netlist, names, seed=0):
    mapper = HybridMapper(rng=random.Random(seed))
    hybrid = netlist.copy(netlist.name + "_locked")
    mapper.replace(hybrid, names)
    return hybrid, mapper.strip_configs(hybrid)


class TestSequentialSatAttack:
    def test_recovers_key_without_scan(self, s27):
        hybrid, foundry = lock(s27, ["G8", "G15", "G13"])
        oracle = ConfiguredOracle(hybrid, scan=False)
        result = SequentialSatAttack(foundry, oracle, unroll_depth=4).run()
        assert result.success
        assert result.bounded_only
        candidate = foundry.copy("cand")
        for name, config in result.key.items():
            candidate.node(name).lut_config = config
        assert functional_match(hybrid, candidate, cycles=64, width=32)

    def test_costs_more_than_scan_attack(self, s27):
        """Disabling scan measurably raises the bar: more test clocks than
        the combinational attack on the same lock."""
        hybrid, foundry = lock(s27, ["G8", "G15", "G13"])
        scan_oracle = ConfiguredOracle(hybrid, scan=True)
        scan_result = SatAttack(foundry.copy(), scan_oracle).run()
        seq_oracle = ConfiguredOracle(hybrid, scan=False)
        seq_result = SequentialSatAttack(
            foundry.copy(), seq_oracle, unroll_depth=4
        ).run()
        assert scan_result.success and seq_result.success
        assert seq_result.test_clocks > scan_result.test_clocks

    def test_queries_charge_unroll_depth(self, s27):
        hybrid, foundry = lock(s27, ["G14"])
        oracle = ConfiguredOracle(hybrid, scan=False)
        result = SequentialSatAttack(foundry, oracle, unroll_depth=3).run()
        if result.iterations:
            assert result.test_clocks == result.iterations * 3

    def test_no_luts_trivial(self, s27):
        oracle = ConfiguredOracle(s27.copy(), scan=False)
        result = SequentialSatAttack(s27.copy(), oracle).run()
        assert result.success and result.key == {}

    def test_iteration_budget(self, s27):
        hybrid, foundry = lock(s27, ["G8", "G15", "G13", "G12"])
        oracle = ConfiguredOracle(hybrid, scan=False)
        result = SequentialSatAttack(
            foundry, oracle, unroll_depth=2, max_iterations=1
        ).run()
        assert result.gave_up or result.iterations <= 1

    def test_cap_equal_to_the_dis_needed_recovers_the_key(self, s27):
        """A run capped at exactly the DIs it needs must still prove that
        no DI remains and extract the key; one DI fewer gives up."""
        hybrid, foundry = lock(s27, random.Random(0).sample(s27.gates, 1))

        def attack(cap=256):
            return SequentialSatAttack(
                foundry.copy(),
                ConfiguredOracle(hybrid, scan=False),
                unroll_depth=2,
                max_iterations=cap,
            ).run()

        full = attack()
        assert full.success and full.iterations >= 2
        exact = attack(full.iterations)
        assert not exact.gave_up and exact.bounded_only
        assert exact.key == full.key
        assert exact.iterations == full.iterations
        short = attack(full.iterations - 1)
        assert short.gave_up and short.key is None
        assert short.iterations == full.iterations - 1

    def test_bad_depth_rejected(self, s27):
        hybrid, foundry = lock(s27, ["G8"])
        oracle = ConfiguredOracle(hybrid, scan=False)
        with pytest.raises(ValueError):
            SequentialSatAttack(foundry, oracle, unroll_depth=0)

    def test_deeper_unroll_distinguishes_more(self, s27):
        """A deeper bound can only strengthen the attack: the k=1 key must
        be consistent with at least as few dialogues as the k=4 key."""
        hybrid, foundry = lock(s27, ["G8", "G15"])
        shallow = SequentialSatAttack(
            foundry.copy(),
            ConfiguredOracle(hybrid, scan=False),
            unroll_depth=1,
        ).run()
        deep = SequentialSatAttack(
            foundry.copy(),
            ConfiguredOracle(hybrid, scan=False),
            unroll_depth=4,
        ).run()
        assert deep.success
        if shallow.success and deep.success:
            deep_cand = foundry.copy("deep")
            for name, config in deep.key.items():
                deep_cand.node(name).lut_config = config
            assert functional_match(hybrid, deep_cand, cycles=64, width=32)


class TestSequentialSolverAccounting:
    def test_solver_conflicts_reported(self, s27):
        hybrid, foundry = lock(s27, ["G8", "G15", "G13"])
        oracle = ConfiguredOracle(hybrid, scan=False)
        result = SequentialSatAttack(foundry, oracle, unroll_depth=4).run()
        assert result.success
        assert result.solver_conflicts >= 0
        assert isinstance(result.solver_conflicts, int)

    def test_extraction_span_and_conflict_folding(self, s27):
        from repro.obs import Recorder, use_recorder

        hybrid, foundry = lock(s27, ["G8", "G15", "G13"])
        oracle = ConfiguredOracle(hybrid, scan=False)
        recorder = Recorder()
        with use_recorder(recorder):
            result = SequentialSatAttack(foundry, oracle, unroll_depth=4).run()
        assert result.success
        (extract_span,) = recorder.find("attack.seqsat.extract")
        assert extract_span.attrs["constraints"] == result.iterations
        # Extraction's conflicts are part of the reported total.
        assert extract_span.attrs["solver_conflicts"] <= result.solver_conflicts

    def test_gave_up_still_bills_conflicts(self, s27):
        hybrid, foundry = lock(s27, ["G8", "G15", "G13"])
        oracle = ConfiguredOracle(hybrid, scan=False)
        result = SequentialSatAttack(
            foundry, oracle, unroll_depth=4, max_iterations=1
        ).run()
        if result.gave_up:
            assert result.solver_conflicts >= 0
            assert result.key is None

    def test_root_span_attributes_cost_and_conflicts(self, s27):
        """The shared refinement loop gives the sequential attack the
        combinational attack's span tree: a root span carrying the bill,
        one span per iteration (the last finds no DIS) and the extract
        span, whose conflicts partition the run's total."""
        from repro.obs import Recorder, use_recorder

        hybrid, foundry = lock(s27, ["G8", "G15", "G13"])
        oracle = ConfiguredOracle(hybrid, scan=False)
        recorder = Recorder()
        with use_recorder(recorder):
            result = SequentialSatAttack(foundry, oracle, unroll_depth=3).run()
        assert result.success
        (root,) = recorder.find("attack.seqsat")
        assert root.attrs["unroll_depth"] == 3
        assert root.attrs["test_clocks"] == result.test_clocks
        assert root.attrs["oracle_queries"] == result.oracle_queries
        assert root.attrs["solver_conflicts"] == result.solver_conflicts
        assert recorder.counters["oracle.test_clocks"] == result.test_clocks
        assert recorder.counters["sat.solver_conflicts"] == result.solver_conflicts
        rounds = recorder.find("attack.seqsat.iteration")
        assert len(rounds) == result.iterations + 1
        assert [s.attrs["distinguishing_input"] for s in rounds][-1] is False
        (extract,) = recorder.find("attack.seqsat.extract")
        assert (
            sum(s.attrs["solver_conflicts"] for s in rounds)
            + extract.attrs["solver_conflicts"]
            == result.solver_conflicts
        )


class TestSequentialDialogues:
    def test_dialogues_recorded_per_iteration(self, s27):
        hybrid, foundry = lock(s27, ["G8", "G15"])
        oracle = ConfiguredOracle(hybrid, scan=False)
        result = SequentialSatAttack(foundry, oracle, unroll_depth=3).run()
        assert len(result.dialogues) == result.iterations
        for sequence, responses in result.dialogues:
            assert len(sequence) == len(responses) == 3
            assert all(set(stimulus) == set(s27.inputs) for stimulus in sequence)
            assert all(set(response) == set(s27.outputs) for response in responses)
            replay = ConfiguredOracle(hybrid, scan=False).run_sequence(sequence)
            assert replay == responses

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_extracted_key_is_enumeration_lex_min(self, s27, depth):
        from repro.check.checks_sat import dialogue_keys

        hybrid, foundry = lock(s27, ["G8", "G11"])
        oracle = ConfiguredOracle(hybrid, scan=False)
        result = SequentialSatAttack(foundry, oracle, unroll_depth=depth).run()
        assert result.success and result.bounded_only
        keys = dialogue_keys(foundry, result.dialogues)
        truth = {name: hybrid.node(name).lut_config for name in hybrid.luts}
        assert truth in keys
        assert result.key == keys[0]
        assert result.oracle_queries == result.test_clocks == result.iterations * depth
