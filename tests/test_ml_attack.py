"""Tests for the stochastic (ML-style) key-recovery attack."""

from __future__ import annotations

import random

import pytest

from repro.attacks import ConfiguredOracle, MlAttack
from repro.lut import HybridMapper
from repro.sim import functional_match


def lock(netlist, names, decoy_inputs=0, seed=0):
    mapper = HybridMapper(rng=random.Random(seed))
    hybrid = netlist.copy(netlist.name + "_locked")
    mapper.replace(hybrid, names, decoy_inputs=decoy_inputs)
    return hybrid, mapper.strip_configs(hybrid), mapper.extract_provisioning(hybrid)


class TestMlAttack:
    def test_breaks_tiny_key(self, s27):
        hybrid, foundry, record = lock(s27, ["G8", "G13"])
        oracle = ConfiguredOracle(hybrid, scan=True)
        result = MlAttack(foundry, oracle, seed=1).run()
        assert result.success
        # The learned key must be functionally correct (not necessarily
        # bit-identical: don't-care rows can differ).
        recovered = foundry.copy("recovered")
        for name, config in result.key.items():
            recovered.node(name).lut_config = config
        assert functional_match(hybrid, recovered, cycles=16, width=32)

    def test_no_luts_is_trivial(self, s27):
        oracle = ConfiguredOracle(s27.copy(), scan=True)
        result = MlAttack(s27.copy(), oracle).run()
        assert result.success and result.key == {}

    def test_reports_key_bits_and_counters(self, s27):
        hybrid, foundry, _ = lock(s27, ["G8", "G15"])
        oracle = ConfiguredOracle(hybrid, scan=True)
        result = MlAttack(
            foundry, oracle, seed=2, iterations_per_restart=300, restarts=2
        ).run()
        assert result.key_bits == 8
        assert result.oracle_queries > 0
        assert 0.0 <= result.best_agreement <= 1.0
        assert result.iterations > 0

    def test_search_space_expansion_hurts_attacker(self, s641):
        """The paper's claim: widened LUTs make the stochastic attack's job
        strictly harder.  With a tight iteration budget the attack should
        reach full agreement on the narrow instance at least as often as on
        the widened one."""
        gates = [g for g in s641.gates if s641.node(g).n_inputs == 2][:6]
        narrow_hits = wide_hits = 0
        for seed in range(3):
            hybrid, foundry, _ = lock(s641, gates, seed=seed)
            oracle = ConfiguredOracle(hybrid, scan=True)
            narrow = MlAttack(
                foundry, oracle, seed=seed,
                iterations_per_restart=250, restarts=1, training_patterns=48,
            ).run()
            hybrid_w, foundry_w, _ = lock(s641, gates, decoy_inputs=2, seed=seed)
            oracle_w = ConfiguredOracle(hybrid_w, scan=True)
            wide = MlAttack(
                foundry_w, oracle_w, seed=seed,
                iterations_per_restart=250, restarts=1, training_patterns=48,
            ).run()
            assert wide.key_bits > narrow.key_bits
            narrow_hits += narrow.best_agreement
            wide_hits += wide.best_agreement
        # Agreement achieved within the fixed budget must not improve when
        # the key space is squared.
        assert wide_hits <= narrow_hits + 0.15

    def test_parallel_chains_break_tiny_key(self, s27):
        """batch_width=W anneals W chains side by side through one
        ``score_keys`` pass per step; the attack must still recover a
        functionally correct key and bill its queries."""
        hybrid, foundry, _ = lock(s27, ["G8", "G13"])
        oracle = ConfiguredOracle(hybrid, scan=True)
        result = MlAttack(foundry, oracle, seed=1, batch_width=16).run()
        assert result.success
        recovered = foundry.copy("recovered")
        for name, config in result.key.items():
            recovered.node(name).lut_config = config
        assert functional_match(hybrid, recovered, cycles=16, width=32)
        assert result.oracle_queries > 0

    @pytest.mark.parametrize("width", [0, -3])
    def test_width_below_one_chain_rejected(self, s27, width):
        hybrid, foundry, _ = lock(s27, ["G8"])
        oracle = ConfiguredOracle(hybrid, scan=True)
        with pytest.raises(ValueError, match="batch_width"):
            MlAttack(foundry, oracle, batch_width=width)

    def test_holdout_rejects_overfit_key(self, s27):
        """A key that only matches the training set must not be reported as
        exact (the holdout check)."""
        hybrid, foundry, record = lock(s27, ["G8"])
        oracle = ConfiguredOracle(hybrid, scan=True)
        attack = MlAttack(foundry, oracle, seed=3, training_patterns=2)
        result = attack.run()
        if result.exact:
            recovered = foundry.copy("r")
            for name, config in result.key.items():
                recovered.node(name).lut_config = config
            assert functional_match(hybrid, recovered, cycles=16, width=32)
