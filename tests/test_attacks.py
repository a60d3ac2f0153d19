"""Tests for the attack simulations — and for the paper's central security
claims: the testing attack breaks independent selection but not dependent
chains; brute force works only while the hypothesis space is small; the SAT
attack (scan-enabled) breaks everything but needs more work as the paper's
countermeasures are applied."""

from __future__ import annotations

import random

import pytest

from repro.attacks import (
    BruteForceAttack,
    ConfiguredOracle,
    OracleAccessError,
    SatAttack,
    TestingAttack,
    candidate_configs,
    verify_key,
)
from repro.lut import HybridMapper
from repro.netlist import GateType, Netlist
from repro.sat import check_equivalence


def lock(netlist, names, decoy_inputs=0, seed=0):
    mapper = HybridMapper(rng=random.Random(seed))
    hybrid = netlist.copy(netlist.name + "_locked")
    mapper.replace(hybrid, names, decoy_inputs=decoy_inputs)
    foundry = mapper.strip_configs(hybrid)
    record = mapper.extract_provisioning(hybrid)
    return hybrid, foundry, record


class TestOracle:
    def test_query_counts(self, s27):
        hybrid, _, _ = lock(s27, ["G8"])
        oracle = ConfiguredOracle(hybrid, scan=True)
        oracle.query({pi: 0 for pi in s27.inputs})
        oracle.query({pi: 1 for pi in s27.inputs}, width=1)
        assert oracle.queries == 2
        assert oracle.test_clocks == 2  # scan: 1 clock per query

    def test_functional_mode_charges_depth(self, s27):
        hybrid, _, _ = lock(s27, ["G8"])
        oracle = ConfiguredOracle(hybrid, scan=False)
        oracle.query({pi: 0 for pi in s27.inputs})
        assert oracle.test_clocks == oracle.depth

    def test_scanless_state_setting_rejected(self, s27):
        hybrid, _, _ = lock(s27, ["G8"])
        oracle = ConfiguredOracle(hybrid, scan=False)
        with pytest.raises(OracleAccessError):
            oracle.query({pi: 0 for pi in s27.inputs}, state={"G5": 1})

    def test_unprogrammed_oracle_rejected(self, s27):
        _, foundry, _ = lock(s27, ["G8"])
        with pytest.raises(Exception):
            ConfiguredOracle(foundry)

    def test_observation_points(self, s27):
        hybrid, _, _ = lock(s27, ["G8"])
        with_scan = ConfiguredOracle(hybrid, scan=True).observation_points()
        without = ConfiguredOracle(hybrid, scan=False).observation_points()
        assert set(without) <= set(with_scan)
        assert len(with_scan) == len(s27.outputs) + len(s27.flip_flops)

    def test_run_sequence(self, s27):
        hybrid, _, _ = lock(s27, ["G8"])
        oracle = ConfiguredOracle(hybrid, scan=False)
        trace = oracle.run_sequence([{pi: 0 for pi in s27.inputs}] * 3)
        assert len(trace) == 3
        assert oracle.test_clocks == 3


class TestTestingAttack:
    def test_breaks_independent_disjoint_luts(self, s27):
        """Missing gates with no mutual dependency are fully recoverable
        (Section IV-A.1: independent selection gives 'some level of
        security' only)."""
        hybrid, foundry, record = lock(s27, ["G14", "G12"])
        oracle = ConfiguredOracle(hybrid, scan=True)
        result = TestingAttack(foundry, oracle, seed=1).run()
        assert result.success
        for name, config in result.resolved.items():
            assert config == record.configs[name], name

    def test_blocked_by_dependent_chain(self, s27):
        """G15 reads G8: justifying G15's rows requires the unknown G8."""
        hybrid, foundry, record = lock(s27, ["G8", "G15", "G16", "G9"])
        oracle = ConfiguredOracle(hybrid, scan=True)
        result = TestingAttack(foundry, oracle, seed=1).run()
        assert not result.success
        assert set(result.unresolved) & {"G15", "G16", "G9"}

    def test_recovered_types_decode_at_each_lut_fanin(self):
        n = Netlist("gates")
        for pi in ("a", "b", "c"):
            n.add_input(pi)
        n.add_gate("g_and", GateType.AND, ["a", "b"])
        n.add_gate("g_or", GateType.OR, ["b", "c"])
        n.add_gate("g_xor", GateType.XOR, ["a", "c"])
        n.add_gate("g_nor", GateType.NOR, ["a", "b"])
        n.add_gate("g_nand3", GateType.NAND, ["a", "b", "c"])
        for name in ("g_and", "g_or", "g_xor", "g_nor", "g_nand3"):
            n.add_output(name)
        hybrid, foundry, _ = lock(n, ["g_and", "g_or", "g_xor", "g_nor", "g_nand3"])
        result = TestingAttack(foundry, ConfiguredOracle(hybrid), seed=1).run()
        assert result.success
        assert result.fanin == {
            "g_and": 2, "g_or": 2, "g_xor": 2, "g_nor": 2, "g_nand3": 3
        }
        assert result.recovered_types() == {
            "g_and": GateType.AND,
            "g_or": GateType.OR,
            "g_xor": GateType.XOR,
            "g_nor": GateType.NOR,
            "g_nand3": GateType.NAND,
        }

    def test_counts_accumulate(self, s27):
        hybrid, foundry, _ = lock(s27, ["G14"])
        oracle = ConfiguredOracle(hybrid, scan=True)
        result = TestingAttack(foundry, oracle, seed=1).run()
        assert result.oracle_queries > 0
        assert result.test_clocks >= result.oracle_queries


class TestTestingAttackSoundness:
    """Regression for a bug found by the differential check harness
    (``repro-lock check --checks attack``): with two unresolved LUTs whose
    observation routes overlap, the deduction step used to pin the *other*
    unknown LUT to a guessed constant and trust the measurement.  A wrong
    guess shifts both hypothesis simulations, so the chip's response can
    match the wrong hypothesis and a provably wrong config gets "resolved"
    (s27, G12/G8, mapper seeds 9 and 10 reproduced it deterministically).
    The fix quantifies over every assignment of the unknown outputs — one
    simulation lane each — and deduces a bit only when no assignment can
    explain the response under the opposite hypothesis."""

    def test_never_resolves_a_wrong_config(self, s27):
        fully_resolved = 0
        for seed in range(12):
            mapper = HybridMapper(rng=random.Random(seed))
            hybrid = s27.copy("s27_locked")
            mapper.replace(hybrid, ["G12", "G8"])
            record = mapper.extract_provisioning(hybrid)
            foundry = mapper.strip_configs(hybrid)
            oracle = ConfiguredOracle(hybrid, scan=True)
            result = TestingAttack(foundry, oracle, seed=seed).run()
            if result.success:
                fully_resolved += 1
            for name in result.resolved:
                candidate = foundry.copy("candidate")
                for lut in candidate.luts:
                    candidate.node(lut).lut_config = result.resolved.get(
                        lut, record.configs[lut]
                    )
                assert check_equivalence(candidate, hybrid).equivalent, (
                    f"seed {seed}: testing attack resolved a functionally "
                    f"wrong config for {name}"
                )
        # Soundness must not destroy capability: several seeds still
        # recover the complete key.
        assert fully_resolved >= 3

    def test_unknown_lane_cap_defers_instead_of_guessing(self, s27):
        mapper = HybridMapper(rng=random.Random(1))
        hybrid = s27.copy("s27_locked")
        mapper.replace(hybrid, ["G12", "G8"])
        foundry = mapper.strip_configs(hybrid)
        oracle = ConfiguredOracle(hybrid, scan=True)
        attack = TestingAttack(foundry, oracle, seed=1, max_unknown_lanes=0)
        result = attack.run()
        # With zero lanes allowed for co-unknowns, nothing can be measured
        # while another LUT is unresolved — the attack reports honest
        # failure rather than a guessed key.
        assert not result.success
        assert not result.resolved


class TestBruteForce:
    def test_candidate_configs(self):
        assert len(candidate_configs(2)) == 6
        assert 0b1000 in candidate_configs(2)

    def test_recovers_small_key(self, s27):
        hybrid, foundry, record = lock(s27, ["G8", "G13"])
        oracle = ConfiguredOracle(hybrid, scan=True)
        result = BruteForceAttack(foundry, oracle, seed=2).run()
        assert result.success
        assert result.found == record.configs
        assert result.hypotheses_total == 36

    def test_budget_exhaustion(self, s641):
        gates = [g for g in s641.gates if s641.node(g).n_inputs == 2][:12]
        hybrid, foundry, _ = lock(s641, gates)
        oracle = ConfiguredOracle(hybrid, scan=True)
        attack = BruteForceAttack(foundry, oracle, seed=2, max_hypotheses=500)
        result = attack.run()
        assert result.exhausted_budget
        assert result.hypotheses_tested == 500
        assert result.hypotheses_total == 6**12

    def test_no_luts_trivial(self, s27):
        oracle = ConfiguredOracle(s27.copy(), scan=True)
        result = BruteForceAttack(s27.copy(), oracle).run()
        assert result.success and result.found == {}

    def test_confirm_rounds_exhausted_is_surfaced(self, s27):
        """Regression: the confirm loop used to give up silently after its
        round cap with >1 distinguishable survivor and no equivalence
        proof — indistinguishable from a plain failure.  With zero
        screen/confirm patterns every candidate survives every round, the
        survivors are NOT functionally equivalent, and the result must say
        exactly that: rounds exhausted, budget NOT exhausted."""
        hybrid, foundry, _ = lock(s27, ["G8"])
        oracle = ConfiguredOracle(hybrid, scan=True)
        result = BruteForceAttack(
            foundry, oracle, seed=2, screen_patterns=0, confirm_patterns=0
        ).run()
        assert not result.success
        assert result.confirm_rounds_exhausted
        assert not result.exhausted_budget
        assert not result.interchangeable_survivors
        assert len(result.survivors) == len(candidate_configs(2))

    def test_confirm_rounds_flag_stays_clear_on_success(self, s27):
        hybrid, foundry, _ = lock(s27, ["G8", "G13"])
        oracle = ConfiguredOracle(hybrid, scan=True)
        result = BruteForceAttack(foundry, oracle, seed=2).run()
        assert result.success
        assert not result.confirm_rounds_exhausted

    def test_serial_and_batched_paths_are_bit_identical(self, s27):
        """batch_width=1 (the old per-key loop) and the key-parallel path
        must agree on every reported field and on the oracle bill."""
        hybrid, foundry, record = lock(s27, ["G8", "G13"])
        results = {}
        for width in (1, 64):
            oracle = ConfiguredOracle(hybrid, scan=True)
            attack = BruteForceAttack(
                foundry.copy(f"f{width}"), oracle, seed=2, batch_width=width
            )
            results[width] = attack.run()
        serial, batched = results[1], results[64]
        assert serial.found == batched.found == record.configs
        assert serial.survivors == batched.survivors
        assert serial.hypotheses_tested == batched.hypotheses_tested
        assert (serial.oracle_queries, serial.test_clocks) == (
            batched.oracle_queries,
            batched.test_clocks,
        )

    def test_masked_gate_yields_interchangeable_success(self):
        """Regression for a bug found by the differential check harness:
        a locked gate whose output is masked (here ANDed with a constant
        zero) lets *every* candidate config survive, and the attack used
        to report failure even though any survivor is a working key.  The
        survivors are now SAT-proved pairwise equivalent on the attacker's
        own netlist (no oracle cost) and the attack succeeds."""
        n = Netlist("masked")
        n.add_input("a")
        n.add_input("b")
        n.add_gate("na", GateType.NOT, ["a"])
        n.add_gate("zero", GateType.AND, ["a", "na"])  # constant 0
        n.add_gate("g", GateType.XOR, ["a", "b"])  # locked below
        n.add_gate("m", GateType.AND, ["g", "zero"])  # masks g entirely
        n.add_gate("y", GateType.OR, ["m", "b"])
        n.add_output("y")
        hybrid, foundry, _ = lock(n, ["g"])
        oracle = ConfiguredOracle(hybrid, scan=True)
        result = BruteForceAttack(foundry, oracle, seed=0).run()
        assert result.success
        assert result.interchangeable_survivors
        assert len(result.survivors) == len(candidate_configs(2))
        assert verify_key(foundry, result.found, hybrid)


class TestSatAttack:
    def test_recovers_functional_key(self, s27):
        hybrid, foundry, _ = lock(s27, ["G8", "G15", "G13"])
        oracle = ConfiguredOracle(hybrid, scan=True)
        result = SatAttack(foundry, oracle).run()
        assert result.success
        assert result.iterations >= 1
        assert verify_key(foundry, result.key, hybrid)

    def test_key_may_differ_but_must_be_equivalent(self, s27):
        """The SAT attack finds *a* correct key, not necessarily the
        provisioned bit pattern (don't-care rows may differ)."""
        hybrid, foundry, record = lock(s27, ["G14", "G17"])
        oracle = ConfiguredOracle(hybrid, scan=True)
        result = SatAttack(foundry, oracle).run()
        assert result.success
        assert verify_key(foundry, result.key, hybrid)

    def test_requires_scan(self, s27):
        hybrid, foundry, _ = lock(s27, ["G8"])
        oracle = ConfiguredOracle(hybrid, scan=False)
        with pytest.raises(ValueError, match="scan"):
            SatAttack(foundry, oracle)

    def test_decoys_increase_effort(self, s27):
        """Search-space expansion: wider LUTs mean more key bits and at
        least as many SAT iterations/queries."""
        base_hybrid, base_foundry, _ = lock(s27, ["G8", "G15"], seed=4)
        wide_hybrid, wide_foundry, _ = lock(
            s27, ["G8", "G15"], decoy_inputs=2, seed=4
        )
        base_oracle = ConfiguredOracle(base_hybrid, scan=True)
        wide_oracle = ConfiguredOracle(wide_hybrid, scan=True)
        base = SatAttack(base_foundry, base_oracle).run()
        wide = SatAttack(wide_foundry, wide_oracle).run()
        assert base.success and wide.success
        base_bits = sum(1 << base_foundry.node(l).n_inputs for l in base_foundry.luts)
        wide_bits = sum(1 << wide_foundry.node(l).n_inputs for l in wide_foundry.luts)
        assert wide_bits > base_bits
        assert verify_key(wide_foundry, wide.key, wide_hybrid)

    def test_iteration_budget(self, s27):
        hybrid, foundry, _ = lock(s27, ["G8", "G15", "G13", "G12"])
        oracle = ConfiguredOracle(hybrid, scan=True)
        result = SatAttack(foundry, oracle, max_iterations=1).run()
        assert result.gave_up or result.iterations <= 1


class TestSatAttackIncremental:
    """The attack's DI search and key extraction share one live solver;
    conflicts and spans must account for both phases."""

    def test_extraction_conflicts_folded_into_result(self, s27):
        from repro.obs import Recorder, use_recorder

        hybrid, foundry, _ = lock(s27, ["G8", "G11"])
        oracle = ConfiguredOracle(hybrid, scan=True)
        recorder = Recorder()
        with use_recorder(recorder):
            result = SatAttack(foundry, oracle).run()
        assert result.success
        (attack_span,) = recorder.find("attack.sat")
        (extract_span,) = recorder.find("attack.sat.extract")
        # Span-level conflict attribution: whole run == result field, and
        # the extract span carries its own share explicitly.
        assert attack_span.attrs["solver_conflicts"] == result.solver_conflicts
        assert "solver_conflicts" in extract_span.attrs
        iter_conflicts = sum(
            s.attrs["solver_conflicts"]
            for s in recorder.find("attack.sat.iteration")
        )
        assert (
            iter_conflicts + extract_span.attrs["solver_conflicts"]
            == result.solver_conflicts
        )

    def test_extraction_costs_no_oracle_queries(self, s27):
        hybrid, foundry, _ = lock(s27, ["G8"])
        oracle = ConfiguredOracle(hybrid, scan=True)
        result = SatAttack(foundry, oracle).run()
        assert result.success
        # One width-1 scan query per DI round; extraction adds nothing.
        assert result.oracle_queries == result.iterations
        assert result.test_clocks == result.iterations

    def test_di_constraints_recorded(self, s27):
        hybrid, foundry, _ = lock(s27, ["G8"])
        oracle = ConfiguredOracle(hybrid, scan=True)
        result = SatAttack(foundry, oracle).run()
        assert len(result.di_constraints) == result.iterations
        for pattern, response in result.di_constraints:
            assert set(pattern) >= set(s27.inputs)
            assert response  # at least one observation point pinned

    def test_extracted_key_is_brute_force_lex_min(self, s27):
        from repro.check.checks_sat import consistent_keys

        hybrid, foundry, _ = lock(s27, ["G8", "G11"])
        oracle = ConfiguredOracle(hybrid, scan=True)
        result = SatAttack(foundry, oracle).run()
        assert result.success
        keys = consistent_keys(foundry, result.di_constraints)
        assert result.key == keys[0]
