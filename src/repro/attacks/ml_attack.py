"""Machine-learning-style attack: stochastic local search over LUT keys.

Section IV-A.3 of the paper: "a hybrid STT-CMOS circuit may undergo machine
learning attacks similar to [11] ... With incorporating these measures, the
machine learning attack would render ineffective to determine the missing
gates in any reasonable time as the size of the search space is
significantly large."

This adversary learns the configurations from oracle-labelled patterns by
simulated annealing over the joint key space: propose a single-row flip (or
a candidate-gate jump), keep it if agreement with the oracle's responses
improves, occasionally accept regressions to escape local optima.  Its
success probability decays with the key-bit count, so it quantifies the
paper's search-space-expansion argument on circuits far beyond brute-force
reach — while the SAT attack (which needs scan) is fenced off.

Candidate scoring runs through one :class:`repro.sim.keybatch.KeyScorer`
per training set.  ``batch_width=W`` runs *W* independent annealing
chains whose proposals are scored together, against every training
pattern at once, in one config-lane kernel call per step (the default,
1, is one chain scoring one proposal per call).  The oracle bill does
not depend on *W*: the training set is labelled once up front, by one
packed query.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..netlist.netlist import Netlist
from ..obs import span
from ..sim.keybatch import KeyScorer, check_batch_width
from ..sim.logicsim import CombinationalSimulator
from .brute_force import candidate_configs
from .oracle import (
    ConfiguredOracle,
    attribute_cost,
    bump_cost_counters,
    draw_patterns,
    query_patterns,
    snapshot_cost,
    split_pattern,
)


@dataclass
class MlAttackResult:
    """Outcome of the annealing search."""

    key: Optional[Dict[str, int]] = None  # best key found (None if hopeless)
    best_agreement: float = 0.0  # fraction of labelled bits matched
    exact: bool = False  # True when agreement hit 1.0
    iterations: int = 0
    restarts: int = 0
    oracle_queries: int = 0
    test_clocks: int = 0
    key_bits: int = 0

    @property
    def success(self) -> bool:
        return self.exact


class MlAttack:
    """Simulated-annealing key recovery against a configured oracle."""

    def __init__(
        self,
        foundry_netlist: Netlist,
        oracle: ConfiguredOracle,
        seed: int = 0,
        training_patterns: int = 96,
        iterations_per_restart: int = 2_000,
        restarts: int = 4,
        initial_temperature: float = 2.0,
        batch_width: int = 1,
    ):
        self.netlist = foundry_netlist
        self.oracle = oracle
        self.rng = random.Random(seed)
        self.training_patterns = training_patterns
        self.iterations_per_restart = iterations_per_restart
        self.restarts = restarts
        self.initial_temperature = initial_temperature
        #: Annealing chains, one config lane each; their proposals share
        #: one key-parallel scoring pass per step.
        self.batch_width = check_batch_width(batch_width)

    def run(self) -> MlAttackResult:
        result = MlAttackResult()
        luts = [
            name
            for name in self.netlist.luts
            if self.netlist.node(name).lut_config is None
        ]
        if not luts:
            result.key, result.exact, result.best_agreement = {}, True, 1.0
            return result
        result.key_bits = sum(
            1 << self.netlist.node(n).n_inputs for n in luts
        )

        cost0 = snapshot_cost(self.oracle)
        with span(
            "attack.ml",
            circuit=self.netlist.name,
            lut_count=len(luts),
            key_bits=result.key_bits,
        ) as attack_span:
            self._anneal(result, luts)
            deltas = attribute_cost(attack_span, self.oracle, cost0)
            attack_span.set(
                success=result.success,
                iterations=result.iterations,
                restarts=result.restarts,
                best_agreement=result.best_agreement,
            )
            bump_cost_counters(deltas)
        return result

    def _anneal(self, result: MlAttackResult, luts) -> None:
        """W parallel annealing chains, one config lane each.

        Every step scores all W proposals against the whole training set
        in one key-parallel kernel call; acceptance is per-chain
        Metropolis.  The per-chain iteration count is scaled down by W so
        the total proposal budget (``result.iterations``) does not grow
        with W, and the cooling rate is compounded per step
        (``0.999 ** W``) so the temperature schedule covers the same range
        over the budget.
        """
        patterns, labels = self._collect_training_set()
        working = self.netlist.copy(f"{self.netlist.name}_ml")
        points = self.oracle.observation_points()
        total_bits = len(patterns) * len(points)
        scorer = KeyScorer(
            working, patterns, labels, points, batch_width=self.batch_width
        )
        spaces = {n: candidate_configs(working.node(n).n_inputs) for n in luts}
        width = self.batch_width
        best_key: Optional[Dict[str, int]] = None
        best_matched = -1
        for restart in range(self.restarts):
            result.restarts = restart + 1
            with span(
                "attack.ml.restart", restart=restart + 1, chains=width
            ) as restart_span:
                keys = [
                    {n: self.rng.choice(spaces[n]) for n in luts}
                    for _ in range(width)
                ]
                matches = scorer.score(keys)
                for lane in range(width):
                    if matches[lane] > best_matched:
                        best_key = dict(keys[lane])
                        best_matched = matches[lane]
                temperature = self.initial_temperature
                steps = max(1, self.iterations_per_restart // width)
                for _ in range(steps):
                    proposals: List[Dict[str, int]] = []
                    for lane in range(width):
                        name = self.rng.choice(luts)
                        proposal = dict(keys[lane])
                        if self.rng.random() < 0.5:
                            proposal[name] = self.rng.choice(spaces[name])
                        else:
                            rows = 1 << working.node(name).n_inputs
                            proposal[name] = keys[lane][name] ^ (
                                1 << self.rng.randrange(rows)
                            )
                        proposals.append(proposal)
                    new_matches = scorer.score(proposals)
                    for lane in range(width):
                        result.iterations += 1
                        delta = new_matches[lane] - matches[lane]
                        if delta >= 0 or self.rng.random() < math.exp(
                            delta / max(temperature, 1e-9)
                        ):
                            keys[lane] = proposals[lane]
                            matches[lane] = new_matches[lane]
                        if matches[lane] > best_matched:
                            best_key = dict(keys[lane])
                            best_matched = matches[lane]
                    temperature *= 0.999**width
                    if best_matched >= total_bits:
                        break
                result.best_agreement = (
                    best_matched / total_bits if total_bits else 0.0
                )
                restart_span.set(best_agreement=result.best_agreement)
            if best_matched >= total_bits:
                break

        result.key = best_key
        # "Exact" means consistent with the training set; verify on fresh
        # patterns before claiming victory.
        if result.best_agreement >= 1.0 and result.key is not None:
            result.exact = self._holdout_check(result.key)
        result.oracle_queries = self.oracle.queries
        result.test_clocks = self.oracle.test_clocks

    # ------------------------------------------------------------------
    def _collect_training_set(self):
        patterns = draw_patterns(self.rng, self.netlist, self.training_patterns)
        return patterns, query_patterns(self.oracle, self.netlist, patterns)

    def _holdout_check(self, key: Dict[str, int], patterns: int = 64) -> bool:
        working = self.netlist.copy(f"{self.netlist.name}_holdout")
        for name, config in key.items():
            working.node(name).lut_config = config
        sim = CombinationalSimulator(working)
        points = self.oracle.observation_points()
        for _ in range(patterns):
            # One pattern at a time: the first mismatch ends the check
            # before any further oracle query is billed.
            (pattern,) = draw_patterns(self.rng, working, 1)
            pis, state = split_pattern(working, pattern)
            expected = self.oracle.query(pis, state)
            values = sim.evaluate(pis, state, 1)
            if any(values[p] != expected[p] for p in points):
                return False
        return True
