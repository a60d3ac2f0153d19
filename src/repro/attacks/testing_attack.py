"""The testing-technique attack of Section IV-A.1.

"Using the circuit netlist with reconfigurable units and an available
configured counterpart, an attacker can use a testing technique to justify
and propagate the output of missing gates to some observation points.  With
this effort, the attacker can develop a partial or complete truth table for
each missing gate and then guess the functionality of those missing gates."

The attack resolves one missing gate at a time, which is exactly why it
works against *independent* selection and fails against *dependent*
selection: justifying a LUT's input row requires knowing the logic that
drives it, and in dependent selection that logic is itself missing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..netlist.gates import GateType, truth_table_to_type
from ..netlist.netlist import Netlist
from ..obs import span
from ..sim.compiled import evaluate_configs
from ..sim.justify import justify_and_propagate
from .oracle import (
    ConfiguredOracle,
    attribute_cost,
    bump_cost_counters,
    snapshot_cost,
    split_pattern,
)


@dataclass
class TestingAttackResult:
    """Outcome of the truth-table-building attack."""

    resolved: Dict[str, int] = field(default_factory=dict)
    #: Fan-in count of each resolved LUT: the width its config decodes at.
    fanin: Dict[str, int] = field(default_factory=dict)
    unresolved: List[str] = field(default_factory=list)
    partial_rows: Dict[str, int] = field(default_factory=dict)  # rows learned
    oracle_queries: int = 0
    test_clocks: int = 0

    @property
    def success(self) -> bool:
        return not self.unresolved

    def recovered_types(self) -> Dict[str, Optional[GateType]]:
        """Human-readable view: the gate type each resolved config matches."""
        return {
            name: truth_table_to_type(config, self.fanin[name])
            for name, config in self.resolved.items()
        }


class TestingAttack:
    """Per-LUT justify/propagate truth-table recovery."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(
        self,
        foundry_netlist: Netlist,
        oracle: ConfiguredOracle,
        seed: int = 0,
        attempts_per_row: int = 48,
        max_unknown_lanes: int = 12,
    ):
        self.netlist = foundry_netlist
        self.oracle = oracle
        self.rng = random.Random(seed)
        self.attempts_per_row = attempts_per_row
        #: Measurements quantify over every assignment of the other
        #: still-unknown LUT outputs (2^k simulation lanes); rows with more
        #: than this many unknowns in play are deferred instead.
        self.max_unknown_lanes = max_unknown_lanes

    def run(self, targets: Optional[List[str]] = None) -> TestingAttackResult:
        """Attack every (or the given) missing gate.

        The attacker hypothesises LUT functions as it goes: LUTs already
        resolved are programmed into its working copy; still-unknown LUTs
        make justification fail (their output is X), which is the dependency
        the dependent selection exploits.  Unknown LUTs are retried until a
        full pass makes no progress.
        """
        result = TestingAttackResult()
        working = self.netlist.copy(f"{self.netlist.name}_attack")
        remaining: List[str] = list(targets or working.luts)
        remaining = [
            name for name in remaining if working.node(name).lut_config is None
        ]
        cost0 = snapshot_cost(self.oracle)
        with span(
            "attack.testing",
            circuit=self.netlist.name,
            lut_count=len(remaining),
        ) as attack_span:
            progress = True
            round_no = 0
            while progress and remaining:
                round_no += 1
                progress = False
                still: List[str] = []
                with span(
                    "attack.testing.round",
                    round=round_no,
                    remaining=len(remaining),
                ) as round_span:
                    round_cost = snapshot_cost(self.oracle)
                    for name in remaining:
                        config = self._resolve_one(working, name, result)
                        if config is None:
                            still.append(name)
                        else:
                            working.node(name).lut_config = config
                            result.resolved[name] = config
                            result.fanin[name] = working.node(name).n_inputs
                            progress = True
                    attribute_cost(round_span, self.oracle, round_cost)
                    round_span.set(resolved=len(remaining) - len(still))
                remaining = still
            result.unresolved = remaining
            result.oracle_queries = self.oracle.queries
            result.test_clocks = self.oracle.test_clocks
            deltas = attribute_cost(attack_span, self.oracle, cost0)
            attack_span.set(
                success=result.success,
                rounds=round_no,
                resolved=len(result.resolved),
                unresolved=len(result.unresolved),
            )
            bump_cost_counters(deltas)
        return result

    # ------------------------------------------------------------------
    def _resolve_one(
        self,
        working: Netlist,
        name: str,
        result: TestingAttackResult,
    ) -> Optional[int]:
        """Build the full truth table of one LUT, or None if blocked."""
        node = working.node(name)
        rows = 1 << node.n_inputs
        config = 0
        learned = 0
        for row in range(rows):
            objectives = {
                src: (row >> pin) & 1 for pin, src in enumerate(node.fanin)
            }
            if len(objectives) < node.n_inputs:
                # Duplicate fan-in nets: some rows are unreachable; they are
                # don't-cares and stay 0.
                consistent = all(
                    objectives[src] == (row >> pin) & 1
                    for pin, src in enumerate(node.fanin)
                )
                if not consistent:
                    continue
            pattern = self._justify_row(working, name, objectives)
            if pattern is None:
                continue
            bit = self._deduce_output(working, name, pattern)
            if bit is None:
                continue
            config |= bit << row
            learned += 1
        result.partial_rows[name] = learned
        if learned == rows or (learned == self._reachable_rows(node) and learned > 0):
            return config
        return None

    def _reachable_rows(self, node) -> int:
        distinct = len(set(node.fanin))
        if distinct == node.n_inputs:
            return 1 << node.n_inputs
        return 1 << distinct

    def _justify_row(
        self,
        working: Netlist,
        name: str,
        objectives: Dict[str, int],
    ) -> Optional[Dict[str, int]]:
        # Inputs that are themselves driven by unknown logic cannot be
        # justified; justify() treats unknown LUT outputs as X and fails.
        # Other unknown LUTs on the observation route are pinned to 0 for
        # the sensitization check — a heuristic the deduction step verifies
        # against the oracle before trusting.
        unknown = {
            lut: 0
            for lut in working.luts
            if working.node(lut).lut_config is None and lut != name
        }
        return justify_and_propagate(
            working,
            target=name,
            input_row=objectives,
            rng=self.rng,
            attempts=max(1, self.attempts_per_row // 16),
            assumed=unknown,
        )

    def _deduce_output(
        self,
        working: Netlist,
        name: str,
        pattern: Dict[str, int],
    ) -> Optional[int]:
        """Compare the oracle's response with the 0/1 hypotheses for *name*.

        Other still-unknown LUTs cannot be pinned to a guessed constant:
        on the real chip they hold their true (unknown) values, and a wrong
        guess shifts both hypothesis simulations so the observation matches
        the wrong one.  Instead every assignment of the unknown outputs is
        simulated at once (one config lane per assignment — a constant-0 or
        constant-1 truth table per unknown LUT, the all-zeros/all-ones
        config), and a bit is deduced only when NO assignment can explain
        the chip's response under the opposite hypothesis — the measurement
        is then sound regardless of what the unknown gates actually compute.

        Both hypotheses for *name* ride in the same key-parallel pass: the
        low half of the ``2^(k+1)`` lanes programs *name* to constant 0,
        the high half to constant 1, with the unknown-output assignment
        enumerated identically in each half.
        """
        others = sorted(
            lut
            for lut in working.luts
            if working.node(lut).lut_config is None and lut != name
        )
        if len(others) > self.max_unknown_lanes:
            # 2^k lanes would be unreasonable; the row waits until enough
            # of the other LUTs resolve.  (Exactly the dependency that
            # defeats this attack under dependent selection.)
            return None
        half = 1 << len(others)
        mask = (1 << half) - 1
        full = {
            lut: (1 << (1 << working.node(lut).n_inputs)) - 1
            for lut in [name] + others
        }
        configs = []
        for lane in range(2 * half):
            assignment = {name: full[name] if lane >= half else 0}
            for i, lut in enumerate(others):
                assignment[lut] = full[lut] if (lane >> i) & 1 else 0
            configs.append(assignment)
        pis, state = split_pattern(working, pattern)
        values = evaluate_configs(working, pis, configs, state=state)
        observed = self.oracle.query(pis, state)
        consistent_low = mask
        consistent_high = mask
        for point in self.oracle.observation_points():
            word = values[point]
            observed_word = -(observed[point] & 1) & mask
            consistent_low &= ~((word & mask) ^ observed_word) & mask
            consistent_high &= ~(((word >> half) & mask) ^ observed_word) & mask
        if consistent_low and not consistent_high:
            return 0
        if consistent_high and not consistent_low:
            return 1
        return None
