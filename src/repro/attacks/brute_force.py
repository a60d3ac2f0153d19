"""Brute-force attack (Eq. 3 of the paper).

When partial truth tables cannot be developed (parametric-aware selection),
"a more plausible approach for the attacker is to launch a brute force ...
attack": enumerate candidate function assignments over all missing gates and
test each hypothesis against the configured chip.  Equation 3 counts the
clocks this needs — ``2^I · P^M · D`` — and this module realises the attack
so the bound can be validated on small designs.

Hypothesis screening is key-parallel: ``batch_width`` candidate keys share
one compiled config-lane pass per pattern (:mod:`repro.sim.keybatch`; 1
means one lane per pass).  Oracle access is recorded up front, one packed
query per screening or confirm round billed once per pattern, so the
billed cost and the survivor set do not depend on the batch width.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..netlist.gates import GateType, candidate_tables, truth_table
from ..netlist.netlist import Netlist
from ..obs import span
from ..sim.keybatch import (
    DEFAULT_BATCH_WIDTH,
    check_batch_width,
    iter_hypotheses,
    screen_hypotheses,
)
from .oracle import (
    ConfiguredOracle,
    attribute_cost,
    bump_cost_counters,
    draw_patterns,
    query_patterns,
    snapshot_cost,
)


@dataclass
class BruteForceResult:
    """Outcome of the exhaustive hypothesis search."""

    found: Optional[Dict[str, int]] = None
    hypotheses_tested: int = 0
    hypotheses_total: int = 0
    oracle_queries: int = 0
    test_clocks: int = 0
    exhausted_budget: bool = False
    survivors: List[Dict[str, int]] = field(default_factory=list)
    #: True when several survivors remained but were proved pairwise
    #: functionally equivalent (an unobservable/masked missing gate), so
    #: any of them is a working key.
    interchangeable_survivors: bool = False
    #: True when the confirm loop ran out of rounds with more than one
    #: *distinguishable* survivor standing (no equivalence proof): the
    #: attack could not pick a key, but not for lack of hypothesis budget
    #: — distinct from :attr:`exhausted_budget`.
    confirm_rounds_exhausted: bool = False

    @property
    def success(self) -> bool:
        return self.found is not None


def candidate_configs(n_inputs: int) -> List[int]:
    """The candidate configurations for one missing gate: the 6 meaningful
    gate functions at the LUT's fan-in (the paper's P); for 1-input LUTs
    (BUF/NOT replacements) the two non-constant functions."""
    if n_inputs == 1:
        return [
            truth_table(GateType.NOT, 1),
            truth_table(GateType.BUF, 1),
        ]
    return list(dict.fromkeys(candidate_tables(n_inputs).values()))


class BruteForceAttack:
    """Enumerate candidate configurations for every missing gate and keep
    the hypotheses consistent with the oracle.

    A set of random distinguishing patterns is drawn first; each hypothesis
    is simulated against them and discarded on the first mismatch.  With
    ``confirm_patterns`` survivors are re-checked on fresh patterns until a
    single hypothesis remains (or the budget runs out).
    """

    def __init__(
        self,
        foundry_netlist: Netlist,
        oracle: ConfiguredOracle,
        seed: int = 0,
        screen_patterns: int = 24,
        confirm_patterns: int = 24,
        max_hypotheses: int = 2_000_000,
        batch_width: int = DEFAULT_BATCH_WIDTH,
        max_confirm_rounds: int = 8,
    ):
        self.netlist = foundry_netlist
        self.oracle = oracle
        self.rng = random.Random(seed)
        self.screen_patterns = screen_patterns
        self.confirm_patterns = confirm_patterns
        self.max_hypotheses = max_hypotheses
        #: Candidate keys packed per compiled pass (1 = one lane).
        self.batch_width = check_batch_width(batch_width)
        self.max_confirm_rounds = max_confirm_rounds

    def run(self) -> BruteForceResult:
        result = BruteForceResult()
        luts = [
            name
            for name in self.netlist.luts
            if self.netlist.node(name).lut_config is None
        ]
        if not luts:
            result.found = {}
            return result
        spaces = [candidate_configs(self.netlist.node(n).n_inputs) for n in luts]
        total = 1
        for space in spaces:
            total *= len(space)
        result.hypotheses_total = total

        cost0 = snapshot_cost(self.oracle)
        with span(
            "attack.brute",
            circuit=self.netlist.name,
            lut_count=len(luts),
            hypotheses_total=total,
        ) as attack_span:
            with span(
                "attack.brute.screen", width=self.batch_width
            ) as screen_span:
                screen_cost = snapshot_cost(self.oracle)
                patterns, responses = self._query_patterns(
                    self.screen_patterns
                )
                working = self.netlist.copy(f"{self.netlist.name}_bf")
                points = self.oracle.observation_points()

                outcome = screen_hypotheses(
                    working,
                    iter_hypotheses(luts, spaces),
                    patterns,
                    responses,
                    points,
                    batch_width=self.batch_width,
                    max_hypotheses=self.max_hypotheses,
                )
                survivors = outcome.survivors
                result.hypotheses_tested = outcome.tested
                result.exhausted_budget = outcome.exhausted
                attribute_cost(screen_span, self.oracle, screen_cost)
                screen_span.set(
                    hypotheses_tested=result.hypotheses_tested,
                    survivors=len(survivors),
                )

            # Disambiguate survivors with fresh patterns.
            rounds = 0
            while len(survivors) > 1 and rounds < self.max_confirm_rounds:
                rounds += 1
                with span(
                    "attack.brute.confirm",
                    round=rounds,
                    width=self.batch_width,
                ) as confirm_span:
                    confirm_cost = snapshot_cost(self.oracle)
                    extra, extra_responses = self._query_patterns(
                        self.confirm_patterns
                    )
                    survivors = screen_hypotheses(
                        working,
                        survivors,
                        extra,
                        extra_responses,
                        points,
                        batch_width=self.batch_width,
                    ).survivors
                    attribute_cost(confirm_span, self.oracle, confirm_cost)
                    confirm_span.set(survivors=len(survivors))
            result.survivors = survivors
            if len(survivors) == 1:
                result.found = survivors[0]
            elif survivors:
                with span(
                    "attack.brute.equivalence", survivors=len(survivors)
                ):
                    interchangeable = self._interchangeable(working, survivors)
                if interchangeable:
                    # Indistinguishable survivors that are *functionally
                    # equivalent* (the missing gate is masked or feeds dead
                    # logic): every one of them is a working key, so the
                    # attack has succeeded.  This is attacker-side reasoning
                    # on the foundry netlist alone — it costs no oracle
                    # queries and no test clocks.
                    result.found = survivors[0]
                    result.interchangeable_survivors = True
                else:
                    # Multiple *distinguishable* survivors after the last
                    # confirm round: fresh patterns might still separate
                    # them, so record the honest outcome instead of
                    # silently reporting plain failure.
                    result.confirm_rounds_exhausted = True
            result.oracle_queries = self.oracle.queries
            result.test_clocks = self.oracle.test_clocks
            deltas = attribute_cost(attack_span, self.oracle, cost0)
            attack_span.set(
                success=result.success,
                hypotheses_tested=result.hypotheses_tested,
                exhausted_budget=result.exhausted_budget,
                confirm_rounds_exhausted=result.confirm_rounds_exhausted,
            )
            bump_cost_counters(deltas)
        return result

    # ------------------------------------------------------------------
    def _interchangeable(
        self, working: Netlist, survivors: Sequence[Dict[str, int]]
    ) -> bool:
        """True when every survivor programs the foundry netlist to the
        same boolean function (proved with the SAT equivalence checker on
        the attacker's own copy — no oracle access involved).

        Survivors differ only in the configs of the hypothesis' LUTs, so
        every output and next-state net outside those LUTs' combinational
        fan-out is the same function of the same startpoints for all of
        them.  The proof therefore runs on the cone feeding the LUTs'
        observation points alone; with no points they are trivially
        interchangeable.  All survivors are checked against one
        :class:`EquivalenceSession`, so the reference survivor is encoded
        once and conflict clauses learned on its cone are shared across
        the whole pairwise sweep.
        """
        from ..dataflow.cones import observation_points_of
        from ..netlist.transform import extract_cone
        from ..sat.equivalence import EquivalenceSession

        points = list(
            dict.fromkeys(
                point
                for lut in survivors[0]
                for point in observation_points_of(working, lut)
            )
        )
        if not points:
            return True
        cone = extract_cone(working, points, name=f"{working.name}_cone")

        def programmed(hypothesis: Dict[str, int]) -> Netlist:
            candidate = cone.copy(f"{cone.name}_h")
            for name, config in hypothesis.items():
                if name in candidate:
                    candidate.node(name).lut_config = config
            return candidate

        session = EquivalenceSession(programmed(survivors[0]))
        for hypothesis in survivors[1:]:
            if not session.check(programmed(hypothesis)):
                return False
        return True

    def _query_patterns(self, count: int):
        """*count* fresh random patterns and the oracle's response to each."""
        patterns = draw_patterns(self.rng, self.netlist, count)
        return patterns, query_patterns(self.oracle, self.netlist, patterns)
