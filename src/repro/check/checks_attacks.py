"""Attack-pipeline differential checks.

Every attack reports its own attacker-cost figures (``oracle_queries``,
``test_clocks``) and, on success, a recovered key.  Both claims are
cross-checked against independent computations:

* the oracle is wrapped from the outside by a re-counting shim that bills
  every ``query``/``run_sequence`` call by the documented cost model, so
  the oracle's internal counters (and the attack's reported figures,
  which mirror them) must match an account it cannot see;
* the recovered configurations are programmed into the foundry view and
  proven functionally equivalent to the ground-truth hybrid with the SAT
  equivalence checker — a key that merely matches the sampled patterns
  is caught.

The testing attack's three-valued implication
(:class:`~repro.sim.justify.Implication`) is raced against the dual-rail
:class:`~repro.dataflow.TernaryPropagator`, an independent implementation
of the same Kleene semantics, before and after ``lut_config`` writes
(which bump no revision, so a schedule that folded configs would go
stale).

The circuits are locked with a small hand-placed LUT set (not a full
selection algorithm) so the brute-force hypothesis space stays tiny and
all three attacks finish in milliseconds per round.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..attacks.brute_force import BruteForceAttack
from ..attacks.oracle import ConfiguredOracle
from ..attacks.sat_attack import SatAttack
from ..attacks.testing_attack import TestingAttack
from ..dataflow.absint import TernaryPropagator
from ..dataflow.lattice import TernaryWord
from ..lut.mapping import HybridMapper
from ..netlist.netlist import Netlist
from ..netlist.transform import replace_gates_with_luts
from ..sat.equivalence import check_equivalence
from ..sim.justify import Implication, TriVal
from .core import CheckContext, register


class IndependentBill:
    """An external re-count of the attacker's bill.

    Wraps an oracle's ``query``/``run_sequence`` entry points on the
    instance and prices every call by the documented cost model (a width-w
    query costs w queries and w test clocks with scan access, w × depth
    clocks without; a sequence costs one clock per cycle per lane).  The
    oracle's own counters must agree with this account exactly.
    """

    def __init__(self, oracle: ConfiguredOracle):
        self.queries = 0
        self.test_clocks = 0
        self._oracle = oracle
        self._query = oracle.query
        self._run_sequence = oracle.run_sequence
        oracle.query = self._count_query  # type: ignore[method-assign]
        oracle.run_sequence = self._count_run_sequence  # type: ignore[method-assign]

    def _count_query(self, inputs, state=None, width=1):
        self.queries += width
        self.test_clocks += width * (
            1 if self._oracle.scan else self._oracle.depth
        )
        return self._query(inputs, state, width)

    def _count_run_sequence(self, input_sequence, width=1):
        self.queries += len(input_sequence) * width
        self.test_clocks += len(input_sequence) * width
        return self._run_sequence(input_sequence, width)


def _lock_small(
    netlist: Netlist, rng: random.Random, n_luts: int = 2
) -> Optional[Netlist]:
    """Lock up to *n_luts* 1-2 input gates in place; None if impossible."""
    candidates = [
        name
        for name in netlist.gates
        if netlist.node(name).is_combinational
        and not netlist.node(name).is_lut
        and 1 <= netlist.node(name).n_inputs <= 2
    ]
    if not candidates:
        return None
    picked = rng.sample(candidates, min(n_luts, len(candidates)))
    replace_gates_with_luts(netlist, picked, program=True)
    return netlist


def _candidate_from_key(
    foundry: Netlist, hybrid: Netlist, key: Dict[str, int]
) -> Netlist:
    """The foundry view programmed with a recovered (possibly partial) key;
    unrecovered LUTs take the ground-truth config, so a *wrong* recovered
    entry is the only thing that can break equivalence."""
    candidate = foundry.copy(foundry.name + "_recovered")
    for name in candidate.luts:
        node = candidate.node(name)
        if name in key:
            node.lut_config = key[name]
        elif node.lut_config is None:
            node.lut_config = hybrid.node(name).lut_config
    return candidate


def _recovered_key(attack: str, outcome) -> Dict[str, int]:
    if attack == "testing":
        return dict(outcome.resolved)
    if attack == "brute":
        return dict(outcome.found or {})
    return dict(outcome.key or {})


@register(
    name="attack-oracle-equivalence",
    family="attack",
    description="testing/brute/SAT attacks against a known-config oracle: "
    "recovered keys must be functionally equivalent to the ground truth "
    "and reported queries/test_clocks must match an external re-count",
    trial_divisor=8,
)
def attack_oracle_equivalence(ctx: CheckContext) -> None:
    rng = ctx.rng
    for round_no in range(ctx.trials):
        hybrid = _lock_small(ctx.netlist(), rng)
        if hybrid is None:
            return
        foundry = HybridMapper().strip_configs(hybrid)
        for attack_name in ("testing", "brute", "sat"):
            oracle = ConfiguredOracle(hybrid, scan=True)
            bill = IndependentBill(oracle)
            target = foundry.copy(f"{foundry.name}_{attack_name}")
            attack_seed = rng.randrange(1 << 30)
            if attack_name == "testing":
                outcome = TestingAttack(target, oracle, seed=attack_seed).run()
            elif attack_name == "brute":
                outcome = BruteForceAttack(target, oracle, seed=attack_seed).run()
            else:
                outcome = SatAttack(target, oracle).run()
            # Replay-billing probe: re-applying a known pattern must be
            # billed at full price even when the memo serves it.
            probe_inputs = {pi: 0 for pi in hybrid.inputs}
            probe_state = {ff: 0 for ff in hybrid.flip_flops}
            oracle.query(probe_inputs, probe_state, width=4)
            oracle.query(probe_inputs, probe_state, width=4)
            ctx.compare(
                f"{attack_name} attack bill (oracle counters vs re-count)",
                (oracle.queries, oracle.test_clocks),
                (bill.queries, bill.test_clocks),
                round=round_no,
                attack=attack_name,
            )
            probe_cost = 8  # the two width-4 probe queries above
            ctx.compare(
                f"{attack_name} attack bill (reported vs oracle counters)",
                (outcome.oracle_queries, outcome.test_clocks),
                (oracle.queries - probe_cost, oracle.test_clocks - probe_cost),
                round=round_no,
                attack=attack_name,
            )
            key = _recovered_key(attack_name, outcome)
            if key:
                candidate = _candidate_from_key(foundry, hybrid, key)
                verdict = check_equivalence(candidate, hybrid)
                ctx.require(
                    f"{attack_name} recovered key is functionally correct",
                    verdict.equivalent,
                    f"{attack_name} attack recovered a key that is not "
                    "functionally equivalent to the ground truth",
                    round=round_no,
                    attack=attack_name,
                    key={k: v for k, v in sorted(key.items())},
                    counterexample=verdict.counterexample,
                )
            if attack_name == "sat":
                # The SAT attack is complete: with scan access it must
                # always terminate with a working key on these tiny spaces.
                ctx.require(
                    "sat attack succeeds with full scan access",
                    outcome.success,
                    f"sat attack gave up on a {len(hybrid.luts)}-LUT "
                    "hybrid with scan access (a complete algorithm must "
                    "succeed here)",
                    round=round_no,
                    attack=attack_name,
                )
            elif attack_name == "brute" and not outcome.success:
                # Brute force samples patterns, so it may honestly end
                # ambiguous — but the true key matches the oracle on every
                # pattern, so it can never have been eliminated.
                true_key = {
                    name: hybrid.node(name).lut_config
                    for name in hybrid.luts
                }
                ctx.require(
                    "brute-force failure is honest ambiguity",
                    any(s == true_key for s in outcome.survivors),
                    "brute force reported failure but eliminated the true "
                    "key — the screen rejected a hypothesis that matches "
                    "the oracle",
                    round=round_no,
                    attack=attack_name,
                    survivors=len(outcome.survivors),
                )


def _lut_names(netlist: Netlist) -> List[str]:
    return sorted(netlist.luts)


def _ternary_values(
    netlist: Netlist, assignments: List[Dict[str, TriVal]]
) -> List[Dict[str, TriVal]]:
    """Every net's value under each partial startpoint assignment, from
    one packed dual-rail propagation (lane *k* = ``assignments[k]``)."""
    rails: Dict[str, TernaryWord] = {}
    for sp in list(netlist.inputs) + list(netlist.flip_flops):
        can0 = can1 = 0
        for lane, assignment in enumerate(assignments):
            value = assignment.get(sp)
            if value != 1:
                can0 |= 1 << lane
            if value != 0:
                can1 |= 1 << lane
        rails[sp] = TernaryWord(can0, can1)
    words = TernaryPropagator(netlist).propagate(
        inputs={pi: rails[pi] for pi in netlist.inputs},
        state={ff: rails[ff] for ff in netlist.flip_flops},
        width=len(assignments),
    )
    out: List[Dict[str, TriVal]] = [{} for _ in assignments]
    for net, word in words.items():
        zero, one = word.concrete0(), word.concrete1()
        for lane, values in enumerate(out):
            bit = 1 << lane
            values[net] = 0 if zero & bit else 1 if one & bit else None
    return out


@register(
    name="attack-implication-parity",
    family="attack",
    description="the testing attack's three-valued implication equals the "
    "dual-rail TernaryPropagator on foundry views and hybrids, for random "
    "partial startpoint assignments, before and after lut_config writes",
)
def attack_implication_parity(ctx: CheckContext) -> None:
    rng = ctx.rng
    for round_no in range(ctx.trials):
        hybrid = _lock_small(ctx.netlist(), rng, n_luts=rng.randint(1, 4))
        if hybrid is None:
            return
        foundry = HybridMapper().strip_configs(hybrid)
        for view, netlist in (("foundry", foundry), ("hybrid", hybrid)):
            startpoints = list(netlist.inputs) + list(netlist.flip_flops)
            engine = Implication(netlist)
            for phase in ("before", "after"):
                if phase == "after":
                    # Config writes bump no revision: the engine built
                    # above must still see them.
                    for lut in netlist.luts:
                        rows = 1 << netlist.node(lut).n_inputs
                        netlist.node(lut).lut_config = rng.choice(
                            [None, rng.getrandbits(rows)]
                        )
                assignments: List[Dict[str, TriVal]] = []
                for _ in range(16):
                    unknown = rng.random()
                    assignments.append(
                        {
                            sp: rng.getrandbits(1)
                            for sp in startpoints
                            if rng.random() >= unknown
                        }
                    )
                expected = _ternary_values(netlist, assignments)
                for lane, assignment in enumerate(assignments):
                    ctx.compare(
                        "three-valued implication vs dual-rail propagation",
                        engine.run(assignment),
                        expected[lane],
                        round=round_no,
                        view=view,
                        phase=phase,
                        lane=lane,
                    )
