"""SAT-verdict vs exhaustive-simulation and brute-force-key checks.

:func:`repro.sat.equivalence.check_equivalence` proves (via a Tseitin
miter and the CDCL solver) what word-parallel exhaustive simulation can
decide directly on small cones.  The two paths share no code below the
netlist data structure, so agreement is strong evidence both are right.
Half the trials compare a cone against an exact copy (the verdict must be
*equivalent*), half against a copy with one gate function flipped (the
verdict must match what exhaustive simulation observes — a masked flip is
legitimately still equivalent).  Counterexamples are replayed on both
netlists and must actually distinguish them.

The incremental SAT attack is checked the same way on tiny locks: the
keys consistent with its recorded DI responses are enumerated outright
(:func:`consistent_keys`), and its extracted key must be their lex-min.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist.gates import GateType
from ..netlist.netlist import Netlist
from ..netlist.transform import extract_cone, replace_gates_with_luts
from ..sat.equivalence import check_equivalence
from ..sim.logicsim import exhaustive_input_words, reference_evaluate
from .core import CheckContext, register

#: One recorded SAT-attack round: (DI pattern, oracle response).
DiConstraint = Tuple[Dict[str, int], Dict[str, int]]

#: Largest cone (in primary inputs) checked exhaustively: 2^10 patterns
#: in one word-parallel evaluation.
_MAX_CONE_INPUTS = 10

_FLIPPED_TYPE = {
    GateType.AND: GateType.NAND,
    GateType.NAND: GateType.AND,
    GateType.OR: GateType.NOR,
    GateType.NOR: GateType.OR,
    GateType.XOR: GateType.XNOR,
    GateType.XNOR: GateType.XOR,
    GateType.NOT: GateType.BUF,
    GateType.BUF: GateType.NOT,
}


def _small_cone(
    netlist: Netlist, rng: random.Random, attempts: int = 12
) -> Optional[Netlist]:
    """A random combinational cone with at most ``_MAX_CONE_INPUTS`` PIs."""
    gates = list(netlist.gates)
    if not gates:
        return None
    for attempt in range(attempts):
        sink = rng.choice(gates)
        cone = extract_cone(netlist, [sink], name=f"cone_{sink}")
        if 1 <= len(cone.inputs) <= _MAX_CONE_INPUTS:
            return cone
    return None


def _mutate_one_gate(netlist: Netlist, rng: random.Random) -> Optional[str]:
    """Flip the boolean function of one random gate (or LUT row)."""
    luts = sorted(netlist.luts)
    if luts and rng.random() < 0.5:
        node = netlist.node(rng.choice(luts))
        node.lut_config ^= 1 << rng.randrange(1 << node.n_inputs)
        return node.name
    flippable = [
        name
        for name in netlist.gates
        if netlist.node(name).gate_type in _FLIPPED_TYPE
    ]
    if not flippable:
        return None
    name = rng.choice(flippable)
    netlist.set_gate_type(name, _FLIPPED_TYPE[netlist.node(name).gate_type])
    return name


def _exhaustively_equal(left: Netlist, right: Netlist) -> Tuple[bool, dict, dict]:
    """Ground truth by brute force: every input pattern in one word."""
    words = exhaustive_input_words(left)
    width = 1 << len(left.inputs)
    a = reference_evaluate(left, words, width=width)
    b = reference_evaluate(right, words, width=width)
    left_obs = {po: a[po] for po in left.outputs}
    right_obs = {po: b[po] for po in right.outputs}
    return left_obs == right_obs, left_obs, right_obs


@register(
    name="sat-vs-exhaustive",
    family="sat",
    description="check_equivalence verdicts on small cones must match "
    "exhaustive word-parallel simulation, and counterexamples must "
    "actually distinguish the designs",
    trial_divisor=2,
)
def sat_vs_exhaustive(ctx: CheckContext) -> None:
    netlist = ctx.netlist()
    rng = ctx.rng
    for trial in range(ctx.trials):
        cone = _small_cone(netlist, rng)
        if cone is None:
            continue
        left = cone
        right = cone.copy(cone.name + "_b")
        # Sometimes push a programmed LUT into both sides so the symbolic
        # LUT encoding is on the SAT path too.
        if left.gates and rng.random() < 0.5:
            gate = rng.choice(list(left.gates))
            replace_gates_with_luts(left, [gate], program=True)
            replace_gates_with_luts(right, [gate], program=True)
        mutated = None
        if trial % 2 == 1:
            mutated = _mutate_one_gate(right, rng)
        verdict = check_equivalence(left, right)
        truth, left_obs, right_obs = _exhaustively_equal(left, right)
        ctx.compare(
            "equivalence verdict (SAT vs exhaustive simulation)",
            verdict.equivalent,
            truth,
            trial=trial,
            cone=cone.name,
            cone_inputs=len(left.inputs),
            mutated=mutated,
        )
        if not verdict.equivalent and verdict.counterexample is not None:
            cex = verdict.counterexample
            a = reference_evaluate(left, cex)
            b = reference_evaluate(right, cex)
            ctx.require(
                "counterexample distinguishes the designs",
                any(a[po] != b[po] for po in left.outputs),
                "SAT counterexample does not distinguish the two designs",
                trial=trial,
                cone=cone.name,
                counterexample=cex,
            )


def consistent_keys(
    foundry: Netlist, di_constraints: Sequence[DiConstraint]
) -> List[Dict[str, int]]:
    """Every full key of *foundry* consistent with the recorded DI
    responses, by enumeration.

    Each key is programmed into a copy of the foundry view, and all DI
    patterns are simulated in one word by :func:`reference_evaluate`.  Keys
    come out in lexicographic order of their bits taken in sorted
    ``(lut, row)`` order, 0 before 1, so the first one is the lex-min key.
    Only for tiny locks: the loop visits ``2 ** (total LUT rows)`` keys.
    """
    candidate = foundry.copy(f"{foundry.name}_enum")
    bits = sorted(
        (lut, row)
        for lut in candidate.luts
        for row in range(1 << candidate.node(lut).n_inputs)
    )
    width = max(len(di_constraints), 1)

    def word(values) -> int:
        return sum(value << lane for lane, value in enumerate(values))

    inputs = {
        pi: word(p.get(pi, 0) for p, _ in di_constraints)
        for pi in candidate.inputs
    }
    state = {
        ff: word(p.get(ff, 0) for p, _ in di_constraints)
        for ff in candidate.flip_flops
    }
    points = di_constraints[0][1] if di_constraints else {}
    expected = {pt: word(r[pt] for _, r in di_constraints) for pt in points}
    found: List[Dict[str, int]] = []
    for code in range(1 << len(bits)):
        key = dict.fromkeys(candidate.luts, 0)
        for position, (lut, row) in enumerate(reversed(bits)):
            if code >> position & 1:
                key[lut] |= 1 << row
        for lut, config in key.items():
            candidate.node(lut).lut_config = config
        values = reference_evaluate(candidate, inputs, state, width)
        if all(values[pt] == w for pt, w in expected.items()):
            found.append(key)
    return found


@register(
    name="sat-incremental-extract",
    family="sat",
    description="on tiny locks (every other one with two unreachable LUT "
    "rows), the incremental SAT attack's extracted key must be the "
    "lex-min of the keys brute-force enumeration finds consistent with "
    "its DI responses, every such key must be SAT-proved equivalent to "
    "the hybrid, and the oracle bill must be one scan query per DI round",
    trial_divisor=8,
)
def sat_incremental_extract(ctx: CheckContext) -> None:
    from ..attacks.oracle import ConfiguredOracle
    from ..attacks.sat_attack import SatAttack
    from ..lut.mapping import HybridMapper
    from .checks_attacks import IndependentBill, _candidate_from_key, _lock_small
    from .checks_dataflow import _lock_duplicated_pin

    rng = ctx.rng
    for trial in range(ctx.trials):
        hybrid = ctx.netlist()
        if trial % 2 == 0:
            # A LUT reading one net on both pins never selects rows 1 and
            # 2, so several keys stay consistent and only the canonical
            # choice among them decides the extracted key.
            locked = _lock_duplicated_pin(hybrid, rng) is not None
        else:
            locked = _lock_small(hybrid, rng) is not None
        if not locked:
            return
        foundry = HybridMapper().strip_configs(hybrid)

        oracle = ConfiguredOracle(hybrid, scan=True)
        bill = IndependentBill(oracle)
        result = SatAttack(foundry.copy(f"{foundry.name}_new"), oracle).run()
        ctx.require(
            "incremental attack recovers a key",
            result.success and not result.gave_up,
            "SAT attack gave up or failed on a tiny lock",
            trial=trial,
        )

        keys = consistent_keys(foundry, result.di_constraints)
        truth = {lut: hybrid.node(lut).lut_config for lut in hybrid.luts}
        ctx.require(
            "the provisioned key is consistent with its own oracle",
            truth in keys,
            "enumeration rejected the ground-truth key",
            trial=trial,
        )
        ctx.compare(
            "extracted key (incremental vs brute-force lex-min)",
            result.key,
            keys[0] if keys else None,
            trial=trial,
            di_rounds=result.iterations,
            consistent_keys=len(keys),
        )
        # Termination: once no distinguishing input remains, every key
        # the responses admit must implement the hybrid's function.
        for key in keys:
            if key == truth:
                continue
            candidate = _candidate_from_key(foundry, hybrid, key)
            ctx.require(
                "every consistent key is equivalent to the hybrid",
                check_equivalence(candidate, hybrid).equivalent,
                "a key consistent with every DI response differs from "
                "the hybrid",
                trial=trial,
                key=key,
            )

        # Oracle bill: a width-1 scan query per DI round, nothing from
        # extraction (it never touches the oracle), and the reported bill
        # must match the external re-count.
        ctx.compare(
            "oracle bill vs external re-count",
            (result.oracle_queries, result.test_clocks),
            (bill.queries, bill.test_clocks),
            trial=trial,
        )
        ctx.compare(
            "incremental bill is one scan query per DI round",
            (result.oracle_queries, result.test_clocks),
            (result.iterations, result.iterations),
            trial=trial,
        )
