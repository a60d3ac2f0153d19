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
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..netlist.gates import GateType
from ..netlist.netlist import Netlist
from ..netlist.transform import extract_cone, replace_gates_with_luts
from ..sat.equivalence import check_equivalence
from ..sim.logicsim import exhaustive_input_words, pack, reference_evaluate
from .core import CheckContext, register

if TYPE_CHECKING:
    from ..attacks.sat_attack import Dialogue

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


def dialogue_keys(
    foundry: Netlist, dialogues: Sequence[Dialogue]
) -> List[Dict[str, int]]:
    """Every full key of *foundry* consistent with the recorded
    (stimuli, responses) dialogues, by enumeration.

    Each key is programmed into a copy of the foundry view, and the
    dialogues are simulated one per lane, frame by frame, by
    :func:`reference_evaluate`: frame 0 starts from the state its stimuli
    set (a flip-flop they omit reads 0, the reset value), each later frame
    from the previous frame's D-pins, and every net of every response must
    match.  Keys come out in lexicographic order of their bits taken in
    sorted ``(lut, row)`` order, 0 before 1, so the first one is the
    lex-min key.  Only for tiny locks: the loop visits
    ``2 ** (total LUT rows)`` keys.
    """
    candidate = foundry.copy(f"{foundry.name}_enum")
    bits = sorted(
        (lut, row)
        for lut in candidate.luts
        for row in range(1 << candidate.node(lut).n_inputs)
    )
    width = max(len(dialogues), 1)
    nets = [*candidate.inputs, *candidate.flip_flops]
    frames = [
        (
            {net: pack([s[t].get(net, 0) for s, _ in dialogues]) for net in nets},
            {net: pack([r[t][net] for _, r in dialogues]) for net in response},
        )
        for t, response in enumerate(dialogues[0][1] if dialogues else [])
    ]
    found: List[Dict[str, int]] = []
    for code in range(1 << len(bits)):
        key = dict.fromkeys(candidate.luts, 0)
        for position, (lut, row) in enumerate(reversed(bits)):
            if code >> position & 1:
                key[lut] |= 1 << row
        for lut, config in key.items():
            candidate.node(lut).lut_config = config
        state = frames[0][0] if frames else {}
        for applied, expected in frames:
            values = reference_evaluate(candidate, applied, state, width)
            if any(values[net] != word for net, word in expected.items()):
                break
            state = {
                ff: values[candidate.node(ff).fanin[0]]
                for ff in candidate.flip_flops
            }
        else:
            found.append(key)
    return found


def consistent_keys(
    foundry: Netlist, di_constraints: Sequence[DiConstraint]
) -> List[Dict[str, int]]:
    """:func:`dialogue_keys` of the SAT attack's one-frame dialogues."""
    return dialogue_keys(foundry, [([p], [r]) for p, r in di_constraints])


def _check_extraction(ctx: CheckContext, scan: bool, run_attack) -> List[tuple]:
    """Run ``run_attack(foundry, oracle, rng) -> (result, dialogues,
    clocks per DI round)`` on tiny locks; check the key against
    :func:`dialogue_keys` and the bill against an external re-count.
    Every other lock is a LUT reading one net on both pins (rows 1 and 2
    unreachable), so only the canonical choice among several consistent
    keys decides the extracted key.  Returns ``(trial, hybrid, foundry,
    consistent keys)`` per trial."""
    from ..attacks.oracle import ConfiguredOracle
    from ..lut.mapping import HybridMapper
    from .checks_attacks import IndependentBill, _lock_small
    from .checks_dataflow import _lock_duplicated_pin

    rng = ctx.rng
    locks = []
    for trial in range(ctx.trials):
        hybrid = ctx.netlist()
        if trial % 2 == 0:
            locked = _lock_duplicated_pin(hybrid, rng) is not None
        else:
            locked = _lock_small(hybrid, rng) is not None
        if not locked:
            break
        foundry = HybridMapper().strip_configs(hybrid)
        oracle = ConfiguredOracle(hybrid, scan=scan)
        bill = IndependentBill(oracle)
        result, dialogues, clocks = run_attack(foundry, oracle, rng)
        ctx.require(
            "the attack recovers a key",
            result.success and not result.gave_up,
            "the SAT attack gave up or failed on a tiny lock",
            trial=trial,
            clocks=clocks,
        )
        keys = dialogue_keys(foundry, dialogues)
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
        # Extraction never touches the oracle: the reported bill and the
        # external re-count are the DI rounds' alone.
        ctx.compare(
            "oracle bill (reported, re-counted) vs clocks per DI round",
            (result.oracle_queries, result.test_clocks, bill.queries, bill.test_clocks),
            (result.iterations * clocks,) * 4,
            trial=trial,
            clocks=clocks,
        )
        locks.append((trial, hybrid, foundry, keys))
    return locks


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
    from ..attacks.sat_attack import SatAttack
    from .checks_attacks import _candidate_from_key

    def run_attack(foundry, oracle, rng):
        result = SatAttack(foundry.copy(f"{foundry.name}_new"), oracle).run()
        return result, [([p], [r]) for p, r in result.di_constraints], 1

    for trial, hybrid, foundry, keys in _check_extraction(ctx, True, run_attack):
        # Termination: once no distinguishing input remains, every key
        # the responses admit must implement the hybrid's function.
        truth = {lut: hybrid.node(lut).lut_config for lut in hybrid.luts}
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


@register(
    name="sat-sequential-extract",
    family="sat",
    description="on tiny locks at unroll depth 1-3, the sequential SAT "
    "attack's extracted key must be the lex-min of the keys enumeration "
    "finds consistent with its dialogues (each simulated from reset), and "
    "the oracle bill must be depth queries and clocks per DIS round",
    trial_divisor=8,
)
def sat_sequential_extract(ctx: CheckContext) -> None:
    from ..attacks.sequential_sat import SequentialSatAttack

    def run_attack(foundry, oracle, rng):
        depth = rng.randint(1, 3)
        result = SequentialSatAttack(
            foundry.copy(f"{foundry.name}_new"), oracle, unroll_depth=depth
        ).run()
        return result, result.dialogues, depth

    _check_extraction(ctx, False, run_attack)
