"""SAT-verdict vs exhaustive-simulation differential checks.

:func:`repro.sat.equivalence.check_equivalence` proves (via a Tseitin
miter and the CDCL solver) what word-parallel exhaustive simulation can
decide directly on small cones.  The two paths share no code below the
netlist data structure, so agreement is strong evidence both are right.
Half the trials compare a cone against an exact copy (the verdict must be
*equivalent*), half against a copy with one gate function flipped (the
verdict must match what exhaustive simulation observes — a masked flip is
legitimately still equivalent).  Counterexamples are replayed on both
netlists and must actually distinguish them.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from ..netlist.gates import GateType
from ..netlist.netlist import Netlist
from ..netlist.transform import extract_cone, replace_gates_with_luts
from ..sat.equivalence import check_equivalence
from ..sim.logicsim import CombinationalSimulator, exhaustive_input_words
from .core import CheckContext, register

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
    node = netlist.node(rng.choice(flippable))
    node.gate_type = _FLIPPED_TYPE[node.gate_type]
    netlist.touch_structure()
    return node.name


def _exhaustively_equal(left: Netlist, right: Netlist) -> Tuple[bool, dict, dict]:
    """Ground truth by brute force: every input pattern in one word."""
    words = exhaustive_input_words(left)
    width = 1 << len(left.inputs)
    a = CombinationalSimulator(left, backend="interpreted").evaluate(
        words, width=width
    )
    b = CombinationalSimulator(right, backend="interpreted").evaluate(
        words, width=width
    )
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
            a = CombinationalSimulator(left, backend="interpreted").evaluate(
                cex, width=1
            )
            b = CombinationalSimulator(right, backend="interpreted").evaluate(
                cex, width=1
            )
            ctx.require(
                "counterexample distinguishes the designs",
                any(a[po] != b[po] for po in left.outputs),
                "SAT counterexample does not distinguish the two designs",
                trial=trial,
                cone=cone.name,
                counterexample=cex,
            )


@register(
    name="sat-incremental-extract",
    family="sat",
    description="the incremental SAT attack's extracted key must be "
    "bit-identical to the preserved pre-overhaul rebuild path (both on "
    "the live run's DI constraints and via a full reference attack), and "
    "every side's oracle bill must equal one scan query per DI round",
    trial_divisor=8,
)
def sat_incremental_extract(ctx: CheckContext) -> None:
    from ..attacks.oracle import ConfiguredOracle
    from ..attacks.sat_attack import SatAttack
    from ..lut.mapping import HybridMapper
    from .checks_attacks import IndependentBill, _lock_small
    from .reference_sat import reference_attack_rounds, reference_extract_key

    rng = ctx.rng
    for trial in range(ctx.trials):
        hybrid = _lock_small(ctx.netlist(), rng)
        if hybrid is None:
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

        # Race the two extraction paths on *identical* DI constraints: the
        # live-solver lex-min extraction vs the preserved fresh-rebuild.
        rebuilt = reference_extract_key(foundry, result.di_constraints)
        ctx.compare(
            "extracted key (incremental vs rebuild, same DI constraints)",
            result.key,
            rebuilt,
            trial=trial,
            di_rounds=result.iterations,
        )

        # Full pre-overhaul attack: DI searches may differ, but at
        # termination the consistent-key set is the true key's functional
        # equivalence class either way, so the canonical key is identical.
        oracle_ref = ConfiguredOracle(hybrid, scan=True)
        bill_ref = IndependentBill(oracle_ref)
        ref = reference_attack_rounds(foundry, oracle_ref)
        ctx.require(
            "reference attack terminates",
            not ref.gave_up,
            "pre-overhaul SAT attack gave up on a tiny lock",
            trial=trial,
        )
        ref_key = reference_extract_key(foundry, ref.di_constraints)
        ctx.compare(
            "extracted key (new attack vs pre-overhaul attack)",
            result.key,
            ref_key,
            trial=trial,
        )

        # Oracle bills: a width-1 scan query per DI round, nothing from
        # extraction (it never touches the oracle), on both sides — and
        # the new side's reported bill must match the external re-count.
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
        ctx.compare(
            "reference bill is one scan query per DI round",
            (bill_ref.queries, bill_ref.test_clocks),
            (ref.iterations, ref.iterations),
            trial=trial,
        )
