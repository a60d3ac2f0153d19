"""Key-parallel vs serial differential checks.

The config-lane axis (:mod:`repro.sim.keybatch`) promises bit-identical
results to the one-hypothesis-per-call loops it replaced.  Two checks
hold it to that:

* ``keybatch-lane-parity`` — raw simulation: every lane of a batched
  ``evaluate_configs`` pass must equal a full per-key evaluation on the
  interpreted reference backend, for random configs, chunk widths, and
  patterns.
* ``keybatch-score-parity`` — the ML attack's objective: batched
  ``score_keys`` match counts (bit-sliced per-lane counters) must equal
  the serial per-key loop on the interpreted backend, at batch widths
  that put keys on both sides of every chunk edge, and with the true key
  among the candidates, so one lane matches every label (or, under
  inverted labels, none).
* ``keybatch-brute-parity`` — end to end: a brute-force attack run with
  ``batch_width=64`` must report the same survivors, the same found key,
  the same tested/exhausted accounting, and the *same oracle bill* as the
  serial ``batch_width=1`` run (each side gets a fresh oracle and the
  same attack seed, so any drift is the batching's fault).
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..attacks.brute_force import BruteForceAttack
from ..attacks.oracle import ConfiguredOracle
from ..lut.mapping import HybridMapper
from ..netlist.netlist import Netlist
from ..sim import keybatch
from ..sim.logicsim import CombinationalSimulator
from .checks_attacks import _lock_small
from .core import CheckContext, register


def _random_configs(
    netlist: Netlist,
    luts: List[str],
    rng: random.Random,
    lanes: int,
) -> List[Dict[str, int]]:
    return [
        {
            name: rng.getrandbits(1 << netlist.node(name).n_inputs)
            for name in luts
        }
        for _ in range(lanes)
    ]


@register(
    name="keybatch-lane-parity",
    family="keybatch",
    description="every lane of a batched evaluate_configs pass equals a "
    "full per-key evaluation on the interpreted reference backend",
    trial_divisor=2,
)
def keybatch_lane_parity(ctx: CheckContext) -> None:
    rng = ctx.rng
    hybrid = _lock_small(ctx.netlist(), rng, n_luts=3)
    if hybrid is None:
        return
    foundry = HybridMapper().strip_configs(hybrid)
    luts = sorted(foundry.luts)
    startpoints = list(foundry.inputs) + list(foundry.flip_flops)
    for trial in range(ctx.trials):
        lanes = rng.randint(1, 80)
        configs = _random_configs(foundry, luts, rng, lanes)
        pattern = {sp: rng.getrandbits(1) for sp in startpoints}
        pis = {pi: pattern[pi] for pi in foundry.inputs}
        state = {ff: pattern[ff] for ff in foundry.flip_flops}
        width = rng.choice([None, 1, 7, 16, 64])
        batched = keybatch.evaluate_configs(
            foundry, pis, configs, state=state, width=width,
            backend="compiled",
        )
        serial = keybatch.evaluate_configs(
            foundry, pis, configs, state=state, backend="interpreted"
        )
        ctx.compare(
            "key-parallel lane values vs per-key reference evaluation",
            batched,
            serial,
            trial=trial,
            lanes=lanes,
            width=width,
        )


#: Batch widths of ``keybatch-score-parity``: serial, a width that
#: leaves a ragged last chunk, one machine word, and one and two words
#: plus a lane.
SCORE_WIDTHS = (1, 3, 64, 65, 130)


@register(
    name="keybatch-score-parity",
    family="keybatch",
    description="batched score_keys match counts equal the serial "
    "per-key loop on the interpreted backend at widths 1/3/64/65/130",
    trial_divisor=4,
)
def keybatch_score_parity(ctx: CheckContext) -> None:
    rng = ctx.rng
    for round_no in range(ctx.trials):
        hybrid = _lock_small(ctx.netlist(), rng, n_luts=3)
        if hybrid is None:
            return
        foundry = HybridMapper().strip_configs(hybrid)
        luts = sorted(foundry.luts)
        startpoints = list(foundry.inputs) + list(foundry.flip_flops)
        points = list(foundry.outputs) + [
            foundry.node(ff).fanin[0] for ff in foundry.flip_flops
        ]
        patterns = [
            {sp: rng.getrandbits(1) for sp in startpoints}
            for _ in range(rng.randint(1, 12))
        ]
        truth = CombinationalSimulator(hybrid, backend="interpreted")
        invert = round_no % 2  # odd rounds: the true key matches nothing
        labels = []
        for pattern in patterns:
            values = truth.evaluate(
                {pi: pattern[pi] for pi in foundry.inputs},
                {ff: pattern[ff] for ff in foundry.flip_flops},
                1,
            )
            labels.append({p: (values[p] & 1) ^ invert for p in points})
        keys = _random_configs(foundry, luts, rng, rng.randint(1, 140))
        keys.insert(
            rng.randrange(len(keys) + 1),
            {name: hybrid.node(name).lut_config for name in luts},
        )
        serial = keybatch.score_keys(
            foundry, keys, patterns, labels, points,
            batch_width=1, backend="interpreted",
        )
        for width in SCORE_WIDTHS:
            ctx.compare(
                "batched score_keys counts vs serial per-key loop",
                keybatch.score_keys(
                    foundry, keys, patterns, labels, points,
                    batch_width=width, backend="compiled",
                ),
                serial,
                round=round_no,
                width=width,
                keys=len(keys),
                patterns=len(patterns),
                inverted=bool(invert),
            )


@register(
    name="keybatch-brute-parity",
    family="keybatch",
    description="brute-force screening with batch_width=64 reports the "
    "same survivors, found key, accounting, and oracle bill as the "
    "serial batch_width=1 run",
    trial_divisor=8,
)
def keybatch_brute_parity(ctx: CheckContext) -> None:
    rng = ctx.rng
    for round_no in range(ctx.trials):
        hybrid = _lock_small(ctx.netlist(), rng)
        if hybrid is None:
            return
        foundry = HybridMapper().strip_configs(hybrid)
        attack_seed = rng.randrange(1 << 30)
        budget = rng.choice([2_000_000, 10])
        outcomes = {}
        for width in (1, 64):
            oracle = ConfiguredOracle(hybrid, scan=True)
            target = foundry.copy(f"{foundry.name}_w{width}")
            outcomes[width] = BruteForceAttack(
                target,
                oracle,
                seed=attack_seed,
                max_hypotheses=budget,
                batch_width=width,
            ).run()
        serial, batched = outcomes[1], outcomes[64]
        ctx.compare(
            "brute-force survivor sets (serial vs key-parallel)",
            serial.survivors,
            batched.survivors,
            round=round_no,
            budget=budget,
        )
        ctx.compare(
            "brute-force found key (serial vs key-parallel)",
            serial.found,
            batched.found,
            round=round_no,
            budget=budget,
        )
        ctx.compare(
            "brute-force accounting (tested/exhausted/confirm flags)",
            (
                serial.hypotheses_tested,
                serial.exhausted_budget,
                serial.confirm_rounds_exhausted,
                serial.interchangeable_survivors,
            ),
            (
                batched.hypotheses_tested,
                batched.exhausted_budget,
                batched.confirm_rounds_exhausted,
                batched.interchangeable_survivors,
            ),
            round=round_no,
            budget=budget,
        )
        ctx.compare(
            "brute-force oracle bill (queries/test_clocks)",
            (serial.oracle_queries, serial.test_clocks),
            (batched.oracle_queries, batched.test_clocks),
            round=round_no,
            budget=budget,
        )
