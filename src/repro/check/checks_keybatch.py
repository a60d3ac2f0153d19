"""Config-lane kernel vs per-key reference differential checks.

The config-lane axis (:mod:`repro.sim.keybatch`) is the only path by
which the attacks score keys.  Every check here races it against one
independent reference: the key programmed into a copy of the netlist
and simulated by :func:`~repro.sim.logicsim.reference_evaluate`, one
pattern per call (:func:`reference_values`) or every pattern in one word
(:func:`reference_counts`).

* ``keybatch-lane-parity`` — raw simulation: every lane of a
  config-lane ``evaluate_configs`` pass must equal the reference, for
  random configs, chunk widths, and patterns.
* ``keybatch-score-parity`` — the ML attack's objective: ``score_keys``
  match counts (bit-sliced per-lane counters) must equal reference
  counts at batch widths that put keys on both sides of every chunk
  edge, with the true key among the candidates, so one lane matches
  every label (or, under inverted labels, none).  Every third round's
  training set is longer than one scoring word, so counts are summed
  over pattern chunks.
* ``keybatch-brute-parity`` — screening and the whole attack:
  ``screen_hypotheses`` survivors and budget accounting (tested,
  exhausted) at widths 1 and 64 must equal the reference filter over the
  same patterns and responses; and a brute-force attack run with
  ``batch_width=64`` must report the same survivors, found key,
  accounting and *oracle bill* as the ``batch_width=1`` run (each side
  gets a fresh oracle and the same attack seed).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Mapping, Sequence

from ..attacks.brute_force import BruteForceAttack, candidate_configs
from ..attacks.oracle import ConfiguredOracle, draw_patterns, split_pattern
from ..lut.mapping import HybridMapper
from ..netlist.netlist import Netlist
from ..sim import keybatch
from ..sim.compiled import evaluate_configs
from ..sim.logicsim import pack, reference_evaluate
from .checks_attacks import _lock_small
from .core import CheckContext, register


def reference_values(
    netlist: Netlist,
    key: Mapping[str, int],
    patterns: Sequence[Mapping[str, int]],
) -> List[Dict[str, int]]:
    """Net values of *netlist* with *key* programmed, one dict of bits per
    startpoint pattern (a net the pattern omits reads 0).

    The key is written into a copy, never into *netlist*, and the copy is
    simulated one pattern per call by :func:`reference_evaluate`: no
    config lanes, no compiled kernel.
    """
    programmed = netlist.copy(f"{netlist.name}_ref")
    for name, config in key.items():
        programmed.node(name).lut_config = config
    return [
        reference_evaluate(
            programmed,
            {pi: pattern.get(pi, 0) & 1 for pi in netlist.inputs},
            {ff: pattern.get(ff, 0) & 1 for ff in netlist.flip_flops},
            1,
        )
        for pattern in patterns
    ]


def reference_lane_words(
    netlist: Netlist,
    configs: Sequence[Mapping[str, int]],
    pattern: Mapping[str, int],
) -> Dict[str, int]:
    """:func:`reference_values` of each config for one *pattern*, packed
    as lane *k* = ``configs[k]`` — the shape ``evaluate_configs``
    returns."""
    words: Dict[str, int] = {}
    for lane, config in enumerate(configs):
        (values,) = reference_values(netlist, config, [pattern])
        for net, bit in values.items():
            words[net] = words.get(net, 0) | (bit & 1) << lane
    return words


def reference_counts(
    netlist: Netlist,
    keys: Iterable[Mapping[str, int]],
    patterns: Sequence[Mapping[str, int]],
    labels: Sequence[Mapping[str, int]],
    points: Sequence[str],
) -> List[int]:
    """Per key, the (pattern, point) pairs on which *netlist* with the key
    programmed reproduces the label.

    Each key is written into one copy (a LUT the key omits keeps
    *netlist*'s config), and every pattern is simulated in one word by
    :func:`reference_evaluate`: no config lanes, no compiled kernel, no
    bit-sliced counters.
    """
    width = len(patterns)
    mask = (1 << width) - 1
    nets = [*netlist.inputs, *netlist.flip_flops]
    words = {net: pack([p.get(net, 0) for p in patterns]) for net in nets}
    wanted = {pt: pack([label[pt] for label in labels]) for pt in points}
    programmed = netlist.copy(f"{netlist.name}_ref")
    base = {lut: programmed.node(lut).lut_config for lut in programmed.luts}
    counts = []
    for key in keys:
        for name, config in {**base, **key}.items():
            programmed.node(name).lut_config = config
        values = reference_evaluate(programmed, words, words, width)
        counts.append(
            sum(bin(~(values[pt] ^ wanted[pt]) & mask).count("1") for pt in points)
        )
    return counts


def reference_survivors(
    netlist: Netlist,
    hypotheses: Iterable[Mapping[str, int]],
    patterns: Sequence[Mapping[str, int]],
    responses: Sequence[Mapping[str, int]],
    points: Sequence[str],
) -> List[Mapping[str, int]]:
    """The hypotheses, in order, whose :func:`reference_counts` reproduce
    every recorded response at every observation point."""
    hypotheses = list(hypotheses)
    counts = reference_counts(netlist, hypotheses, patterns, responses, points)
    full = len(patterns) * len(points)
    return [h for h, count in zip(hypotheses, counts) if count == full]


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
    description="every lane of a config-lane evaluate_configs pass equals "
    "the per-key reference simulation",
    trial_divisor=2,
)
def keybatch_lane_parity(ctx: CheckContext) -> None:
    rng = ctx.rng
    hybrid = _lock_small(ctx.netlist(), rng, n_luts=3)
    if hybrid is None:
        return
    foundry = HybridMapper().strip_configs(hybrid)
    luts = sorted(foundry.luts)
    for trial in range(ctx.trials):
        lanes = rng.randint(1, 80)
        configs = _random_configs(foundry, luts, rng, lanes)
        (pattern,) = draw_patterns(rng, foundry, 1)
        pis, state = split_pattern(foundry, pattern)
        width = rng.choice([None, 1, 7, 16, 64])
        ctx.compare(
            "config-lane values vs per-key reference evaluation",
            evaluate_configs(foundry, pis, configs, state=state, width=width),
            reference_lane_words(foundry, configs, pattern),
            trial=trial,
            lanes=lanes,
            width=width,
        )


#: Batch widths of ``keybatch-score-parity``: one lane, a width that
#: leaves a ragged last chunk, one machine word, and one and two words
#: plus a lane.
SCORE_WIDTHS = (1, 3, 64, 65, 130)


@register(
    name="keybatch-score-parity",
    family="keybatch",
    description="score_keys match counts equal per-key reference "
    "simulation counts at widths 1/3/64/65/130",
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
        points = list(foundry.outputs) + [
            foundry.node(ff).fanin[0] for ff in foundry.flip_flops
        ]
        # Every third round pairs 65-81 keys with 129-160 patterns: a word
        # of the first key chunk at widths 64, 65 and 130 then exceeds
        # keybatch.MAX_SCORE_WORD_BITS, so counts are summed over pattern
        # chunks.
        long_round = round_no % 3 == 1
        n_patterns = rng.randint(129, 160) if long_round else rng.randint(1, 12)
        patterns = draw_patterns(rng, foundry, n_patterns)
        invert = round_no % 2  # odd rounds: the true key matches nothing
        labels = [
            {p: (values[p] & 1) ^ invert for p in points}
            for values in reference_values(hybrid, {}, patterns)
        ]
        n_keys = rng.randint(64, 80) if long_round else rng.randint(1, 140)
        keys = _random_configs(foundry, luts, rng, n_keys)
        keys.insert(
            rng.randrange(len(keys) + 1),
            {name: hybrid.node(name).lut_config for name in luts},
        )
        reference = reference_counts(foundry, keys, patterns, labels, points)
        for width in SCORE_WIDTHS:
            ctx.compare(
                "score_keys counts vs per-key reference counts",
                keybatch.score_keys(
                    foundry, keys, patterns, labels, points, batch_width=width
                ),
                reference,
                round=round_no,
                width=width,
                keys=len(keys),
                patterns=len(patterns),
                inverted=bool(invert),
            )


@register(
    name="keybatch-brute-parity",
    family="keybatch",
    description="screen_hypotheses survivors and tested/exhausted "
    "accounting equal the per-key reference filter at widths 1 and 64, "
    "and brute force at batch_width=64 reports the same survivors, found "
    "key, accounting and oracle bill as at batch_width=1",
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
        _screen_vs_reference(ctx, rng, hybrid, foundry, budget, round_no)
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
        for fact, field in (
            ("survivor sets", lambda r: r.survivors),
            ("found key", lambda r: r.found),
            (
                "accounting (tested/exhausted/confirm flags)",
                lambda r: (
                    r.hypotheses_tested,
                    r.exhausted_budget,
                    r.confirm_rounds_exhausted,
                    r.interchangeable_survivors,
                ),
            ),
            (
                "oracle bill (queries/test_clocks)",
                lambda r: (r.oracle_queries, r.test_clocks),
            ),
        ):
            ctx.compare(
                f"brute-force {fact} (width 1 vs 64)",
                field(outcomes[1]),
                field(outcomes[64]),
                round=round_no,
                budget=budget,
            )


def _screen_vs_reference(
    ctx: CheckContext,
    rng: random.Random,
    hybrid: Netlist,
    foundry: Netlist,
    budget: int,
    round_no: int,
) -> None:
    """``screen_hypotheses`` at widths 1 and 64 vs the reference filter:
    the first *budget* hypotheses in enumeration order, kept iff every
    pattern reproduces the chip's response at every observation point."""
    luts = sorted(foundry.luts)
    spaces = [candidate_configs(foundry.node(n).n_inputs) for n in luts]
    hypotheses = list(keybatch.iter_hypotheses(luts, spaces))
    # Few patterns keep many hypotheses alive, so a mask that drops one
    # observation point or one lane changes the survivor set.
    patterns = draw_patterns(rng, foundry, rng.randint(1, 8))
    points = ConfiguredOracle(hybrid, scan=True).observation_points()
    responses = reference_values(hybrid, {}, patterns)
    tested = hypotheses[:budget]
    reference = (
        reference_survivors(foundry, tested, patterns, responses, points),
        len(tested),
        len(hypotheses) > budget,
    )
    for width in (1, 64):
        outcome = keybatch.screen_hypotheses(
            foundry,
            iter(hypotheses),
            patterns,
            responses,
            points,
            batch_width=width,
            max_hypotheses=budget,
        )
        ctx.compare(
            "screen survivors/tested/exhausted vs per-key reference filter",
            (outcome.survivors, outcome.tested, outcome.exhausted),
            reference,
            round=round_no,
            width=width,
            budget=budget,
            patterns=len(patterns),
        )
