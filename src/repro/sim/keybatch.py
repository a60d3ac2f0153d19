"""Key-parallel hypothesis screening and scoring (the config-lane axis).

The compiled kernels pack *input patterns* into word bits; this module
packs *candidate LUT configurations* (keys) into word lanes, so one kernel
call evaluates a whole batch of key hypotheses — the workload behind the
paper's resilience numbers (Eq. 1–3), where attacker cost is "candidate
keys scored per second".  It is the only path by which the brute-force
and ML attacks score keys:

* :func:`screen_hypotheses` — drain a hypothesis iterator in batches of
  ``batch_width`` lanes, keep the hypotheses consistent with recorded
  oracle responses, honour a ``max_hypotheses`` budget.  One kernel call
  per batch and pattern, so a batch every key of which has already
  failed stops early.  The survivor set, the tested count and the
  exhaustion flag do not depend on the width (1 means one lane per
  pass).
* :class:`KeyScorer` / :func:`score_keys` — matched-observation-bit
  counts per candidate key (the ML attack's objective function).  Here
  the patterns are a second lane axis: block *p* of every word is
  training pattern *p*, so one kernel call per key chunk scores every
  (pattern, key) pair, and bit-sliced counters folded block by block
  read the per-key sums out.

Single-pattern many-config evaluation is
:func:`repro.sim.compiled.evaluate_configs`.  The per-key reference that
:mod:`repro.check`'s ``keybatch`` family races these functions against
(one programmed copy per key, simulated by ``reference_evaluate``) lives
in the check suite, not here.

Oracle billing is untouched by design: every function here consumes
*recorded* responses — the caller queries the oracle for every pattern
up front, so ``queries``/``test_clocks`` bills cannot depend on the
batch width.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from ..netlist.graph import startpoints
from ..netlist.netlist import Netlist
from ..obs import add_counter, span
from .compiled import (
    CompiledProgram,
    PackedConfigs,
    check_batch_width,
    program_for_configs,
)

#: Default number of candidate configurations packed per compiled pass.
#: 64 keeps the lane words within one machine word on CPython, where
#: big-int operations are cheapest; wider batches still work (Python
#: integers are arbitrary precision) with gradually diminishing returns.
DEFAULT_BATCH_WIDTH = 64

#: Most bits one :class:`KeyScorer` word carries (training patterns ×
#: key lanes).  Longer training sets are scored in pattern chunks whose
#: counts are summed, so word size is bounded whatever the pattern count
#: and batch width.  8192 holds the ML attack's default training set (96
#: patterns × 64 lanes) in one word, which scored fastest on every
#: circuit measured; wider words only pay on longer training sets, and
#: a call keeps one word per net alive (s38584's 20.7k nets × 1 KB ≈
#: 22 MB at 8192 bits, four times that at 32768).  See
#: docs/PERFORMANCE.md, "Two-axis scoring".
MAX_SCORE_WORD_BITS = 8192

#: One candidate key: LUT name -> candidate truth table.
Hypothesis = Dict[str, int]

_SENTINEL = object()


def iter_hypotheses(
    luts: Sequence[str], spaces: Sequence[Sequence[int]]
) -> Iterator[Hypothesis]:
    """Enumerate the joint hypothesis space lazily, in the same order as
    the attacks' original ``itertools.product`` loop (last LUT varies
    fastest)."""
    for assignment in itertools.product(*spaces):
        yield dict(zip(luts, assignment))


def surviving_lanes(alive: int, lanes: int) -> List[int]:
    """Lane indices set in the survivor mask *alive*, ascending.

    Iterates set bits only (not all ``lanes`` positions); bits at or above
    *lanes* — which can only come from a corrupted mask — are ignored.
    """
    alive &= (1 << lanes) - 1
    out: List[int] = []
    while alive:
        low = alive & -alive
        out.append(low.bit_length() - 1)
        alive ^= low
    return out


@dataclass
class ScreenOutcome:
    """Result of one :func:`screen_hypotheses` drain."""

    survivors: List[Hypothesis] = field(default_factory=list)
    tested: int = 0
    #: True when the ``max_hypotheses`` budget cut the enumeration short
    #: (there was at least one untested hypothesis left).
    exhausted: bool = False
    batches: int = 0
    lanes_filled: int = 0
    lanes_wasted: int = 0


def screen_hypotheses(
    netlist: Netlist,
    hypotheses: Iterable[Hypothesis],
    patterns: Sequence[Mapping[str, int]],
    responses: Sequence[Mapping[str, int]],
    points: Sequence[str],
    *,
    batch_width: int = DEFAULT_BATCH_WIDTH,
    max_hypotheses: Optional[int] = None,
) -> ScreenOutcome:
    """Keep the hypotheses consistent with recorded oracle *responses*.

    Each hypothesis programs the named (unprogrammed) LUTs of *netlist*
    and survives iff every pattern reproduces the recorded response at
    every observation point.  ``batch_width`` configurations share one
    compiled pass per pattern.  Survivors, the tested count and the
    budget-exhaustion flag are the same at every width — the first
    ``max_hypotheses`` hypotheses are tested, in order — and
    :mod:`repro.check`'s ``keybatch`` family checks them against a
    per-key reference filter.  *netlist* is never written.
    """
    width = check_batch_width(batch_width)
    budget = math.inf if max_hypotheses is None else max_hypotheses
    outcome = ScreenOutcome()
    it = iter(hypotheses)
    pis, states = _split_patterns(netlist, patterns)
    with span(
        "sim.keybatch.screen",
        circuit=netlist.name,
        width=width,
        patterns=len(patterns),
        points=len(points),
    ) as screen_span:
        while outcome.tested < budget:
            room = min(width, budget - outcome.tested)
            batch = list(itertools.islice(it, room))
            if not batch:
                break
            program = program_for_configs(netlist, set().union(*batch))
            alive = _screen_batch(program, batch, pis, states, responses, points)
            outcome.survivors.extend(
                batch[lane] for lane in surviving_lanes(alive, len(batch))
            )
            outcome.tested += len(batch)
            outcome.batches += 1
            outcome.lanes_filled += len(batch)
            outcome.lanes_wasted += width - len(batch)
            add_counter("sim.keybatch.batches")
            add_counter("sim.keybatch.lanes_filled", len(batch))
            add_counter("sim.keybatch.lanes_wasted", width - len(batch))
            if len(batch) < room:
                break
        else:
            # Budget hit: peek whether anything was left, so the flag
            # means "stopped before testing the next hypothesis".
            outcome.exhausted = next(it, _SENTINEL) is not _SENTINEL
        screen_span.set(
            tested=outcome.tested,
            survivors=len(outcome.survivors),
            batches=outcome.batches,
            lanes_wasted=outcome.lanes_wasted,
            exhausted=outcome.exhausted,
        )
    return outcome


def _split_patterns(netlist: Netlist, patterns: Sequence[Mapping[str, int]]):
    """Per-pattern primary-input and flip-flop bit maps (missing nets
    read 0)."""
    inputs, flip_flops = startpoints(netlist)
    pis = [{pi: p.get(pi, 0) & 1 for pi in inputs} for p in patterns]
    states = [{ff: p.get(ff, 0) & 1 for ff in flip_flops} for p in patterns]
    return pis, states


def _screen_batch(
    program: CompiledProgram,
    batch: Sequence[Hypothesis],
    pis: Sequence[Mapping[str, int]],
    states: Sequence[Mapping[str, int]],
    responses: Sequence[Mapping[str, int]],
    points: Sequence[str],
) -> int:
    packed: PackedConfigs = program.pack_configs(batch)
    alive = packed.mask
    for inputs, state, expected in zip(pis, states, responses):
        values = program.evaluate_packed(inputs, packed, state)
        add_counter("sim.keybatch.evaluations")
        for point in points:
            target = -(expected[point] & 1) & packed.mask
            alive &= ~(values[point] ^ target) & packed.mask
        if not alive:
            break
    return alive


class KeyScorer:
    """Matched-observation-bit counts of candidate keys against one
    labelled training set (the ML attack's objective function).

    Two lane axes share each word: bit ``p * lanes + l`` is key lane *l*
    on training pattern *p*, so one config-lane kernel call per key chunk
    scores every (pattern, key) pair.  The pattern, state and label words
    are built once per training set (per lane count) and reused by every
    :meth:`score` call; the key chunk's row words are tiled across the
    pattern blocks.  A word carries at most :data:`MAX_SCORE_WORD_BITS`
    bits (or one pattern's block, when a key chunk is wider): longer
    training sets are scored in pattern chunks whose counts are summed,
    so word size does not grow with the pattern count.
    """

    def __init__(
        self,
        netlist: Netlist,
        patterns: Sequence[Mapping[str, int]],
        labels: Sequence[Mapping[str, int]],
        points: Sequence[str],
        *,
        batch_width: int = DEFAULT_BATCH_WIDTH,
    ):
        self.netlist = netlist
        self.width = check_batch_width(batch_width)
        self.points = list(points)
        self.patterns = list(patterns)
        self.labels = list(labels)
        #: lane count -> words of each pattern chunk (see :meth:`_words`).
        self._chunks: Dict[int, list] = {}

    def _words(self, lanes: int) -> list:
        """``(blocks, pis, states, labels)`` per pattern chunk, with block
        *p* of every word (bits ``p * lanes`` up) holding pattern *p*'s
        bit in each of its *lanes* lanes."""
        chunks = self._chunks.get(lanes)
        if chunks is not None:
            return chunks
        inputs, flip_flops = startpoints(self.netlist)
        per_chunk = max(1, MAX_SCORE_WORD_BITS // lanes)
        chunks = []
        for start in range(0, len(self.patterns), per_chunk):
            part = self.patterns[start : start + per_chunk]
            labels = self.labels[start : start + per_chunk]
            chunks.append(
                (
                    len(part),
                    _block_words(part, inputs, lanes),
                    _block_words(part, flip_flops, lanes),
                    _block_words(labels, self.points, lanes),
                )
            )
        self._chunks[lanes] = chunks
        return chunks

    def score(self, keys: Sequence[Hypothesis]) -> List[int]:
        """``counts[k]``: the (pattern, point) pairs on which ``keys[k]``
        reproduces the label.  Counts do not depend on the batch width."""
        keys = list(keys)
        counts = [0] * len(keys)
        if not keys:
            return counts
        width = self.width
        with span(
            "sim.keybatch.score",
            circuit=self.netlist.name,
            keys=len(keys),
            width=width,
            patterns=len(self.patterns),
        ):
            program = program_for_configs(self.netlist, set().union(*keys))
            n_planes = len(self.points).bit_length()
            for start in range(0, len(keys), width):
                chunk = keys[start : start + width]
                lanes = len(chunk)
                packed = program.pack_configs(chunk)
                add_counter("sim.keybatch.batches")
                add_counter("sim.keybatch.lanes_filled", lanes)
                add_counter("sim.keybatch.lanes_wasted", width - lanes)
                for blocks, pis, states, labels in self._words(lanes):
                    tiled = packed.tiled(blocks)
                    mask = tiled.mask
                    values = program.evaluate_words(pis, tiled, states)
                    # Bit-sliced counters at full width: bit b of planes[i]
                    # is bit i of the count at lane b % lanes of pattern
                    # b // lanes, which never exceeds len(points).
                    planes = [0] * n_planes
                    for point in self.points:
                        carry = ~(values[point] ^ labels[point]) & mask
                        bit = 0
                        while carry:
                            plane = planes[bit]
                            planes[bit] = plane ^ carry
                            carry &= plane
                            bit += 1
                    while blocks > 1:
                        planes = _fold_blocks(planes, blocks, lanes)
                        blocks = (blocks + 1) // 2
                    for lane, count in enumerate(lane_counts(planes, lanes)):
                        counts[start + lane] += count
                add_counter("sim.keybatch.evaluations", len(self.patterns))
        return counts


def _block_words(
    rows: Sequence[Mapping[str, int]], nets: Sequence[str], lanes: int
) -> Dict[str, int]:
    """Per net, a word whose block *p* (bits ``p * lanes`` up) is all
    ones when ``rows[p]`` sets the net: a stride word (bit ``p * lanes``)
    times the lane mask.  A net a row omits reads 0."""
    lane_mask = (1 << lanes) - 1
    return {
        net: sum(
            (row.get(net, 0) & 1) << p * lanes for p, row in enumerate(rows)
        )
        * lane_mask
        for net in nets
    }


def _fold_blocks(planes: Sequence[int], blocks: int, lanes: int) -> List[int]:
    """Halve the block count of bit-sliced counter *planes*: the high
    ``blocks // 2`` blocks are added onto the low ones, lane by lane (an
    odd count keeps its extra block in the low half).  A carry out of the
    top plane opens a new one."""
    shift = (blocks + 1) // 2 * lanes
    low = (1 << shift) - 1
    out: List[int] = []
    carry = 0
    for plane in planes:
        a, b = plane & low, plane >> shift
        out.append(a ^ b ^ carry)
        carry = (a & b) | (carry & (a ^ b))
    if carry:
        out.append(carry)
    return out


def score_keys(
    netlist: Netlist,
    keys: Sequence[Hypothesis],
    patterns: Sequence[Mapping[str, int]],
    labels: Sequence[Mapping[str, int]],
    points: Sequence[str],
    *,
    batch_width: int = DEFAULT_BATCH_WIDTH,
) -> List[int]:
    """Matched-observation-bit count per candidate key: a one-shot
    :class:`KeyScorer`.

    ``counts[k]`` is the number of (pattern, observation-point) pairs on
    which ``keys[k]`` reproduces the recorded label — the ML attack's
    agreement numerator.  Counts do not depend on ``batch_width``.
    """
    scorer = KeyScorer(
        netlist, patterns, labels, points, batch_width=batch_width
    )
    return scorer.score(keys)


def lane_counts(planes: Sequence[int], lanes: int) -> List[int]:
    """Read per-lane counts out of bit-sliced counter *planes* (bit *l* of
    ``planes[b]`` is bit *b* of lane *l*'s count)."""
    if not planes:
        return [0] * lanes
    # One binary string per plane, most significant plane first; column
    # l from the right spells lane l's count in binary.
    rows = [format(plane, f"0{lanes}b") for plane in reversed(planes)]
    return [int("".join(column), 2) for column in zip(*rows)][::-1]
