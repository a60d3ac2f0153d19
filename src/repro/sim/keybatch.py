"""Key-parallel hypothesis screening and scoring (the config-lane axis).

The compiled kernels pack *input patterns* into word bits; this module
packs *candidate LUT configurations* (keys) into word lanes, so one kernel
call scores a whole batch of key hypotheses against a fixed pattern — the
workload behind the paper's resilience numbers (Eq. 1–3), where attacker
cost is "candidate keys scored per second".  It is the only path by
which the brute-force and ML attacks score keys:

* :func:`screen_hypotheses` — drain a hypothesis iterator in batches of
  ``batch_width`` lanes, keep the hypotheses consistent with recorded
  oracle responses, honour a ``max_hypotheses`` budget.  The survivor
  set, the tested count and the exhaustion flag do not depend on the
  width (1 means one lane per pass).
* :func:`score_keys` — matched-observation-bit counts per candidate key
  (the ML attack's objective function), batched the same way.

Single-pattern many-config evaluation is
:func:`repro.sim.compiled.evaluate_configs`.  The per-key reference that
:mod:`repro.check`'s ``keybatch`` family races these functions against
(one programmed copy per key, simulated by ``reference_evaluate``) lives
in the check suite, not here.

Oracle billing is untouched by design: every function here consumes
*recorded* responses — the caller queries the oracle once per pattern,
so ``queries``/``test_clocks`` bills cannot depend on the batch width.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

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
    inputs, flip_flops = netlist.inputs, netlist.flip_flops
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


def score_keys(
    netlist: Netlist,
    keys: Sequence[Hypothesis],
    patterns: Sequence[Mapping[str, int]],
    labels: Sequence[Mapping[str, int]],
    points: Sequence[str],
    *,
    batch_width: int = DEFAULT_BATCH_WIDTH,
) -> List[int]:
    """Matched-observation-bit count per candidate key.

    ``counts[k]`` is the number of (pattern, observation-point) pairs on
    which ``keys[k]`` reproduces the recorded label — the ML attack's
    agreement numerator.  Counts do not depend on ``batch_width``.
    """
    width = check_batch_width(batch_width)
    keys = list(keys)
    counts = [0] * len(keys)
    if not keys:
        return counts
    pis, states = _split_patterns(netlist, patterns)
    with span(
        "sim.keybatch.score",
        circuit=netlist.name,
        keys=len(keys),
        width=width,
        patterns=len(patterns),
    ):
        program = program_for_configs(netlist, set().union(*keys))
        n_planes = (len(pis) * len(points)).bit_length()
        for start in range(0, len(keys), width):
            chunk = keys[start : start + width]
            packed = program.pack_configs(chunk)
            add_counter("sim.keybatch.batches")
            add_counter("sim.keybatch.lanes_filled", len(chunk))
            add_counter("sim.keybatch.lanes_wasted", width - len(chunk))
            mask = packed.mask
            # Bit-sliced per-lane counters: bit l of planes[b] is bit b of
            # lane l's count.  Each match word ripple-adds into them; no
            # count exceeds len(pis) * len(points), so the carry never
            # runs off the top plane.
            planes = [0] * n_planes
            for inputs, state, label in zip(pis, states, labels):
                values = program.evaluate_packed(inputs, packed, state)
                for point in points:
                    carry = ~(values[point] ^ -(label[point] & 1)) & mask
                    bit = 0
                    while carry:
                        plane = planes[bit]
                        planes[bit] = plane ^ carry
                        carry &= plane
                        bit += 1
            add_counter("sim.keybatch.evaluations", len(pis))
            counts[start : start + len(chunk)] = lane_counts(planes, len(chunk))
    return counts


def lane_counts(planes: Sequence[int], lanes: int) -> List[int]:
    """Read per-lane counts out of bit-sliced counter *planes* (bit *l* of
    ``planes[b]`` is bit *b* of lane *l*'s count)."""
    if not planes:
        return [0] * lanes
    # One binary string per plane, most significant plane first; column
    # l from the right spells lane l's count in binary.
    rows = [format(plane, f"0{lanes}b") for plane in reversed(planes)]
    return [int("".join(column), 2) for column in zip(*rows)][::-1]
