"""Key-parallel batched hypothesis screening (the config-lane axis).

PR 1's compiled kernels pack *input patterns* into word bits; this module
packs *candidate LUT configurations* (keys) into word lanes, so one kernel
call scores a whole batch of key hypotheses against a fixed pattern — the
workload behind the paper's resilience numbers (Eq. 1–3), where attacker
cost is "candidate keys scored per second".

Three layers:

* :func:`evaluate_configs` — backend-aware single-pattern, many-configs
  evaluation (compiled config-lane kernel, or a per-lane reference loop on
  the interpreted backend).
* :func:`screen_hypotheses` — drain a hypothesis iterator in batches of
  ``batch_width`` lanes, keep the hypotheses consistent with recorded
  oracle responses, honour a ``max_hypotheses`` budget.  The survivor set,
  the tested count, and the exhaustion flag are **bit-identical** to the
  serial one-hypothesis-per-call loop the attacks used before (the serial
  path is kept as the ``batch_width<=1`` / interpreted-backend fallback
  and as the benchmark baseline).
* :func:`score_keys` — matched-observation-bit counts per candidate key
  (the ML attack's objective function), batched the same way.

Oracle billing is untouched by design: every function here consumes
*recorded* responses — the caller queries the oracle once per pattern,
exactly as the serial loops did, so ``queries``/``test_clocks`` bills
cannot drift between the two paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
)

from ..netlist.netlist import Netlist, NetlistError
from ..obs import add_counter, span
from .compiled import CompiledProgram, PackedConfigs, program_for_configs
from .compiled import evaluate_configs as _compiled_evaluate_configs
from .logicsim import BACKENDS, DEFAULT_BACKEND, CombinationalSimulator

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


def evaluate_configs(
    netlist: Netlist,
    inputs: Mapping[str, int],
    configs: Sequence[Mapping[str, int]],
    state: Optional[Mapping[str, int]] = None,
    width: Optional[int] = None,
    backend: Optional[str] = None,
) -> Dict[str, int]:
    """Backend-aware key-parallel evaluation.

    The compiled backend runs the config-lane kernel
    (:func:`repro.sim.compiled.evaluate_configs`); the interpreted backend
    falls back to one full reference evaluation per lane — slower, but
    the parity baseline the differential checks compare against.
    """
    backend = backend or DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown simulation backend {backend!r}; choose from {BACKENDS}"
        )
    configs = list(configs)
    if backend == "compiled":
        return _compiled_evaluate_configs(netlist, inputs, configs, state, width)
    return _evaluate_configs_serial(netlist, inputs, configs, state, backend)


def _evaluate_configs_serial(
    netlist: Netlist,
    inputs: Mapping[str, int],
    configs: Sequence[Mapping[str, int]],
    state: Optional[Mapping[str, int]],
    backend: str,
) -> Dict[str, int]:
    if not configs:
        raise NetlistError(
            "config-lane evaluation needs at least one configuration lane"
        )
    sim = CombinationalSimulator(netlist, backend=backend)
    pis = {pi: value & 1 for pi, value in inputs.items()}
    st = {ff: value & 1 for ff, value in (state or {}).items()}
    out: Dict[str, int] = {}
    saved: Dict[str, Optional[int]] = {}
    try:
        for lane, assignment in enumerate(configs):
            for name, config in assignment.items():
                if name not in saved:
                    saved[name] = netlist.node(name).lut_config
                netlist.node(name).lut_config = config
            values = sim.evaluate(pis, st, 1)
            for net, bit in values.items():
                out[net] = out.get(net, 0) | ((bit & 1) << lane)
    finally:
        for name, config in saved.items():
            netlist.node(name).lut_config = config
    return out


def screen_hypotheses(
    netlist: Netlist,
    hypotheses: Iterable[Hypothesis],
    patterns: Sequence[Mapping[str, int]],
    responses: Sequence[Mapping[str, int]],
    points: Sequence[str],
    *,
    batch_width: int = DEFAULT_BATCH_WIDTH,
    max_hypotheses: Optional[int] = None,
    backend: Optional[str] = None,
) -> ScreenOutcome:
    """Keep the hypotheses consistent with recorded oracle *responses*.

    Each hypothesis programs the named (unprogrammed) LUTs of *netlist*
    and survives iff every pattern reproduces the recorded response at
    every observation point.  ``batch_width`` configurations share one
    compiled pass per pattern; ``batch_width<=1`` (or a non-compiled
    backend) runs the reference serial loop instead.  Survivors, tested
    count, and the budget-exhaustion flag are identical either way —
    :mod:`repro.check`'s ``keybatch`` family proves it continuously.
    """
    backend = backend or DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown simulation backend {backend!r}; choose from {BACKENDS}"
        )
    width = max(1, batch_width)
    batched = batch_width > 1 and backend == "compiled"
    outcome = ScreenOutcome()
    it = iter(hypotheses)
    inputs, flip_flops = netlist.inputs, netlist.flip_flops
    pis = [{pi: p.get(pi, 0) & 1 for pi in inputs} for p in patterns]
    states = [{ff: p.get(ff, 0) & 1 for ff in flip_flops} for p in patterns]
    sim = (
        None if batched else CombinationalSimulator(netlist, backend=backend)
    )
    with span(
        "sim.keybatch.screen",
        circuit=netlist.name,
        width=width,
        patterns=len(patterns),
        points=len(points),
    ) as screen_span:
        drained = False
        while not drained:
            room = width
            if max_hypotheses is not None:
                room = min(room, max_hypotheses - outcome.tested)
            if room <= 0:
                break
            batch = list(itertools.islice(it, room))
            if not batch:
                drained = True
                break
            if batched:
                program = program_for_configs(
                    netlist, set().union(*batch)
                )
                alive = _screen_batch_compiled(
                    program, batch, pis, states, responses, points
                )
                outcome.survivors.extend(
                    batch[lane] for lane in surviving_lanes(alive, len(batch))
                )
            else:
                outcome.survivors.extend(
                    _screen_batch_serial(
                        netlist, sim, batch, pis, states, responses, points
                    )
                )
            outcome.tested += len(batch)
            outcome.batches += 1
            outcome.lanes_filled += len(batch)
            outcome.lanes_wasted += width - len(batch)
            add_counter("sim.keybatch.batches")
            add_counter("sim.keybatch.lanes_filled", len(batch))
            add_counter("sim.keybatch.lanes_wasted", width - len(batch))
            if len(batch) < room:
                drained = True
        if (
            not drained
            and max_hypotheses is not None
            and outcome.tested >= max_hypotheses
        ):
            # Budget hit mid-stream: peek whether anything was left, so the
            # flag matches the serial loop's "stopped before testing the
            # next hypothesis" semantics exactly.
            outcome.exhausted = next(it, _SENTINEL) is not _SENTINEL
        screen_span.set(
            tested=outcome.tested,
            survivors=len(outcome.survivors),
            batches=outcome.batches,
            lanes_wasted=outcome.lanes_wasted,
            exhausted=outcome.exhausted,
        )
    return outcome


def _screen_batch_compiled(
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


def _screen_batch_serial(
    netlist: Netlist,
    sim: CombinationalSimulator,
    batch: Sequence[Hypothesis],
    pis: Sequence[Mapping[str, int]],
    states: Sequence[Mapping[str, int]],
    responses: Sequence[Mapping[str, int]],
    points: Sequence[str],
) -> List[Hypothesis]:
    survivors: List[Hypothesis] = []
    for hypothesis in batch:
        saved = {
            name: netlist.node(name).lut_config for name in hypothesis
        }
        for name, config in hypothesis.items():
            netlist.node(name).lut_config = config
        try:
            consistent = True
            for inputs, state, expected in zip(pis, states, responses):
                values = sim.evaluate(inputs, state, 1)
                if any(
                    values[point] != expected[point] for point in points
                ):
                    consistent = False
                    break
        finally:
            for name, config in saved.items():
                netlist.node(name).lut_config = config
        if consistent:
            survivors.append(hypothesis)
    return survivors


def score_keys(
    netlist: Netlist,
    keys: Sequence[Hypothesis],
    patterns: Sequence[Mapping[str, int]],
    labels: Sequence[Mapping[str, int]],
    points: Sequence[str],
    *,
    batch_width: int = DEFAULT_BATCH_WIDTH,
    backend: Optional[str] = None,
) -> List[int]:
    """Matched-observation-bit count per candidate key.

    ``counts[k]`` is the number of (pattern, observation-point) pairs on
    which ``keys[k]`` reproduces the recorded label — the ML attack's
    agreement numerator.  Serial and batched paths count identically.
    """
    backend = backend or DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown simulation backend {backend!r}; choose from {BACKENDS}"
        )
    keys = list(keys)
    counts = [0] * len(keys)
    if not keys:
        return counts
    width = max(1, batch_width)
    batched = batch_width > 1 and backend == "compiled"
    inputs, flip_flops = netlist.inputs, netlist.flip_flops
    pis = [{pi: p.get(pi, 0) & 1 for pi in inputs} for p in patterns]
    states = [{ff: p.get(ff, 0) & 1 for ff in flip_flops} for p in patterns]
    with span(
        "sim.keybatch.score",
        circuit=netlist.name,
        keys=len(keys),
        width=width,
        patterns=len(patterns),
    ):
        if not batched:
            sim = CombinationalSimulator(netlist, backend=backend)
            for index, key in enumerate(keys):
                saved = {
                    name: netlist.node(name).lut_config for name in key
                }
                for name, config in key.items():
                    netlist.node(name).lut_config = config
                try:
                    matched = 0
                    for inputs, state, label in zip(pis, states, labels):
                        values = sim.evaluate(inputs, state, 1)
                        for point in points:
                            if values[point] == label[point]:
                                matched += 1
                finally:
                    for name, config in saved.items():
                        netlist.node(name).lut_config = config
                counts[index] = matched
            return counts
        swept: Set[str] = set()
        for key in keys:
            swept.update(key)
        program = program_for_configs(netlist, swept)
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
