"""Multi-cycle sequential simulation and toggle counting.

Wraps :class:`~repro.sim.logicsim.CombinationalSimulator` with flip-flop
state, providing cycle-accurate runs (for the attack oracle) and toggle
statistics (for simulation-based switching-activity estimation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..netlist.netlist import Netlist
from .logicsim import CombinationalSimulator


@dataclass
class ToggleStats:
    """Per-net transition counts over a simulation run."""

    cycles: int = 0
    width: int = 1
    toggles: Dict[str, int] = field(default_factory=dict)

    def activity(self, name: str) -> float:
        """Average transitions per cycle per pattern for a net (the α used
        by the power model)."""
        total = self.cycles * self.width
        if total == 0:
            return 0.0
        return self.toggles.get(name, 0) / total

    def activities(self) -> Dict[str, float]:
        return {name: self.activity(name) for name in self.toggles}


class SequentialSimulator:
    """Cycle-based simulator with word-parallel patterns.

    State resets to all-zero (the common test bring-up assumption for
    ISCAS'89 circuits).
    """

    def __init__(
        self,
        netlist: Netlist,
        width: int = 1,
        backend: Optional[str] = None,
    ):
        self.netlist = netlist
        self.width = width
        self._comb = CombinationalSimulator(netlist, backend=backend)
        self.state: Dict[str, int] = {ff: 0 for ff in netlist.flip_flops}
        self._last_values: Optional[Dict[str, int]] = None

    def reset(self) -> None:
        """Return every flip-flop to 0 and clear toggle history."""
        self.state = {ff: 0 for ff in self.netlist.flip_flops}
        self._last_values = None

    def step(self, inputs: Mapping[str, int]) -> Dict[str, int]:
        """Apply one cycle of inputs; returns all net values for the cycle
        (pre-clock-edge), then advances the state."""
        values = self._comb.evaluate(inputs, self.state, self.width)
        self.state = {
            ff: values[self.netlist.node(ff).fanin[0]]
            for ff in self.netlist.flip_flops
        }
        self._last_values = values
        return values

    def run(
        self,
        input_sequence: Sequence[Mapping[str, int]],
    ) -> List[Dict[str, int]]:
        """Apply a sequence of input maps; returns per-cycle output values."""
        trace = []
        for inputs in input_sequence:
            values = self.step(inputs)
            trace.append({po: values[po] for po in self.netlist.outputs})
        return trace

    def run_random(
        self,
        cycles: int,
        rng: random.Random,
        collect_toggles: bool = True,
    ) -> ToggleStats:
        """Drive random primary inputs for *cycles* cycles.

        With ``collect_toggles=True`` (the default) per-net transition counts
        are accumulated, including the transitions caused by state updates.
        """
        stats = ToggleStats(cycles=0, width=self.width)
        previous: Optional[Dict[str, int]] = None
        primary_inputs = self.netlist.inputs
        for _ in range(cycles):
            inputs = {pi: rng.getrandbits(self.width) for pi in primary_inputs}
            values = self.step(inputs)
            if collect_toggles and previous is not None:
                for name, word in values.items():
                    flipped = word ^ previous.get(name, 0)
                    if flipped:
                        stats.toggles[name] = stats.toggles.get(name, 0) + bin(
                            flipped
                        ).count("1")
            elif collect_toggles:
                for name in values:
                    stats.toggles.setdefault(name, 0)
            previous = values
            stats.cycles += 1
        return stats


def functional_match(
    left: Netlist,
    right: Netlist,
    cycles: int = 32,
    width: int = 64,
    seed: int = 0,
) -> bool:
    """Random-simulation equivalence spot-check of two netlists.

    Both designs must share primary input/output names; they are driven with
    identical random stimulus from the all-zero state and compared at every
    cycle.  A ``True`` result is evidence, not proof — use
    :mod:`repro.sat.equivalence` for a proof on combinational designs.
    """
    if set(left.inputs) != set(right.inputs) or set(left.outputs) != set(
        right.outputs
    ):
        return False
    rng = random.Random(seed)
    sim_left = SequentialSimulator(left, width=width)
    sim_right = SequentialSimulator(right, width=width)
    mask = (1 << width) - 1
    for _ in range(cycles):
        inputs = {pi: rng.getrandbits(width) for pi in left.inputs}
        left_values = sim_left.step(inputs)
        right_values = sim_right.step(inputs)
        for po in left.outputs:
            if (left_values[po] ^ right_values[po]) & mask:
                return False
    return True
