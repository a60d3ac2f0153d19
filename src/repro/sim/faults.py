"""Stuck-at fault simulation and test-coverage analysis.

Manufacturing test is the other side of the paper's coin: the same
justify/propagate machinery an attacker abuses (Section IV-A.1) is what a
test engineer uses for fault coverage — and disabling scan for security
(Section IV-A.3) costs exactly this controllability/observability.  This
module quantifies that trade:

* :class:`FaultSimulator` runs word-parallel stuck-at-0/1 fault simulation
  over the combinational view (PIs + DFF outputs controllable, POs + DFF
  inputs observable — i.e. full scan);
* :func:`fault_coverage` measures a pattern set's coverage;
* :func:`random_pattern_coverage` estimates coverage under N random
  patterns — compare scan vs. scan-disabled observability to see the
  testability price of the security feature.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence

from ..netlist.netlist import Netlist
from .logicsim import CombinationalSimulator


@dataclass(frozen=True)
class Fault:
    """A single stuck-at fault on a net."""

    net: str
    stuck_at: int  # 0 or 1

    def __str__(self) -> str:
        return f"{self.net}/SA{self.stuck_at}"


@dataclass
class CoverageReport:
    """Outcome of fault simulation over a pattern set."""

    total_faults: int
    detected: int
    patterns_used: int
    undetected: List[Fault] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        if self.total_faults == 0:
            return 1.0
        return self.detected / self.total_faults


def enumerate_faults(netlist: Netlist, include_inputs: bool = True) -> List[Fault]:
    """The collapsed-ish fault list: SA0/SA1 on every net (gate outputs,
    DFF outputs, and optionally primary inputs)."""
    faults: List[Fault] = []
    for node in netlist:
        if node.is_input and not include_inputs:
            continue
        faults.append(Fault(node.name, 0))
        faults.append(Fault(node.name, 1))
    return faults


class FaultSimulator:
    """Word-parallel single-stuck-at fault simulation.

    A fault is detected by a pattern when forcing the faulty value changes
    an observation point.  With ``scan=True`` observation points are the
    primary outputs *and* the DFF D-pins (state observable); with
    ``scan=False`` only the primary outputs count — the post-release
    situation the paper's flow creates.
    """

    def __init__(self, netlist: Netlist, scan: bool = True):
        self.netlist = netlist
        self.scan = scan
        self._sim = CombinationalSimulator(netlist)
        self._points = list(netlist.outputs)
        if scan:
            for ff in netlist.flip_flops:
                d_pin = netlist.node(ff).fanin[0]
                if d_pin not in self._points:
                    self._points.append(d_pin)

    @property
    def observation_points(self) -> List[str]:
        return list(self._points)

    def detects(
        self,
        fault: Fault,
        pattern: Mapping[str, int],
        width: int = 1,
    ) -> int:
        """Word of patterns (bitmask) on which *fault* is detected."""
        pis = {pi: pattern.get(pi, 0) for pi in self.netlist.inputs}
        state = {ff: pattern.get(ff, 0) for ff in self.netlist.flip_flops}
        mask = (1 << width) - 1
        good = self._sim.evaluate(pis, state, width)
        forced = 0 if fault.stuck_at == 0 else mask
        bad = self._sim.evaluate(
            pis, state, width, overrides={fault.net: forced}
        )
        detected = 0
        for point in self._points:
            detected |= good[point] ^ bad[point]
        # A fault is only excited when the good value differs from the
        # stuck value; the XOR above is zero in the other case anyway.
        return detected & mask

    def run(
        self,
        faults: Sequence[Fault],
        patterns: Sequence[Mapping[str, int]],
        width: int = 1,
    ) -> CoverageReport:
        """Simulate every fault against every pattern (with fault dropping)."""
        remaining = list(faults)
        detected = 0
        for pattern in patterns:
            if not remaining:
                break
            still: List[Fault] = []
            for fault in remaining:
                if self.detects(fault, pattern, width):
                    detected += 1
                else:
                    still.append(fault)
            remaining = still
        return CoverageReport(
            total_faults=len(faults),
            detected=detected,
            patterns_used=len(patterns),
            undetected=remaining,
        )


def fault_coverage(
    netlist: Netlist,
    patterns: Sequence[Mapping[str, int]],
    scan: bool = True,
    faults: Optional[Sequence[Fault]] = None,
) -> CoverageReport:
    """Coverage of an explicit pattern set."""
    simulator = FaultSimulator(netlist, scan=scan)
    return simulator.run(faults or enumerate_faults(netlist), patterns)


def random_pattern_coverage(
    netlist: Netlist,
    n_patterns: int = 64,
    scan: bool = True,
    seed: int = 0,
    faults: Optional[Sequence[Fault]] = None,
    word_width: int = 64,
) -> CoverageReport:
    """Coverage under *n_patterns* random patterns (startpoints uniform).

    Patterns are packed *word_width* at a time, so the cost is
    ``O(faults × n_patterns / word_width)`` circuit evaluations.
    """
    rng = random.Random(seed)
    startpoints = list(netlist.inputs) + list(netlist.flip_flops)
    simulator = FaultSimulator(netlist, scan=scan)
    fault_list = list(faults or enumerate_faults(netlist))
    remaining = list(fault_list)
    detected = 0
    produced = 0
    while produced < n_patterns and remaining:
        width = min(word_width, n_patterns - produced)
        packed = {sp: rng.getrandbits(width) for sp in startpoints}
        produced += width
        still: List[Fault] = []
        for fault in remaining:
            if simulator.detects(fault, packed, width=width):
                detected += 1
            else:
                still.append(fault)
        remaining = still
    return CoverageReport(
        total_faults=len(fault_list),
        detected=detected,
        patterns_used=produced,
        undetected=remaining,
    )
