"""Sequential (unrolled) SAT attack — the scan-disabled adversary.

The combinational SAT attack (:mod:`repro.attacks.sat_attack`) needs scan
access; the paper's flow disables scan exactly to force the attacker into
*this* position: state is reachable only through reset + input sequences,
and only the primary outputs are observable.

The standard response is bounded model unrolling: replicate the
combinational logic for k cycles, chain the state (cycle 0 starts from the
all-zero reset state), share the LUT key variables across all cycles and
between the two miter halves, and search for a **distinguishing input
sequence** (DIS).  Each oracle dialogue costs k clocks; the key constraints
accumulate one unrolled copy per DIS.  The refinement loop itself is the
combinational attack's (:func:`repro.attacks.sat_attack.refine_keys`):
this module supplies only the k frames chained from reset and
``run_sequence`` as the way a DIS reaches the oracle.

On the same design, this adversary needs deeper formulas, more iterations,
and k clocks per query — a concrete measurement of what disabling scan
buys (compare ``SatAttack`` vs ``SequentialSatAttack`` on a locked s27 in
``benchmarks/test_attack_resilience.py``).  And when the locked state space
is not exhausted within the unroll bound, the recovered key is only
*k-cycle equivalent*: the attack reports that honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..netlist.graph import d_pins, startpoints
from ..netlist.netlist import Netlist
from ..sat.tseitin import CircuitEncoder
from .oracle import ConfiguredOracle
from .sat_attack import Dialogue, Frame, RefinementResult, refine_keys


@dataclass
class SequentialSatResult(RefinementResult):
    """Outcome of the unrolled SAT attack."""

    unroll_depth: int = 0
    bounded_only: bool = False  # key proven equivalent only up to the bound
    #: The recorded (input sequence, PO responses) dialogues, in DIS order;
    #: lets differential checks replay extraction by enumeration.
    dialogues: List[Dialogue] = field(default_factory=list, repr=False)


class SequentialSatAttack:
    """Distinguishing-input-sequence refinement over a k-cycle unrolling."""

    def __init__(
        self,
        foundry_netlist: Netlist,
        oracle: ConfiguredOracle,
        unroll_depth: int = 4,
        max_iterations: int = 128,
    ):
        if unroll_depth < 1:
            raise ValueError("unroll_depth must be at least 1")
        self.netlist = foundry_netlist
        self.oracle = oracle
        self.unroll_depth = unroll_depth
        self.max_iterations = max_iterations

    def _unroll(
        self,
        encoder: CircuitEncoder,
        prefix: str,
        keys: Dict[Tuple[str, int], int],
        input_vars: Optional[List[Dict[str, int]]] = None,
    ) -> List[Frame]:
        """Encode k copies chained through the flip-flops, one frame per
        cycle: its PI variables and its PO variables.

        Cycle 0 state is constrained to the reset value (all zero); cycle
        t > 0 state variables are *equated* to cycle t-1's D-pin variables.
        """
        cnf = encoder.cnf
        netlist = self.netlist
        inputs, flip_flops = startpoints(netlist)
        frames: List[Frame] = []
        previous = None
        for cycle in range(self.unroll_depth):
            enc = encoder.encode(
                netlist,
                prefix=f"{prefix}t{cycle}.",
                input_vars=input_vars[cycle] if input_vars else None,
                key_vars=keys,
            )
            if previous is None:
                for ff in flip_flops:
                    cnf.add_clause([-enc.net_vars[ff]])  # reset state = 0
            else:
                for ff, d_pin in zip(flip_flops, d_pins(netlist)):
                    d_prev = previous.net_vars[d_pin]
                    q_now = enc.net_vars[ff]
                    cnf.add_clause([-d_prev, q_now])
                    cnf.add_clause([d_prev, -q_now])
            frames.append(
                (
                    {pi: enc.net_vars[pi] for pi in inputs},
                    {po: enc.net_vars[po] for po in netlist.outputs},
                )
            )
            previous = enc
        return frames

    def run(self) -> SequentialSatResult:
        result = SequentialSatResult(unroll_depth=self.unroll_depth)
        if all(self.netlist.node(l).lut_config is not None for l in self.netlist.luts):
            result.key = {}  # nothing is locked: the empty key is exact
            return result
        result.dialogues = refine_keys(
            "seqsat",
            self.netlist,
            self.oracle,
            result,
            self.max_iterations,
            self._unroll,
            self.oracle.run_sequence,
            unroll_depth=self.unroll_depth,
        )
        result.bounded_only = not result.gave_up
        return result
