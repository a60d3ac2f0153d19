"""Word-parallel ternary constant propagation over a netlist.

:class:`TernaryPropagator` pushes :class:`~repro.dataflow.lattice.TernaryWord`
rails through the combinational logic in topological order.  Primary
inputs and flip-flop outputs default to X (the attacker controls them —
or the analysis abstracts over them); unprogrammed LUTs produce X
(their configuration is the withheld key).  ``overrides`` force a net to
a given rail pair regardless of its logic — the engine's dual forced
runs (locked gate pinned to 0, then to 1) are built on this.

:func:`structural_constants` is the classic all-X pass: any net that
comes back concrete is constant for *every* input pattern and *every*
key assignment, which makes LUT rows incompatible with it provably
unreachable (don't-care key bits).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..netlist.gates import GateType
from ..netlist.graph import combinational_order
from ..netlist.netlist import Netlist
from ..obs import add_counter
from .lattice import TernaryWord, eval_gate3, eval_lut3, unknown_lut3


class TernaryPropagator:
    """Forward abstract interpretation of one netlist's combinational part.

    The reference interpreter of the lattice: each :meth:`propagate` call
    reads the evaluation order from :func:`combinational_order`, so a
    propagator built before a structural edit agrees with a fresh one.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist

    def propagate(
        self,
        inputs: Optional[Mapping[str, TernaryWord]] = None,
        width: int = 1,
        overrides: Optional[Mapping[str, TernaryWord]] = None,
        state: Optional[Mapping[str, TernaryWord]] = None,
    ) -> Dict[str, TernaryWord]:
        """Rails for every net over ``width`` packed patterns.

        Args:
            inputs: primary-input net → rails; missing inputs are X.
            width: number of patterns packed per rail word.
            overrides: nets forced to the given rails (downstream logic
                sees the forced value; the net's own logic is skipped).
            state: flip-flop output net → rails; missing state nets are X.
        """
        mask = (1 << width) - 1
        inputs = inputs or {}
        state = state or {}
        overrides = overrides or {}
        unknown = TernaryWord.unknown(mask)
        values: Dict[str, TernaryWord] = {}
        for pi in self.netlist.inputs:
            values[pi] = inputs.get(pi, unknown)
        for ff in self.netlist.flip_flops:
            values[ff] = state.get(ff, unknown)
        for name, forced in overrides.items():
            if name in values:
                values[name] = forced
        for name in combinational_order(self.netlist):
            if name in overrides:
                values[name] = overrides[name]
                continue
            node = self.netlist.node(name)
            fanin = [values[src] for src in node.fanin]
            if node.gate_type is GateType.LUT:
                if node.lut_config is None:
                    values[name] = unknown_lut3(fanin, mask)
                else:
                    values[name] = eval_lut3(node.lut_config, fanin, mask)
            else:
                values[name] = eval_gate3(node.gate_type, fanin, mask)
        add_counter("dataflow.patterns", width)
        return values


def structural_constants(netlist: Netlist) -> Dict[str, int]:
    """Nets that are constant for all inputs *and* all key assignments.

    Runs one all-X pass; a net whose rails come back concrete cannot be
    influenced by anything — its value is forced by the structure alone
    (constant gates and logic that absorbs them).
    """
    rails = TernaryPropagator(netlist).propagate(width=1)
    constants: Dict[str, int] = {}
    for name, word in rails.items():
        if word.concrete1():
            constants[name] = 1
        elif word.concrete0():
            constants[name] = 0
    return constants
