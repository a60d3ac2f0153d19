"""Netlist clean-up passes: constant propagation, buffer sweeping, dead
logic removal.

The release step of the flow leaves optimisation fodder behind —
:func:`~repro.netlist.scan.disable_scan` ties the scan-enable to constant 0,
which makes every scan mux transparent.  :func:`sweep` restores the netlist
to (near) its pre-scan cost, exactly what an incremental synthesis run would
do before tape-out.

Passes never touch LUT nodes (their function is a secret; "optimising" one
would leak that, e.g., a pin is non-controlling) and never remove primary
outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .gates import GateType
from .graph import topological_order
from .netlist import Netlist


@dataclass(frozen=True)
class SweepStats:
    """What one :func:`sweep` call changed."""

    constants_folded: int
    buffers_collapsed: int
    dead_removed: int

    @property
    def total(self) -> int:
        return self.constants_folded + self.buffers_collapsed + self.dead_removed


def _const_of(node) -> Optional[int]:
    if node.gate_type is GateType.CONST0:
        return 0
    if node.gate_type is GateType.CONST1:
        return 1
    return None


def propagate_constants(netlist: Netlist) -> int:
    """Fold gates whose value is fixed by constant fan-in, in place.

    A gate dominated by a controlling constant (AND with a 0, OR with a 1,
    …) becomes a constant node; pass-through cases (AND with a 1 on one of
    two pins) become buffers/inverters.  Iterates to a fixed point and
    returns the number of nodes rewritten.  LUTs and DFFs are left alone.
    """
    folded = 0
    changed = True
    while changed:
        changed = False
        for name in topological_order(netlist):
            node = netlist.node(name)
            if not node.is_combinational or node.is_lut:
                continue
            if node.gate_type in (GateType.CONST0, GateType.CONST1):
                continue
            values = [_const_of(netlist.node(src)) for src in node.fanin]
            new = _fold(node.gate_type, node.fanin, values)
            if new is None:
                continue
            new_type, new_fanin = new
            netlist.set_gate_type(name, new_type, new_fanin)
            folded += 1
            changed = True
    return folded


def _fold(gate_type: GateType, fanin: List[str], values: List[Optional[int]]):
    """Decide the rewrite for one gate given known constant inputs.

    Returns ``(new_type, new_fanin)`` or None when nothing folds.
    """
    known = [v for v in values if v is not None]
    if not known:
        return None
    live = [src for src, v in zip(fanin, values) if v is None]

    if gate_type in (GateType.AND, GateType.NAND):
        if 0 in known:
            out = 0
        elif not live:
            out = 1
        else:
            return _residual(gate_type, live, invert=gate_type is GateType.NAND)
        if gate_type is GateType.NAND:
            out = 1 - out
        return (GateType.CONST1 if out else GateType.CONST0, [])
    if gate_type in (GateType.OR, GateType.NOR):
        if 1 in known:
            out = 1
        elif not live:
            out = 0
        else:
            return _residual(gate_type, live, invert=gate_type is GateType.NOR)
        if gate_type is GateType.NOR:
            out = 1 - out
        return (GateType.CONST1 if out else GateType.CONST0, [])
    if gate_type in (GateType.XOR, GateType.XNOR):
        parity = sum(known) % 2
        if gate_type is GateType.XNOR:
            parity ^= 1
        if not live:
            return (GateType.CONST1 if parity else GateType.CONST0, [])
        if len(live) == 1:
            return (GateType.NOT if parity else GateType.BUF, live)
        base = GateType.XNOR if parity else GateType.XOR
        return (base, live)
    if gate_type in (GateType.BUF, GateType.NOT):
        value = known[0]
        if gate_type is GateType.NOT:
            value = 1 - value
        return (GateType.CONST1 if value else GateType.CONST0, [])
    return None


def _residual(gate_type: GateType, live: List[str], invert: bool):
    """AND/OR with non-controlling constants stripped."""
    if len(live) == 1:
        return (GateType.NOT if invert else GateType.BUF, live)
    if gate_type in (GateType.AND, GateType.NAND):
        return (GateType.NAND if invert else GateType.AND, live)
    return (GateType.NOR if invert else GateType.OR, live)


def collapse_buffers(netlist: Netlist) -> int:
    """Bypass BUF chains and cancel NOT-NOT pairs by rewiring readers.

    Buffer/inverter nodes that end up dead are left for
    :func:`remove_dead_logic`.  Primary outputs keep their drivers (the net
    name is the interface).  Returns the number of pins rewired.
    """
    rewired = 0
    output_set = set(netlist.outputs)
    for name in topological_order(netlist):
        node = netlist.node(name)
        if node.gate_type is GateType.BUF:
            target = node.fanin[0]
        elif node.gate_type is GateType.NOT:
            src = netlist.node(node.fanin[0])
            if src.gate_type is not GateType.NOT:
                continue
            target = src.fanin[0]  # NOT(NOT(x)) == x
        else:
            continue
        if name in output_set:
            continue
        for reader in list(netlist.fanout(name)):
            reader_node = netlist.node(reader)
            for pin, pin_src in enumerate(reader_node.fanin):
                if pin_src == name:
                    netlist.rewire_fanin(reader, pin, target)
                    rewired += 1
    return rewired


def remove_dead_logic(netlist: Netlist) -> int:
    """Delete nodes that reach no primary output or flip-flop, iteratively.

    Primary inputs are kept (the interface is fixed).  Returns the number of
    nodes removed.
    """
    removed = 0
    changed = True
    while changed:
        changed = False
        output_set = set(netlist.outputs)
        for name in list(netlist.node_names()):
            node = netlist.node(name)
            if node.is_input or name in output_set:
                continue
            if netlist.fanout(name):
                continue
            netlist.remove_node(name)
            removed += 1
            changed = True
    return removed


def sweep(netlist: Netlist) -> SweepStats:
    """Run all passes to a joint fixed point, in place."""
    constants = buffers = dead = 0
    while True:
        c = propagate_constants(netlist)
        b = collapse_buffers(netlist)
        d = remove_dead_logic(netlist)
        constants += c
        buffers += b
        dead += d
        if c == b == d == 0:
            break
    netlist.validate()
    return SweepStats(
        constants_folded=constants,
        buffers_collapsed=buffers,
        dead_removed=dead,
    )
