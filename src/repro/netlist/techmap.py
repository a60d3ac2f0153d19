"""Technology mapping helpers: fan-in decomposition and NAND/NOR mapping.

Section III of the paper notes that high fan-in static CMOS gates lose
their leakage advantage "if those gates are implemented using cascade of
lower fan-in gates for performance reasons" — i.e. real netlists are
routinely decomposed.  :func:`decompose_to_max_fanin` performs that
restructuring; :func:`map_to_nand` is the textbook universal-gate mapping,
useful for normalising generated circuits before comparisons.

Both passes preserve function exactly (tree decomposition of associative
operators; XOR parity trees) and never touch LUTs or flip-flops.
"""

from __future__ import annotations

from typing import Dict, List

from .gates import GateType
from .netlist import Netlist, NetlistError

#: Associative gate families and the (base, inverted) pairing used when
#: splitting: NAND(a,b,c,d) == NAND(AND(a,b), ... ) needs care, see below.
_ASSOCIATIVE = {
    GateType.AND: GateType.AND,
    GateType.NAND: GateType.AND,
    GateType.OR: GateType.OR,
    GateType.NOR: GateType.OR,
    GateType.XOR: GateType.XOR,
    GateType.XNOR: GateType.XOR,
}

_INVERTING = {GateType.NAND, GateType.NOR, GateType.XNOR}


def decompose_to_max_fanin(netlist: Netlist, max_fanin: int = 2) -> int:
    """Split every gate wider than *max_fanin* into a balanced tree of
    *max_fanin*-input gates of the same family, in place.

    An inverting gate keeps its inversion at the tree root only (e.g.
    ``NAND4 -> NAND2(AND2, AND2)``).  Returns the number of helper gates
    created.  LUTs, DFFs, and 1-input gates are untouched.
    """
    if max_fanin < 2:
        raise NetlistError("max_fanin must be at least 2")
    created = 0
    counter = 0
    for name in list(netlist.node_names()):
        node = netlist.node(name)
        if node.gate_type not in _ASSOCIATIVE or node.n_inputs <= max_fanin:
            continue
        base = _ASSOCIATIVE[node.gate_type]
        sources = list(node.fanin)
        # Reduce bottom-up until <= max_fanin operands remain.
        while len(sources) > max_fanin:
            grouped: List[str] = []
            for start in range(0, len(sources), max_fanin):
                chunk = sources[start : start + max_fanin]
                if len(chunk) == 1:
                    grouped.append(chunk[0])
                    continue
                helper = f"{name}_dc{counter}"
                counter += 1
                netlist.add_gate(helper, base, chunk)
                grouped.append(helper)
                created += 1
            sources = grouped
        # Rewire the original node onto the reduced operand list, keeping
        # its own (possibly inverting) type at the root.
        gate_type = node.gate_type
        if len(sources) == 1:
            gate_type = (
                GateType.NOT if gate_type in _INVERTING else GateType.BUF
            )
        netlist.set_gate_type(name, gate_type, sources)
    netlist.validate()
    return created


def map_to_nand(netlist: Netlist) -> int:
    """Re-express AND/OR/NOR/XOR/XNOR/BUF in {NAND, NOT}, in place.

    Classic universal-gate mapping, applied after
    :func:`decompose_to_max_fanin` (gates must be ≤2-input; wider gates
    raise).  Returns the number of helper gates created.  DFFs and LUTs are
    untouched; NOT is kept as-is (it is NAND with tied inputs in silicon).
    """
    created = 0
    counter = 0

    def fresh(suffix: str, gate_type: GateType, fanin: List[str]) -> str:
        nonlocal created, counter
        name = f"nm{counter}_{suffix}"
        counter += 1
        netlist.add_gate(name, gate_type, fanin)
        created += 1
        return name

    for name in list(netlist.node_names()):
        node = netlist.node(name)
        gt = node.gate_type
        if gt in (
            GateType.NAND,
            GateType.NOT,
            GateType.DFF,
            GateType.LUT,
            GateType.INPUT,
            GateType.CONST0,
            GateType.CONST1,
        ):
            continue
        if node.n_inputs > 2:
            raise NetlistError(
                f"map_to_nand needs ≤2-input gates; decompose first "
                f"({name!r} has {node.n_inputs})"
            )
        a = node.fanin[0]
        b = node.fanin[-1]
        if gt is GateType.BUF:
            new = GateType.NOT, [fresh("inv", GateType.NOT, [a])]
        elif gt is GateType.AND:
            new = GateType.NOT, [fresh("nand", GateType.NAND, [a, b])]
        elif gt is GateType.OR:
            na = fresh("inva", GateType.NOT, [a])
            nb = fresh("invb", GateType.NOT, [b])
            new = GateType.NAND, [na, nb]
        elif gt is GateType.NOR:
            na = fresh("inva", GateType.NOT, [a])
            nb = fresh("invb", GateType.NOT, [b])
            new = GateType.NOT, [fresh("nand", GateType.NAND, [na, nb])]
        elif gt in (GateType.XOR, GateType.XNOR):
            # XOR(a,b) = NAND(NAND(a, nab), NAND(b, nab)); nab = NAND(a,b).
            nab = fresh("nab", GateType.NAND, [a, b])
            left = fresh("l", GateType.NAND, [a, nab])
            right = fresh("r", GateType.NAND, [b, nab])
            if gt is GateType.XOR:
                new = GateType.NAND, [left, right]
            else:
                new = GateType.NOT, [fresh("x", GateType.NAND, [left, right])]
        else:  # pragma: no cover - exhaustive above
            raise NetlistError(f"unhandled gate type {gt}")
        netlist.set_gate_type(name, *new)
    netlist.validate()
    return created


def fanin_histogram(netlist: Netlist) -> Dict[int, int]:
    """Gate count per fan-in (combinational non-LUT gates only)."""
    histogram: Dict[int, int] = {}
    for node in netlist:
        if node.is_combinational and not node.is_lut:
            histogram[node.n_inputs] = histogram.get(node.n_inputs, 0) + 1
    return histogram
