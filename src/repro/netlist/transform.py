"""Netlist editing operations used by the locking flow.

These are the building blocks of the *CMOS gate selection and replacement*
stage (Fig. 2 of the paper): turning gates into LUTs, widening LUTs with
decoy inputs, and absorbing small gate clusters into one complex-function
LUT — the countermeasures Section IV-A.3 proposes against machine-learning
attacks.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence

from .gates import GateType
from .graph import combinational_cone, transitive_fanout
from .netlist import Netlist, NetlistError


def replace_gates_with_luts(
    netlist: Netlist,
    names: Iterable[str],
    program: bool = True,
) -> List[str]:
    """Replace every gate in *names* with an equivalent LUT, in place.

    Gates that are already LUTs are skipped (so overlapping path selections
    compose).  Returns the names actually replaced.
    """
    replaced = []
    for name in names:
        node = netlist.node(name)
        if node.is_lut or not node.is_combinational:
            continue
        if node.gate_type in (GateType.CONST0, GateType.CONST1):
            continue
        netlist.replace_with_lut(name, program=program)
        replaced.append(name)
    return replaced


def widen_lut_with_decoys(
    netlist: Netlist,
    name: str,
    extra_inputs: int,
    rng: random.Random,
    candidate_nets: Optional[Sequence[str]] = None,
) -> List[str]:
    """Tie *extra_inputs* additional (functionally ignored) nets to a LUT.

    This implements the paper's search-space expansion: "a 4-input STT-based
    LUT ... can be also used to implement 3-/2-input gates ... with
    connecting unused inputs of STT-based LUTs to some signals in the circuit
    to expand search space for machine learning attacks."

    The LUT configuration is replicated so the function ignores the new pins;
    decoy nets are drawn from *candidate_nets*.  The default pool is the
    design's startpoints (primary inputs and flip-flop outputs): they can
    never create a combinational loop, and their arrival time is zero, so
    the electrical connection adds no new long timing arc — widening stays
    parametric-friendly.  When the startpoint pool is too small, any net
    outside the LUT's transitive fan-out qualifies.  Returns the decoy nets
    attached.
    """
    node = netlist.node(name)
    if node.gate_type is not GateType.LUT:
        raise NetlistError(f"{name!r} is not a LUT")
    if extra_inputs <= 0:
        return []
    if node.n_inputs + extra_inputs > 8:
        raise NetlistError(
            f"LUT {name!r} would exceed the 8-input limit with "
            f"{extra_inputs} decoys"
        )
    if candidate_nets is None:
        candidate_nets = [
            n
            for n in list(netlist.inputs) + list(netlist.flip_flops)
            if n not in node.fanin and n != name
        ]
        if len(candidate_nets) < extra_inputs:
            forbidden = transitive_fanout(netlist, [name])
            candidate_nets += [
                n.name
                for n in netlist
                if n.name not in forbidden
                and n.name not in node.fanin
                and n.name not in candidate_nets
            ]
    else:
        candidate_nets = [
            c for c in candidate_nets if c not in node.fanin and c != name
        ]
    if len(candidate_nets) < extra_inputs:
        raise NetlistError(
            f"not enough decoy candidates for LUT {name!r}: "
            f"need {extra_inputs}, have {len(candidate_nets)}"
        )
    decoys = rng.sample(list(candidate_nets), extra_inputs)
    if node.lut_config is not None:
        # Replicate the table once per decoy: each new MSB pin is a
        # don't-care.
        for width in range(node.n_inputs, node.n_inputs + extra_inputs):
            node.lut_config |= node.lut_config << (1 << width)
    netlist.set_gate_type(name, GateType.LUT, fanin=node.fanin + decoys)
    node.attrs["decoy_pins"] = node.attrs.get("decoy_pins", 0) + len(decoys)
    return decoys


def absorb_fanin_gate(netlist: Netlist, lut_name: str, pin: int) -> str:
    """Fold the gate driving pin *pin* of a LUT into the LUT itself,
    producing a complex-function LUT (e.g. ``(A·(B⊕C))+D``).

    The absorbed gate must be single-fan-out combinational logic.  Its inputs
    take over the pin (expanding the LUT), and the gate is removed.  Returns
    the absorbed gate's name.
    """
    lut = netlist.node(lut_name)
    if lut.gate_type is not GateType.LUT:
        raise NetlistError(f"{lut_name!r} is not a LUT")
    src_name = lut.fanin[pin]
    src = netlist.node(src_name)
    if not src.is_combinational or src.is_lut:
        raise NetlistError(f"cannot absorb {src.gate_type.value} node {src_name!r}")
    if netlist.fanout(src_name) != [lut_name] or src_name in netlist.outputs:
        raise NetlistError(f"{src_name!r} has other fan-out; cannot absorb")
    if lut.fanin.count(src_name) != 1:
        raise NetlistError(
            f"{src_name!r} feeds LUT {lut_name!r} on multiple pins; cannot absorb"
        )
    new_arity = lut.n_inputs - 1 + src.n_inputs
    if new_arity > 8:
        raise NetlistError("absorption would exceed the 8-input LUT limit")
    src_mask = src.function_mask()
    new_fanin = lut.fanin[:pin] + lut.fanin[pin + 1 :] + list(src.fanin)
    if lut.lut_config is not None:
        new_config = 0
        for row in range(1 << new_arity):
            outer_bits = [(row >> i) & 1 for i in range(lut.n_inputs - 1)]
            inner_bits = [
                (row >> (lut.n_inputs - 1 + i)) & 1 for i in range(src.n_inputs)
            ]
            inner_row = 0
            for i, bit in enumerate(inner_bits):
                inner_row |= bit << i
            pin_value = (src_mask >> inner_row) & 1
            old_row = 0
            outer_iter = iter(outer_bits)
            for i in range(lut.n_inputs):
                bit = pin_value if i == pin else next(outer_iter)
                old_row |= bit << i
            if (lut.lut_config >> old_row) & 1:
                new_config |= 1 << row
        lut.lut_config = new_config
    netlist.set_gate_type(lut_name, GateType.LUT, fanin=new_fanin)
    lut.attrs["absorbed"] = list(lut.attrs.get("absorbed", [])) + [src_name]
    netlist.remove_node(src_name)
    return src_name


def immediate_neighbours(netlist: Netlist, name: str) -> List[str]:
    """Combinational gates that immediately drive or are driven by *name*.

    Used by the parametric-aware algorithm: "any gate that drives or is
    driven by any gate in USL is replaced with a STT-based LUT."
    """
    node = netlist.node(name)
    neighbours = []
    for src in node.fanin:
        if netlist.node(src).is_combinational:
            neighbours.append(src)
    for dst in netlist.fanout(name):
        if netlist.node(dst).is_combinational:
            neighbours.append(dst)
    seen: Dict[str, None] = {}
    for n in neighbours:
        seen.setdefault(n, None)
    return list(seen)


def extract_cone(netlist: Netlist, sinks: Sequence[str], name: str = "cone") -> Netlist:
    """Extract the combinational cone feeding *sinks* as a standalone netlist.

    DFF outputs and primary inputs on the cone boundary become primary inputs
    of the extracted design; *sinks* become its primary outputs.  Useful for
    attack experiments on sub-circuits.
    """
    cone = combinational_cone(netlist, sinks)
    out = Netlist(name)
    for node_name in netlist.node_names():
        if node_name not in cone:
            continue
        node = netlist.node(node_name)
        if node.is_input or node.is_sequential:
            out.add_input(node_name)
        else:
            out.add_gate(node_name, node.gate_type, node.fanin, node.lut_config)
            out.node(node_name).attrs.update(node.attrs)
    for sink in sinks:
        out.add_output(sink)
    out.validate()
    return out


def count_replaced(netlist: Netlist) -> int:
    """Number of STT LUTs in a hybrid netlist (the paper's "Number of STTs")."""
    return len(netlist.luts)
