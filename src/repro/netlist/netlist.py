"""The gate-level netlist data structure.

A :class:`Netlist` is a named collection of :class:`Node` objects.  Each node
drives exactly one net, named after the node, so "node" and "net" are used
interchangeably.  Primary inputs are nodes of type ``INPUT``; primary outputs
are ordinary nets listed in :attr:`Netlist.outputs`.  Flip-flops are ``DFF``
nodes with a single fan-in (the D pin); their output is the Q net.

The structure is deliberately plain — dictionaries and lists — so the
selection algorithms, timing/power engines, simulators, and SAT translation
can all walk it without adapters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from .gates import (
    COMBINATIONAL_TYPES,
    GateType,
    check_arity,
    evaluate_gate,
    truth_table,
)


class NetlistError(ValueError):
    """Raised on structurally invalid netlist operations."""


@dataclass
class Node:
    """One gate / flip-flop / primary input and the net it drives.

    Attributes:
        name: unique net name within the netlist.
        gate_type: the node's :class:`~repro.netlist.gates.GateType`.
        fanin: ordered fan-in net names (pin 0 first).
        lut_config: truth-table mask for ``LUT`` nodes (pin 0 = LSB of the
            row index); ``None`` for every other type.  An *unprogrammed*
            LUT — what the untrusted foundry sees — has ``lut_config=None``.
        attrs: free-form annotations (e.g. ``"locked_from"`` recording which
            gate type a LUT replaced, for audit/verification only).
    """

    name: str
    gate_type: GateType
    fanin: List[str] = field(default_factory=list)
    lut_config: Optional[int] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def n_inputs(self) -> int:
        return len(self.fanin)

    @property
    def is_combinational(self) -> bool:
        return self.gate_type in COMBINATIONAL_TYPES

    @property
    def is_sequential(self) -> bool:
        return self.gate_type is GateType.DFF

    @property
    def is_input(self) -> bool:
        return self.gate_type is GateType.INPUT

    @property
    def is_lut(self) -> bool:
        return self.gate_type is GateType.LUT

    @property
    def is_programmed(self) -> bool:
        """True for non-LUT nodes and for LUTs with a configuration."""
        if self.gate_type is not GateType.LUT:
            return True
        return self.lut_config is not None

    def function_mask(self) -> int:
        """Truth table of this node as an integer mask.

        Raises :class:`NetlistError` for an unprogrammed LUT, an INPUT, or a
        DFF, none of which have a combinational function.
        """
        if self.gate_type is GateType.LUT:
            if self.lut_config is None:
                raise NetlistError(f"LUT {self.name!r} is not programmed")
            return self.lut_config
        if not self.is_combinational:
            raise NetlistError(f"{self.gate_type.value} node {self.name!r} has no function")
        return truth_table(self.gate_type, self.n_inputs)

    def evaluate(self, input_bits: Sequence[int]) -> int:
        """Evaluate this node on scalar 0/1 fan-in values."""
        if self.gate_type is GateType.LUT:
            if self.lut_config is None:
                raise NetlistError(f"LUT {self.name!r} is not programmed")
            row = 0
            for pin, bit in enumerate(input_bits):
                row |= (bit & 1) << pin
            return (self.lut_config >> row) & 1
        return evaluate_gate(self.gate_type, list(input_bits)) & 1

    def copy(self) -> "Node":
        return Node(
            name=self.name,
            gate_type=self.gate_type,
            fanin=list(self.fanin),
            lut_config=self.lut_config,
            attrs=dict(self.attrs),
        )


class Netlist:
    """A named gate-level netlist.

    Nodes are kept in insertion order (which the ``.bench`` writer preserves);
    fan-out maps are maintained incrementally so graph queries stay O(degree).
    """

    def __init__(self, name: str = "top"):
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self.outputs: List[str] = []
        self._fanout: Dict[str, Set[str]] = {}
        self._structure_revision = 0
        self._function_revision = 0

    # ------------------------------------------------------------------
    # mutation tracking
    # ------------------------------------------------------------------
    @property
    def structure_revision(self) -> int:
        """Counter bumped whenever the graph structure (node set, fan-in
        wiring, outputs) changes.  :mod:`repro.netlist.cache` keys its
        memoized topological order / levelization / networkx views on it."""
        return self._structure_revision

    @property
    def function_revision(self) -> int:
        """Counter bumped whenever the *boolean function* of the design may
        have changed: every structural change, plus in-place gate-type
        rewrites.  The compiled simulation backend
        (:mod:`repro.sim.compiled`) keys its code cache on it.

        Note: ``lut_config`` assignments deliberately do **not** bump this —
        LUT configurations are runtime data to the compiled backend, so
        attacks that sweep hypothesis configs never trigger recompilation.
        """
        return self._function_revision

    def touch_structure(self) -> None:
        """Record an out-of-band structural mutation (callers that edit
        ``node.fanin`` / ``_fanout`` directly must call this)."""
        self._structure_revision += 1
        self._function_revision += 1

    def touch_function(self) -> None:
        """Record an out-of-band gate-function mutation (e.g. rewriting
        ``node.gate_type`` in place without touching the wiring)."""
        self._function_revision += 1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> Node:
        """Declare a primary input net."""
        return self._add(Node(name, GateType.INPUT))

    def add_gate(
        self,
        name: str,
        gate_type: GateType,
        fanin: Sequence[str],
        lut_config: Optional[int] = None,
    ) -> Node:
        """Add a combinational gate, LUT, or DFF driving net *name*.

        Fan-in nets may be declared later; :meth:`validate` (and the
        structural lint rules) check for dangling references.
        """
        if gate_type is GateType.INPUT:
            raise NetlistError("use add_input() for primary inputs")
        check_arity(gate_type, len(fanin))
        if lut_config is not None and gate_type is not GateType.LUT:
            raise NetlistError("lut_config is only valid on LUT nodes")
        node = Node(name, gate_type, list(fanin), lut_config)
        return self._add(node)

    def add_output(self, name: str) -> None:
        """Mark net *name* as a primary output."""
        if name in self.outputs:
            raise NetlistError(f"duplicate output declaration {name!r}")
        self.outputs.append(name)
        self.touch_structure()

    def _add(self, node: Node) -> Node:
        if node.name in self._nodes:
            raise NetlistError(f"net {node.name!r} has multiple drivers")
        self._nodes[node.name] = node
        self._fanout.setdefault(node.name, set())
        for src in node.fanin:
            self._fanout.setdefault(src, set()).add(node.name)
        self.touch_structure()
        return node

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError as exc:
            raise NetlistError(f"no net named {name!r}") from exc

    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    def node_names(self) -> List[str]:
        return list(self._nodes.keys())

    @property
    def inputs(self) -> List[str]:
        return [n.name for n in self._nodes.values() if n.is_input]

    @property
    def flip_flops(self) -> List[str]:
        return [n.name for n in self._nodes.values() if n.is_sequential]

    @property
    def gates(self) -> List[str]:
        """Combinational gate/LUT names (excludes INPUTs and DFFs).

        This matches the paper's Table I "size" column, which counts gates
        excluding flip-flops.
        """
        return [n.name for n in self._nodes.values() if n.is_combinational]

    @property
    def luts(self) -> List[str]:
        return [n.name for n in self._nodes.values() if n.is_lut]

    def fanout(self, name: str) -> List[str]:
        """Names of nodes that read net *name* (sorted for determinism)."""
        return sorted(self._fanout.get(name, ()))

    def fanin(self, name: str) -> List[str]:
        return list(self.node(name).fanin)

    def stats(self) -> "NetlistStats":
        return NetlistStats(
            name=self.name,
            n_inputs=len(self.inputs),
            n_outputs=len(self.outputs),
            n_flip_flops=len(self.flip_flops),
            n_gates=len(self.gates),
            n_luts=len(self.luts),
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def replace_with_lut(self, name: str, program: bool = True) -> Node:
        """Replace the gate driving *name* with an equivalent LUT in place.

        The LUT keeps the gate's fan-in order.  With ``program=True`` the LUT
        configuration is set to the original gate's truth table (the design
        house's provisioning data); with ``program=False`` the LUT is left
        unprogrammed, which is what the fabricated (pre-provisioning) chip
        looks like.  The original type is recorded in
        ``attrs["locked_from"]`` either way so equivalence can be audited.
        """
        node = self.node(name)
        if not node.is_combinational or node.is_lut:
            raise NetlistError(
                f"cannot replace {node.gate_type.value} node {name!r} with a LUT"
            )
        if node.n_inputs > 8:
            raise NetlistError(f"gate {name!r} fan-in {node.n_inputs} exceeds LUT limit")
        mask = node.function_mask()
        node.attrs["locked_from"] = node.gate_type.value
        node.gate_type = GateType.LUT
        node.lut_config = mask if program else None
        self.touch_function()
        return node

    def rewire_fanin(self, name: str, pin: int, new_src: str) -> None:
        """Reconnect pin *pin* of node *name* to net *new_src*."""
        node = self.node(name)
        if not 0 <= pin < node.n_inputs:
            raise NetlistError(f"node {name!r} has no pin {pin}")
        old_src = node.fanin[pin]
        node.fanin[pin] = new_src
        if old_src not in node.fanin:
            self._fanout.get(old_src, set()).discard(name)
        self._fanout.setdefault(new_src, set()).add(name)
        self.touch_structure()

    def remove_node(self, name: str) -> None:
        """Remove node *name*; it must have no fan-out and not be an output."""
        if self._fanout.get(name):
            raise NetlistError(f"cannot remove {name!r}: it still drives {self.fanout(name)}")
        if name in self.outputs:
            raise NetlistError(f"cannot remove primary output {name!r}")
        node = self._nodes.pop(name)
        for src in node.fanin:
            if src not in node.fanin[: node.fanin.index(src)]:
                self._fanout.get(src, set()).discard(name)
        self._fanout.pop(name, None)
        self.touch_structure()

    # ------------------------------------------------------------------
    # whole-netlist operations
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Netlist":
        """Deep copy (nodes and output list are duplicated)."""
        out = Netlist(name or self.name)
        for node in self._nodes.values():
            out._add(node.copy())
        out.outputs = list(self.outputs)
        return out

    def validate(self) -> None:
        """Quick structural check: every fan-in and output net has a driver."""
        for node in self._nodes.values():
            for src in node.fanin:
                if src not in self._nodes:
                    raise NetlistError(
                        f"node {node.name!r} reads undriven net {src!r}"
                    )
        for out in self.outputs:
            if out not in self._nodes:
                raise NetlistError(f"primary output {out!r} has no driver")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"Netlist({self.name!r}, inputs={s.n_inputs}, outputs={s.n_outputs}, "
            f"ffs={s.n_flip_flops}, gates={s.n_gates}, luts={s.n_luts})"
        )

    def __deepcopy__(self, memo: dict) -> "Netlist":
        out = self.copy()
        memo[id(self)] = out
        return out


@dataclass(frozen=True)
class NetlistStats:
    """Interface/size statistics of a netlist."""

    name: str
    n_inputs: int
    n_outputs: int
    n_flip_flops: int
    n_gates: int
    n_luts: int

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.n_inputs} PI, {self.n_outputs} PO, "
            f"{self.n_flip_flops} FF, {self.n_gates} gates ({self.n_luts} LUTs)"
        )


def merge_disjoint(name: str, parts: Iterable[Netlist]) -> Netlist:
    """Merge netlists with disjoint net-name spaces into one design."""
    out = Netlist(name)
    for part in parts:
        for node in part:
            out._add(node.copy())
        for po in part.outputs:
            out.add_output(po)
    return out
