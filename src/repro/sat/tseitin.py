"""Tseitin translation of netlists to CNF.

Primary inputs and flip-flop outputs become free variables; every gate adds
its consistency clauses.  Unprogrammed LUTs are encoded *symbolically*: each
truth-table row gets a key variable, so a SAT solver can reason about every
possible configuration at once — the formulation behind the oracle-guided
SAT attack (:mod:`repro.attacks.sat_attack`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist.gates import GateType
from ..netlist.graph import topological_order
from ..netlist.netlist import Netlist, NetlistError
from .cnf import Cnf


@dataclass
class CircuitEncoding:
    """Result of encoding one netlist copy into a CNF.

    Attributes:
        net_vars: net name → CNF variable.
        key_vars: (lut name, row) → CNF variable for unprogrammed LUTs.
    """

    net_vars: Dict[str, int] = field(default_factory=dict)
    key_vars: Dict[Tuple[str, int], int] = field(default_factory=dict)

    def lut_rows(self, lut_name: str) -> List[Tuple[int, int]]:
        """(row, variable) pairs of one LUT's key, sorted by row."""
        rows = [
            (row, var)
            for (name, row), var in self.key_vars.items()
            if name == lut_name
        ]
        rows.sort()
        return rows


def _and_clauses(out: int, ins: List[int]) -> List[List[int]]:
    clauses = [[out] + [-i for i in ins]]
    for i in ins:
        clauses.append([-out, i])
    return clauses


def _or_clauses(out: int, ins: List[int]) -> List[List[int]]:
    clauses = [[-out] + ins]
    for i in ins:
        clauses.append([out, -i])
    return clauses


def _xor2_clauses(out: int, a: int, b: int) -> List[List[int]]:
    return [
        [-out, a, b],
        [-out, -a, -b],
        [out, -a, b],
        [out, a, -b],
    ]


def _equal_clauses(a: int, b: int) -> List[List[int]]:
    return [[-a, b], [a, -b]]


class CircuitEncoder:
    """Encodes netlists (possibly several copies) into a shared :class:`Cnf`."""

    def __init__(self, cnf: Optional[Cnf] = None):
        self.cnf = cnf or Cnf()

    def encode(
        self,
        netlist: Netlist,
        prefix: str = "",
        input_vars: Optional[Dict[str, int]] = None,
        symbolic_luts: bool = True,
        key_vars: Optional[Dict[Tuple[str, int], int]] = None,
    ) -> CircuitEncoding:
        """Add one copy of *netlist* to the CNF.

        Args:
            prefix: namespace for this copy's variables.
            input_vars: reuse existing variables for startpoints (to share
                inputs between miter halves); missing entries get fresh vars.
            symbolic_luts: encode unprogrammed LUTs with key variables; if
                False, unprogrammed LUTs raise.
            key_vars: reuse existing key variables (to share the key between
                two copies of the same locked circuit).
        """
        enc = CircuitEncoding()
        input_vars = input_vars or {}
        for name in topological_order(netlist):
            node = netlist.node(name)
            if node.is_input or node.is_sequential:
                if name in input_vars:
                    enc.net_vars[name] = input_vars[name]
                else:
                    enc.net_vars[name] = self.cnf.new_var(f"{prefix}{name}")
                continue
            out = self.cnf.new_var(f"{prefix}{name}")
            enc.net_vars[name] = out
            ins = [enc.net_vars[src] for src in node.fanin]
            self._encode_gate(node, out, ins, enc, prefix, symbolic_luts, key_vars)
        return enc

    def _encode_gate(
        self,
        node,
        out: int,
        ins: List[int],
        enc: CircuitEncoding,
        prefix: str,
        symbolic_luts: bool,
        shared_keys: Optional[Dict[Tuple[str, int], int]],
    ) -> None:
        gt = node.gate_type
        add = self.cnf.add_clauses
        if gt is GateType.CONST0:
            self.cnf.add_clause([-out])
        elif gt is GateType.CONST1:
            self.cnf.add_clause([out])
        elif gt is GateType.BUF:
            add(_equal_clauses(out, ins[0]))
        elif gt is GateType.NOT:
            add(_equal_clauses(out, -ins[0]))
        elif gt is GateType.AND:
            add(_and_clauses(out, ins))
        elif gt is GateType.NAND:
            add(_and_clauses(-out, ins))
        elif gt is GateType.OR:
            add(_or_clauses(out, ins))
        elif gt is GateType.NOR:
            add(_or_clauses(-out, ins))
        elif gt in (GateType.XOR, GateType.XNOR):
            acc = ins[0]
            for nxt in ins[1:-1]:
                aux = self.cnf.new_var()
                add(_xor2_clauses(aux, acc, nxt))
                acc = aux
            target = out if gt is GateType.XOR else -out
            if len(ins) == 1:
                add(_equal_clauses(target, acc))
            else:
                add(_xor2_clauses(target, acc, ins[-1]))
        elif gt is GateType.LUT:
            if node.lut_config is not None:
                self._encode_fixed_lut(node, out, ins)
            elif symbolic_luts:
                self._encode_symbolic_lut(node, out, ins, enc, prefix, shared_keys)
            else:
                raise NetlistError(
                    f"unprogrammed LUT {node.name!r} with symbolic_luts=False"
                )
        else:
            raise NetlistError(f"cannot encode gate type {gt.value}")

    def _encode_fixed_lut(self, node, out: int, ins: List[int]) -> None:
        """Row-wise encoding of a programmed LUT."""
        for row in range(1 << len(ins)):
            guard = [
                -ins[pin] if (row >> pin) & 1 else ins[pin]
                for pin in range(len(ins))
            ]
            target = out if (node.lut_config >> row) & 1 else -out
            self.cnf.add_clause(guard + [target])

    def _encode_symbolic_lut(
        self,
        node,
        out: int,
        ins: List[int],
        enc: CircuitEncoding,
        prefix: str,
        shared_keys: Optional[Dict[Tuple[str, int], int]],
    ) -> None:
        """Key-variable encoding: out == key[row(inputs)]."""
        for row in range(1 << len(ins)):
            key = (node.name, row)
            if shared_keys is not None and key in shared_keys:
                key_var = shared_keys[key]
            else:
                key_var = self.cnf.new_var(f"{prefix}key:{node.name}:{row}")
                if shared_keys is not None:
                    shared_keys[key] = key_var
            enc.key_vars[key] = key_var
            guard = [
                -ins[pin] if (row >> pin) & 1 else ins[pin]
                for pin in range(len(ins))
            ]
            self.cnf.add_clause(guard + [-out, key_var])
            self.cnf.add_clause(guard + [out, -key_var])


def gated_miter(cnf: Cnf, pairs: Sequence[Tuple[int, int]], act: int) -> None:
    """Demand that some pair of *pairs* differs whenever *act* holds:
    ``solve([act])`` searches for an assignment telling the sides apart,
    and ``[-act]`` relaxes the miter without removing a clause."""
    diffs: List[int] = []
    for a, b in pairs:
        diff = cnf.new_var()
        cnf.add_clauses(_xor2_clauses(diff, a, b))
        diffs.append(diff)
    cnf.add_clause(diffs + [-act])


def encode_netlist(
    netlist: Netlist, symbolic_luts: bool = True
) -> Tuple[Cnf, CircuitEncoding]:
    """One-shot encoding of a single netlist copy."""
    encoder = CircuitEncoder()
    enc = encoder.encode(netlist, symbolic_luts=symbolic_luts)
    return encoder.cnf, enc
