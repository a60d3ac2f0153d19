"""Gate types and truth-table machinery for gate-level netlists.

Every combinational gate type is described by a :class:`GateSpec`: a name, an
arity policy, and a truth-table generator.  Truth tables are encoded as
integer bitmasks over the ``2**k`` input combinations of a ``k``-input
function: bit ``i`` of the mask is the output for the input combination whose
binary encoding is ``i``, with fan-in pin 0 being the *least* significant bit
of ``i``.

The same encoding is used by LUT configuration words
(:mod:`repro.lut.lutcell`), by the similarity metric that produces the
paper's ``alpha`` values (:mod:`repro.locking.metrics`), and by the
circuit-to-CNF translation (:mod:`repro.sat.tseitin`).
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence


class GateType(enum.Enum):
    """All node types a :class:`~repro.netlist.netlist.Netlist` may contain."""

    INPUT = "INPUT"
    DFF = "DFF"
    BUF = "BUF"
    NOT = "NOT"
    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    LUT = "LUT"
    CONST0 = "CONST0"
    CONST1 = "CONST1"

    # Members are singletons, so identity hashing is exact; it runs in C,
    # where Enum's own ``hash(self._name_)`` is a Python-level call paid by
    # every ``COMBINATIONAL_TYPES`` test and ``(GateType, arity)`` lookup.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Gate types that compute a boolean function of their fan-in.
COMBINATIONAL_TYPES = frozenset(
    {
        GateType.BUF,
        GateType.NOT,
        GateType.AND,
        GateType.NAND,
        GateType.OR,
        GateType.NOR,
        GateType.XOR,
        GateType.XNOR,
        GateType.LUT,
        GateType.CONST0,
        GateType.CONST1,
    }
)

#: Standard-cell gate types eligible for replacement by an STT LUT.
REPLACEABLE_TYPES = frozenset(
    {
        GateType.BUF,
        GateType.NOT,
        GateType.AND,
        GateType.NAND,
        GateType.OR,
        GateType.NOR,
        GateType.XOR,
        GateType.XNOR,
    }
)

#: The "meaningful" 2-input candidate functions the paper considers for a
#: missing gate (Section IV-A.3): AND, NAND, OR, NOR, XOR, XNOR.
CANDIDATE_TYPES = (
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
)


class GateArityError(ValueError):
    """Raised when a gate is built with an unsupported number of inputs."""


def _reduce_and(bits: Sequence[int]) -> int:
    # Seed from the first operand (not a constant) so word-parallel inputs
    # keep all their pattern bits.
    out = bits[0]
    for b in bits[1:]:
        out &= b
    return out


def _reduce_or(bits: Sequence[int]) -> int:
    out = 0
    for b in bits:
        out |= b
    return out


def _reduce_xor(bits: Sequence[int]) -> int:
    out = 0
    for b in bits:
        out ^= b
    return out


def min_arity(gate_type: GateType) -> int:
    """Smallest legal fan-in for *gate_type*.

    A 1-input LUT is legal in the netlist (it models a BUF/NOT replacement);
    physically it maps to the smallest manufactured cell, LUT2, with a tied
    pin (see :meth:`repro.techlib.stt.SttLibrary.lut`).
    """
    if gate_type in (GateType.CONST0, GateType.CONST1):
        return 0
    if gate_type in (GateType.BUF, GateType.NOT, GateType.DFF, GateType.LUT):
        return 1
    if gate_type in (GateType.INPUT,):
        return 0
    return 2


def max_arity(gate_type: GateType) -> int:
    """Largest legal fan-in for *gate_type* (LUTs are capped at 8)."""
    if gate_type in (GateType.CONST0, GateType.CONST1, GateType.INPUT):
        return 0
    if gate_type in (GateType.BUF, GateType.NOT, GateType.DFF):
        return 1
    if gate_type is GateType.LUT:
        return 8
    return 16


def check_arity(gate_type: GateType, n_inputs: int) -> None:
    """Raise :class:`GateArityError` unless *n_inputs* is legal."""
    lo, hi = min_arity(gate_type), max_arity(gate_type)
    if not lo <= n_inputs <= hi:
        raise GateArityError(
            f"{gate_type.value} gate cannot have {n_inputs} inputs "
            f"(allowed: {lo}..{hi})"
        )


def evaluate_gate(gate_type: GateType, inputs: Sequence[int]) -> int:
    """Evaluate a primitive gate on 0/1 inputs, returning 0 or 1.

    The same function works word-parallel: if the inputs are integer words
    whose bits carry independent patterns, the result carries the per-pattern
    outputs (callers mask to the desired width afterwards; inverting types
    return a value whose set bits beyond the pattern width must be masked by
    the caller).
    """
    if gate_type is GateType.CONST0:
        return 0
    if gate_type is GateType.CONST1:
        return ~0  # all-ones so every packed pattern reads 1; callers mask
    if gate_type in (GateType.BUF, GateType.DFF):
        return inputs[0]
    if gate_type is GateType.NOT:
        return ~inputs[0]
    if gate_type is GateType.AND:
        return _reduce_and(inputs)
    if gate_type is GateType.NAND:
        return ~_reduce_and(inputs)
    if gate_type is GateType.OR:
        return _reduce_or(inputs)
    if gate_type is GateType.NOR:
        return ~_reduce_or(inputs)
    if gate_type is GateType.XOR:
        return _reduce_xor(inputs)
    if gate_type is GateType.XNOR:
        return ~_reduce_xor(inputs)
    raise ValueError(f"gate type {gate_type} has no boolean function")


def truth_table(gate_type: GateType, n_inputs: int) -> int:
    """Truth table of a primitive *gate_type* at fan-in *n_inputs*.

    Returns an integer bitmask with ``2**n_inputs`` meaningful bits; bit ``i``
    is the output for input combination ``i`` (pin 0 = LSB of ``i``).
    """
    check_arity(gate_type, n_inputs)
    rows = 1 << n_inputs
    mask = 0
    for combo in range(rows):
        bits = [(combo >> pin) & 1 for pin in range(n_inputs)]
        if evaluate_gate(gate_type, bits) & 1:
            mask |= 1 << combo
    return mask


def truth_table_to_type(mask: int, n_inputs: int) -> "GateType | None":
    """Return the primitive gate type matching *mask*, or ``None``.

    Only standard candidate functions (plus BUF/NOT for 1-input masks and
    constants) are recognised; anything else is a "complex function" that
    only a LUT can realise.
    """
    rows = 1 << n_inputs
    full = (1 << rows) - 1
    mask &= full
    if mask == 0:
        return GateType.CONST0
    if mask == full:
        return GateType.CONST1
    if n_inputs == 1:
        return GateType.BUF if mask == 0b10 else GateType.NOT
    for gate_type in CANDIDATE_TYPES:
        if truth_table(gate_type, n_inputs) == mask:
            return gate_type
    return None


def candidate_tables(n_inputs: int) -> "dict[GateType, int]":
    """Truth tables of all meaningful candidate gates at *n_inputs* fan-in."""
    return {g: truth_table(g, n_inputs) for g in CANDIDATE_TYPES}


def similarity(mask_a: int, mask_b: int, n_inputs: int) -> int:
    """Number of input combinations on which two functions agree.

    This is the paper's *similarity* measure (Section IV-A.1): e.g. 2-input
    AND vs. NOR agree on two rows, AND vs. NAND on zero.
    """
    rows = 1 << n_inputs
    full = (1 << rows) - 1
    agree = ~(mask_a ^ mask_b) & full
    return bin(agree).count("1")


def format_truth_table(mask: int, n_inputs: int) -> str:
    """Render a truth-table mask as a row string, MSB combination first."""
    rows = 1 << n_inputs
    return "".join(str((mask >> i) & 1) for i in range(rows - 1, -1, -1))


def parse_gate_type(name: str) -> GateType:
    """Parse a gate-type keyword (case-insensitive) into a :class:`GateType`.

    Accepts ISCAS'89 spellings, including ``NOT``/``INV`` and ``BUFF``.
    """
    key = name.strip().upper()
    aliases = {"INV": "NOT", "BUFF": "BUF", "BUFFER": "BUF"}
    key = aliases.get(key, key)
    try:
        return GateType(key)
    except ValueError as exc:
        raise ValueError(f"unknown gate type {name!r}") from exc


def is_inverting(gate_type: GateType) -> bool:
    """True for gates whose all-zero-input output is 1 (NAND/NOR/NOT/XNOR)."""
    if gate_type in (GateType.NAND, GateType.NOR, GateType.NOT, GateType.XNOR):
        return True
    return False


def all_functions(n_inputs: int) -> Iterable[int]:
    """Iterate every truth table of *n_inputs* variables (2^2^n of them)."""
    rows = 1 << n_inputs
    for mask in range(1 << rows):
        yield mask
