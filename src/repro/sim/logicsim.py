"""Bit-parallel levelized logic simulation.

Patterns are packed into Python integers: a *word* carries one bit per
pattern, so a single pass over the netlist evaluates ``width`` patterns at
once.  This is the engine behind power-activity estimation, the attack
oracle, and functional equivalence spot-checks.

Two backends are available (see :data:`BACKENDS`):

* ``"compiled"`` (default) — per-netlist generated straight-line kernels
  (:mod:`repro.sim.compiled`); bit-identical to the interpreter and ≥5×
  faster on the attack/analysis hot path.
* ``"interpreted"`` — the reference per-gate loop, kept as the parity
  baseline and selectable per call with ``backend="interpreted"``.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from ..netlist.gates import GateType, evaluate_gate
from ..netlist.graph import combinational_order
from ..netlist.netlist import Netlist, NetlistError

#: Recognised simulation backends.
BACKENDS = ("compiled", "interpreted")

#: Backend used when a simulator is built without ``backend=``.
DEFAULT_BACKEND = "compiled"


def _eval_lut_word(config: int, fanin_words: Sequence[int], mask: int) -> int:
    """Evaluate a LUT on word-parallel inputs.

    For every truth-table row whose config bit is 1, accumulate the patterns
    on which the inputs select that row.  Per-pin complement words are
    precomputed once (not per row), and all-zeros/all-ones configurations
    short-circuit.
    """
    n = len(fanin_words)
    rows = 1 << n
    full = (1 << rows) - 1
    config &= full
    if config == 0:
        return 0
    if config == full:
        return mask
    complements = [word ^ mask for word in fanin_words]
    out = 0
    for row in range(rows):
        if not (config >> row) & 1:
            continue
        hit = mask
        for pin in range(n):
            hit &= fanin_words[pin] if (row >> pin) & 1 else complements[pin]
            if not hit:
                break
        out |= hit
    return out & mask


class CombinationalSimulator:
    """Evaluates the combinational logic of a netlist word-parallel.

    DFF outputs are treated as pseudo-inputs (current state); DFF inputs
    appear in the result so a sequential wrapper can latch next-state.

    *backend* selects the evaluation engine (:data:`BACKENDS`); the
    compiled backend transparently recompiles if the netlist structure
    mutates, while the interpreted backend keeps the evaluation order
    snapshotted at construction.
    """

    def __init__(self, netlist: Netlist, backend: Optional[str] = None):
        backend = backend or DEFAULT_BACKEND
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown simulation backend {backend!r}; choose from {BACKENDS}"
            )
        self.netlist = netlist
        self.backend = backend
        self._order = combinational_order(netlist)

    def evaluate(
        self,
        inputs: Mapping[str, int],
        state: Optional[Mapping[str, int]] = None,
        width: int = 1,
        overrides: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, int]:
        """Compute every net value for ``width`` packed patterns.

        Args:
            inputs: primary-input net -> packed word.
            state: DFF output net -> packed word (defaults to all zero).
            width: number of patterns packed per word.
            overrides: nets forced to a fixed word regardless of their logic
                (fault-injection / hypothesis testing); downstream logic sees
                the forced value.

        Returns a dict covering every net (inputs and DFF outputs included).
        """
        if self.backend == "compiled":
            from .compiled import get_program

            return get_program(self.netlist).evaluate(
                inputs, state, width, overrides
            )
        mask = (1 << width) - 1
        values: Dict[str, int] = {}
        state = state or {}
        overrides = overrides or {}
        for pi in self.netlist.inputs:
            if pi not in inputs:
                raise NetlistError(f"missing value for primary input {pi!r}")
            values[pi] = inputs[pi] & mask
        for ff in self.netlist.flip_flops:
            values[ff] = state.get(ff, 0) & mask
        for name, forced in overrides.items():
            if name in values:
                values[name] = forced & mask
        for name in self._order:
            if name in overrides:
                values[name] = overrides[name] & mask
                continue
            node = self.netlist.node(name)
            fanin_words = [values[src] for src in node.fanin]
            if node.gate_type is GateType.LUT:
                if node.lut_config is None:
                    raise NetlistError(
                        f"cannot simulate unprogrammed LUT {name!r}"
                    )
                values[name] = _eval_lut_word(node.lut_config, fanin_words, mask)
            else:
                values[name] = evaluate_gate(node.gate_type, fanin_words) & mask
        return values

    def outputs(
        self,
        inputs: Mapping[str, int],
        state: Optional[Mapping[str, int]] = None,
        width: int = 1,
    ) -> Dict[str, int]:
        """Primary-output values only."""
        values = self.evaluate(inputs, state, width)
        return {po: values[po] for po in self.netlist.outputs}

    def next_state(
        self,
        inputs: Mapping[str, int],
        state: Optional[Mapping[str, int]] = None,
        width: int = 1,
    ) -> Dict[str, int]:
        """Values presented at DFF D pins (the next state)."""
        values = self.evaluate(inputs, state, width)
        return {
            ff: values[self.netlist.node(ff).fanin[0]]
            for ff in self.netlist.flip_flops
        }


def random_words(
    names: Iterable[str], width: int, rng: random.Random
) -> Dict[str, int]:
    """A packed random pattern word for each name."""
    return {name: rng.getrandbits(width) for name in names}


def unpack(word: int, width: int) -> List[int]:
    """Expand a packed word into a list of 0/1 pattern bits."""
    return [(word >> i) & 1 for i in range(width)]


def pack(bits: Sequence[int]) -> int:
    """Pack 0/1 bits (pattern 0 first) into a word."""
    word = 0
    for i, bit in enumerate(bits):
        word |= (bit & 1) << i
    return word


def exhaustive_input_words(netlist: Netlist) -> Dict[str, int]:
    """All 2^n input combinations packed into one word per input.

    Only sensible for small input counts (n ≤ 20); the returned words have
    width ``2**n`` and input *i* alternates in blocks of ``2**i``.  Each
    word is produced closed-form: dividing the all-ones word by
    ``2**block + 1`` yields alternating zero/one blocks (ones in the even
    block positions), which shifted up by one block puts the ones exactly
    where bit *i* of the pattern index is 1.
    """
    n = len(netlist.inputs)
    if n > 20:
        raise NetlistError(f"{n} inputs is too many for exhaustive packing")
    width = 1 << n
    words: Dict[str, int] = {}
    for i, pi in enumerate(netlist.inputs):
        block = 1 << i
        words[pi] = ((1 << width) - 1) // ((1 << block) + 1) << block
    return words
