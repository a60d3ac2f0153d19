"""LUT configuration-word manipulation.

A k-input LUT configuration is an integer with ``2**k`` bits, bit *row* being
the output for the input combination *row* (pin 0 = LSB of the row index) —
the same encoding :mod:`repro.netlist.gates` uses for truth tables.  The
functions here support the paper's search-space-expansion measures:
widening a function with don't-care pins, permuting pins, and enumerating
the expanded candidate space an attacker must consider.  The candidate
gate functions themselves, and the similarity of two tables, are
:func:`repro.netlist.gates.candidate_tables` and
:func:`repro.netlist.gates.similarity`.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence, Set

from ..netlist.gates import CANDIDATE_TYPES, truth_table


class LutConfigError(ValueError):
    """Raised on malformed LUT configuration operations."""


def config_rows(n_inputs: int) -> int:
    return 1 << n_inputs


def config_mask(n_inputs: int) -> int:
    return (1 << config_rows(n_inputs)) - 1


def validate_config(config: int, n_inputs: int) -> int:
    """Return *config* if it fits *n_inputs*, else raise."""
    if config < 0 or config > config_mask(n_inputs):
        raise LutConfigError(
            f"config 0x{config:X} does not fit a {n_inputs}-input LUT"
        )
    return config




def widen_config(config: int, n_inputs: int, extra: int) -> int:
    """Add *extra* don't-care MSB pins: the function ignores them.

    The table is replicated once per added pin, so the widened LUT computes
    the original function of its low pins for any value of the new pins.
    """
    validate_config(config, n_inputs)
    if extra < 0:
        raise LutConfigError("extra must be non-negative")
    for width in range(n_inputs, n_inputs + extra):
        config = config | (config << config_rows(width))
    return config


def depends_on_pin(config: int, n_inputs: int, pin: int) -> bool:
    """True when the function's output changes with *pin* for some row."""
    validate_config(config, n_inputs)
    if not 0 <= pin < n_inputs:
        raise LutConfigError(f"no pin {pin} on a {n_inputs}-input LUT")
    for row in range(config_rows(n_inputs)):
        if (row >> pin) & 1:
            continue
        paired = row | (1 << pin)
        if ((config >> row) & 1) != ((config >> paired) & 1):
            return True
    return False


def support(config: int, n_inputs: int) -> List[int]:
    """Pins the function actually depends on."""
    return [
        pin for pin in range(n_inputs) if depends_on_pin(config, n_inputs, pin)
    ]


def permute_pins(config: int, n_inputs: int, order: Sequence[int]) -> int:
    """Reorder pins: new pin *i* reads what old pin ``order[i]`` read."""
    validate_config(config, n_inputs)
    if sorted(order) != list(range(n_inputs)):
        raise LutConfigError(f"bad pin permutation {order!r}")
    out = 0
    for row in range(config_rows(n_inputs)):
        old_row = 0
        for new_pin, old_pin in enumerate(order):
            if (row >> new_pin) & 1:
                old_row |= 1 << old_pin
        if (config >> old_row) & 1:
            out |= 1 << row
    return out


def restrict_pin(config: int, n_inputs: int, pin: int, value: int) -> int:
    """Cofactor: the (k-1)-input function with *pin* tied to *value*."""
    validate_config(config, n_inputs)
    out = 0
    new_row = 0
    for row in range(config_rows(n_inputs)):
        if ((row >> pin) & 1) != value:
            continue
        if (config >> row) & 1:
            out |= 1 << new_row
        new_row += 1
    return out




def expanded_candidate_space(n_inputs: int, max_base_inputs: int = None) -> Set[int]:
    """All configurations a k-input STT LUT could plausibly hold, per the
    paper's expansion argument: any meaningful gate of arity 2..k placed on
    any pin subset (unused pins become don't-cares), plus pin permutations.

    This is the search space a machine-learning/brute-force attacker faces
    when the defender applies the widening countermeasure.
    """
    max_base = max_base_inputs or n_inputs
    space: Set[int] = set()
    for base_inputs in range(2, max_base + 1):
        if base_inputs > n_inputs:
            break
        for gate_type in CANDIDATE_TYPES:
            base = truth_table(gate_type, base_inputs)
            widened = widen_config(base, base_inputs, n_inputs - base_inputs)
            for order in itertools.permutations(range(n_inputs)):
                space.add(permute_pins(widened, n_inputs, list(order)))
    return space
