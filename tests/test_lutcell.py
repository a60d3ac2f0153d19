"""Tests for LUT configuration-word manipulation."""

from __future__ import annotations

import itertools

import pytest

from repro.lut import (
    LutConfigError,
    config_mask,
    config_rows,
    depends_on_pin,
    expanded_candidate_space,
    permute_pins,
    restrict_pin,
    support,
    validate_config,
    widen_config,
)
from repro.netlist import (
    CANDIDATE_TYPES,
    GateType,
    candidate_tables,
    similarity,
    truth_table,
)


class TestBasics:
    def test_rows_and_mask(self):
        assert config_rows(3) == 8
        assert config_mask(2) == 0xF

    def test_validate(self):
        assert validate_config(0b1010, 2) == 0b1010
        with pytest.raises(LutConfigError):
            validate_config(0x10, 2)
        with pytest.raises(LutConfigError):
            validate_config(-1, 2)

    def test_config_from_gate(self):
        assert truth_table(GateType.AND, 2) == 0b1000


class TestWiden:
    def test_widen_ignores_new_pins(self):
        and2 = truth_table(GateType.AND, 2)
        wide = widen_config(and2, 2, 1)
        for row in range(8):
            low = row & 0b11
            assert (wide >> row) & 1 == (and2 >> low) & 1

    def test_widen_zero_is_identity(self):
        x = truth_table(GateType.XOR, 2)
        assert widen_config(x, 2, 0) == x

    def test_widen_twice(self):
        x = truth_table(GateType.OR, 2)
        assert widen_config(x, 2, 2) == widen_config(widen_config(x, 2, 1), 3, 1)

    def test_negative_extra_rejected(self):
        with pytest.raises(LutConfigError):
            widen_config(0b1000, 2, -1)

    def test_widened_pin_is_dont_care(self):
        wide = widen_config(truth_table(GateType.NAND, 2), 2, 2)
        assert not depends_on_pin(wide, 4, 2)
        assert not depends_on_pin(wide, 4, 3)
        assert depends_on_pin(wide, 4, 0)


class TestSupport:
    def test_support_of_primitive(self):
        assert support(truth_table(GateType.XOR, 3), 3) == [0, 1, 2]

    def test_support_after_widen(self):
        wide = widen_config(truth_table(GateType.AND, 2), 2, 1)
        assert support(wide, 3) == [0, 1]

    def test_constant_has_empty_support(self):
        assert support(0, 3) == []
        assert support(0xFF, 3) == []

    def test_bad_pin(self):
        with pytest.raises(LutConfigError):
            depends_on_pin(0b1000, 2, 5)


class TestPermute:
    def test_identity(self):
        x = truth_table(GateType.NAND, 3)
        assert permute_pins(x, 3, [0, 1, 2]) == x

    def test_symmetric_functions_invariant(self):
        for gate in CANDIDATE_TYPES:
            x = truth_table(gate, 3)
            for order in itertools.permutations(range(3)):
                assert permute_pins(x, 3, list(order)) == x

    def test_asymmetric_function_changes(self):
        # f = a AND (NOT b): mask rows where a=1,b=0 -> row 1 -> 0b0010
        asym = 0b0010
        swapped = permute_pins(asym, 2, [1, 0])
        assert swapped == 0b0100  # now b AND (NOT a)

    def test_permutation_is_involution_for_swap(self):
        asym = 0b0010
        assert permute_pins(permute_pins(asym, 2, [1, 0]), 2, [1, 0]) == asym

    def test_bad_order(self):
        with pytest.raises(LutConfigError):
            permute_pins(0b1000, 2, [0, 0])


class TestRestrict:
    def test_cofactors_of_and(self):
        and2 = truth_table(GateType.AND, 2)
        assert restrict_pin(and2, 2, 0, 0) == 0b00  # a=0 -> const 0
        assert restrict_pin(and2, 2, 0, 1) == 0b10  # a=1 -> b

    def test_cofactors_of_xor(self):
        xor2 = truth_table(GateType.XOR, 2)
        assert restrict_pin(xor2, 2, 1, 0) == 0b10  # b=0 -> a
        assert restrict_pin(xor2, 2, 1, 1) == 0b01  # b=1 -> NOT a


class TestCandidateSpaces:
    def test_meaningful_configs(self):
        configs = candidate_tables(2)
        assert len(configs) == 6
        assert configs[GateType.AND] == 0b1000

    def test_expanded_space_grows_with_width(self):
        base = expanded_candidate_space(2)
        wide = expanded_candidate_space(3)
        assert len(wide) > len(base)
        # Every base function, widened, is present in the wide space.
        for config in base:
            assert widen_config(config, 2, 1) in wide

    def test_expanded_space_much_larger_than_six(self):
        """The paper's countermeasure claim: a 4-input LUT is not limited to
        a handful of candidates."""
        assert len(expanded_candidate_space(4)) > 50


class TestHamming:
    """The Hamming distance of two tables is their row count minus
    :func:`similarity`."""

    def test_distance(self):
        assert 4 - similarity(0b1000, 0b0111, 2) == 4
        assert 4 - similarity(0b1010, 0b1010, 2) == 0

    def test_relation_to_similarity(self):
        a = truth_table(GateType.AND, 2)
        b = truth_table(GateType.NOR, 2)
        assert similarity(a, b, 2) == 4 - bin(a ^ b).count("1")
